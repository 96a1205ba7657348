"""Byte-exact CLI output on the shipped data files.

Each case's stdout is stored in tests/data/golden/<name>.out.  The files
were recorded by running the listed command with `python -m ndga.cli` and
redirecting stdout; a change that alters any verdict, coefficient or line
order shows up here.  Re-record a file only when an output change is
intended, and say so with the change.

Each rejected input's stderr is stored the same way in
tests/data/golden/<name>.err, recorded from tests/data so that the quoted
paths are relative; the inputs are in tests/data/bad.
"""

import io
import json
import os
import subprocess
import sys

import pytest

from ndga import cli

from conftest import DATA_DIR

GOLDEN_DIR = os.path.join(DATA_DIR, "golden")

# (name, argv); "@file" arguments name files in tests/data
CASES = [
    ("flatness_rotation", ["flatness", "@rotation.conn"]),
    ("flatness_triangular_pair", ["flatness", "@triangular_pair.conn"]),
    ("flatness_generic_c08", ["flatness", "@generic_c08.conn"]),
    ("flatness_trig_pair", ["flatness", "@trig_pair.conn"]),
    ("riemann_sphere_torus", ["riemann", "@sphere_torus.metric"]),
    ("riemann_round_sphere3", ["riemann", "@round_sphere3.metric"]),
    ("riemann_supplied_inverse", ["riemann", "@supplied_inverse.metric"]),
    ("riemann_quotient", ["riemann", "@quotient.metric"]),
    ("riemann_diag_trig", ["riemann", "@diag_trig.metric"]),
    ("riemann_warped_sphere3", ["riemann", "@warped_sphere3.metric"]),
    # a dimension-8 product of a curved sphere with curved and flat factors
    ("riemann_product8", ["riemann", "@product8.metric"]),
    # coefficients over the denominators 2 and 3, one Gamma a quotient
    ("riemann_mixed_denominators", ["riemann", "@mixed_denominators.metric"]),
    # a rational metric with a supplied rational inverse, over det^0
    ("riemann_rational_inverse", ["riemann", "@rational_inverse.metric"]),
    ("knflat_expand", ["knflat", "expand", "--N", "5", "--K", "3"]),
    ("knflat_expand_infinitesimal",
     ["knflat", "expand", "--N", "5", "--K", "3", "--infinitesimal"]),
    ("knflat_expand_n10", ["knflat", "expand", "--N", "10", "--K", "4"]),
    ("depth_nilpotency", ["depth-forms", "--profile", "3,2", "nilpotency"]),
    ("depth_nilpotency_443", ["depth-forms", "--profile", "4,4,3", "nilpotency"]),
    ("depth_table", ["depth-forms", "--profile", "3,2", "table"]),
    ("depth_diff", ["depth-forms", "--profile", "3,2", "diff",
                    "x1^2*x2*dx1 - 3*sin(x2)*d2x1 + x1*x2*dx2"]),
    # odd and even depths side by side: d3x1 and dx3 anticommute, d2x2 commutes
    ("depth_table_443", ["depth-forms", "--profile", "4,4,3", "table"]),
    ("depth_diff_443", ["depth-forms", "--profile", "4,4,3", "diff",
                        "x1*x3^2*d3x1 - 2*x2^2*x3*d2x2 + x1*x2*dx3"
                        " + x3*dx1*d2x2 - x1*x2^2*d2x1*dx3"]),
    ("ncomplex_validate", ["ncomplex", "validate", "@chain_identity.ncx"]),
    ("ncomplex_cohomology", ["ncomplex", "cohomology", "@chain_identity.ncx"]),
    ("ncomplex_tensor",
     ["ncomplex", "tensor", "@chain_identity.ncx", "@chain_identity.ncx"]),
    ("cs_lagrangian", ["cs-lagrangian", "3"]),
]


# (name, argv, exit code), run from tests/data
ERROR_CASES = [
    ("error_swapped_headers", ["flatness", "bad/swapped_headers.conn"], 1),
    ("error_asymmetric_metric", ["riemann", "bad/asymmetric.metric"], 1),
    ("error_short_row_metric", ["riemann", "bad/short_row.metric"], 1),
    ("error_wrong_inverse", ["riemann", "bad/wrong_inverse.metric"], 1),
    ("error_missing_rows", ["ncomplex", "cohomology", "bad/missing_rows.ncx"], 1),
    ("error_missing_file", ["flatness", "bad/missing.conn"], 1),
]


def resolve(argv):
    return [os.path.join(DATA_DIR, a[1:]) if a.startswith("@") else a for a in argv]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv):
    out = io.StringIO()
    assert cli.main(resolve(argv), out=out) == 0
    with open(os.path.join(GOLDEN_DIR, f"{name}.out"), "rb") as handle:
        expected = handle.read()
    assert out.getvalue().encode("utf-8") == expected


@pytest.mark.parametrize("name, argv, code", ERROR_CASES, ids=[name for name, _, _ in ERROR_CASES])
def test_cli_error_matches_golden(name, argv, code, monkeypatch, capsys):
    monkeypatch.chdir(DATA_DIR)
    out = io.StringIO()
    assert cli.main(argv, out=out) == code
    assert out.getvalue() == ""
    with open(os.path.join(GOLDEN_DIR, f"{name}.err"), "rb") as handle:
        expected = handle.read()
    assert capsys.readouterr().err.encode("utf-8") == expected


# Runs CLI calls in a fresh interpreter after expanding the prelude texts,
# and prints each call's stdout and charged term products, and the atom
# table in slot order.
ORDER_SCRIPT = """
import io, json, sys
from ndga import cli, scalar
spec = json.load(sys.stdin)
for text in spec["prelude"]:
    scalar.expand(text)
charged = [0]
charge = scalar._charge

def counting(work):
    charged[0] += work
    charge(work)

scalar._charge = counting
outputs, charges = {}, {}
for name, argv in spec["cases"]:
    charged[0] = 0
    out = io.StringIO()
    assert cli.main(argv, out=out) == 0
    outputs[name], charges[name] = out.getvalue(), charged[0]
atoms = [scalar.render(scalar.TrigPoly.atom(atom)) for atom in scalar._ATOMS]
print(json.dumps({"outputs": outputs, "charges": charges, "atoms": atoms}))
"""


def run_fresh(prelude, cases):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", ORDER_SCRIPT], env=env, text=True,
                          input=json.dumps({"prelude": prelude, "cases": cases}),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# term products charged to each flatness and riemann golden when every
# pair with a zero factor was charged one; no golden may be charged more
ZERO_PAIR_CHARGES = {
    "flatness_rotation": 3,
    "flatness_triangular_pair": 16,
    "flatness_generic_c08": 1541,
    "flatness_trig_pair": 23,
    "riemann_sphere_torus": 230,
    "riemann_round_sphere3": 2579,
    "riemann_supplied_inverse": 50,
    "riemann_quotient": 96,
    "riemann_diag_trig": 39209,
    "riemann_warped_sphere3": 2583,
    "riemann_product8": 17312,
    "riemann_mixed_denominators": 98,
    "riemann_rational_inverse": 53,
}

# term products charged to each flatness and riemann golden once a product
# with a zero factor is charged nothing; no golden may be charged more
GOLDEN_CHARGES = {
    "flatness_rotation": 3,
    "flatness_triangular_pair": 1,
    "flatness_generic_c08": 1529,
    "flatness_trig_pair": 11,
    "riemann_sphere_torus": 97,
    "riemann_round_sphere3": 2438,
    "riemann_supplied_inverse": 50,
    "riemann_quotient": 83,
    "riemann_diag_trig": 38321,
    "riemann_warped_sphere3": 2442,
    "riemann_product8": 843,
    "riemann_mixed_denominators": 85,
    "riemann_rational_inverse": 53,
}


def test_goldens_do_not_depend_on_atom_order():
    # monomials pack exponents in the order atoms were first met; interning
    # every golden's atoms in reverse order first must change no byte of
    # output and no charge
    cases = [(name, resolve(argv)) for name, argv in CASES if argv[0] in ("riemann", "flatness")]
    clean = run_fresh([], cases)
    reverse = run_fresh(clean["atoms"][::-1], cases)
    assert reverse["atoms"] != clean["atoms"]
    assert sorted(reverse["atoms"]) == sorted(clean["atoms"])
    assert reverse["charges"] == clean["charges"]
    assert sorted(clean["charges"]) == sorted(ZERO_PAIR_CHARGES)
    assert sorted(GOLDEN_CHARGES) == sorted(ZERO_PAIR_CHARGES)
    for name, charge in clean["charges"].items():
        assert charge <= GOLDEN_CHARGES[name] <= ZERO_PAIR_CHARGES[name], name
    # the charge of riemann_product8 before its curvature moved onto forms
    assert clean["charges"]["riemann_product8"] <= 2437
    assert reverse["outputs"] == clean["outputs"]
    for name, _ in cases:
        with open(os.path.join(GOLDEN_DIR, f"{name}.out"), "rb") as handle:
            assert reverse["outputs"][name].encode("utf-8") == handle.read()
