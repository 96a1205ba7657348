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
import os

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
