import io
import math
import os
import random
import subprocess
import sys
import time

import pytest

from ndga import cli, depth, riemann, scalar


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def run_usage_error(argv):
    with pytest.raises(SystemExit) as exit_info:
        run(argv)
    return exit_info.value.code


# ------------------------------------------------------------------
# cs-lagrangian
# ------------------------------------------------------------------

def test_cs_lagrangian_k2():
    code, text = run(["cs-lagrangian", "2"])
    assert code == 0
    assert text.splitlines() == ["4/3 w*dw^2", "2 w^3*dw", "4/5 w^5"]


def test_cs_lagrangian_k1():
    code, text = run(["cs-lagrangian", "1"])
    assert code == 0
    assert text.splitlines() == ["1 w*dw", "2/3 w^3"]


def test_cs_lagrangian_rejects_zero():
    assert run_usage_error(["cs-lagrangian", "0"]) == 2


def test_cs_lagrangian_rejects_large():
    assert run_usage_error(["cs-lagrangian", "7"]) == 2


# ------------------------------------------------------------------
# flatness
# ------------------------------------------------------------------

def test_flatness_of_rotation_file(data_path):
    code, text = run(["flatness", data_path("rotation.conn")])
    assert code == 0
    assert text.strip() == "4-flat"


def test_flatness_of_triangular_file(data_path):
    code, text = run(["flatness", data_path("triangular_pair.conn")])
    assert code == 0
    assert text.strip() == "4-flat"


def test_flatness_of_zero_connection(tmp_path):
    path = tmp_path / "zero.conn"
    path.write_text("base 3\nfiber 1\n")
    code, text = run(["flatness", str(path)])
    assert code == 0
    assert text.strip() == "2-flat"


@pytest.mark.parametrize("cell, expected", [
    # F = d_1 omega_2 dx1 ^ dx2 is nonzero, though its terms underflow
    ("*".join(["x1^512"] * 20) + "*sin(x1)", "3-flat"),
    # omega = 0, though its terms are subnormal at the sample points
    ("x1^512*x1^512*x1^96*(sin(2*x1) - 2*sin(x1)*cos(x1))", "2-flat"),
], ids=["underflowing", "subnormal"])
def test_flatness_below_the_float_range(tmp_path, cell, expected):
    path = tmp_path / "tiny.conn"
    path.write_text(f"base 2\nfiber 1\nomega 1\n0\nomega 2\n{cell}\n")
    assert run(["flatness", str(path)]) == (0, expected + "\n")


def test_flatness_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.conn"
    path.write_text("base 2\nfiber 1\nomega 1\nsin(\n")
    code, _ = run(["flatness", str(path)])
    assert code == 1


def test_flatness_missing_file():
    code, _ = run(["flatness", "/nonexistent/file.conn"])
    assert code == 1


def test_flatness_bounded_search(tmp_path, data_path):
    code, text = run(["flatness", data_path("rotation.conn"), "--max-N", "3"])
    assert code == 0
    assert text.strip() == "not flat up to 3"


# ------------------------------------------------------------------
# riemann
# ------------------------------------------------------------------

def test_riemann_of_sphere_torus(data_path):
    code, text = run(["riemann", data_path("sphere_torus.metric")])
    assert code == 0
    lines = text.splitlines()
    assert lines[-1] == "4-flat"
    assert any(line.startswith("Gamma^2_11") for line in lines)
    assert any(line.startswith("R[dx1^dx2]") for line in lines)


def test_riemann_identity_metric(tmp_path):
    path = tmp_path / "flat.metric"
    path.write_text("dim 2\n1;0\n0;1\n")
    code, text = run(["riemann", str(path)])
    assert code == 0
    assert text.strip() == "2-flat"


def test_riemann_non_symmetric_rejected(tmp_path):
    path = tmp_path / "bad.metric"
    path.write_text("dim 2\n1;x1\n0;1\n")
    code, _ = run(["riemann", str(path)])
    assert code == 1


# ------------------------------------------------------------------
# knflat
# ------------------------------------------------------------------

def test_knflat_worked_expansion():
    code, text = run(["knflat", "expand", "--N", "3", "--K", "3"])
    assert code == 0
    assert text.splitlines() == [
        "c0 = d2(w) + d(w)*w + w^3",
        "c1 = d(w) + w^2",
        "c2 = w",
    ]


def test_knflat_infinitesimal():
    code, text = run(["knflat", "expand", "--N", "3", "--K", "3", "--infinitesimal"])
    assert code == 0
    assert text.splitlines() == ["c0 = d2(w)", "c1 = d(w)", "c2 = w"]


def test_knflat_first_order_infinitesimal():
    # N = 1 has one coefficient, c0 = w, with or without the t-filter
    for extra in ([], ["--infinitesimal"]):
        code, text = run(["knflat", "expand", "--N", "1", "--K", "2"] + extra)
        assert code == 0
        assert text.splitlines() == ["c0 = w"]


def test_knflat_usage_error():
    assert run_usage_error(["knflat", "expand", "--N", "0", "--K", "3"]) == 2


def test_knflat_largest_order():
    code, text = run(["knflat", "expand", "--N", "16", "--K", "3", "--infinitesimal"])
    assert code == 0
    # at even N only d(w) survives, with coefficient N/2
    assert text.splitlines()[-3:] == ["c13 = 0", "c14 = 8*d(w)", "c15 = 0"]


# ------------------------------------------------------------------
# depth-forms
# ------------------------------------------------------------------

def test_depth_nilpotency_single_variable():
    code, text = run(["depth-forms", "--profile", "3", "nilpotency"])
    assert code == 0
    assert text.strip() == "3"


def test_depth_nilpotency_mixed_profile():
    code, text = run(["depth-forms", "--profile", "3,2", "nilpotency"])
    assert code == 0
    assert text.strip() == "4"


def test_depth_nilpotency_beyond_the_probe_budget():
    assert run(["depth-forms", "--profile", "7,7", "nilpotency"]) == (0, "13\n")
    assert run(["depth-forms", "--profile", "8,8,8", "nilpotency"]) == (0, "20\n")


def test_depth_nilpotency_applies_no_differential(monkeypatch):
    def refuse(form):
        raise AssertionError("differential called")

    monkeypatch.setattr(depth, "differential", refuse)
    assert run(["depth-forms", "--profile", "4,4,3", "nilpotency"]) == (0, "8\n")


def test_depth_table():
    code, text = run(["depth-forms", "--profile", "2,2", "table"])
    assert code == 0
    assert "dx1 * dx2 = +" in text
    assert "dx2 * dx1 = -" in text
    assert "dx1 * dx1 = 0" in text


def test_depth_diff():
    code, text = run(["depth-forms", "--profile", "4", "diff", "x1*dx1"])
    assert code == 0
    assert text.strip() == "x1*d2x1"


def test_depth_diff_refuses_a_wide_trig_coefficient():
    # sin(u)^512 expands to 257 terms under sin^2 u = 1 - cos^2 u, so this
    # coefficient would hold 257^3 terms
    start = time.perf_counter()
    proc = run_module("depth-forms", "--profile", "2,2,2", "diff",
                      "sin(x1)^512*sin(x2)^512*sin(x3)^512*dx1")
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "expands to more than 1000 terms" in proc.stderr


def test_depth_bad_profile():
    code, _ = run(["depth-forms", "--profile", "1", "nilpotency"])
    assert code == 1


def test_profile_digits_are_ascii(capsys):
    # int() takes '1_0' as 10 and the Arabic-Indic '١' as 1
    for profile in ("3,1_0", "3,١", "3,²"):
        assert run(["depth-forms", "--profile", profile, "nilpotency"]) == (1, "")
        assert capsys.readouterr().err == \
            f"error: bad profile {profile!r}; expected integers like 3,2\n"
    assert run(["depth-forms", "--profile", " 3 , +2", "nilpotency"]) == (0, "4\n")


def test_depth_diff_of_a_negated_generator():
    assert run(["depth-forms", "--profile", "3,2", "diff", "--", "-dx1"]) == (0, "-d2x1\n")
    assert run(["depth-forms", "--profile", "3,2", "diff", "x1*x2 + -dx1"]) == \
        (0, "x2*dx1 - d2x1 + x1*dx2\n")


def test_depth_diff_reads_a_leading_minus_as_the_expression():
    # the CLI's own output may start with '-', and goes back in without '--'
    code, text = run(["depth-forms", "--profile", "3,2", "diff", "-x1^2*dx2"])
    assert (code, text) == (0, "-2*x1*dx1*dx2\n")
    again = run(["depth-forms", "--profile", "3,2", "diff", text.strip()])
    assert again == run(["depth-forms", "--profile", "3,2", "diff", "--", text.strip()])
    assert again[0] == 0


def test_depth_diff_reads_a_sign_after_a_star():
    # the scalar grammar reads x1*-2 as -2*x1, and so does a depth form
    assert run(["depth-forms", "--profile", "3,2", "diff", "x1*-2*dx2"]) == (0, "-2*dx1*dx2\n")


@pytest.mark.parametrize("signed, unsigned", [
    ("+x1*dx2", "x1*dx2"), ("dx1 + +dx2", "dx1 + dx2"), ("dx1*+dx2", "dx1*dx2"),
])
def test_depth_diff_reads_a_plus_sign(signed, unsigned):
    argv = ["depth-forms", "--profile", "3,2", "diff", "--"]
    assert run(argv + [signed]) == run(argv + [unsigned])
    assert run(argv + [signed])[0] == 0


# ------------------------------------------------------------------
# ncomplex
# ------------------------------------------------------------------

def test_ncomplex_validate(data_path):
    code, text = run(["ncomplex", "validate", data_path("chain_identity.ncx")])
    assert code == 0
    assert "valid 3-complex" in text


def test_ncomplex_validate_failure(tmp_path):
    path = tmp_path / "bad.ncx"
    path.write_text("N 2\ndeg 0 dim 1\n1\ndeg 1 dim 1\n1\ndeg 2 dim 1\n")
    code, _ = run(["ncomplex", "validate", str(path)])
    assert code == 1


def test_ncomplex_cohomology_table(data_path):
    code, text = run(["ncomplex", "cohomology", data_path("chain_identity.ncx")])
    assert code == 0
    lines = text.splitlines()
    assert "H[p=1, i=1] = 0" in lines
    assert "H[p=2, i=1] = 0" in lines


def test_ncomplex_tensor(data_path):
    path = data_path("chain_identity.ncx")
    code, text = run(["ncomplex", "tensor", path, path])
    assert code == 0
    assert text.strip() == "tensor nilpotency 5 (bound 5, koszul sign on)"


# (file, validate output, cohomology table): a map out of a zero-dimensional
# degree has rows of no entries, which a file cannot hold, so it is given
# by no rows
ZERO_DIMENSIONAL_SOURCES = {
    "first": ("N 2\ndeg 0 dim 0\ndeg 1 dim 1\n", "valid 2-complex, degrees 0..1",
              ["H[p=1, i=0] = 0", "H[p=1, i=1] = 1", "total[m=-1] = 0", "total[m=1] = 1"]),
    "middle": ("N 3\ndeg 0 dim 1\ndeg 1 dim 0\ndeg 2 dim 1\n", "valid 3-complex, degrees 0..2",
               ["H[p=1, i=0] = 1", "H[p=2, i=0] = 1", "H[p=1, i=1] = 0", "H[p=2, i=1] = 0",
                "H[p=1, i=2] = 1", "H[p=2, i=2] = 1", "total[m=-2] = 1", "total[m=-1] = 1",
                "total[m=0] = 0", "total[m=1] = 0", "total[m=2] = 1", "total[m=3] = 1"]),
}


@pytest.mark.parametrize("name", sorted(ZERO_DIMENSIONAL_SOURCES))
def test_a_map_out_of_a_zero_dimensional_degree_needs_no_rows(tmp_path, name):
    text, valid, table = ZERO_DIMENSIONAL_SOURCES[name]
    path = tmp_path / f"{name}.ncx"
    path.write_text(text)
    assert run(["ncomplex", "validate", str(path)]) == (0, valid + "\n")
    assert run(["ncomplex", "cohomology", str(path)]) == (0, "\n".join(table) + "\n")


def identity_chain(n):
    """N 4, degrees 0..3 of dimension n and identity maps: 3n nonzero
    entries, and every cohomology value 0."""
    lines = ["N 4"]
    for degree in range(4):
        lines.append(f"deg {degree} dim {n}")
        if degree < 3:
            lines += [" ".join("1" if i == j else "0" for j in range(n)) for i in range(n)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [40, 100, 300])
def test_a_sparse_identity_chain_is_answered(tmp_path, n):
    # refused for work above the budget while linalg charged every entry of
    # a dense product and every row at every pivot, zeros included
    path = tmp_path / f"chain{n}.ncx"
    path.write_text(identity_chain(n))
    outputs = {}
    for command in ("validate", "cohomology"):
        start = time.perf_counter()
        proc = run_module("ncomplex", command, str(path))
        assert time.perf_counter() - start < 1
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs[command] = proc.stdout.splitlines()
    assert outputs["validate"] == ["valid 4-complex, degrees 0..3"]
    assert len(outputs["cohomology"]) == 12 + 9
    assert all(line.endswith("] = 0") for line in outputs["cohomology"])


# ------------------------------------------------------------------
# determinism
# ------------------------------------------------------------------

def test_output_is_reproducible(data_path):
    runs = [run(["riemann", data_path("sphere_torus.metric")]) for _ in range(2)]
    assert runs[0] == runs[1]
    seeded = [
        run(["--seed", "12345", "riemann", data_path("sphere_torus.metric")])
        for _ in range(2)
    ]
    assert seeded[0] == seeded[1]


# ------------------------------------------------------------------
# running the module
# ------------------------------------------------------------------

def module_env():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_module(*args):
    return subprocess.run(
        [sys.executable, "-m", "ndga.cli", *args],
        env=module_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )


@pytest.mark.parametrize("args", [["knflat", "expand", "--N", "16", "--K", "2"],
                                  ["cs-lagrangian", "1"]], ids=["long", "short"])
def test_a_closed_stdout_ends_without_a_traceback(args):
    # as `ndga ... | head -c 100` closes it: the reader is gone before the
    # first write, which a long output makes inside main and a short one at
    # the flush after it
    proc = subprocess.Popen([sys.executable, "-m", "ndga.cli", *args], env=module_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def test_module_without_arguments_is_a_usage_error():
    proc = run_module()
    assert proc.returncode == 2
    assert "usage: ndga" in proc.stderr


def test_module_runs_a_subcommand(data_path):
    proc = run_module("flatness", data_path("rotation.conn"))
    assert proc.returncode == 0
    assert proc.stdout == "4-flat\n"


def test_seed_does_not_leak_into_the_next_call(data_path):
    run(["--seed", "5", "flatness", data_path("rotation.conn")])
    run(["flatness", data_path("rotation.conn")])
    assert scalar._zero_seed == scalar.DEFAULT_ZERO_SEED


def test_a_call_restores_the_seed_it_found(data_path):
    run(["--seed", "5", "flatness", data_path("rotation.conn")])
    assert scalar._zero_seed == scalar.DEFAULT_ZERO_SEED
    scalar.set_zero_seed(9)
    try:
        run(["flatness", data_path("trig_pair.conn")])
        assert scalar._zero_seed == 9
    finally:
        scalar.set_zero_seed(scalar.DEFAULT_ZERO_SEED)


def test_a_call_inside_a_budget_charges_the_enclosing_scope(data_path, monkeypatch):
    argv = ["flatness", data_path("generic_c08.conn")]
    charges = []
    with monkeypatch.context() as patch:
        patch.setattr(scalar, "_charge", charges.append)
        assert run(argv) == (0, "5-flat\n")
    assert sum(charges) > 0
    with scalar.work_budget():
        assert run(argv) == (0, "5-flat\n")
        assert scalar._work_left == scalar.WORK_BUDGET - sum(charges)
    assert scalar._work_left == math.inf


def test_usage_error_leaves_no_state_for_the_next_call(data_path, capsys):
    bad = ["knflat", "expand", "--N", "0", "--K", "4"]
    good = ["riemann", data_path("sphere_torus.metric")]
    assert run_usage_error(bad) == 2
    usage = capsys.readouterr().err
    assert run(good) == (0, run_module(*good).stdout)
    fresh = run_module(*bad)
    assert (fresh.returncode, fresh.stderr) == (2, usage)


def test_one_parser_serves_every_call(data_path, capsys):
    # each call matches a fresh interpreter, usage errors included, and the
    # parser is built once for all of them
    cli._build_parser.cache_clear()
    trig = data_path("trig_pair.conn")
    calls = [
        ["ncomplex", "nonsense"],
        ["knflat", "expand", "--N", "0", "--K", "4"],
        ["--seed", "7", "flatness", trig],
        ["flatness", trig],
        ["riemann", data_path("sphere_torus.metric")],
    ]
    codes = []
    for argv in calls:
        out = io.StringIO()
        try:
            codes.append(cli.main(argv, out=out))
        except SystemExit as exit_info:
            codes.append(exit_info.code)
        fresh = run_module(*argv)
        assert (codes[-1], out.getvalue(), capsys.readouterr().err) == (
            fresh.returncode, fresh.stdout, fresh.stderr)
    assert codes == [2, 2, 0, 0, 0]
    assert scalar._zero_seed == scalar.DEFAULT_ZERO_SEED
    assert cli._build_parser.cache_info().misses == 1


def test_overflowing_entry_is_an_input_error(tmp_path):
    path = tmp_path / "huge.conn"
    path.write_text("base 2\nfiber 1\nomega 1\nsin(10^400*x2)\n")
    proc = run_module("flatness", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {path}: ")
    assert "float range" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_deeply_nested_entry_is_an_input_error(tmp_path):
    # the rejected cell is quoted clipped, so the message stays one short line
    cases = [
        ("deep.conn", ["flatness"],
         "base 2\nfiber 1\nomega 1\n" + "(" * 3000 + "x1" + ")" * 3000 + "\n",
         "line 4: ", "nested deeper"),
        ("long.ncx", ["ncomplex", "cohomology"],
         "N 2\ndeg 0 dim 1\n" + "1/" * 2500 + "x\ndeg 1 dim 1\n",
         "line 3: ", "bad rational entry"),
    ]
    for name, command, text, line, message in cases:
        path = tmp_path / name
        path.write_text(text)
        proc = run_module(*command, str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {path}: {line}")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr) < 300
        assert proc.stderr.count("\n") == 1


# (command, file text, line and message of the error); each entry took a
# minute or more, or ended in a traceback, before integers, exponents and
# .ncx cells were bounded
BUDGET = f"work above the budget of {scalar.WORK_BUDGET} term products"
LONG_SUM = "+".join(f"(x1+{k})^512" for k in range(1, 21))


def connection_text(base, fiber, cells):
    """A connection file whose omega_i holds x_i in the (row, col) cells,
    counted from 1, that cells(i) names, and 0 elsewhere."""
    lines = [f"base {base}", f"fiber {fiber}"]
    for i in range(1, base + 1):
        held = set(cells(i))
        lines.append(f"omega {i}")
        lines += [";".join(f"x{i}" if (r, c) in held else "0" for c in range(1, fiber + 1))
                  for r in range(1, fiber + 1)]
    return "\n".join(lines) + "\n"


def sparse_connection(fiber):
    """A base-3 connection whose omega_i is a fiber x fiber matrix with x_i
    in its first cell and zeros elsewhere: its curvature is 0."""
    return connection_text(3, fiber, lambda i: [(1, 1)])


def halves_connection():
    """Base 2, fiber 120: x1 in every cell of columns 1-60 of omega_1, x2
    in every cell of rows 61-120 of omega_2.  omega_2 omega_1 holds
    60 * 60 * 120 real term products."""
    return connection_text(2, 120, lambda i: [(r, c) for r in range(1, 121) for c in range(1, 61)]
                           if i == 1 else [(r, c) for r in range(61, 121) for c in range(1, 121)])


def crosses_connection():
    """Base 4, fiber 120: omega_1 and omega_3 fill the first column, omega_2
    and omega_4 the first row, so the curvature has dense 120 x 120
    components and its square holds millions of real term products."""
    return connection_text(4, 120, lambda i: [(r, 1) for r in range(1, 121)] if i % 2
                           else [(1, c) for c in range(1, 121)])


_DENSE = random.Random(0)
DENSE_MAP = "N 2\ndeg 0 dim 200\n" + "".join(
    " ".join(str(_DENSE.randint(-9, 9)) for _ in range(200)) + "\n" for _ in range(200)
) + "deg 1 dim 200\n"


def dense_trig_metric(n):
    """The dim-n metric with 3 + sin(x_i) on the diagonal and
    cos(x_((i + j) mod n + 1)) off it."""
    rows = ("; ".join(f"3 + sin(x{i})" if i == j else f"cos(x{(i + j) % n + 1})"
                      for j in range(1, n + 1)) for i in range(1, n + 1))
    return f"dim {n}\n" + "\n".join(rows) + "\n"


WIDE = riemann.MAX_DIM + 1  # the least dimension a metric header may not declare

HOSTILE_ENTRIES = {
    "power.conn": (["flatness"], "base 2\nfiber 1\nomega 1\n(x2+1)^3000\n",
                   "line 4: ", "exponent above 512"),
    "merged_power.conn": (["flatness"], "base 2\nfiber 1\nomega 1\n((x2+1)^100)^100\n",
                          "line 4: ", "exponent 10000 is above 512"),
    "wide_product.conn": (["flatness"],
                          "base 3\nfiber 1\nomega 1\n(x1+1)^100*(x2+1)^100*(x3+1)^100\n"
                          "omega 2\n0\nomega 3\n0\n",
                          "line 4: ", "expands to more than 1000 terms"),
    "trig_power.conn": (["flatness"],
                        "base 3\nfiber 1\nomega 1\nsin(x1)^512*sin(x2)^512*sin(x3)^512\n"
                        "omega 2\n0\nomega 3\n0\n",
                        "line 4: ", "expands to more than 1000 terms"),
    # each cell is within MAX_TERMS; the det, or the curvature, multiplies
    # two 990-term entries, and the one cell sums twenty 513-term powers
    "wide_det.metric": (["riemann"], "dim 2\n(x1+x2+1)^43;0\n0;(x1+2*x2+3)^43\n",
                        "", BUDGET),
    "wide_curvature.conn": (["flatness"],
                            "base 2\nfiber 1\nomega 1\n(x1+x2+1)^43\nomega 2\n(x1+2*x2+3)^43\n",
                            "", BUDGET),
    "long_sum.conn": (["flatness"], "base 1\nfiber 1\nomega 1\n" + LONG_SUM + "\n",
                      "line 4: ", BUDGET),
    # real work, refused at the product that passes the budget, before the
    # whole product is built
    "halves.conn": (["flatness"], halves_connection(), "", BUDGET),
    "crosses.conn": (["flatness"], crosses_connection(), "", BUDGET),
    "long_integer.conn": (["flatness"], "base 2\nfiber 1\nomega 1\n" + "7" * 5000 + "*x1\n",
                          "line 4: ", "integer longer than 1000 digits"),
    "constant_power.conn": (["flatness"], "base 2\nfiber 1\nomega 1\n((10^512)^512)^64\n",
                            "line 4: ", "constant power above 4300 digits"),
    "wide.metric": (["riemann"], f"dim {WIDE}\n" + "".join(
                        ";".join("1" if i == j else "0" for j in range(WIDE)) + "\n"
                        for i in range(WIDE)),
                    "line 1: ", f"dimension {WIDE} is above {riemann.MAX_DIM}"),
    "exponent_cell.ncx": (["ncomplex", "cohomology"],
                          "N 2\ndeg 0 dim 1\n1e99999999\ndeg 1 dim 1\n",
                          "line 3: ", "bad rational entry in '1e99999999': '1e99999999'"),
    "long_cell.ncx": (["ncomplex", "cohomology"],
                      "N 2\ndeg 0 dim 1\n" + "7" * 5000 + "\ndeg 1 dim 1\n",
                      "line 3: ", "bad rational entry"),
    # the rank of a dense 200x200 integer map took 73 s before linalg's
    # entry updates were charged to the budget
    "dense_map.ncx": (["ncomplex", "validate"], DENSE_MAP, "", BUDGET),
    "zero_denominator.ncx": (["ncomplex", "cohomology"],
                             "N 2\ndeg 0 dim 2\n1 1/0\n0 1\ndeg 1 dim 2\n",
                             "line 3: ", "bad rational entry in '1 1/0': '1/0'"),
    # str.isdigit takes '²', which int() refuses: this was a traceback
    "superscript_digit.conn": (["flatness"], "base 1\nfiber 1\nomega 1\nx²\n",
                               "line 4: ", "bad expression 'x²': expected an integer at offset 1"),
    # det(g) vanishes, though not term by term: these were answered 2-flat
    "degenerate_trig.metric": (["riemann"], "dim 2\nsin(2*x1); 2*sin(x1)*cos(x1)\n"
                               "2*sin(x1)*cos(x1); sin(2*x1)\n",
                               "line 3: ", "metric is degenerate: det(g) = 0 identically"),
    "degenerate_diagonal.metric": (["riemann"], "dim 2\nsin(2*x1) - 2*sin(x1)*cos(x1); 0\n0; 1\n",
                                   "line 3: ", "metric is degenerate: det(g) = 0 identically"),
    # products of monomials over many trig atoms: refused after 5-6 s when
    # each monomial was a tuple of (atom, exponent) pairs
    "dense_trig4.metric": (["riemann"], dense_trig_metric(4), "", BUDGET),
    "dense_trig8.metric": (["riemann"], dense_trig_metric(8), "", BUDGET),
    # a monomial exponent past the packed field of scalar
    "field_overflow.conn": (["flatness"], "base 1\nfiber 1\nomega 1\n" + "*".join(["x1^512"] * 64)
                            + "\n", "line 4: ", f"exponent above {scalar.MAX_MONOMIAL_EXPONENT}"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_ENTRIES))
def test_hostile_entry_is_a_quick_input_error(tmp_path, name):
    command, text, line, message = HOSTILE_ENTRIES[name]
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    proc = run_module(*command, str(path))
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {path}: {line}")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("fiber", [60, 120])
def test_a_sparse_wide_fiber_is_answered(tmp_path, fiber):
    # only nonzero cells are multiplied, and charged: the zero cells of
    # the fiber x fiber matrices cost neither time nor budget
    path = tmp_path / "sparse_fiber.conn"
    path.write_text(sparse_connection(fiber))
    start = time.perf_counter()
    proc = run_module("flatness", str(path))
    assert time.perf_counter() - start < 1
    assert proc.returncode == 0
    assert proc.stdout == "2-flat\n"


# (argv, exit code, start of the one error line); before they were
# bounded, each ran past a 5 s limit or ended in a traceback
HOSTILE_ARGUMENTS = {
    "knflat_long_expansion": (["knflat", "expand", "--N", "40", "--K", "4"], 2, "ndga: error: "),
    "knflat_deep_infinitesimal": (["knflat", "expand", "--N", "100000", "--K", "4", "--infinitesimal"],
                                  2, "ndga: error: "),
    "depth_large_table": (["depth-forms", "--profile", "1000,1000", "table"], 1,
                          "error: sign table of 1998 generators is above 200"),
    "depth_long_generator": (["depth-forms", "--profile", "3,2", "diff", "dx" + "7" * 5000], 1,
                             "error: bad generator 'dx777"),
    "depth_long_profile": (["depth-forms", "--profile", "3," + "7" * 5000, "nilpotency"], 1,
                           "error: bad profile '3,777"),
    "depth_wide_position": (["depth-forms", "--profile", "3,2", "diff", "dx" + "7" * 999], 1,
                            "error: position '777"),
    "depth_wide_depth": (["depth-forms", "--profile", "3,2", "diff", "d" + "7" * 999 + "x1"], 1,
                         "error: depth '777"),
    "depth_long_monomial": (["depth-forms", "--profile", "3,2", "diff", "x1*" * 2000], 1,
                            "error: empty factor in 'x1*x1*"),
    "depth_superscript_exponent": (["depth-forms", "--profile", "3,2", "diff", "x1^²*dx1"], 1,
                                   "error: bad coefficient in 'x1^²*dx1': expected an integer"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_ARGUMENTS))
def test_hostile_argument_is_a_quick_error(name):
    command, code, message = HOSTILE_ARGUMENTS[name]
    start = time.perf_counter()
    proc = run_module(*command)
    assert time.perf_counter() - start < 2
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert lines[-1].startswith(message)
    assert len(lines[-1]) < 200
    assert sum("error:" in line for line in lines) == 1


# constants past the interpreter's 4300-digit print limit: a power of one,
# refused when the file is read, and products of 1000-digit literals, which
# fail when they are rendered
LONG = "7" * 1000
PRODUCT = "*".join([LONG] * 5)
OVERSIZED_CONSTANTS = {
    "power_metric": (["riemann"], "dim 2\n" + LONG + "^5*x1^2;0\n0;1\n"),
    "product_metric": (["riemann"], "dim 2\n" + PRODUCT + "*x1^2;0\n0;1\n"),
    "merged_exponent_form": (["depth-forms", "--profile", "2,2", "diff", "(x1^300)^2*dx2"], None),
    "product_form": (["depth-forms", "--profile", "2,2", "diff", PRODUCT + "*x1*dx2"], None),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED_CONSTANTS))
def test_oversized_constant_is_an_input_error(tmp_path, name):
    command, metric = OVERSIZED_CONSTANTS[name]
    if metric is not None:
        path = tmp_path / "big.metric"
        path.write_text(metric)
        command = command + [str(path)]
    start = time.perf_counter()
    proc = run_module(*command)
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1


# each declares sizes that made cohomology run for seconds to minutes when
# d^p was built from an identity matrix through every degree
HOSTILE_COMPLEXES = {
    "wide_degree": "N 3\ndeg 0 dim 1200\ndeg 1 dim 0\n",
    "huge_dimension": "N 3\ndeg 0 dim 100000\ndeg 1 dim 0\n",
    "long_order": "N 3000\ndeg 0 dim 2\n1 0\n0 1\ndeg 1 dim 2\n",
}


@pytest.mark.parametrize("name", sorted(HOSTILE_COMPLEXES))
def test_hostile_complex_is_bounded(tmp_path, name):
    path = tmp_path / f"{name}.ncx"
    path.write_text(HOSTILE_COMPLEXES[name])
    start = time.perf_counter()
    proc = run_module("ncomplex", "cohomology", str(path))
    assert time.perf_counter() - start < 5
    assert proc.returncode in (0, 1)
    assert "Traceback" not in proc.stderr


def test_long_cohomology_table_is_refused_before_printing(tmp_path, capsys):
    # 2001 one-dimensional degrees of order 4096 printed 8,202,190 lines
    path = tmp_path / "long.ncx"
    path.write_text("N 4096\n" + "".join(f"deg {k} dim 1\n0\n" for k in range(2000))
                    + "deg 2000 dim 1\n")
    assert run(["ncomplex", "cohomology", str(path)]) == (1, "")
    assert capsys.readouterr().err == (f"error: {path}: cohomology table of 2001 degrees "
                                       "by 4095 values is above 4096 lines\n")
    # a table of exactly 4096 lines is printed
    path.write_text("N 5\n" + "".join(f"deg {k} dim 1\n0\n" for k in range(1023))
                    + "deg 1023 dim 1\n")
    code, text = run(["ncomplex", "cohomology", str(path)])
    assert code == 0
    assert sum(line.startswith("H[") for line in text.splitlines()) == 4096


def test_budget_refusal_does_not_depend_on_earlier_calls(tmp_path, capsys):
    # an expansion cached by a library call is charged again in the CLI:
    # with (x1+1)^512 free, the second cell would fit in the budget, and
    # with the cell's own text cached it would cost nothing
    cached = "(x1+1)^512+(x1+2)^512"
    scalar.expand("(x1+1)^512")
    assert scalar.expand(cached) is scalar.expand(cached)
    for cell in (LONG_SUM, cached):
        path = tmp_path / "sum.conn"
        path.write_text(f"base 1\nfiber 1\nomega 1\n{cell}\n")
        results = []
        for _ in range(2):
            code, _ = run(["flatness", str(path)])
            results.append((code, capsys.readouterr().err))
        assert results[0] == results[1]
        assert results[0][0] == 1 and BUDGET in results[0][1]


def test_a_riemann_call_leaves_nothing_to_the_next(tmp_path, monkeypatch, capsys):
    # the Christoffel symbols and the curvature are kept on the metric a
    # call builds, so a later call on the same file is charged in full
    metric = tmp_path / "warped.metric"
    metric.write_text("dim 3\n2;0;0\n0;2*cos(x1)^2;0\n0;0;2*cos(x1)^2*sin(x2)^2 + x3\n")
    path = str(metric)
    spent = []
    charge = scalar._charge
    monkeypatch.setattr(scalar, "_charge", lambda work: (spent.append(work), charge(work)))
    code, report = run(["riemann", path])
    cost = sum(spent)
    assert code == 0
    wide = tmp_path / "wide_det.metric"
    wide.write_text(HOSTILE_ENTRIES["wide_det.metric"][1])
    assert run(["riemann", str(wide)]) == (1, "")
    assert capsys.readouterr().err == f"error: {wide}: {BUDGET}\n"
    monkeypatch.setattr(scalar, "WORK_BUDGET", cost - 1)
    assert run(["riemann", path]) == (1, "")
    assert capsys.readouterr().err == f"error: {path}: work above the budget of {cost - 1} term products\n"
    monkeypatch.setattr(scalar, "WORK_BUDGET", cost)
    assert run(["riemann", path]) == (0, report)


def test_diagonal_trig_metric_is_within_the_budget(tmp_path):
    path = tmp_path / "diag.metric"
    path.write_text("dim 4\n1+x1^2;0;0;0\n0;2+sin(x1);0;0\n0;0;1+x3^2;0\n0;0;0;2+sin(x3)\n")
    code, text = run(["riemann", str(path)])
    assert code == 0
    assert text.splitlines()[-1] == "4-flat"


def test_undecodable_file_is_an_input_error(tmp_path):
    path = tmp_path / "latin1.conn"
    path.write_bytes(b"base 2\nfiber 1\nomega 1\n\xe9\n")
    code, _ = run(["flatness", str(path)])
    assert code == 1


def test_tensor_of_an_invalid_factor_is_an_input_error(tmp_path, capsys, data_path):
    path = tmp_path / "bad.ncx"
    path.write_text("N 2\ndeg 0 dim 1\n1\ndeg 1 dim 1\n1\ndeg 2 dim 1\n")
    code, _ = run(["ncomplex", "tensor", data_path("chain_identity.ncx"), str(path)])
    assert code == 1
    assert capsys.readouterr().err == "error: factor 2: d^2 is not zero; not a valid 2-complex\n"


@pytest.mark.parametrize("dense_first", [True, False], ids=["dense_first", "dense_second"])
def test_tensor_refusal_names_the_factor_file(tmp_path, capsys, dense_first):
    # validating the dense factor is refused by the work budget, in either order
    dense, point = tmp_path / "dense.ncx", tmp_path / "point.ncx"
    dense.write_text(DENSE_MAP)
    point.write_text("N 2\ndeg 0 dim 1\n")
    files = [str(dense), str(point)] if dense_first else [str(point), str(dense)]
    assert run(["ncomplex", "tensor", *files]) == (1, "")
    assert capsys.readouterr().err == f"error: {dense}: {BUDGET}\n"


def test_tensor_over_budget_is_an_input_error(tmp_path, capsys):
    # the tensor is never built, so its size, 70 x 70, is not capped
    path = tmp_path / "wide.ncx"
    path.write_text("N 2\ndeg 0 dim 70\n")
    assert run(["ncomplex", "tensor", str(path), str(path)]) == (
        0, "tensor nilpotency 1 (bound 3, koszul sign on)\n")
    assert capsys.readouterr().err == ""


def test_tensor_of_two_identity_chains_is_answered(tmp_path):
    # refused while sum(dims1) * sum(dims2) = 160 * 160 was capped at 4096
    path = tmp_path / "chain40.ncx"
    path.write_text(identity_chain(40))
    assert run(["ncomplex", "tensor", str(path), str(path)]) == (
        0, "tensor nilpotency 6 (bound 7, koszul sign on)\n")


# (command, file name and text or None, exit code, the one error line
# after "error: ", "<path>: " put before it when there is a file); each
# reader fault names its file and line, and ends in no traceback
MALFORMED_INPUTS = {
    "ncx_duplicate_order": (["ncomplex", "validate"], ("bad.ncx", "N 3\nN 3\n"), 1,
                            "line 2: duplicate N header"),
    "ncx_order_one": (["ncomplex", "validate"], ("bad.ncx", "N 1\ndeg 0 dim 1\n"), 1,
                      "line 1: order must be at least 2"),
    "ncx_negative_dim": (["ncomplex", "validate"], ("bad.ncx", "N 3\ndeg 0 dim -1\n"), 1,
                         "line 2: dimensions must be non-negative"),
    "ncx_degree_gap": (["ncomplex", "validate"],
                       ("bad.ncx", "N 3\ndeg 0 dim 1\n1\n# gap\ndeg 2 dim 1\n"), 1,
                       "line 5: degrees must be consecutive; got 2 after 0"),
    "ncx_rows_first": (["ncomplex", "validate"], ("bad.ncx", "N 3\n1 0\ndeg 0 dim 1\n"), 1,
                       "line 2: matrix rows before any degree header"),
    "ncx_no_degree": (["ncomplex", "validate"], ("bad.ncx", "N 3\n"), 1,
                      "line 1: no degrees declared"),
    "ncx_rows_after_last": (["ncomplex", "validate"],
                            ("bad.ncx", "N 3\ndeg 0 dim 1\n1\ndeg 1 dim 1\n1\n"), 1,
                            "line 5: rows after the final degree header"),
    "ncx_short_row": (["ncomplex", "validate"],
                      ("bad.ncx", "N 3\ndeg 0 dim 2\n1\ndeg 1 dim 1\n"), 1,
                      "line 3: expected 2 entries per row"),
    "metric_dim_zero": (["riemann"], ("bad.metric", "dim 0\n"), 1,
                        "line 1: dimension must be positive"),
    "metric_early_end": (["riemann"], ("bad.metric", "dim 2\n1;0\n"), 1,
                         "line 2: unexpected end of file inside a matrix"),
    "metric_junk_inverse": (["riemann"], ("bad.metric", "dim 1\n1\ninvert\n1\n"), 1,
                            "line 3: expected 'inverse' or end of file"),
    "conn_base_zero": (["flatness"], ("bad.conn", "base 0\nfiber 1\n"), 1,
                       "line 2: base and fiber dimensions must be positive"),
    "conn_duplicate_omega": (["flatness"],
                             ("bad.conn", "base 1\nfiber 1\nomega 1\nx1\nomega 1\nx1\n"), 1,
                             "line 5: duplicate block for omega 1"),
    "cell_bare_x": (["flatness"], ("bad.conn", "base 1\nfiber 1\nomega 1\nx\n"), 1,
                    "line 4: bad expression 'x': expected an integer at offset 1"),
    "cell_zero_denominator": (["flatness"], ("bad.conn", "base 1\nfiber 1\nomega 1\n1/0\n"),
                              1, "line 4: bad expression '1/0': zero denominator at offset 3"),
    "cell_coordinate_zero": (["flatness"], ("bad.conn", "base 1\nfiber 1\nomega 1\nx0\n"),
                             1, "line 4: bad expression 'x0': coordinate index must be positive"
                                " at offset 0"),
    "cell_unopened": (["flatness"], ("bad.conn", "base 1\nfiber 1\nomega 1\nx1)\n"), 1,
                      "line 4: bad expression 'x1)': unexpected character ')' at offset 2"),
    "cell_unclosed": (["flatness"], ("bad.conn", "base 1\nfiber 1\nomega 1\n(x1\n"), 1,
                      "line 4: bad expression '(x1': expected ')' at offset 3"),
    "flatness_max_order_one": (["flatness", "--max-N", "1"], ("ok.conn", "base 1\nfiber 1\n"),
                               2, "--max-N must be at least 2"),
    "riemann_max_order_one": (["riemann", "--max-N", "1"], ("ok.metric", "dim 1\n1\n"), 2,
                              "--max-N must be at least 2"),
    "profile_words": (["depth-forms", "--profile", "a,b", "nilpotency"], None, 1,
                      "bad profile 'a,b'; expected integers like 3,2"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_one_error_line(tmp_path, capsys, name):
    command, file, code, message = MALFORMED_INPUTS[name]
    argv = list(command)
    if file is not None:
        path = tmp_path / file[0]
        path.write_text(file[1])
        argv.append(str(path))
        if code == 1:
            message = f"{path}: {message}"
    try:
        returned = cli.main(argv, out=io.StringIO())
    except SystemExit as usage:
        returned = usage.code
    lines = capsys.readouterr().err.splitlines()
    assert returned == code
    assert sum("error:" in line for line in lines) == 1
    assert lines[-1].endswith(f"error: {message}")
