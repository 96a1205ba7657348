"""Command-line interface.

Subcommands: cs-lagrangian, flatness, riemann, knflat, depth-forms,
ncomplex.  Exit codes: 0 success, 1 input error or standard output closed
early, 2 usage error.  Output is deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import re
import sys
from fractions import Fraction

from . import chern_simons, depth, forms, knflat, ncomplex, riemann, scalar, textfile


class InputError(Exception):
    pass


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: each parse builds a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="ndga",
        description="exact constructions around N-differential graded algebras",
    )
    parser.add_argument("--seed", type=int, default=scalar.DEFAULT_ZERO_SEED,
                        help="seed for the randomized zero test on trigonometric expressions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cs-lagrangian", help="print a generalized Chern-Simons Lagrangian")
    p.add_argument("K", type=int, help="half the curvature power, 1 <= K <= 6")

    p = sub.add_parser("flatness", help="minimal flatness order of a connection file")
    p.add_argument("file")
    p.add_argument("--max-N", type=int, default=8, dest="max_n")

    p = sub.add_parser("riemann", help="Christoffel symbols, curvature, and flatness of a metric file")
    p.add_argument("file")
    p.add_argument("--max-N", type=int, default=8, dest="max_n")

    p = sub.add_parser("knflat", help="path-expansion of covariant powers")
    knsub = p.add_subparsers(dest="kn_command", required=True)
    q = knsub.add_parser("expand", help="print the expansion coefficients")
    q.add_argument("--N", type=int, required=True, dest="N")
    q.add_argument("--K", type=int, required=True, dest="K")
    q.add_argument("--infinitesimal", action="store_true")

    p = sub.add_parser("depth-forms", help="depth-bounded differential forms")
    p.add_argument("--profile", required=True,
                   help="comma-separated depth bounds, e.g. 3,2")
    dsub = p.add_subparsers(dest="depth_command", required=True)
    dsub.add_parser("nilpotency", help="exact nilpotency of d")
    dsub.add_parser("table", help="generator multiplication sign table")
    # no options, so an expression may start with '-', as rendered forms do
    q = dsub.add_parser("diff", help="differential of a parsed form", prefix_chars="+",
                        add_help=False)
    q.add_argument("expression")

    p = sub.add_parser("ncomplex", help="finite N-complexes")
    nsub = p.add_subparsers(dest="nc_command", required=True)
    q = nsub.add_parser("validate", help="check the nilpotency order")
    q.add_argument("file")
    q = nsub.add_parser("cohomology", help="generalized cohomology dimension table")
    q.add_argument("file")
    q = nsub.add_parser("tensor", help="measured nilpotency of a tensor product")
    q.add_argument("file1")
    q.add_argument("file2")
    return parser


@contextlib.contextmanager
def _reading(path: str):
    """Report a fault of the file at path, or of the work on its contents,
    as an InputError that names the path."""
    try:
        yield
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}")
    except (textfile.InputFileError, scalar.ScalarError, ncomplex.ComplexError) as err:
        raise InputError(f"{path}: {err}")


def _run_cs(args, out) -> int:
    element = chern_simons.chern_simons_lagrangian(args.K)
    for line in chern_simons.render_element(element):
        print(line, file=out)
    return 0


def _run_flatness(args, out) -> int:
    with _reading(args.file):
        order = forms.minimal_flatness_order(forms.load_connection(args.file), args.max_n)
    if order is None:
        print(f"not flat up to {args.max_n}", file=out)
    else:
        print(f"{order}-flat", file=out)
    return 0


def _riemann_report(metric, max_n) -> list:
    """Output lines of `ndga riemann`: Christoffel symbols, curvature, order."""
    lines = []
    gamma = riemann.christoffel(metric)
    n = metric.dim
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(j, n + 1):
                num = gamma.numerator(i, j, k)
                if not num.terms:
                    continue
                value = gamma.quotient(num)
                if value is not None:
                    text = scalar.render(value)
                else:
                    num, den = num.scale(Fraction(1, gamma.content)), gamma.det.power(gamma.power)
                    text = f"({scalar.render(num)}) / ({scalar.render(den)})"
                lines.append(f"Gamma^{i}_{j}{k} = {text}")
    try:
        form = riemann.riemann_form(metric)
        for index, entries in form.components():
            label = "^".join(f"dx{i}" for i in index)
            lines.append(f"R[{label}]:")
            for row in entries:
                lines.append("  " + "; ".join(scalar.render(e) for e in row))
    except riemann.GrammarError:
        lines.append("R: entries not expressible in the scalar grammar; "
                     "flatness decided on cleared forms")
    order = riemann.minimal_lc_flatness_order(metric, max_n)
    lines.append(f"not flat up to {max_n}" if order is None else f"{order}-flat")
    return lines


def _run_riemann(args, out) -> int:
    with _reading(args.file):
        lines = _riemann_report(riemann.load_metric(args.file), args.max_n)
    for line in lines:
        print(line, file=out)
    return 0


def _run_knflat(args, parser, out) -> int:
    if not 1 <= args.N <= knflat.MAX_N or args.K < 2:
        parser.error(f"knflat expand needs 1 <= --N <= {knflat.MAX_N} and --K >= 2")
    expand = knflat.infinitesimal_expansion if args.infinitesimal else knflat.nabla_power_expansion
    for j, element in expand(args.N, args.K):
        print(f"c{j} = {knflat.render_element(element)}", file=out)
    return 0


def _parse_profile(text: str):
    try:
        # ASCII digits only: int() also takes '1_0' and '١'
        if not re.fullmatch(r"[0-9+\-,\s]*", text):
            raise ValueError(text)
        profile = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise InputError(f"bad profile {textfile.quote(text)}; expected integers like 3,2")
    return depth.check_profile(profile)


def _run_depth(args, out) -> int:
    profile = _parse_profile(args.profile)
    if args.depth_command == "nilpotency":
        lines = [str(depth.nilpotency(profile))]
    elif args.depth_command == "table":
        lines = [f"{g1} * {g2} = {value}" for g1, g2, value in depth.sign_table(profile)]
    else:
        form = depth.parse_form(args.expression, profile)
        lines = [depth.render_form(depth.differential(form))]
    for line in lines:
        print(line, file=out)
    return 0


def _run_ncomplex(args, out) -> int:
    def load(path):
        # the rank table is read here, so that a budget refusal names the file
        with _reading(path):
            c = ncomplex.load_complex(path)
            ncomplex.validate(c)
            return c

    if args.nc_command == "tensor":
        c1, c2 = load(args.file1), load(args.file2)
        measured = ncomplex.tensor_nilpotency(c1, c2)
        bound = c1.order + c2.order - 1
        print(f"tensor nilpotency {measured} (bound {bound}, koszul sign on)", file=out)
        return 0
    with _reading(args.file):
        c = ncomplex.load_complex(args.file)
        if args.nc_command == "cohomology" and len(c.dims) * (c.order - 1) > ncomplex.MAX_SIZE:
            raise ncomplex.ComplexError(f"cohomology table of {len(c.dims)} degrees by "
                                        f"{c.order - 1} values is above {ncomplex.MAX_SIZE} lines")
        valid = ncomplex.validate(c)
    if args.nc_command == "validate":
        if not valid:
            raise InputError(
                f"{args.file}: d^{c.order} is not zero; not a valid {c.order}-complex"
            )
        print(f"valid {c.order}-complex, degrees {c.lo}..{c.hi}", file=out)
        return 0
    if not valid:
        raise InputError(f"{args.file}: not a valid {c.order}-complex")
    for i in range(c.lo, c.hi + 1):
        for p in range(1, c.order):
            dim = ncomplex.p_cohomology_dim(c, p, i)
            print(f"H[p={p}, i={i}] = {dim}", file=out)
    for m in ncomplex.total_diagonals(c):
        total, _ = ncomplex.total_cohomology_dims(c, m)
        print(f"total[m={m}] = {total}", file=out)
    return 0


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    with scalar.work_budget():
        parser = _build_parser()
        args = parser.parse_args(argv)
        found = scalar.set_zero_seed(args.seed)
        try:
            if args.command == "cs-lagrangian":
                if not 1 <= args.K <= 6:
                    parser.error("K must satisfy 1 <= K <= 6")
                return _run_cs(args, out)
            if args.command == "flatness":
                if args.max_n < 2:
                    parser.error("--max-N must be at least 2")
                return _run_flatness(args, out)
            if args.command == "riemann":
                if args.max_n < 2:
                    parser.error("--max-N must be at least 2")
                return _run_riemann(args, out)
            if args.command == "knflat":
                return _run_knflat(args, parser, out)
            if args.command == "depth-forms":
                return _run_depth(args, out)
            if args.command == "ncomplex":
                return _run_ncomplex(args, out)
            parser.error(f"unknown command {args.command!r}")
        except (InputError, depth.DepthFormError, scalar.ScalarError,
                ncomplex.ComplexError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        finally:
            scalar.set_zero_seed(found)
    return 2


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: devnull takes the flush at exit (Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
