"""Command-line front end: counting, enumeration, format mapping, series,
trunk trees, and the verification suites.

Exit codes: 0 success, 1 usage error, 2 verification mismatch.  Output is
deterministic; enumeration follows lexicographic vector order.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from itertools import islice

# counting.METHODS and verify.SUITES spelled out, so that only count, series and
# verify load those modules; each subcommand imports what it runs
_METHODS = ("convolution", "alternating", "series", "trig", "closed")
_SUITES = ("all", "bijection", "recurrences", "labeled", "trunk", "oracle")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="semiorders", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count semiorders with n elements")
    count.add_argument("--n", type=int, required=True)
    count.add_argument("--height", type=int, required=True, help="length bound h")
    count.add_argument("--at-most", action="store_true", help="count length <= h instead of exactly h")
    count.add_argument("--labeled", action="store_true")
    count.add_argument("--mode", choices=_METHODS,
                       help="unlabeled route; 'closed' always reports the at-most count")
    count.add_argument("--check", action="store_true",
                       help="cross-check against the series route (alternating for --mode series)")

    enum = sub.add_parser("enumerate", help="list all n-element semiorders")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--max-height", type=int, default=None,
                      help="keep only semiorders of length (longest-chain edges) <= this")
    enum.add_argument("--format", choices=("vector", "tree", "dyck"), default="vector")
    enum.add_argument("--force", action="store_true", help="lift the n <= 14 cap")

    mapping = sub.add_parser("map", help="convert between vector, tree, and dyck forms")
    mapping.add_argument("--from", dest="source", choices=("vector", "tree", "dyck"), required=True)
    mapping.add_argument("--to", dest="target", choices=("vector", "tree", "dyck"), required=True)
    mapping.add_argument("--input", required=True)

    series = sub.add_parser("series", help="print counting series coefficients")
    series.add_argument("--height", type=int, required=True)
    series.add_argument("--terms", type=int, required=True, help="number of coefficients, from n = 0")
    series.add_argument("--labeled", action="store_true")
    series.add_argument("--at-most", action="store_true")

    tt = sub.add_parser("trunk-trees", help="distinct trunk trees of a length-<=1 semiorder")
    tt.add_argument("--rho", required=True, help="comma-separated vector")
    tt.add_argument("--count-only", action="store_true")

    ver = sub.add_parser("verify", help="run self-check suites")
    ver.add_argument("--suite", choices=_SUITES, default="all")
    ver.add_argument("--max-n", type=int, default=8)
    return parser


def _parse_input(kind: str, text: str):
    from . import bijection, core, trees

    if kind == "vector":
        return core.Semiorder.from_text(text)
    if kind == "tree":
        return bijection.tree_to_semiorder(trees.OrderedTree.from_text(text))
    return bijection.dyck_to_semiorder(trees.DyckPath.from_text(text))


def _render(kind: str, s) -> str:
    if kind == "vector":
        return s.to_text()
    from . import bijection

    if kind == "tree":
        return bijection.semiorder_to_tree(s).to_text()
    return bijection.semiorder_to_dyck(s).to_text()


def _cmd_count(args, out) -> int:
    from . import counting

    if args.labeled:
        if args.mode is not None or args.check:
            raise ValueError("--labeled takes neither --mode nor --check")
        from . import labeled

        counter = labeled.count_labeled_leq if args.at_most else labeled.count_labeled_exact
        print(counter(args.n, args.height), file=out)
        return 0
    mode = args.mode or "convolution"
    # the closed forms exist only for the at-most family
    counter = counting.count_leq if mode == "closed" or args.at_most else counting.count_exact
    value = counter(args.n, args.height, mode)
    if args.check:
        route = "alternating" if mode == "series" else "series"
        reference = counter(args.n, args.height, route)
        if reference != value:
            print(f"cross-check failed: {value} != {route} {reference}", file=sys.stderr)
            return 2
    print(value, file=out)
    return 0


def _cmd_enumerate(args, out) -> int:
    from . import oracle

    if args.max_height is not None and args.max_height < 0:
        raise ValueError("need --max-height >= 0")
    for s in oracle.enumerate_semiorders(args.n, force=args.force):
        if args.max_height is not None and s.n and s.length > args.max_height:
            continue
        print(_render(args.format, s), file=out)
    return 0


def _cmd_series(args, out) -> int:
    from . import counting

    order = args.terms - 1
    if order < 0:
        raise ValueError("need --terms >= 1")
    # streamed as the stepper yields them, so only its window is held; --labeled
    # also holds the coefficients so far and one row of its transform
    fraction = counting._fraction(args.height, order, args.at_most)
    coefficients = islice(counting._coefficients(*fraction), args.terms)
    if args.labeled:
        from . import labeled

        coefficients = labeled._substituted(coefficients)
    out.writelines(f",{c}" if i else str(c) for i, c in enumerate(coefficients))
    out.write("\n")
    return 0


def _cmd_trunk(args, out) -> int:
    from . import core, trunk

    s = core.Semiorder.from_text(args.rho)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.count_only:
            print(trunk.count_trunk_trees(s), file=out)
        else:
            for shape in trunk._shapes(s):
                print(",".join(str(c) for c in shape), file=out)
    for warning in caught:
        if issubclass(warning.category, trunk.HypothesisViolatedWarning):
            print(f"note: {warning.message}", file=sys.stderr)
    return 0


def _cmd_map(args, out) -> int:
    print(_render(args.target, _parse_input(args.source, args.input)), file=out)
    return 0


def _cmd_verify(args, out) -> int:
    from . import verify

    lines, passed = verify.run_suite(args.suite, args.max_n)
    for line in lines:
        print(line, file=out)
    return 0 if passed else 2


def run(argv, out=None) -> int:
    """Parse ``argv`` (no program name) and execute; returns the exit code."""
    out = sys.stdout if out is None else out
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    handlers = {
        "count": _cmd_count,
        "enumerate": _cmd_enumerate,
        "map": _cmd_map,
        "series": _cmd_series,
        "trunk-trees": _cmd_trunk,
        "verify": _cmd_verify,
    }
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # printed counts pass str()'s 4300-digit guard at n ~ 9000, h = 3
    try:
        return handlers[args.command](args, out)
    except (ValueError, ArithmeticError) as exc:
        print(f"semiorders: error: {exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(limit)


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, inside the try
    except BrokenPipeError:  # e.g. `semiorders enumerate --n 12 | head -1`
        # as the Python docs advise: stdout goes to devnull so that the
        # interpreter's final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
