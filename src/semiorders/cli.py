"""Command-line front end: counting, enumeration, format mapping, series,
trunk trees, and the verification suites.

Exit codes: 0 success, 1 usage error, 2 verification mismatch.  Output is
deterministic; enumeration follows lexicographic vector order.

``_GRAMMAR`` is the one declaration of each subcommand's options.  ``_read``
takes well-formed argv from it; argparse, built from it too, is imported only
for help, abbreviations, ``--flag=value`` and usage errors.
"""

from __future__ import annotations

import os
import sys
import warnings
from itertools import islice

# counting.METHODS and verify.SUITES spelled out, so that only count, series and
# verify load those modules; each subcommand imports what it runs
_METHODS = ("convolution", "alternating", "series", "trig", "closed")
_SUITES = ("all", "bijection", "recurrences", "labeled", "trunk", "oracle")
_FORMS = ("vector", "tree", "dyck")


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
    mode = args.mode or counting._DEFAULT
    route = counting._ROUTES[mode]
    counter = counting.count_leq if route.at_most or args.at_most else counting.count_exact
    value = counter(args.n, args.height, mode)
    if args.check:
        reference = counter(args.n, args.height, route.check)
        if reference != value:
            print(f"cross-check failed: {value} != {route.check} {reference}", file=sys.stderr)
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


# subcommand -> (its help, its handler, {flag: argparse keywords}), in --help's order
_GRAMMAR = {
    "count": ("count semiorders with n elements", _cmd_count, {
        "--n": {"type": int, "required": True},
        "--height": {"type": int, "required": True, "help": "length bound h"},
        "--at-most": {"action": "store_true", "help": "count length <= h instead of exactly h"},
        "--labeled": {"action": "store_true"},
        "--mode": {"choices": _METHODS,
                   "help": "unlabeled route; 'closed' always reports the at-most count"},
        "--check": {"action": "store_true",
                    "help": "cross-check against the series route (alternating for --mode series)"}}),
    "enumerate": ("list all n-element semiorders", _cmd_enumerate, {
        "--n": {"type": int, "required": True},
        "--max-height": {"type": int, "default": None,
                         "help": "keep only semiorders of length (longest-chain edges) <= this"},
        "--format": {"choices": _FORMS, "default": "vector"},
        "--force": {"action": "store_true", "help": "lift the n <= 14 cap"}}),
    "map": ("convert between vector, tree, and dyck forms", _cmd_map, {
        "--from": {"dest": "source", "choices": _FORMS, "required": True},
        "--to": {"dest": "target", "choices": _FORMS, "required": True},
        "--input": {"required": True}}),
    "series": ("print counting series coefficients", _cmd_series, {
        "--height": {"type": int, "required": True},
        "--terms": {"type": int, "required": True, "help": "number of coefficients, from n = 0"},
        "--labeled": {"action": "store_true"},
        "--at-most": {"action": "store_true"}}),
    "trunk-trees": ("distinct trunk trees of a length-<=1 semiorder", _cmd_trunk, {
        "--rho": {"required": True, "help": "comma-separated vector"},
        "--count-only": {"action": "store_true"}}),
    "verify": ("run self-check suites", _cmd_verify, {
        "--suite": {"choices": _SUITES, "default": "all"},
        "--max-n": {"type": int, "default": 8}}),
}


def _read(argv):
    """argparse's namespace for ``argv``, or None unless argv[0] is a subcommand and every later
    token is one of its flags, in full and once, each but a store_true followed by a non-option."""
    if not argv or argv[0] not in _GRAMMAR:
        return None
    options, given, tokens = _GRAMMAR[argv[0]][2], {}, iter(argv[1:])
    for flag in tokens:
        spec = options.get(flag)
        if spec is None or flag in given:
            return None
        if "action" in spec:  # store_true
            given[flag] = True
            continue
        text = next(tokens, "-")
        # an int is ASCII digits: int() also takes signs, blanks, '_' and other scripts' digits
        if (text.startswith("-") or text not in spec.get("choices", (text,))
                or "type" in spec and not (text.isascii() and text.isdigit())):
            return None
        try:
            given[flag] = spec.get("type", str)(text)
        except ValueError:  # past int()'s digit limit, which argparse reports
            return None
    values = {"command": argv[0]}
    for flag, spec in options.items():
        if spec.get("required") and flag not in given:
            return None
        default = spec.get("default", False if "action" in spec else None)
        values[spec.get("dest", flag[2:].replace("-", "_"))] = given.get(flag, default)
    return type(sys.implementation)(**values)  # types.SimpleNamespace, as types.py finds it


def _build_parser():
    """argparse over ``_GRAMMAR``, for the argv that ``_read`` declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse default exits 2; usage errors are 1 here
            self.exit(1, f"{self.prog}: error: {message}\n")

    # the docstring's last paragraph is about this module's code, not for --help
    parser = _Parser(prog="semiorders", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, options) in _GRAMMAR.items():
        command = sub.add_parser(name, help=summary)
        for flag, spec in options.items():
            command.add_argument(flag, **spec)
    return parser


def run(argv, out=None) -> int:
    """Parse ``argv`` (no program name) and execute; returns the exit code."""
    out = sys.stdout if out is None else out
    args = _read(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as stop:
            return int(stop.code or 0)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # printed counts pass str()'s 4300-digit guard at n ~ 9000, h = 3
    try:
        return _GRAMMAR[args.command][1](args, out)
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
