"""Command-line front end.

Exit codes: 0 on success, 1 when a verification check fails, 2 for
unusable input (bad syntax, unknown names, a rank range no selected
verification check supports), 3 when input parses but a
domain precondition fails (word outside the expected subgroup, map with
no computable kernel test), 4 when the computation runs out of memory
or recursion depth (``MemoryError``, ``RecursionError``), 141 when the
reader of stdout goes away (128 + SIGPIPE, as a shell reports a process
killed by it).

Words come either as positional arguments or, with no positional words,
one per line on stdin.  A word subcommand builds and checks its map or
context before it reads the words, so ``kernel`` through a map with no
kernel test exits 3 even on an empty batch; any other word subcommand
given no words prints nothing (``[]`` with ``--json``).  Batch input is
all-or-nothing: results print only after every line has been processed.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import abelian, homs, perms, present, rs
from .words import ParseError, format_word, parse_word, reduce

#: a rank is ASCII digits only: no sign, space, underscore or other script
_DIGITS = re.compile("[0-9]+")


def _ascii_int(digits: str, error: Exception) -> int:
    if not _DIGITS.fullmatch(digits):
        raise error
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise error from None


def _shown(text: str) -> str:
    """The rejected argument for an error: whole up to 20 characters, else
    cut short with its length, so that the error stays one short line."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... of {len(text)} characters"


def _parse_n(text: str) -> range:
    """Accept a single rank like "3" or an inclusive range like "2..4"."""
    lo, dots, hi = text.partition("..")
    hi = hi if dots else lo
    error = argparse.ArgumentTypeError(f"bad rank{' range' if dots else ''} {_shown(text)}")
    start, stop = _ascii_int(lo, error), _ascii_int(hi, error)
    if start > stop or start < 1:
        raise error
    return range(start, stop + 1)


def _parse_n_single(text: str) -> int:
    if ".." in text:
        raise argparse.ArgumentTypeError("rank ranges are only accepted by verify")
    return _parse_n(text).start


def _parse_seed(text: str) -> int:
    """Accept an optional "-" followed by ASCII digits."""
    digits = text.removeprefix("-")
    value = _ascii_int(digits, argparse.ArgumentTypeError(f"bad seed {_shown(text)}"))
    return value if digits == text else -value


def _print_json(value):
    # json is imported here only, so a start without --json skips it
    import json

    print(json.dumps(value))


def _answer_words(args, answer, text=str):
    """Read the words (the arguments, else stdin), answer each, and print
    one line per answer, or JSON: a single answer bare, any other number
    of answers (none included) as a list."""
    lines = args.words or [line.strip() for line in sys.stdin if line.strip()]
    answers = [answer(parse_word(line, args.n)) for line in lines]
    if args.json:
        _print_json(answers[0] if len(answers) == 1 else answers)
    else:
        for a in answers:
            print(text(a))
    return 0


def _cmd_normalize(args):
    return _answer_words(args, lambda w: format_word(reduce(w)))


def _cmd_image(args):
    h = homs.make_hom(args.hom, args.n)
    fmt = perms.format_element if h.concrete else format_word
    return _answer_words(args, lambda w: fmt(homs.image(h, w)))


def _cmd_kernel(args):
    h = homs.make_hom(args.hom, args.n)
    homs._require_kernel_test(h)
    return _answer_words(
        args, lambda w: homs.in_kernel(h, w), lambda v: "true" if v else "false"
    )


def _cmd_rewrite(args):
    ctx = rs.make_context(args.into, args.n)
    return _answer_words(args, lambda w: format_word(rs.rewrite_tau(ctx, w).word))


def _cmd_present(args):
    pres = present.build_presentation(args.group, args.n)
    if args.json:
        _print_json(present.presentation_dict(pres))
    else:
        print(present.presentation_text(pres))
    return 0


def _cmd_abelianize(args):
    inv = abelian.abelian_invariants(present.build_presentation(args.group, args.n))
    if args.json:
        _print_json({"free_rank": inv.free_rank, "torsion": list(inv.torsion)})
    else:
        print(abelian.invariants_text(inv))
    return 0


def _cmd_verify(args):
    from . import suite

    checks = None if args.all else args.check
    reports = suite.run_suite(checks=checks, n_range=args.n, seed=args.seed)
    if not reports:
        ns = args.n
        # len() overflows on a range longer than sys.maxsize
        ranks = f"{ns[0]}..{ns[-1]}" if ns[-1] - ns[0] > 1 else ",".join(map(str, ns))
        supported = "; ".join(
            f"{cid} n={','.join(map(str, suite.CHECKS[cid][1]))}"
            for cid in checks or suite.CHECKS
        )
        print(
            f"error: no check runs at n={ranks}; "
            f"supported ranks: {supported}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        _print_json(
            [
                {"check": r.check_id, "n": r.n, "status": r.status, "details": r.details}
                for r in reports
            ]
        )
    else:
        print(suite.format_report(reports, include_timings=args.timings))
    return 0 if all(r.status == "pass" for r in reports) else 1


def _add_rank(p, allow_range=False):
    help_text = "number of strands"
    if allow_range:
        help_text += ", or an inclusive range like 2..4"
    p.add_argument(
        "-n",
        required=True,
        type=_parse_n if allow_range else _parse_n_single,
        help=help_text,
    )


def _word_arguments(p):
    _add_rank(p)
    p.add_argument("words", nargs="*", help="words; read from stdin when absent")
    p.add_argument("--json", action="store_true", help="print results as JSON")


def _hom_arguments(p):
    p.add_argument("--hom", required=True, choices=sorted(homs.HOM_TABLE))
    _word_arguments(p)


def _rewrite_arguments(p):
    p.add_argument("--into", required=True, choices=sorted(rs.KERNEL_TABLE))
    _word_arguments(p)


def _group_arguments(p):
    p.add_argument("--group", required=True, choices=sorted(present.FAMILIES))
    _add_rank(p)
    p.add_argument("--json", action="store_true")


def _verify_arguments(p):
    from . import suite

    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="run every check")
    group.add_argument(
        "--check", action="append", choices=sorted(suite.CHECKS), help="run one named check"
    )
    _add_rank(p, allow_range=True)
    p.add_argument("--seed", type=_parse_seed, default=suite.DEFAULT_SEED)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true", help="append wall times")


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  It adds its arguments when argparse first
    dispatches to it, so that building the parser reads no layer's table
    and a command loads only the layers it runs."""

    def __init__(self, *args, arguments, **kwargs):
        super().__init__(*args, **kwargs)
        self._arguments = arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._arguments is not None:
            self._arguments(self)
            self._arguments = None
        return super().parse_known_args(args, namespace)


#: subcommand -> (help, arguments, function), in the order --help lists them
_COMMANDS = {
    "normalize": (
        "reduced form of a word (not a normal form)", _word_arguments, _cmd_normalize
    ),
    "image": ("evaluate a word in a concrete quotient", _hom_arguments, _cmd_image),
    "kernel": ("test whether a word lies in a kernel", _hom_arguments, _cmd_kernel),
    "rewrite": (
        "rewrite a kernel word over subgroup generators", _rewrite_arguments, _cmd_rewrite
    ),
    "present": ("print a stored presentation", _group_arguments, _cmd_present),
    "abelianize": (
        "print abelian invariants of a presentation", _group_arguments, _cmd_abelianize
    ),
    "verify": ("run the verification suite", _verify_arguments, _cmd_verify),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvbraid",
        description="words, quotients, and kernel presentations for twisted virtual braid groups",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (help_text, arguments, fn) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, arguments=arguments).set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep both.
        return int(exc.code or 0)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at the null device so that the flush at exit, which
        # would find the pipe closed again, stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, RecursionError) as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of resources ({type(exc).__name__}{detail})", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
