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

from .abelian import abelian_invariants, invariants_text
from .homs import HOM_TABLE, _require_kernel_test, image, in_kernel, make_hom
from .perms import format_element
from .present import FAMILIES, build_presentation, presentation_dict, presentation_text
from .rs import KERNEL_TABLE, make_context, rewrite_tau
from .suite import CHECKS, DEFAULT_SEED, format_report, run_suite
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


def _parse_n(text: str) -> range:
    """Accept a single rank like "3" or an inclusive range like "2..4"."""
    lo, dots, hi = text.partition("..")
    hi = hi if dots else lo
    error = argparse.ArgumentTypeError(f"bad rank{' range' if dots else ''} {text!r}")
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
    value = _ascii_int(digits, argparse.ArgumentTypeError(f"bad seed {text!r}"))
    return value if digits == text else -value


def _print_json(value):
    # json is imported here only, so a start without --json skips it
    import json

    print(json.dumps(value))


def _answer_words(args, answer, text=str):
    """Read the words (the arguments, else stdin), answer each, and print
    one line per answer, or JSON: a single answer bare, any other number
    of answers (none included) as a list."""
    words = args.words or [line.strip() for line in sys.stdin if line.strip()]
    answers = [answer(parse_word(word, args.n)) for word in words]
    if args.json:
        _print_json(answers[0] if len(answers) == 1 else answers)
    else:
        for a in answers:
            print(text(a))
    return 0


def _cmd_normalize(args):
    return _answer_words(args, lambda w: format_word(reduce(w)))


def _cmd_image(args):
    h = make_hom(args.hom, args.n)
    fmt = format_element if h.concrete else format_word
    return _answer_words(args, lambda w: fmt(image(h, w)))


def _cmd_kernel(args):
    h = make_hom(args.hom, args.n)
    _require_kernel_test(h)
    return _answer_words(
        args, lambda w: in_kernel(h, w), lambda v: "true" if v else "false"
    )


def _cmd_rewrite(args):
    ctx = make_context(args.into, args.n)
    return _answer_words(args, lambda w: format_word(rewrite_tau(ctx, w).word))


def _cmd_present(args):
    pres = build_presentation(args.group, args.n)
    if args.json:
        _print_json(presentation_dict(pres))
    else:
        print(presentation_text(pres))
    return 0


def _cmd_abelianize(args):
    inv = abelian_invariants(build_presentation(args.group, args.n))
    if args.json:
        _print_json({"free_rank": inv.free_rank, "torsion": list(inv.torsion)})
    else:
        print(invariants_text(inv))
    return 0


def _cmd_verify(args):
    checks = None if args.all else args.check
    reports = run_suite(checks=checks, n_range=args.n, seed=args.seed)
    if not reports:
        ns = args.n
        # len() overflows on a range longer than sys.maxsize
        ranks = f"{ns[0]}..{ns[-1]}" if ns[-1] - ns[0] > 1 else ",".join(map(str, ns))
        supported = "; ".join(
            f"{cid} n={','.join(map(str, CHECKS[cid][1]))}" for cid in checks or CHECKS
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
        print(format_report(reports, include_timings=args.timings))
    return 0 if all(r.status == "pass" for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvbraid",
        description="words, quotients, and kernel presentations for twisted virtual braid groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rank(p, allow_range=False):
        help_text = "number of strands"
        if allow_range:
            help_text += ", or an inclusive range like 2..4"
        p.add_argument(
            "-n",
            required=True,
            type=_parse_n if allow_range else _parse_n_single,
            help=help_text,
        )

    def add_words(p):
        p.add_argument("words", nargs="*", help="words; read from stdin when absent")
        p.add_argument("--json", action="store_true", help="print results as JSON")

    p = sub.add_parser("normalize", help="reduced form of a word (not a normal form)")
    add_rank(p)
    add_words(p)
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("image", help="evaluate a word in a concrete quotient")
    p.add_argument("--hom", required=True, choices=sorted(HOM_TABLE))
    add_rank(p)
    add_words(p)
    p.set_defaults(fn=_cmd_image)

    p = sub.add_parser("kernel", help="test whether a word lies in a kernel")
    p.add_argument("--hom", required=True, choices=sorted(HOM_TABLE))
    add_rank(p)
    add_words(p)
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("rewrite", help="rewrite a kernel word over subgroup generators")
    p.add_argument("--into", required=True, choices=sorted(KERNEL_TABLE))
    add_rank(p)
    add_words(p)
    p.set_defaults(fn=_cmd_rewrite)

    p = sub.add_parser("present", help="print a stored presentation")
    p.add_argument("--group", required=True, choices=sorted(FAMILIES))
    add_rank(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_present)

    p = sub.add_parser("abelianize", help="print abelian invariants of a presentation")
    p.add_argument("--group", required=True, choices=sorted(FAMILIES))
    add_rank(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_abelianize)

    p = sub.add_parser("verify", help="run the verification suite")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="run every check")
    group.add_argument(
        "--check", action="append", choices=sorted(CHECKS), help="run one named check"
    )
    add_rank(p, allow_range=True)
    p.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true", help="append wall times")
    p.set_defaults(fn=_cmd_verify)

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
