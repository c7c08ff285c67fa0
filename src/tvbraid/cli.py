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

Each subcommand's options are one table, ``_COMMANDS``, with two readers.
A well-formed call (the subcommand, its options each once in the form
``--flag value``, then the words) is read from the table by ``_scan``,
without importing argparse.  Every other call goes to the argparse parser
that ``build_parser`` builds from the same table, exactly as before:
``--help``, usage errors, and the other spellings argparse accepts, such
as abbreviations, ``--opt=value``, ``-n3`` or options after the words.
"""

from __future__ import annotations

import os
import sys
import types

from . import abelian, homs, perms, present, rs
from .words import ParseError, format_word, parse_word, reduce


def _ascii_int(digits: str, error: Exception) -> int:
    # ASCII digits only: no sign, space, underscore or other script
    if not (digits.isascii() and digits.isdigit()):
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
    error = ValueError(f"bad rank{' range' if dots else ''} {_shown(text)}")
    start, stop = _ascii_int(lo, error), _ascii_int(hi, error)
    if start > stop or start < 1:
        raise error
    return range(start, stop + 1)


def _parse_n_single(text: str) -> int:
    if ".." in text:
        raise ValueError("rank ranges are only accepted by verify")
    return _parse_n(text).start


def _parse_seed(text: str) -> int:
    """Accept an optional "-" followed by ASCII digits."""
    digits = text.removeprefix("-")
    value = _ascii_int(digits, ValueError(f"bad seed {_shown(text)}"))
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
            for cid in suite.CHECKS
            if checks is None or cid in checks
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


def _check_ids():
    from . import suite

    return sorted(suite.CHECKS)


def _default_seed():
    from . import suite

    return suite.DEFAULT_SEED


_RANK = ("-n", {"required": True, "type": _parse_n_single, "help": "number of strands"})
_JSON = ("--json", {"action": "store_true"})
_WORDS = (
    _RANK,
    ("words", {"nargs": "*", "help": "words; read from stdin when absent"}),
    ("--json", {"action": "store_true", "help": "print results as JSON"}),
)
_HOM = (("--hom", {"required": True, "choices": lambda: sorted(homs.HOM_TABLE)}), *_WORDS)
_GROUP = (
    ("--group", {"required": True, "choices": lambda: sorted(present.FAMILIES)}),
    _RANK,
    _JSON,
)

#: subcommand -> (help, options, function), in the order --help lists them.
#: The options are (flag, add_argument keywords) in the order they are
#: added; a tuple of options is one required mutually exclusive group.
#: "choices" and "default" are functions, called only for the command that
#: runs, so that a command reads only the tables of the layers it runs.
_COMMANDS = {
    "normalize": ("reduced form of a word (not a normal form)", _WORDS, _cmd_normalize),
    "image": ("evaluate a word in a concrete quotient", _HOM, _cmd_image),
    "kernel": ("test whether a word lies in a kernel", _HOM, _cmd_kernel),
    "rewrite": (
        "rewrite a kernel word over subgroup generators",
        (("--into", {"required": True, "choices": lambda: sorted(rs.KERNEL_TABLE)}), *_WORDS),
        _cmd_rewrite,
    ),
    "present": ("print a stored presentation", _GROUP, _cmd_present),
    "abelianize": ("print abelian invariants of a presentation", _GROUP, _cmd_abelianize),
    "verify": (
        "run the verification suite",
        (
            (
                ("--all", {"action": "store_true", "help": "run every check"}),
                (
                    "--check",
                    {"action": "append", "choices": _check_ids, "help": "run one named check"},
                ),
            ),
            (
                "-n",
                {
                    "required": True,
                    "type": _parse_n,
                    "help": "number of strands, or an inclusive range like 2..4",
                },
            ),
            ("--seed", {"type": _parse_seed, "default": _default_seed}),
            _JSON,
            ("--timings", {"action": "store_true", "help": "append wall times"}),
        ),
        _cmd_verify,
    ),
}


def _groups(options):
    """The options as groups: a lone option is a group of one."""
    return [entry if isinstance(entry[0], tuple) else (entry,) for entry in options]


def _scan(argv):
    """The arguments of a well-formed call, read from _COMMANDS without
    argparse: the subcommand, its options each once in the form "--flag
    value" (--check may repeat), then words that do not start with "-".
    None for any other call, which argparse then parses."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, options, fn = _COMMANDS[argv[0]]
    groups = _groups(options)
    table = {flag: keywords for group in groups for flag, keywords in group}
    given = {}
    i = 1
    while i < len(argv) and argv[i].startswith("-"):
        flag = argv[i]
        if flag not in table:
            return None
        keywords = table[flag]
        action = keywords.get("action")
        if flag in given and action != "append":
            return None
        if action == "store_true":
            given[flag] = True
            i += 1
            continue
        if i + 1 == len(argv):
            return None
        try:
            value = keywords["type"](argv[i + 1]) if "type" in keywords else argv[i + 1]
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]():
            return None
        if action == "append":
            given.setdefault(flag, []).append(value)
        else:
            given[flag] = value
        i += 2
    words = argv[i:]
    if words and ("words" not in table or any(w.startswith("-") for w in words)):
        return None
    for group in groups:
        named = sum(flag in given for flag, _ in group)
        required = len(group) > 1 or group[0][1].get("required")
        if named > 1 or required and not named:
            return None
    args = types.SimpleNamespace(command=argv[0], fn=fn)
    for flag, keywords in table.items():
        if flag == "words":
            value = list(words)
        elif flag in given:
            value = given[flag]
        elif keywords.get("action") == "store_true":
            value = False
        else:
            value = keywords["default"]() if "default" in keywords else None
        setattr(args, flag.lstrip("-"), value)
    return args


def build_parser():
    """The argparse parser of the CLI, built from _COMMANDS.  Each
    subcommand adds its arguments when argparse first dispatches to it, so
    that building the parser reads no layer's table."""
    import argparse

    def typed(parse):
        def convert(text):
            try:
                return parse(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return convert

    def add(parser, flag, keywords):
        keywords = dict(keywords)
        for key in ("choices", "default"):
            if key in keywords:
                keywords[key] = keywords[key]()
        if "type" in keywords:
            keywords["type"] = typed(keywords["type"])
        parser.add_argument(flag, **keywords)

    class CommandParser(argparse.ArgumentParser):
        def __init__(self, *args, options, **kwargs):
            super().__init__(*args, **kwargs)
            self._options = options

        def parse_known_args(self, args=None, namespace=None):
            if self._options is not None:
                for group in _groups(self._options):
                    target = self
                    if len(group) > 1:
                        target = self.add_mutually_exclusive_group(required=True)
                    for flag, keywords in group:
                        add(target, flag, keywords)
                self._options = None
            return super().parse_known_args(args, namespace)

    parser = argparse.ArgumentParser(
        prog="tvbraid",
        description="words, quotients, and kernel presentations for twisted virtual braid groups",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=CommandParser)
    for name, (help_text, options, fn) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, options=options).set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _scan(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
