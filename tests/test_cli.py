import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvbraid import cli
from tvbraid.cli import main
from tvbraid.homs import HOM_TABLE
from tvbraid.present import FAMILIES
from tvbraid.rs import KERNEL_TABLE
from tvbraid.suite import CHECKS, CheckReport

from cli_pins import got_and_want, max_rank, rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "row", [pytest.param(row, id=" ".join(row["args"])) for row in rows() if max_rank(row) <= 8]
)
def test_pinned_call(row):
    """A frozen call of tests/golden/cli_pins.json gives the exit code and
    stdout of its row.  The rows of rank above 8 run only in CI, where
    tests/cli_pins.py runs every row through the installed script."""
    got, want = got_and_want(row, *_run_in_process(row["args"], row["stdin"]))
    assert got == want


def test_present_output(capsys):
    code, out, _ = run_cli(capsys, "present", "--group", "tvpn", "-n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tvpn n=2"
    assert sum(1 for l in lines if l.startswith("gen ")) == 4
    assert sum(1 for l in lines if l.startswith("rel ")) == 4


def test_present_json(capsys):
    code, out, _ = run_cli(capsys, "present", "--group", "tvpn", "-n", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "tvpn"
    assert len(data["generators"]) == 4


def test_normalize_gives_a_reduced_form_not_a_normal_form(capsys):
    # l2,1 equals l1,2:12 by the swap identity, so this word is the
    # identity; normalize does not apply that identity and leaves it as is
    code, out, _ = run_cli(capsys, "normalize", "-n", "3", "l2,1 l1,2:12^-1")
    assert code == 0
    assert out == "l2,1 l1,2:12^-1\n"


def test_stdin_batch(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("s1 s1^-1\ng1 g2 g1\n"))
    code, out, _ = run_cli(capsys, "normalize", "-n", "3")
    assert code == 0
    assert out.splitlines() == ["", "g1 g2 g1"]


def test_batch_is_all_or_nothing(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("g1\nbogus\n"))
    code, out, err = run_cli(capsys, "normalize", "-n", "3")
    assert code == 2
    assert out == ""
    assert "bogus" in err


def test_json_batch(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("g1\ng2\n"))
    code, out, _ = run_cli(capsys, "image", "--hom", "psiP", "-n", "2", "--json")
    assert code == 0
    assert json.loads(out) == ["[1,0]", "[0,1]"]


@pytest.mark.parametrize(
    "argv",
    [
        ("normalize", "-n", "3"),
        ("image", "--hom", "phiP", "-n", "3"),
        ("kernel", "--hom", "phiP", "-n", "3"),
        ("rewrite", "--into", "tvp", "-n", "3"),
    ],
)
def test_json_empty_batch(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, out, err) == (0, "[]\n", "")


def test_parse_error_exit(capsys):
    # indices are ASCII digits only
    for token in ("q1", "s\u0661", "l1,2:\u0661"):
        code, out, err = run_cli(capsys, "normalize", "-n", "3", token)
        assert (code, out, err) == (2, "", f"error: bad token {token!r}\n")


@pytest.mark.parametrize("rank", ["3", "2"])
@pytest.mark.parametrize(
    "token, message",
    [
        # the atom refuses these, whatever the rank, and its error names the token
        ("l1,2:3", "bad token 'l1,2:3': decoration (3,) not within pair (1, 2)"),
        ("x2,1:3^-1", "bad token 'x2,1:3^-1': decoration (3,) not within pair (2, 1)"),
        ("g1:1", "bad token 'g1:1': kind 'g' cannot carry a decoration"),
        ("s1:1", "bad token 's1:1': kind 's' cannot carry a decoration"),
        ("s1,2:1", "bad token 's1,2:1': kind 's' takes one strand index"),
        # rules of the decoration's text, checked by the parser
        ("l1,2:11", "decoration names an index twice: 'l1,2:11'"),
        ("g1:11", "decoration names an index twice: 'g1:11'"),
        ("l1,2:,1", "bad decoration ',1'"),
    ],
)
def test_bad_decoration_errors(capsys, rank, token, message):
    code, out, err = run_cli(capsys, "normalize", "-n", rank, token)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_overlong_index_is_a_bad_token(capsys):
    # past the interpreter's limit on digits converted by int(): one short
    # line that cuts the token short and names the digit count
    long = "1" * 5000
    cases = [
        ("s" + long, "'s1111111111111111111'...: index of 5000 digits"),
        ("l1,2" + long, "'l1,21111111111111111'...: index of 5001 digits"),
        (f"l1,2:{long},", "'l1,2:111111111111111'...: index of 5000 digits"),
    ]
    for token, detail in cases:
        code, out, err = run_cli(capsys, "normalize", "-n", "3", token)
        assert (code, out) == (2, "")
        assert err == f"error: bad token {detail}\n"


def test_domain_error_exit(capsys):
    code, _, err = run_cli(capsys, "rewrite", "--into", "tvp", "-n", "3", "s1")
    assert code == 3
    assert "[2,1,3]" in err
    code, _, err = run_cli(capsys, "kernel", "--hom", "plToVp", "-n", "3", "l1,2")
    assert code == 3
    code, out, err = run_cli(capsys, "image", "--hom", "plToVp", "-n", "1", "g1")
    assert (code, out, err) == (3, "", "error: atom not in the domain of plToVp: g1\n")


def test_kernel_refuses_a_symbolic_target_before_reading_stdin(capsys, monkeypatch):
    class UnreadableStdin:
        def __iter__(self):
            raise AssertionError("stdin was read")

    monkeypatch.setattr("sys.stdin", UnreadableStdin())
    code, out, err = run_cli(capsys, "kernel", "--hom", "plToVp", "-n", "3")
    assert (code, out) == (3, "")
    assert err == (
        "error: kernel membership is only decidable for model targets, not vpn\n"
    )


@pytest.mark.parametrize(
    "callee, argv, exc",
    [
        ("make_hom", ("image", "--hom", "phiPT", "-n", "4", "s1"), MemoryError()),
        ("build_presentation", ("present", "--group", "hln", "-n", "4"), MemoryError()),
        (
            "rewrite_tau",
            ("rewrite", "--into", "pt", "-n", "4", "s1 r1"),
            RecursionError("maximum recursion depth exceeded"),
        ),
        ("split", ("verify", "--check", "split-random", "-n", "3"), MemoryError()),
    ],
)
def test_exhaustion_exits_4_with_one_line(capsys, monkeypatch, callee, argv, exc):
    """Running out of memory or recursion depth is exit 4, not the exit 1 of
    a failed check, and stderr holds one error line with no traceback."""

    def exhausted(*args, **kwargs):
        raise exc

    # the cli calls each through the module of the layer that defines it,
    # and a suite check calls split by the name that the suite imports
    home = {
        "make_hom": "homs",
        "build_presentation": "present",
        "rewrite_tau": "rs",
        "split": "suite",
    }[callee]
    monkeypatch.setattr(f"tvbraid.{home}.{callee}", exhausted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err.startswith("error: out of resources (") and err.count("\n") == 1
    assert type(exc).__name__ in err and "Traceback" not in err


def test_closed_stdout_exits_141_quietly(capsys, monkeypatch, tmp_path):
    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as f:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(f.fileno()))
        code = main(["present", "--group", "pln", "-n", "3"])
        monkeypatch.undo()
    assert code == 141
    assert capsys.readouterr().err == ""


def test_usage_error_exit(capsys):
    assert main(["image", "-n", "3", "s1"]) == 2  # missing --hom
    capsys.readouterr()
    assert main(["normalize", "-n", "0", "s1"]) == 2
    capsys.readouterr()
    assert main(["normalize", "-n", "2..4", "s1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,message",
    [
        (("rewrite", "--into", "tvp", "-n", "2..4", "s1"), "rank ranges are only accepted by verify"),
        (("verify", "--all", "-n", "4..2"), "bad rank range '4..2'"),
        (("normalize", "-n", "0", "s1"), "bad rank '0'"),
        # ranks are ASCII digits only
        (("normalize", "-n", "1_0", "s1"), "bad rank '1_0'"),
        (("normalize", "-n", "\u0663", "s1"), "bad rank '\u0663'"),
        (("normalize", "-n", "+3", "s1"), "bad rank '+3'"),
        (("normalize", "-n", " 3", "s1"), "bad rank ' 3'"),
        # up to 20 characters an argument shows whole, past them cut short
        pytest.param(
            ("normalize", "-n", "0" * 20, "s1"), f"bad rank {'0' * 20!r}", id="20-digits"
        ),
        pytest.param(
            ("normalize", "-n", "9" * 5000, "s1"),
            f"bad rank {'9' * 20!r}... of 5000 characters",
            id="5000-digits",
        ),
    ],
)
def test_rank_errors_keep_their_message(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.endswith(f"error: argument -n: {message}\n")
    assert err.count("error:") == 1


@pytest.mark.parametrize(
    "seed",
    [
        "\u0665",
        " 1_0 ",
        "1_0",
        "+5",
        "--5",
        "",
        pytest.param("+" + "9" * 19, id="20-characters"),
        pytest.param("9" * 20 + "x", id="21-characters"),
        pytest.param("9" * 5000, id="5000-digits"),
    ],
)
def test_seed_errors_exit_2(capsys, seed):
    """--seed takes an optional "-" and ASCII digits, as -n takes digits.
    The error shows the seed whole, or cut short when it is over-long."""
    code, out, err = run_cli(
        capsys, "verify", "--check", "split-random", "-n", "3", f"--seed={seed}"
    )
    assert code == 2 and out == ""
    shown = repr(seed) if len(seed) <= 20 else f"{seed[:20]!r}... of {len(seed)} characters"
    assert err.endswith(f"error: argument --seed: bad seed {shown}\n")


def test_negative_seed_is_a_seed(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "split-random", "-n", "3", "--seed", "-7")
    assert code == 0
    assert out.splitlines()[-1] == "1/1 checks passed"


def test_verify_single_check(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "abelian-invariants", "-n", "2"
    )
    assert code == 0
    assert "abelian-invariants" in out
    assert out.strip().endswith("1/1 checks passed")


def test_verify_runs_each_named_check_once_in_suite_order(capsys):
    """Repeated and out-of-order --check run each check once, in the
    suite's order, and the "no check runs" error lists them the same way."""
    checks = ("--check", "pl-to-vp", "--check", "relators-vanish", "--check", "pl-to-vp")
    code, out, _ = run_cli(capsys, "verify", *checks, "-n", "3")
    assert code == 0
    names = [line.split()[0] for line in out.splitlines()]
    assert names == ["relators-vanish", "pl-to-vp", "2/2"]
    code, out, err = run_cli(capsys, "verify", *checks, "-n", "9")
    assert (code, out) == (2, "")
    assert err == (
        "error: no check runs at n=9; "
        "supported ranks: relators-vanish n=2,3,4,5; pl-to-vp n=3,4\n"
    )


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "relators-vanish", "-n", "2", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data[0]["check"] == "relators-vanish"
    assert data[0]["status"] == "pass"


def test_verify_reports_failure(capsys, monkeypatch):
    def fake_run_suite(checks=None, n_range=None, seed=0):
        return [CheckReport("relators-vanish", 2, "fail", "forced", 0.0)]

    monkeypatch.setattr("tvbraid.suite.run_suite", fake_run_suite)
    code, out, _ = run_cli(capsys, "verify", "--all", "-n", "2")
    assert code == 1
    assert "FAIL" in out


def test_crashing_check_fails_with_its_exception_named(capsys, monkeypatch):
    """A check that raises anything but MemoryError or RecursionError is a
    failed check, exit 1, and its report names the exception's type."""

    def crash(*args, **kwargs):
        raise ValueError("no such coset")

    monkeypatch.setattr("tvbraid.suite.split", crash)
    code, out, _ = run_cli(capsys, "verify", "--check", "split-random", "-n", "3")
    assert code == 1
    assert out.splitlines() == [
        "split-random  n=3  FAIL  exception: ValueError: no such coset",
        "0/1 checks passed",
    ]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tvbraid.cli", "normalize", "-n", "2", "g1 g1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == ""


#: prints to stderr the watched standard modules that the call loaded, and
#: the tvbraid modules that it executed (an executed module's namespace holds
#: __builtins__); reading __dict__ through object leaves a lazy layer unloaded
_FOOTPRINT = """
import sys
from tvbraid.cli import main
code = main(sys.argv[1:])
watched = ("argparse", "dataclasses", "gettext", "inspect", "json")
print(" ".join(m for m in watched if m in sys.modules), file=sys.stderr)
ran = [
    name for name, m in sys.modules.items()
    if name.startswith("tvbraid.") and "__builtins__" in object.__getattribute__(m, "__dict__")
]
print(" ".join(sorted(name.removeprefix("tvbraid.") for name in ran)), file=sys.stderr)
sys.exit(code)
"""

_PRESENT_LAYERS = "_record cli conj present words"


@pytest.mark.parametrize(
    "argv, line, loaded, layers",
    [
        pytest.param(("normalize", "-n", "3", "s1"), "s1", "", "_record cli words", id="text"),
        pytest.param(
            ("normalize", "-n", "3", "--json", "s1"), '"s1"', "json", "_record cli words", id="json"
        ),
        pytest.param(
            ("normalize", "--help"),
            "usage: tvbraid normalize [-h] -n N [--json] [words ...]",
            "argparse gettext",
            "_record cli words",
            id="help",
        ),
        pytest.param(
            ("image", "--hom", "phiP", "-n", "3", "s1"),
            "[2,1,3]",
            "",
            "_record cli conj homs perms present words",
            id="image",
        ),
        pytest.param(
            ("kernel", "--hom", "phiH", "-n", "3", "s2"),
            "true",
            "",
            "_record cli conj homs perms present words",
            id="kernel",
        ),
        pytest.param(
            ("rewrite", "--into", "pl", "-n", "3", "g1 l1,2 g1"),
            "l1,2:1",
            "",
            "_record cli conj homs perms present rs words",
            id="rewrite",
        ),
        pytest.param(
            ("present", "--group", "pln", "-n", "3"), "pln n=3", "", _PRESENT_LAYERS, id="present"
        ),
        pytest.param(
            ("abelianize", "--group", "tvhn", "-n", "4"),
            "Z^1 + Z_2^4",
            "",
            "_record abelian cli conj present words",
            id="abelianize",
        ),
        pytest.param(
            ("verify", "--check", "pl-to-vp", "-n", "3"),
            "1/1 checks passed",
            "",
            "_record abelian cli conj homs perms present rs suite words",
            id="verify",
        ),
    ],
)
def test_cold_start_import_footprint(argv, line, loaded, layers):
    """A CLI start loads neither dataclasses nor inspect, json only for
    --json output, and argparse (with gettext) only for --help and usage
    errors; each subcommand executes only the layers it runs."""
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, *argv], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
    assert proc.stderr.splitlines() == [loaded, layers]


_LIBRARY_FOOTPRINT = """
import sys
import tvbraid
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "tvbraid")))
print(" ".join(
    name for name, m in sys.modules.items()
    if name.startswith("tvbraid.") and "__builtins__" in object.__getattribute__(m, "__dict__")
))
assert tvbraid.run_suite is sys.modules["tvbraid.suite"].run_suite
names = {}
exec("from tvbraid import *", names)
assert set(tvbraid.__all__) <= names.keys()
try:
    tvbraid.no_such_name
except AttributeError:
    print("AttributeError")
"""


def test_library_import_footprint():
    """import tvbraid registers the seven layers and the record base, and
    executes none of them, nor registers the suite; run_suite, import *
    and a missing name behave as before."""
    proc = subprocess.run(
        [sys.executable, "-c", _LIBRARY_FOOTPRINT], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    registered, executed, missing = proc.stdout.splitlines()
    layers = ("_record", "abelian", "conj", "homs", "perms", "present", "rs", "words")
    assert registered == " ".join(["tvbraid", *(f"tvbraid.{m}" for m in layers)])
    assert executed == ""
    assert missing == "AttributeError"


def _golden_calls(name):
    """(argv, text) per call in a frozen CLI file under tests/golden/: a
    "$ tvbraid ..." line, then what the call printed, frozen at COLUMNS=80."""
    calls = []
    for line in (Path(__file__).parent / "golden" / name).read_text().splitlines(True):
        if line.startswith("$ tvbraid"):
            calls.append((line.split()[2:], ""))
        else:
            calls[-1] = (calls[-1][0], calls[-1][1] + line)
    return [pytest.param(argv, text, id=" ".join(argv)) for argv, text in calls]


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse rewraps usage from 3.13 on")
@pytest.mark.parametrize("argv, text", _golden_calls("cli_help.txt"))
def test_help_text_is_frozen(capsys, monkeypatch, argv, text):
    """The --help of tvbraid and of each subcommand, as frozen."""
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv) == (0, text, "")


@pytest.mark.parametrize("argv, text", _golden_calls("cli_usage_errors.txt"))
def test_usage_errors_are_frozen(capsys, monkeypatch, argv, text):
    """A subcommand with no arguments prints its usage and names what is
    missing, as frozen.  From 3.13 on argparse wraps the usage lines at
    other places, so there the words are compared and not the wrapping."""
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    if sys.version_info < (3, 13):
        assert err == text
    else:
        assert err.split() == text.split()


def test_rank_range_only_for_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "relators-vanish", "-n", "2..3")
    assert code == 0
    assert out.count("relators-vanish") == 2


def test_verify_empty_selection_is_an_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--all", "-n", "7")
    assert code == 2
    assert out == ""
    assert err.startswith("error: no check runs at n=7; supported ranks: ")
    assert "transversal-classification n=2,3,4,5,6" in err
    assert "derived-pl-table n=3" in err
    assert err.count(" n=") == 10
    code, out, err = run_cli(capsys, "verify", "--check", "pl-to-vp", "-n", "5..6")
    assert code == 2
    assert err.strip() == "error: no check runs at n=5,6; supported ranks: pl-to-vp n=3,4"


def test_verify_huge_rank_range_stays_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--check", "derived-pl-table", "-n", "1..1000000000000"
    )
    assert code == 0
    assert out.splitlines()[-1] == "1/1 checks passed"
    code, out, err = run_cli(capsys, "verify", "--check", "pl-to-vp", "-n", "5..1000000000000")
    assert code == 2
    assert out == ""
    assert err.strip() == (
        "error: no check runs at n=5..1000000000000; supported ranks: pl-to-vp n=3,4"
    )
    # a range longer than sys.maxsize ranks has no len()
    code, out, err = run_cli(capsys, "verify", "--check", "pl-to-vp", "-n", "5..1" + "0" * 20)
    assert code == 2
    assert err.startswith(f"error: no check runs at n=5..1{'0' * 20}; ")


#: the ASCII grammar of a rank and of a word token, written out here
RANK = re.compile(r"[0-9]+")
TOKEN = re.compile(r"[srglx][0-9]+(,[0-9]+)?(:[0-9,]+)?(\^-1)?")

#: ASCII digits, then Arabic-Indic, Devanagari and fullwidth three, and a
#: superscript two, which is a digit to str.isdigit but not to int()
_digits = st.text(st.sampled_from("0123456789\u0663\u0969\uff13\u00b2"), min_size=1, max_size=3)
_index = st.one_of(st.integers(1, 4).map(str), _digits)
_deco = st.one_of(
    st.sampled_from(["", ":1", ":21", ":1,2", ":2,", ":1,1", ":,", ":\u0661"]),
    _digits.map(":".__add__),
)
_sign = st.sampled_from(["", "^-1", "^1"])
_grammar_token = st.one_of(
    st.sampled_from(["s1", "r2", "g3^-1", "l1,2:1", "x2,1:12^-1", "l1,3"]),
    st.builds("{}{}{}".format, st.sampled_from("srg"), _index, _sign),
    st.builds("{}{},{}{}{}".format, st.sampled_from("lx"), _index, _index, _deco, _sign),
)
_junk = st.text(st.sampled_from("sglx1,:^- _+\u0661\t"), min_size=1, max_size=6)
_junk_rank = st.one_of(_digits, st.sampled_from(["0", "1_0", "+3", " 3", "3 ", "2..4", ""]))
_rank = st.one_of(st.integers(3, 12).map(str), _junk_rank)


@settings(max_examples=300, deadline=None)
@given(_rank, st.lists(st.one_of(_grammar_token, _junk), min_size=1, max_size=3))
def test_generated_normalize_input_answers_or_exits_2(rank, tokens):
    """Any rank and tokens either normalize (exit 0) or fail as unusable
    input (exit 2) without a traceback, and exit 0 only on ASCII input."""
    # argparse would read a word that starts with "-" as an option
    tokens = [t for t in tokens if not t.lstrip().startswith("-")] or ["s1"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["normalize", "-n", rank, *tokens])
    assert code in (0, 2), (rank, tokens, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert RANK.fullmatch(rank), rank
        assert all(TOKEN.fullmatch(t) for word in tokens for t in word.split()), tokens


#: every exit code the cli module's docstring documents
DOCUMENTED_EXITS = (0, 1, 2, 3, 4, 141)

#: a junk rank that reads as a rank above 6 is left out: present and
#: rewrite at rank 999 run for minutes and grow to gigabytes
_small_rank = st.one_of(
    st.integers(0, 6).map(str),
    _junk_rank.filter(lambda r: not RANK.fullmatch(r) or int(r) <= 6),
)
#: words that lie in some kernels at small ranks, next to generated ones
_kernel_word = st.sampled_from(
    ["", "g1 g1", "s1 g3 s1^-1 g3", "g1 l1,2 g1", "s1 r1 g3 s2^-1 r2 g3", "l1,2 x1,2"]
)
_word = st.one_of(
    _kernel_word,
    st.lists(st.one_of(_grammar_token, _junk), max_size=3).map(" ".join),
)


def _run_in_process(argv, stdin=""):
    """Exit code and stdout of main(argv), after checking that the code is
    documented and that stderr holds no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), mock.patch.object(
        sys, "stdin", io.StringIO(stdin)
    ):
        code = main(argv)
    assert code in DOCUMENTED_EXITS, (argv, stdin, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, stdin)
    return code, out.getvalue()


def _word_input(words, batch):
    """(argv, stdin, words the command answers): the words as arguments,
    or as a stdin batch, which skips blank lines."""
    if batch:
        return [], "\n".join(words), [w for w in words if w.strip()]
    # argparse would read a word that starts with "-" as an option
    words = [w for w in words if not w.lstrip().startswith("-")] or ["g1 g1"]
    return words, "", words


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([*sorted(KERNEL_TABLE), "tv"]),
    _small_rank,
    st.lists(_word, min_size=1, max_size=3),
    st.booleans(),
)
def test_generated_rewrite_input_exits_as_documented(kernel, rank, words, batch):
    """rewrite, with the words as arguments or as a stdin batch, exits with
    a documented code, without a traceback, and on exit 0 prints one line
    per word; a stdin batch skips blank lines."""
    argv, stdin, words = _word_input(words, batch)
    code, out = _run_in_process(["rewrite", "--into", kernel, "-n", rank, *argv], stdin)
    if code == 0:
        assert out.count("\n") == len(words), (kernel, rank, words, out)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["image", "kernel"]),
    st.sampled_from([*sorted(HOM_TABLE), "phi"]),
    _small_rank,
    st.lists(_word, min_size=1, max_size=3),
    st.booleans(),
)
def test_generated_image_and_kernel_input_exits_as_documented(
    command, hom, rank, words, batch
):
    """image and kernel through every map, with the words as arguments or
    as a stdin batch, exit with a documented code, without a traceback,
    and on exit 0 print one line per word.  plToVp has a symbolic target,
    so kernel through it exits 3 on every batch, an empty one included."""
    argv, stdin, words = _word_input(words, batch)
    code, out = _run_in_process([command, "--hom", hom, "-n", rank, *argv], stdin)
    if code == 0:
        assert out.count("\n") == len(words), (command, hom, rank, words, out)
    if command == "kernel" and hom == "plToVp" and code != 2:
        assert code == 3, (rank, words)


#: checks that take well under a second at every rank they support
_CHEAP_CHECKS = [
    "relators-vanish",
    "transversal-classification",
    "abelian-invariants",
    "pl-to-vp",
    "bar-conjugation",
]
_rank_range = st.sampled_from(["2..4", "1..6", "4..2", "0..3", "3..3", "5..1" + "0" * 20])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([*_CHEAP_CHECKS, "relators"]), min_size=1, max_size=2),
    st.one_of(_small_rank, _rank_range),
    st.sampled_from(
        [
            [],
            ["--json"],
            ["--timings"],
            ["--seed", "5"],
            ["--seed", "x"],
            ["--seed", "\u0665"],
            ["--seed", " 1_0 "],
        ]
    ),
)
def test_generated_verify_input_exits_as_documented(checks, rank, flags):
    """verify with cheap checks exits with a documented code, without a
    traceback, at every small, junk and range rank, and prints on exit 0
    and 1."""
    argv = [arg for check in checks for arg in ("--check", check)]
    code, out = _run_in_process(["verify", *argv, "-n", rank, *flags])
    if code in (0, 1):
        assert out.strip(), (checks, rank, flags)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["present", "abelianize"]),
    st.sampled_from([*sorted(FAMILIES), "tvn"]),
    _small_rank,
    st.sampled_from([[], ["--json"]]),
)
def test_generated_present_input_exits_as_documented(command, family, rank, flags):
    """present and abelianize exit with a documented code, without a
    traceback, at every small and every junk rank, and print on exit 0."""
    code, out = _run_in_process([command, "--group", family, "-n", rank, *flags])
    if code == 0:
        assert out.strip(), (command, family, rank, flags)


def _argparse_exits(argv):
    """Whether build_parser().parse_args(argv) exits: --help or a usage error."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            return True
    return False


def _scanned_as_argparse_parses(argv):
    """Whether cli._scan takes argv.  When it does, argparse must take argv
    too, into a namespace with the same attributes, fn and command included."""
    scanned = cli._scan(argv)
    if scanned is None:
        return False
    assert not _argparse_exits(argv), argv
    assert vars(scanned) == vars(cli.build_parser().parse_args(argv)), argv
    return True


#: the names each option takes, and a junk name
_CHOICES = {
    "--hom": [*sorted(HOM_TABLE), "phi"],
    "--into": [*sorted(KERNEL_TABLE), "tv"],
    "--group": [*sorted(FAMILIES), "tvn"],
    "--check": [*CHECKS, "relators"],
}
_good_rank = st.one_of(st.integers(1, 40).map(str), st.sampled_from(["007", "1" + "0" * 30]))
_good_rank_or_range = st.one_of(
    _good_rank, st.builds("{}..{}".format, st.integers(1, 4), st.integers(4, 9))
)
_good_seed = st.integers(-(10**20), 10**20).map(str)
_scan_word = st.one_of(_grammar_token, _junk).filter(lambda w: not w.startswith("-"))


def _spellings(flag, values):
    """An option as a call may spell it: "flag value", abbreviated,
    "flag=value", or with the value attached."""
    return st.one_of(
        st.tuples(st.just(flag), values).map(list),
        values.map(lambda v: [flag[:4], v]),
        values.map(lambda v: [f"{flag}={v}"]),
        values.map(lambda v: [flag + v]),
    )


_piece = st.one_of(
    _spellings("-n", st.one_of(_good_rank_or_range, _junk_rank, st.sampled_from(["-3", "4..2"]))),
    _spellings("--seed", st.one_of(_good_seed, st.sampled_from(["", "x", "+5", "--5", "\u0665"]))),
    *(_spellings(flag, st.sampled_from(names)) for flag, names in _CHOICES.items()),
    st.sampled_from(
        [["--json"], ["--all"], ["--timings"], ["--js"], ["--json=1"], ["--"], ["-h"], ["--help"]]
    ),
    st.one_of(_scan_word, st.sampled_from(["-s1", "-", "-3", "--x", ""])).map(lambda w: [w]),
)


#: the option that names a map, kernel or family, per subcommand
_NAMED_BY = {
    "image": "--hom",
    "kernel": "--hom",
    "rewrite": "--into",
    "present": "--group",
    "abelianize": "--group",
}


@st.composite
def _well_formed_call(draw):
    """A call in the form the scanner takes: the subcommand, its options in
    any order, each once but --check, as "flag value", then the words."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    pieces = [["-n", draw(_good_rank_or_range if command == "verify" else _good_rank)]]
    if draw(st.booleans()):
        pieces.append(["--json"])
    if command in _NAMED_BY:
        flag = _NAMED_BY[command]
        pieces.append([flag, draw(st.sampled_from(_CHOICES[flag][:-1]))])
    if command == "verify":
        checks = draw(st.lists(st.sampled_from(list(CHECKS)), max_size=3))
        pieces += [["--check", c] for c in checks] or [["--all"]]
        if draw(st.booleans()):
            pieces.append(["--seed", draw(_good_seed)])
        if draw(st.booleans()):
            pieces.append(["--timings"])
    words = []
    if command in ("normalize", "image", "kernel", "rewrite"):
        words = draw(st.lists(_scan_word, max_size=3))
    pieces = draw(st.permutations(pieces))
    return [command, *(arg for piece in pieces for arg in piece), *words]


@settings(max_examples=300, deadline=None)
@given(_well_formed_call())
def test_well_formed_calls_are_scanned(argv):
    """A call in the documented form is read without argparse, into the
    namespace argparse would give."""
    assert _scanned_as_argparse_parses(argv), argv


@settings(max_examples=500, deadline=None)
@given(
    _well_formed_call(),
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 2), _piece), max_size=3),
    st.sampled_from([None, "norm", "verif", "-h", "--help", "", *cli._COMMANDS]),
)
def test_scanned_calls_parse_as_argparse_parses_them(argv, edits, command):
    """Every argv that the scanner takes, argparse takes into the same
    namespace.  The calls are well-formed ones edited: arguments inserted,
    replaced or dropped, another or a junk subcommand, and pieces such as
    repeated or abbreviated options, "=" forms, attached values, "--", -h,
    dash-leading words, and good, junk and range ranks."""
    argv = list(argv)
    for at, kind, piece in edits:
        at = min(at, len(argv))
        if kind == 0:
            argv[at:at] = piece
        elif kind == 1:
            argv[at : at + 1] = piece
        else:
            del argv[at : at + 1]
    if command is not None:
        argv[:1] = [command] if command else []
    _scanned_as_argparse_parses(argv)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(argv.split(), id=argv)
        for argv in [
            "",
            "--help",
            "norm -n 3 s1",
            "normalize -h",
            "normalize -n 3 --help",
            "normalize --js -n 3 s1",
            "normalize -n=3 s1",
            "normalize -n3 s1",
            "normalize -n 3 -- s1",
            "normalize -n 3 -n 3 s1",
            "normalize -n 3 --json --json s1",
            "normalize -n 3 s1 --json",
            "normalize -n 3 -s1",
            "normalize -n",
            "normalize -n 0 s1",
            "normalize s1",
            "image -n 3 s1",
            "image --hom=phiP -n 3 s1",
            "image --hom phi -n 3 s1",
            "present --group pln -n 3 s1",
            "verify -n 3",
            "verify --all --check pl-to-vp -n 3",
            "verify --all --all -n 3",
            "verify --check nope -n 3",
            "verify --all -n 3 --seed x",
            "verify --all -n 3 --seed -- -7",
        ]
    ],
)
def test_scanner_leaves_other_calls_to_argparse(argv):
    """The scanner takes only the plain form: not --help, an unknown or
    abbreviated name, "=" forms, attached values, "--", a repeated option
    but --check, an option after a word, a dash-leading word, a value that
    fails its type or choices, or a missing or conflicting option."""
    assert cli._scan(argv) is None


def test_frozen_calls_against_the_scanner():
    """The scanner takes every pinned call on which argparse does not exit,
    and agrees with argparse on it; it takes no --help call and no usage
    error of the frozen goldens."""
    for row in rows():
        assert _scanned_as_argparse_parses(row["args"]) != _argparse_exits(row["args"]), row
    for name in ("cli_help.txt", "cli_usage_errors.txt"):
        for call in _golden_calls(name):
            argv = call.values[0]
            assert cli._scan(argv) is None, argv
            assert _argparse_exits(argv), argv
