"""The frozen CLI calls of ``tests/golden/cli_pins.json``.

Each row of the table holds a call's arguments, the text it reads on
stdin, and the exit code and stdout it must give: stdout whole, or its
sha256 where the text is long.  ``tests/test_cli.py`` runs the rows of
rank at most 8 through ``cli.main``.  Run as a script, this module runs
every row through the installed ``tvbraid`` console script, and exits 1
if any call's exit code or stdout differs from its row, or if a call
gives no answer within ``TIMEOUT_S`` seconds::

    python tests/cli_pins.py
"""

import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

#: how long one call may run; far above the slowest row, which takes seconds
TIMEOUT_S = 300


def rows():
    """The rows of the table, in its order."""
    return json.loads((Path(__file__).parent / "golden" / "cli_pins.json").read_text("utf-8"))


def max_rank(row):
    """The largest rank of the row's ``-n``: a rank, or a range ``a..b``."""
    args = row["args"]
    return int(args[args.index("-n") + 1].split("..")[-1])


def got_and_want(row, code, stdout):
    """The call's (exit code, stdout) and the row's pin of them, in the
    row's form: stdout whole, or its sha256 where the row pins a digest."""
    if "sha256" in row:
        got = hashlib.sha256(stdout.encode()).hexdigest()
        return (code, got), (row["exit"], row["sha256"])
    return (code, stdout), (row["exit"], row["stdout"])


def main():
    table = rows()
    failed = 0
    for row in table:
        try:
            proc = subprocess.run(
                ["tvbraid", *row["args"]],
                input=row["stdin"].encode(),
                capture_output=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            failed += 1
            print(f"FAIL tvbraid {shlex.join(row['args'])}")
            print(f"  no answer within {TIMEOUT_S} s")
            continue
        got, want = got_and_want(row, proc.returncode, proc.stdout.decode())
        if got != want:
            failed += 1
            print(f"FAIL tvbraid {shlex.join(row['args'])}")
            print(f"  exit and stdout {got!r}, pinned {want!r}")
            print(proc.stderr.decode(), end="")
    print(f"{len(table) - failed}/{len(table)} pinned calls hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
