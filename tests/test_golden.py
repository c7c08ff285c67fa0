"""Byte-for-byte comparison with frozen rewriting output.

The files under tests/golden/ hold the derived relator lines of every
kernel context at n=2..4 and the representative words of every
transversal kind at n=2..5, in the order the library produces them.
"""

from pathlib import Path

import pytest

from tvbraid.rs import KERNEL_TABLE, derive_relators, make_context
from tvbraid.words import format_word

GOLDEN = Path(__file__).parent / "golden"

#: transversal kind -> a context that uses it
KIND_CONTEXT = {"perm": "tvp", "bars": "pl", "perm-bars": "pt"}


def _golden(name):
    return (GOLDEN / name).read_text().splitlines()


@pytest.mark.parametrize("name", sorted(KERNEL_TABLE))
def test_derived_relator_lines(name):
    for n in (2, 3, 4):
        lines = [d.line() for d in derive_relators(make_context(name, n))]
        assert lines == _golden(f"derived_{name}_{n}.txt"), (name, n)


@pytest.mark.parametrize("kind", sorted(KIND_CONTEXT))
def test_transversal_words(kind):
    for n in (2, 3, 4, 5):
        tr = make_context(KIND_CONTEXT[kind], n).transversal
        assert tr.name == kind
        words = [format_word(w) for w in tr.words()]
        assert words == _golden(f"transversal_{kind}_{n}.txt"), (kind, n)
