"""Byte-for-byte comparison with frozen rewriting output.

The files under tests/golden/ hold the derived relator lines of every
kernel context at n=2..4 and the sha256 of those lines, joined by
newlines, at n=5, of tvp, tvh, pl and hl at n=6, and of tvp and tvh at
n=7 (889 relators each), the representative
words of every transversal kind at n=2..5, in the order the library
produces them, the sha256 of
every stored presentation at n=1..6, and of tvpn, tvhn, pln and hln at
n=7 as well (its text followed by its JSON), and the sha256 of the Smith
form (the invariant factors, whose number is the rank) of the relation
matrix of every family at n=1..6, and of tvpn, tvhn and hln at n=7, plus
one digest over 500 seeded random matrices up to 8x8, at most half full,
with entries -6..6, and the sha256 of the classification of every Schreier
column of every kernel context at n=2..4.
"""

import hashlib
import json
import random
from itertools import permutations
from pathlib import Path

import pytest

from tvbraid.abelian import relation_matrix, smith_normal_form
from tvbraid.present import (
    FAMILIES,
    build_presentation,
    presentation_dict,
    presentation_text,
)
from tvbraid.rs import KERNEL_TABLE, classify, derive_relators, make_context
from tvbraid.words import _atom, format_atom, format_word

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


def test_derived_relator_digests():
    want = {}
    for golden in ("derived_n5.txt", "derived_n6.txt", "derived_n7.txt"):
        for line in _golden(golden):
            name, n, digest = line.split()
            want[name, int(n)] = digest
    assert set(want) == (
        {(name, 5) for name in KERNEL_TABLE}
        | {(name, 6) for name in ("tvp", "tvh", "pl", "hl")}
        | {(name, 7) for name in ("tvp", "tvh")}
    )
    for (name, n), digest in want.items():
        lines = [d.line() for d in derive_relators(make_context(name, n))]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, name


@pytest.mark.parametrize("kind", sorted(KIND_CONTEXT))
def test_transversal_words(kind):
    for n in (2, 3, 4, 5):
        tr = make_context(KIND_CONTEXT[kind], n).transversal
        assert tr.name == kind
        words = [format_word(tr.lookup(el)) for el in tr.order]
        assert words == _golden(f"transversal_{kind}_{n}.txt"), (kind, n)


def test_presentation_digests():
    want = {}
    for line in _golden("presentations.txt"):
        family, n, digest = line.split()
        want[family, int(n)] = digest
    assert set(want) == {(f, n) for f in FAMILIES for n in range(1, 7)} | {
        (f, 7) for f in ("tvpn", "tvhn", "pln", "hln")
    }
    for (family, n), digest in want.items():
        pres = build_presentation(family, n)
        data = presentation_text(pres) + json.dumps(presentation_dict(pres))
        assert hashlib.sha256(data.encode()).hexdigest() == digest, (family, n)


def _smith_digest(matrices):
    h = hashlib.sha256()
    for m in matrices:
        h.update(json.dumps(smith_normal_form(m)).encode())
    return h.hexdigest()


def _random_matrices(count=500, seed=31):
    """Small matrices, up to half full: non-unit pivots, zero rows and
    columns, and pivots whose gcd/lcm chain differs from them."""
    rng = random.Random(seed)

    def entry(density):
        return rng.randint(-6, 6) if rng.random() < density else 0

    out = []
    for _ in range(count):
        rows, cols, density = rng.randint(1, 8), rng.randint(1, 8), rng.random() / 2
        out.append([[entry(density) for _ in range(cols)] for _ in range(rows)])
    return out


def test_smith_digests():
    want = {}
    for line in _golden("smith.txt"):
        family, n, digest = line.split()
        want[family, int(n)] = digest
    assert set(want) == {(f, n) for f in FAMILIES for n in range(1, 7)} | {
        (f, 7) for f in ("tvpn", "tvhn", "hln")
    } | {("random", 500)}
    assert _smith_digest(_random_matrices()) == want.pop(("random", 500))
    for (family, n), digest in want.items():
        matrix = relation_matrix(build_presentation(family, n))
        assert _smith_digest([matrix]) == digest, (family, n)


def _column_lines(name, n):
    """One line word|column|generator (or -) per Schreier column: each
    representative, in the transversal's order, against each positive
    ambient generator and, on pl and hl, each decorated pair atom in both
    index orders."""
    ctx = make_context(name, n)
    columns = list(ctx.ambient.generators)
    if ctx.hom.target == "bars":
        for i, j in permutations(range(1, n + 1), 2):
            lo, hi = sorted((i, j))
            for deco in ((lo,), (hi,), (lo, hi)):
                columns.append(_atom(ctx.hom.pair_kind, i, j, deco))
    lines = []
    for el in ctx.transversal.order:
        t = ctx.transversal.lookup(el)
        for a in columns:
            c = classify(ctx, t, a)
            c = "-" if c is None else format_atom(c)
            lines.append(f"{format_word(t)}|{format_atom(a)}|{c}")
    return lines


def test_classified_column_digests():
    want = {}
    for line in _golden("classified_columns.txt"):
        name, n, digest = line.split()
        want[name, int(n)] = digest
    assert set(want) == {(name, n) for name in KERNEL_TABLE for n in (2, 3, 4)}
    for (name, n), digest in want.items():
        lines = _column_lines(name, n)
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, (name, n)
