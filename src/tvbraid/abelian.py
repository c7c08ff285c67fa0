"""Integer Smith normal form and abelian invariants of presentations.

Everything here is exact big-integer arithmetic.  Relation matrices are
almost empty, so rows are ``{column: value}`` dicts without zeros, and
one elimination, ``_pivots``, serves both ``smith_normal_form`` and
``abelian_invariants``.  Zero and repeated rows (r and -r count as one)
are dropped first, since they do not change the row lattice.

Units go first, as Havas, Holt & Rees ("Recognizing badly presented
Z-modules", 1993) do.  A row with a +-1 in column c clears column c from
every other row by row operations; the matrix is then that unit plus a
block on the remaining rows and columns, so both are deleted.  When no
unit is left, the pivot is the least entry, lowest row then lowest
column.  Its row, then its column, is reduced modulo the pivot, and the
least remainder becomes the pivot until both are clear, which keeps
entries from running away on full matrices; then its row and column are
deleted too.  The matrix is thus equivalent to the diagonal of the
pivots, and ``_chain`` reads the invariant factors off that diagonal.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import groupby
from math import gcd, lcm
from operator import index

from ._record import FrozenRecord
from .present import Presentation
from .words import format_atom


def _exponent_rows(pres: Presentation) -> list[dict[int, int]]:
    """One ``{column: exponent sum}`` dict per relator, without zeros."""
    signed = {}  # atom -> (column, exponent)
    for k, g in enumerate(pres.generators):
        signed[g] = (k, 1)
        if (inv := g.inverse()) is not g:
            signed[inv] = (k, -1)
    rows = []
    for r in pres.relators:
        row = {}
        for a in r.word.atoms:
            try:
                k, e = signed[a]
            except KeyError:
                msg = f"relator atom {format_atom(a)} is not a generator"
                raise ValueError(msg) from None
            row[k] = row.get(k, 0) + e
        rows.append({k: v for k, v in row.items() if v})
    return rows


def relation_matrix(pres: Presentation) -> list[list[int]]:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    cols = range(len(pres.generators))
    return [[row.get(k, 0) for k in cols] for row in _exponent_rows(pres)]


class AbelianInvariants(FrozenRecord):
    __slots__ = _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...]):
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)


def _distinct(rows) -> list[dict[int, int]]:
    """The nonzero rows in order, each once, with r and -r counted as one."""
    seen = set()
    out = []
    for row in rows:
        if not row:
            continue
        key = tuple(sorted(row.items()))
        if key[0][1] < 0:
            key = tuple((j, -v) for j, v in key)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _pivots(rows) -> list[int]:
    """The absolute values of the pivots that eliminate ``rows``, units
    first.  A row changed by a unit pivot is tried again, since it may have
    gained a unit; the unit's column is the one held by the fewest rows,
    which keeps fill-in low.  The input rows are not changed.
    """
    rows = dict(enumerate(map(dict, _distinct(rows))))
    where = defaultdict(set)  # column -> ids of the rows holding it
    for i, row in rows.items():
        for j in row:
            where[j].add(i)

    def add_row(src, k, q):
        """Add q times row ``src`` to row k, and drop row k if it empties."""
        other = rows[k]
        for j, b in src.items():
            if v := other.get(j, 0) + q * b:
                other[j] = v
                where[j].add(k)
            else:
                del other[j]
                where[j].discard(k)
        if not other:
            del rows[k]

    def add_col(c, j, q):
        """Add q times column c to column j."""
        for k in where[c]:
            row = rows[k]
            if v := row.get(j, 0) + q * row[c]:
                row[j] = v
                where[j].add(k)
            else:
                del row[j]
                where[j].discard(k)

    # Units first: each deletes its row and column with no remainder left.
    out = []
    todo = sorted(rows, reverse=True)
    while todo:
        i = todo.pop()
        row = rows.get(i)
        units = [j for j, v in row.items() if v in (1, -1)] if row else ()
        if not units:
            continue
        c = min(units, key=lambda j: len(where[j]))
        del rows[i]
        for j in row:
            where[j].discard(i)
        for k in where.pop(c):
            add_row(row, k, -rows[k][c] * row[c])
            if k in rows:
                todo.append(k)
        out.append(1)

    # Then the least entry, until its row and column hold nothing else.
    while rows:
        _, i, c = min((abs(v), i, j) for i, row in rows.items() for j, v in row.items())
        while True:
            row = rows[i]
            p = row[c]
            for j in [j for j in row if j != c]:
                if q := row[j] // p:
                    add_col(c, j, -q)
            for k in [k for k in where[c] if k != i]:
                if q := rows[k][c] // p:
                    add_row(row, k, -q)
            left = [(abs(rows[k][c]), k, c) for k in where[c] if k != i]
            left += [(abs(v), i, j) for j, v in row.items() if j != c]
            if not left:
                break
            _, i, c = min(left)
        del rows[i]
        del where[c]
        out.append(abs(p))
    return out


def _chain(pivots: list[int]) -> list[int]:
    """The invariant factors of the diagonal matrix of ``pivots``: each
    entry is folded into the chain so far, since diag(a, b) is equivalent
    to diag(gcd(a, b), lcm(a, b)).  A unit only adds a leading 1."""
    out = []
    for p in pivots:
        if p != 1:
            for k, d in enumerate(out):
                out[k], p = gcd(d, p), lcm(d, p)
            out.append(p)
    return [1] * (len(pivots) - len(out)) + out


def _integer(x) -> int:
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"matrix entry {x!r} is not an integer") from None


def smith_normal_form(matrix) -> list[int]:
    """The invariant factors of an integer matrix: the positive diagonal of
    its Smith normal form, each dividing the next.  Their number is the
    rank."""
    if any(len(row) != len(matrix[0]) for row in matrix):
        raise ValueError("ragged matrix")
    rows = [{j: x for j, x in enumerate(map(_integer, row)) if x} for row in matrix]
    return _chain(_pivots(rows))


def abelian_invariants(pres: Presentation) -> AbelianInvariants:
    factors = _chain(_pivots(_exponent_rows(pres)))
    return AbelianInvariants(
        len(pres.generators) - len(factors), tuple(d for d in factors if d > 1)
    )


def invariants_text(inv: AbelianInvariants) -> str:
    """Direct-sum notation with explicit exponents, e.g. ``Z^1 + Z_2^4``;
    the trivial group prints as ``0``."""
    parts = [f"Z^{inv.free_rank}"] if inv.free_rank else []
    parts += [f"Z_{d}^{len(list(run))}" for d, run in groupby(inv.torsion)]
    return " + ".join(parts) or "0"


def minor_gcd_invariants(matrix) -> list[int]:
    """Independent route to the invariant factors: the k-th determinantal
    divisor is the gcd of all k by k minors, and factors are successive
    quotients.  Exponential in size, fine for the small matrices the
    validation sweep uses."""
    from itertools import combinations

    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0

    def det(rs, cs):
        if len(rs) == 1:
            return matrix[rs[0]][cs[0]]
        total = 0
        for p, r in enumerate(rs):
            m = det(rs[:p] + rs[p + 1 :], cs[1:])
            term = matrix[r][cs[0]] * m
            total += term if p % 2 == 0 else -term
        return total

    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, det(list(rs), list(cs)))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out
