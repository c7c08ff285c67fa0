"""Integer Smith normal form and abelian invariants of presentations.

Everything here is exact big-integer arithmetic.  The pivot rule is
deterministic: smallest nonzero absolute value in the remaining block,
ties broken by lowest row then lowest column, so the search stops at the
first unit.  The pivot's row, then its column, is reduced modulo the
pivot, and the least remainder becomes the next pivot until both are
clear.  Relation matrices are almost empty, so rows are ``{column:
value}`` dicts without zeros.

``abelian_invariants`` first eliminates on unit entries, as Havas, Holt &
Rees ("Recognizing badly presented Z-modules", 1993) do.  Zero and
repeated relator rows are dropped, since they do not change the row
lattice.  A row with a +-1 in column c clears column c from every other
row by row operations; the matrix is then that unit plus a block on the
remaining rows and columns, so both are deleted and the rank grows by
one.  Only what is left reaches ``smith_normal_form``.  Invariant factors
are unique, so the answer is the full Smith form's.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import groupby
from math import gcd

from ._record import FrozenRecord, Record
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


def _dense(rows: list[dict[int, int]], cols: int) -> list[list[int]]:
    matrix = [[0] * cols for _ in rows]
    for dense, row in zip(matrix, rows):
        for k, v in row.items():
            dense[k] = v
    return matrix


def relation_matrix(pres: Presentation) -> list[list[int]]:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    return _dense(_exponent_rows(pres), len(pres.generators))


class SmithForm(Record):
    __slots__ = _fields = ("diagonal", "rank", "right", "cols")

    def __init__(self, diagonal: list[int], rank: int, right: list[list[int]], cols: int):
        self.diagonal = diagonal
        self.rank = rank
        self.right = right
        self.cols = cols


def smith_normal_form(matrix) -> SmithForm:
    """Diagonalize an integer matrix by row and column operations.

    Returns the positive diagonal entries (each dividing the next), the
    rank, and the accumulated column transform V with A_in @ V row-space
    equivalent to the diagonal form, so coordinates of a generator-exponent
    vector e in the quotient group are e @ V.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    A = [{j: x for j, x in enumerate(map(int, row)) if x} for row in matrix]
    if any(len(row) != cols for row in matrix):
        raise ValueError("ragged matrix")
    W = [[int(i == j) for i in range(cols)] for j in range(cols)]  # V by columns

    def add_row(src, dst, q):
        row = A[dst]
        for j, b in A[src].items():
            if v := row.get(j, 0) + q * b:
                row[j] = v
            else:
                row.pop(j, None)

    # Column work skips rows above min(i, j): they hold only their diagonal.
    def add_col(src, dst, q):
        for row in A[min(src, dst) :]:
            if src in row:
                if v := row.get(dst, 0) + q * row[src]:
                    row[dst] = v
                else:
                    row.pop(dst, None)
        W[dst] = [a + q * b for a, b in zip(W[dst], W[src])]

    def swap_cols(i, j):
        for row in A[min(i, j) :]:
            if i in row or j in row:
                a, b = row.pop(i, 0), row.pop(j, 0)
                row |= {k: v for k, v in ((i, b), (j, a)) if v}
        W[i], W[j] = W[j], W[i]

    def negate_col(j):  # column j is just A[j][j] here
        A[j][j] = -A[j][j]
        W[j] = [-a for a in W[j]]

    t = 0
    while True:
        best = 0
        for i in range(t, rows):
            if A[i]:
                m = min(map(abs, A[i].values()))
                if not best or m < best:
                    best, pi = m, i
                    if m == 1:
                        break
        if not best:
            break
        A[t], A[pi] = A[pi], A[t]
        pj = min(j for j, a in A[t].items() if abs(a) == best)
        if pj != t:
            swap_cols(t, pj)
        # Reduce row t, then column t, modulo the pivot, so that no row step
        # adds an entry of row t larger than the pivot; the least remainder
        # left, lowest row then column, is the next pivot.
        while True:
            p = A[t][t]
            for j in sorted(A[t]):
                if j > t:
                    add_col(t, j, -(A[t][j] // p))
            for i in range(t + 1, rows):
                if t in A[i]:
                    add_row(t, i, -(A[i][t] // p))
            left = [(abs(A[i][t]), i, t) for i in range(t + 1, rows) if t in A[i]]
            left += [(abs(a), t, j) for j, a in A[t].items() if j > t]
            if not left:
                break
            _, i, j = min(left)
            A[t], A[i] = A[i], A[t]
            if j != t:
                swap_cols(t, j)
        if A[t][t] < 0:
            negate_col(t)
        t += 1
    rank = t

    # Enforce the divisibility chain pairwise: folding column k+1 into k
    # gives the block [[a, 0], [c, c]], Euclid on its rows puts gcd(a, c)
    # at (k, k), and one column step leaves the lcm at (k+1, k+1).
    changed = True
    while changed:
        changed = False
        for k in range(rank - 1):
            if A[k + 1][k + 1] % A[k][k] == 0:
                continue
            changed = True
            add_col(k + 1, k, 1)
            while A[k + 1].get(k):
                q = A[k][k] // A[k + 1][k]
                add_row(k + 1, k, -q)
                A[k], A[k + 1] = A[k + 1], A[k]
            b = A[k].get(k + 1, 0)
            assert b % A[k][k] == 0
            add_col(k, k + 1, -(b // A[k][k]))
            if A[k][k] < 0:
                negate_col(k)
            if A[k + 1][k + 1] < 0:
                negate_col(k + 1)
    V = [list(r) for r in zip(*W)]
    return SmithForm([A[k][k] for k in range(rank)], rank, V, cols)


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


def _eliminate_units(rows: list[dict[int, int]]) -> tuple[int, list[dict[int, int]]]:
    """Pivot on +-1 entries until no row holds one.

    Returns the number of pivots and the rows left, as ``_distinct`` gives
    them; each pivot deletes its row and column.  A row changed by a pivot
    is tried again, since it may have gained a unit.  The pivot column is
    the unit's column held by the fewest rows, which keeps fill-in low.
    The input rows are not changed.
    """
    rows = dict(enumerate(map(dict, _distinct(rows))))
    where = defaultdict(set)  # column -> ids of the rows holding it
    for i, row in rows.items():
        for j in row:
            where[j].add(i)
    units = 0
    todo = sorted(rows, reverse=True)
    while todo:
        i = todo.pop()
        row = rows.get(i)
        pivots = [j for j, v in row.items() if v in (1, -1)] if row else ()
        if not pivots:
            continue
        c = min(pivots, key=lambda j: len(where[j]))
        del rows[i]
        for j in row:
            where[j].discard(i)
        for k in where.pop(c):
            other = rows[k]
            q = other[c] * row[c]
            for j, b in row.items():
                if v := other.get(j, 0) - q * b:
                    other[j] = v
                    where[j].add(k)
                else:
                    del other[j]
                    where[j].discard(k)
            if other:
                todo.append(k)
            else:
                del rows[k]
        units += 1
    return units, _distinct(rows[i] for i in sorted(rows))


def abelian_invariants(pres: Presentation) -> AbelianInvariants:
    units, rest = _eliminate_units(_exponent_rows(pres))
    at = {j: k for k, j in enumerate(sorted({j for row in rest for j in row}))}
    rest = [{at[j]: v for j, v in row.items()} for row in rest]
    snf = smith_normal_form(_dense(rest, len(at)))
    return AbelianInvariants(
        len(pres.generators) - units - snf.rank,
        tuple(d for d in snf.diagonal if d > 1),
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
