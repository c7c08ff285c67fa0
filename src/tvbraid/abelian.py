"""Integer Smith normal form and abelian invariants of presentations.

Everything here is exact big-integer arithmetic.  The reduction tracks the
right (column) transform so that words can be mapped to canonical
coordinates in the abelianized group; row operations need no tracking.
The pivot rule is deterministic: smallest nonzero absolute value in the
remaining block, ties broken by lowest row then lowest column.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .perms import strip_sign
from .present import Presentation
from .words import Word


def relation_matrix(pres: Presentation) -> list[list[int]]:
    """Exponent-sum matrix: one row per relator, one column per generator."""
    index = {g: k for k, g in enumerate(pres.generators)}
    rows = []
    for r in pres.relators:
        row = [0] * len(pres.generators)
        for a in r.word.atoms:
            try:
                row[index[strip_sign(a)]] += a.sign
            except KeyError:
                raise ValueError(f"relator atom {a} is not a generator") from None
        rows.append(row)
    return rows


@dataclass
class SmithForm:
    diagonal: list[int]
    rank: int
    right: list[list[int]]
    cols: int


def smith_normal_form(matrix) -> SmithForm:
    """Diagonalize an integer matrix by row and column operations.

    Returns the positive diagonal entries (each dividing the next), the
    rank, and the accumulated column transform V with A_in @ V row-space
    equivalent to the diagonal form, so coordinates of a generator-exponent
    vector e in the quotient group are e @ V.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    A = [[int(x) for x in row] for row in matrix]
    if any(len(row) != cols for row in A):
        raise ValueError("ragged matrix")
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def add_row(src, dst, q):
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]

    def add_col(src, dst, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def negate_col(j):
        for row in A:
            row[j] = -row[j]
        for row in V:
            row[j] = -row[j]

    t = 0
    while True:
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = A[i][j]
                if a and (pivot is None or abs(a) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot != (t, t):
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if A[i][t]:
                    add_row(t, i, -(A[i][t] // A[t][t]))
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if A[t][j]:
                    add_col(t, j, -(A[t][j] // A[t][t]))
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if not dirty and all(
                A[i][t] == 0 for i in range(t + 1, rows)
            ) and all(A[t][j] == 0 for j in range(t + 1, cols)):
                break
        if A[t][t] < 0:
            negate_col(t)
        t += 1
    rank = t

    # Enforce the divisibility chain pairwise.  Folding column k+1 into
    # column k makes the block [[a, 0], [c, c]]; the gcd loop on rows puts
    # gcd(a, c) at (k, k), after which the row entries right of it are
    # exact multiples, so one column step finishes the block with the lcm
    # at (k+1, k+1).
    changed = True
    while changed:
        changed = False
        for k in range(rank - 1):
            if A[k + 1][k + 1] % A[k][k] == 0:
                continue
            changed = True
            add_col(k + 1, k, 1)
            while A[k + 1][k]:
                q = A[k][k] // A[k + 1][k]
                add_row(k + 1, k, -q)
                swap_rows(k, k + 1)
            assert A[k][k + 1] % A[k][k] == 0
            add_col(k, k + 1, -(A[k][k + 1] // A[k][k]))
            if A[k][k] < 0:
                negate_col(k)
            if A[k + 1][k + 1] < 0:
                negate_col(k + 1)
    return SmithForm([A[k][k] for k in range(rank)], rank, V, cols)


@dataclass(frozen=True)
class AbelianInvariants:
    free_rank: int
    torsion: tuple[int, ...]


def abelian_invariants(pres: Presentation) -> AbelianInvariants:
    snf = smith_normal_form(relation_matrix(pres))
    return AbelianInvariants(
        len(pres.generators) - snf.rank,
        tuple(d for d in snf.diagonal if d > 1),
    )


def invariants_text(inv: AbelianInvariants) -> str:
    """Direct-sum notation with explicit exponents, e.g. ``Z^1 + Z_2^4``;
    the trivial group prints as ``0``."""
    parts = []
    if inv.free_rank:
        parts.append(f"Z^{inv.free_rank}")
    k = 0
    while k < len(inv.torsion):
        d = inv.torsion[k]
        count = 1
        while k + count < len(inv.torsion) and inv.torsion[k + count] == d:
            count += 1
        parts.append(f"Z_{d}^{count}")
        k += count
    return " + ".join(parts) if parts else "0"


class AbelianizedGroup:
    """Evaluator for generator words in the abelianization of a
    presentation, with canonical coordinates.

    Coordinates are the exponent vector pushed through the Smith column
    transform, with each torsion coordinate reduced modulo its invariant
    factor, so two words are equal in the abelianization exactly when
    their coordinate tuples match.
    """

    def __init__(self, pres: Presentation):
        self.pres = pres
        self.index = {g: k for k, g in enumerate(pres.generators)}
        self.snf = smith_normal_form(relation_matrix(pres))

    def exponent_vector(self, w: Word) -> list[int]:
        e = [0] * len(self.pres.generators)
        for a in w.atoms:
            try:
                e[self.index[strip_sign(a)]] += a.sign
            except KeyError:
                raise ValueError(f"atom {a} is not a generator") from None
        return e

    def coordinates(self, w: Word) -> tuple[int, ...]:
        e = self.exponent_vector(w)
        V = self.snf.right
        c = [sum(e[k] * V[k][j] for k in range(len(e))) for j in range(self.snf.cols)]
        for j in range(self.snf.rank):
            c[j] %= self.snf.diagonal[j]
        return tuple(c)

    def equal(self, u: Word, v: Word) -> bool:
        return self.coordinates(u) == self.coordinates(v)


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
