import random
from fractions import Fraction

import pytest

import tvbraid.abelian
from tvbraid.abelian import (
    AbelianInvariants,
    _dense,
    _eliminate_units,
    abelian_invariants,
    invariants_text,
    minor_gcd_invariants,
    relation_matrix,
    smith_normal_form,
)
from tvbraid.present import FAMILIES, build_presentation


def test_frozen_smith_form():
    s = smith_normal_form([[2, 0], [0, 3]])
    assert s.diagonal == [1, 6]
    assert s.rank == 2


def test_smith_form_edge_cases():
    assert smith_normal_form([]).diagonal == []
    assert smith_normal_form([[0, 0], [0, 0]]).diagonal == []
    assert smith_normal_form([[4]]).diagonal == [4]
    assert smith_normal_form([[-4]]).diagonal == [4]
    s = smith_normal_form([[2, 4], [4, 8]])
    assert s.diagonal == [2]


def test_divisibility_chain():
    rng = random.Random(5)
    for _ in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        d = smith_normal_form(M).diagonal
        assert all(x > 0 for x in d)
        for a, b in zip(d, d[1:]):
            assert b % a == 0, (M, d)


def test_against_minor_gcd_oracle():
    rng = random.Random(12)
    for _ in range(1000):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(M).diagonal == minor_gcd_invariants(M), M


def test_permutation_invariance():
    rng = random.Random(19)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        d = smith_normal_form(M).diagonal
        P = list(M)
        rng.shuffle(P)
        order = list(range(cols))
        rng.shuffle(order)
        P = [[row[k] for k in order] for row in P]
        assert smith_normal_form(P).diagonal == d


def _abs_det(M):
    """|det M| by exact elimination over the rationals."""
    M = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for k in range(len(M)):
        p = next((i for i in range(k, len(M)) if M[i][k]), None)
        if p is None:
            return 0
        M[k], M[p] = M[p], M[k]
        det *= M[k][k]
        for i in range(k + 1, len(M)):
            f = M[i][k] / M[k][k]
            M[i] = [a - f * b for a, b in zip(M[i], M[k])]
    return abs(det)


def _check_column_transform(M):
    s = smith_normal_form(M)
    V = s.right
    assert len(V) == s.cols and all(len(row) == s.cols for row in V)
    assert _abs_det(V) == 1, M
    for row in M:
        for j in range(s.rank, s.cols):
            assert sum(a * V[k][j] for k, a in enumerate(row)) == 0, (M, j)


def test_column_transform_is_unimodular_and_kills_the_tail():
    assert _abs_det([[2, 1], [4, 2]]) == 0 and _abs_det([[2, 1], [1, 1]]) == 1
    rng = random.Random(23)
    for _ in range(300):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        _check_column_transform(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        )
    for family in ("tvpn", "tvhn", "hln"):
        for n in range(1, 5):
            _check_column_transform(relation_matrix(build_presentation(family, n)))


#: a full 8x7 matrix on which a pivot rule that does not reduce the pivot's
#: row and column modulo the pivot grows its entries past 10^6 bits
RUNAWAY = [
    [-1, 0, 0, 0, 0, -3, -1],
    [0, 0, 3, 5, -1, 4, 0],
    [3, -5, 0, 2, 1, 0, -4],
    [4, 0, 0, -4, -5, 0, 0],
    [0, -2, 1, 0, 2, 4, 0],
    [0, 1, 0, -4, -3, 2, 5],
    [0, 6, 0, 0, 0, 0, -5],
    [0, 4, 0, 0, 0, 0, -1],
]


def _bits(s) -> int:
    """Bit length of the largest entry of the diagonal and of V."""
    entries = s.diagonal + [x for row in s.right for x in row]
    return max(abs(x).bit_length() for x in entries)


def test_smith_entries_stay_bounded_on_full_matrices():
    s = smith_normal_form(RUNAWAY)
    assert s.diagonal == minor_gcd_invariants(RUNAWAY) == [1] * 6 + [9]
    assert _bits(s) <= 24
    _check_column_transform(RUNAWAY)
    rng = random.Random(41)
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        assert _bits(smith_normal_form(M)) <= 80, M
        _check_column_transform(M)


FROZEN_INVARIANTS = {
    ("tvpn", 2): "Z^1 + Z_2^2",
    ("tvpn", 3): "Z^3 + Z_2^3",
    ("tvpn", 4): "Z^6 + Z_2^4",
    ("tvpn", 5): "Z^10 + Z_2^5",
    ("tvhn", 2): "Z^1 + Z_2^2",
    ("tvhn", 3): "Z^1 + Z_2^3",
    ("tvhn", 4): "Z^1 + Z_2^4",
    ("tvhn", 5): "Z^1 + Z_2^5",
    ("tvbn", 2): "Z^1 + Z_2^2",
    ("tvbn", 3): "Z^1 + Z_2^2",
    ("vpn", 3): "Z^6",
    ("vpn", 4): "Z^12",
    ("an", 3): "Z_2^3",
    ("bn", 3): "Z^1",
    # pln is free abelian of rank 2n(n-1)
    ("pln", 2): "Z^4",
    ("pln", 3): "Z^12",
    ("pln", 4): "Z^24",
    ("pln", 5): "Z^40",
    ("pln", 6): "Z^60",
    ("hln", 2): "Z^4",
    ("hln", 3): "Z^1",
    ("hln", 4): "Z^1",
    ("hln", 5): "Z^1",
    ("hln", 6): "Z^1",
    ("hln", 7): "Z^1",
    # closed forms Z^{n(n-1)/2} + Z_2^n and Z + Z_2^n, and 2n(n-1) for pln
    ("tvpn", 6): "Z^15 + Z_2^6",
    ("tvpn", 7): "Z^21 + Z_2^7",
    ("tvpn", 8): "Z^28 + Z_2^8",
    ("tvhn", 6): "Z^1 + Z_2^6",
    ("tvhn", 7): "Z^1 + Z_2^7",
    ("tvhn", 8): "Z^1 + Z_2^8",
    ("pln", 8): "Z^112",
    ("hln", 8): "Z^1",
}


def test_family_invariants():
    for (family, n), expect in FROZEN_INVARIANTS.items():
        inv = abelian_invariants(build_presentation(family, n))
        assert invariants_text(inv) == expect, (family, n)


def test_same_invariants_separates_families():
    for n in range(2, 6):
        a = abelian_invariants(build_presentation("tvpn", n))
        b = abelian_invariants(build_presentation("tvhn", n))
        assert (a == b) == (n == 2)


def test_invariants_text():
    assert invariants_text(AbelianInvariants(0, ())) == "0"
    assert invariants_text(AbelianInvariants(2, ())) == "Z^2"
    assert invariants_text(AbelianInvariants(0, (2, 2, 4))) == "Z_2^2 + Z_4^1"
    assert invariants_text(AbelianInvariants(1, (6,))) == "Z^1 + Z_6^1"


def test_relation_matrix_shape():
    pres = build_presentation("tvpn", 2)
    M = relation_matrix(pres)
    assert len(M) == len(pres.relators)
    assert all(len(row) == len(pres.generators) for row in M)
    with pytest.raises(ValueError, match="^relator atom .+ is not a generator$"):
        relation_matrix(
            build_presentation("tvpn", 2).__class__(
                "tvpn",
                2,
                build_presentation("tvpn", 2).generators,
                build_presentation("an", 3).relators,
            )
        )


def _snf_invariants(pres):
    """The invariants read off the full Smith form of the relation matrix."""
    snf = smith_normal_form(relation_matrix(pres))
    return AbelianInvariants(
        len(pres.generators) - snf.rank, tuple(d for d in snf.diagonal if d > 1)
    )


def test_invariants_match_the_full_smith_form():
    for family in FAMILIES:
        for n in range(1, 7 if family in ("pln", "hln") else 6):
            pres = build_presentation(family, n)
            assert abelian_invariants(pres) == _snf_invariants(pres), (family, n)


def _random_rows(rng, rows, cols, values):
    return [
        {j: rng.choice(values) for j in range(cols) if rng.random() < 0.4}
        for _ in range(rows)
    ]


def test_unit_elimination_matches_the_smith_form():
    rng = random.Random(31)
    units_seen = 0
    for trial in range(600):
        values = (-3, -2, -1, 1, 2, 3) if trial % 2 else (-6, -4, -3, -2, 2, 3, 4, 6)
        rows, cols = rng.randint(0, 7), rng.randint(1, 6)
        sparse = _random_rows(rng, rows, cols, values)
        before = [dict(row) for row in sparse]
        units, rest = _eliminate_units(sparse)
        assert sparse == before
        units_seen += units
        assert all(rest) and all(v for row in rest for v in row.values())
        assert all(abs(v) != 1 for row in rest for v in row.values())
        left = smith_normal_form(_dense(rest, cols))
        full = smith_normal_form(_dense(sparse, cols))
        assert [1] * units + left.diagonal == full.diagonal, sparse
        assert units + left.rank == full.rank, sparse
        if rows <= 4 and cols <= 4:
            assert full.diagonal == minor_gcd_invariants(_dense(sparse, cols)), sparse
    assert units_seen > 0


def test_repeated_and_negated_rows_are_dropped():
    units, rest = _eliminate_units([{0: 2, 1: 4}, {}, {0: -2, 1: -4}, {0: 2, 1: 4}])
    assert (units, rest) == (0, [{0: 2, 1: 4}])
    units, rest = _eliminate_units([{0: 1, 1: 2}, {0: 3, 1: 2}, {1: 4}])
    assert (units, rest) == (1, [{1: -4}])


def _smith_inputs(monkeypatch, family, n):
    seen = []

    def recording(matrix):
        seen.append(matrix)
        return smith_normal_form(matrix)

    monkeypatch.setattr(tvbraid.abelian, "smith_normal_form", recording)
    abelian_invariants(build_presentation(family, n))
    monkeypatch.undo()
    assert len(seen) == 1
    return seen[0]


def test_unit_pivots_leave_the_smith_form_little_work(monkeypatch):
    for family in ("pln", "hln"):
        for n in (5, 6):
            assert _smith_inputs(monkeypatch, family, n) == [], (family, n)
    for family in ("tvpn", "tvhn"):
        matrix = _smith_inputs(monkeypatch, family, 5)
        assert matrix and all(len(row) <= 5 for row in matrix), family
