import random

import pytest

from tvbraid.abelian import (
    AbelianInvariants,
    _chain,
    _distinct,
    _exponent_rows,
    _pivots,
    abelian_invariants,
    invariants_text,
    minor_gcd_invariants,
    relation_matrix,
    smith_normal_form,
)
from tvbraid.present import FAMILIES, build_presentation


def test_frozen_smith_form():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


def test_smith_form_edge_cases():
    assert smith_normal_form([]) == []
    assert smith_normal_form([[]]) == []
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[4]]) == [4]
    assert smith_normal_form([[-4]]) == [4]
    assert smith_normal_form([[2, 4], [4, 8]]) == [2]
    assert smith_normal_form([[True, 0], [0, 2]]) == [1, 2]


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[2.5]], "^matrix entry 2.5 is not an integer$"),
        ([["4"]], "^matrix entry '4' is not an integer$"),
        ([[1, 2], [3, 4.0]], "^matrix entry 4.0 is not an integer$"),
        ([[1, 2], [3]], "^ragged matrix$"),
        ([[1], [2.5, 3]], "^ragged matrix$"),
    ],
)
def test_non_integral_and_ragged_matrices_are_rejected(matrix, message):
    with pytest.raises(ValueError, match=message):
        smith_normal_form(matrix)


def test_divisibility_chain():
    rng = random.Random(5)
    for _ in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        d = smith_normal_form(M)
        assert all(x > 0 for x in d)
        for a, b in zip(d, d[1:]):
            assert b % a == 0, (M, d)


def test_against_minor_gcd_oracle():
    rng = random.Random(12)
    for _ in range(1000):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(M) == minor_gcd_invariants(M), M


def test_permutation_invariance():
    rng = random.Random(19)
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        d = smith_normal_form(M)
        P = list(M)
        rng.shuffle(P)
        order = list(range(cols))
        rng.shuffle(order)
        P = [[row[k] for k in order] for row in P]
        assert smith_normal_form(P) == d


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


def _bits(diagonal) -> int:
    """Bit length of the largest entry of the diagonal."""
    return max((abs(x).bit_length() for x in diagonal), default=0)


def test_smith_entries_stay_bounded_on_full_matrices():
    d = smith_normal_form(RUNAWAY)
    assert d == minor_gcd_invariants(RUNAWAY) == [1] * 6 + [9]
    assert _bits(d) <= 24
    rng = random.Random(41)
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        assert _bits(smith_normal_form(M)) <= 80, M


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
    d = smith_normal_form(relation_matrix(pres))
    return AbelianInvariants(len(pres.generators) - len(d), tuple(x for x in d if x > 1))


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
    """The chain of the pivots, units first, is the Smith form: it equals
    the minor-gcd oracle's invariant factors, and the input is untouched."""
    rng = random.Random(31)
    units_seen = others_seen = 0
    for trial in range(600):
        values = (-3, -2, -1, 1, 2, 3) if trial % 2 else (-6, -4, -3, -2, 2, 3, 4, 6)
        rows, cols = rng.randint(0, 4), rng.randint(1, 4)
        sparse = _random_rows(rng, rows, cols, values)
        before = [dict(row) for row in sparse]
        pivots = _pivots(sparse)
        assert sparse == before
        assert all(p > 0 for p in pivots)
        units_seen += pivots.count(1)
        others_seen += len(pivots) - pivots.count(1)
        dense = [[row.get(j, 0) for j in range(cols)] for row in sparse]
        assert _chain(pivots) == minor_gcd_invariants(dense), sparse
    assert units_seen > 0 and others_seen > 0


def test_repeated_and_negated_rows_are_dropped():
    rows = [{0: 2, 1: 4}, {}, {0: -2, 1: -4}, {0: 2, 1: 4}]
    assert _distinct(rows) == [{0: 2, 1: 4}]
    assert _pivots(rows) == [2]
    assert _pivots([{}, {}]) == [] == _pivots([])
    assert _pivots([{0: 1, 1: 2}, {0: 3, 1: 2}, {1: 4}]) == [1, 4]
    assert _chain([2, 1, 3, 4]) == [1, 1, 2, 12]


def test_unit_pivots_leave_the_smith_form_little_work():
    """pln abelianizes with no pivot and hln with units only; tvpn and tvhn
    leave exactly n non-unit pivots, each 2, after the units."""
    for n, hln in ((5, 39), (6, 59)):
        assert _pivots(_exponent_rows(build_presentation("pln", n))) == [], n
        assert _pivots(_exponent_rows(build_presentation("hln", n))) == [1] * hln, n
        for family in ("tvpn", "tvhn"):
            pivots = _pivots(_exponent_rows(build_presentation(family, n)))
            assert [p for p in pivots if p != 1] == [2] * n, (family, n)
