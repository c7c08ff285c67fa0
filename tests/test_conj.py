import random
from itertools import chain, combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tvbraid.conj import (
    _act,
    _bar_subsets,
    _toggles,
    act_gamma,
    canonicalize_atom,
    check_generator_identification,
    conjugate_by_bars,
    conjugation_orbit,
)
from tvbraid.homs import _raw_image, make_hom
from tvbraid.perms import Permutation
from tvbraid.present import (
    _lambda_triples,
    _pair_relators,
    _x_braids,
    build_presentation,
)
from tvbraid.words import (
    Word,
    _atom,
    _raw_invert_atoms,
    canonical_key,
    format_word,
    free_reduce,
    gamma,
    lam,
    parse_word,
    xgen,
)


def all_decorated(n, kind):
    out = []
    for i, j in combinations(range(1, n + 1), 2):
        for deco in [(), (i,), (j,), (i, j)]:
            out.append(
                lam(i, j, deco) if kind == "l" else xgen(i, j, deco)
            )
    return out


def test_canonicalize_atom_swap():
    assert canonicalize_atom(lam(2, 1)) == lam(1, 2, (1, 2))
    assert canonicalize_atom(lam(2, 1, (1, 2))) == lam(1, 2)
    assert canonicalize_atom(lam(2, 1, (2,))) == lam(1, 2, (1,))
    assert canonicalize_atom(lam(1, 2, (1,))) == lam(1, 2, (1,))
    assert canonicalize_atom(lam(2, 1, sign=-1)).sign == -1


def test_act_gamma_is_an_involution():
    for n in range(2, 6):
        for kind in ("l", "x"):
            for a in all_decorated(n, kind):
                for k in range(1, n + 1):
                    assert act_gamma(k, act_gamma(k, a)) == a


def test_act_gamma_outside_pair_is_trivial():
    a = lam(1, 2, (1,))
    assert act_gamma(3, a) == a
    assert act_gamma(1, a) == lam(1, 2)
    assert act_gamma(2, a) == lam(1, 2, (1, 2))


def test_commuting_bars():
    for a in all_decorated(4, "x"):
        for k, m in combinations(range(1, 5), 2):
            assert act_gamma(k, act_gamma(m, a)) == act_gamma(m, act_gamma(k, a))


def _bar_reference(ks, a):
    """Conjugation of a by the bar set ks, one act_gamma at a time, from
    the canonical form of a."""
    a = canonicalize_atom(a)
    for k in ks:
        a = act_gamma(k, a)
    return a


def test_action_matches_its_references():
    n = 4
    subsets = [ks for m in range(n + 1) for ks in combinations(range(1, n + 1), m)]
    perms = [Permutation(p) for p in permutations(range(1, n + 1))]
    atoms = [
        _atom(kind, i, j, deco, sign)
        for kind in ("l", "x")
        for i, j in permutations(range(1, n + 1), 2)
        for deco in ((), (min(i, j),), (max(i, j),), (min(i, j), max(i, j)))
        for sign in (1, -1)
    ]
    for a in atoms:
        for ks in subsets:
            want = _bar_reference(ks, a)
            assert _act((a,), ks) == (want,), (a, ks)
            for p in perms:
                (got,) = _act((a,), ks, p)
                # renamed with no second fold
                deco = tuple(sorted(p(d) for d in want.deco))
                assert got == _atom(a.kind, p(want.i), p(want.j), deco, a.sign)
    for p in perms:
        assert _act((gamma(1), gamma(3)), (1, 2), p) == (gamma(p(1)), gamma(p(3)))
    with pytest.raises(ValueError):
        _act((_atom("s", 1),), ())


def test_toggles_are_the_current_tables_atoms(monkeypatch):
    # an atom built after the table is emptied looks its toggles up in the
    # new table, not in one that an equal atom filled before
    for _ in range(2):
        a = _atom("l", 3, 2, (3,), -1)  # canonical form l2,3:2^-1
        for ks, deco in (((), (2,)), ((2,), ()), ((3,), (2, 3)), ((2, 3), (3,))):
            (got,) = _act((a,), ks)
            assert got is _atom("l", 2, 3, deco, -1), ks
            p = Permutation((3, 1, 2))
            (got,) = _act((a,), ks, p)
            assert got is _atom("l", p(2), p(3), tuple(sorted(map(p, deco))), -1)
        monkeypatch.setattr("tvbraid.words._ATOMS", {})


def test_larger_first_toggles_fold_then_toggle():
    n = 4
    for kind in ("l", "x"):
        for i, j in combinations(range(1, n + 1), 2):
            for deco in ((), (i,), (j,), (i, j)):
                a = _atom(kind, j, i, deco, -1)
                c = canonicalize_atom(a)
                assert _toggles(a)[:2] == (c.i, c.j) == (i, j)
                want = [c, act_gamma(i, c), act_gamma(j, c), act_gamma(j, act_gamma(i, c))]
                assert all(x is y for x, y in zip(_toggles(a)[2], want, strict=True))


def _rename(p, a):
    """The strand action of p on one atom, folded to canonical form."""
    return canonicalize_atom(_act((a,), (), p)[0])


def test_strand_action_is_an_action():
    rng = random.Random(23)
    atoms = all_decorated(4, "l")
    perms = [Permutation(p) for p in permutations((1, 2, 3, 4))]
    for _ in range(300):
        p, q = rng.choice(perms), rng.choice(perms)
        a = rng.choice(atoms)
        assert _rename(p * q, a) == _rename(q, _rename(p, a))


def test_strand_action_on_bars():
    p = Permutation((2, 3, 1))
    assert _rename(p, gamma(1)) == gamma(2)


def test_conjugation_orbit_size():
    # a fully supported generator pair meets all four decorations twice over
    w = Word(3, [lam(1, 2)])
    orbit = conjugation_orbit(w)
    keys = {canonical_key(x) for x in orbit}
    assert len(orbit) == len(keys)
    assert len(orbit) == 4
    # bars off the pair's strands add nothing at a higher rank
    orbit = conjugation_orbit(Word(5, [lam(1, 2)]))
    assert [format_word(x) for x in orbit] == ["l1,2", "l1,2:1", "l1,2:2", "l1,2:12"]


def _folded_base(family, n):
    """The base relators whose bar orbits make up the registry, unfolded,
    and the same words with every pair atom folded to canonical form."""
    if family == "pln":
        base = chain(_pair_relators(n, lam, "lambda"), _lambda_triples(n))
    else:
        base = chain(_pair_relators(n, xgen, "x"), _x_braids(n))
    words = [w for _, w in base]
    return words, [Word(n, [canonicalize_atom(a) for a in w.atoms]) for w in words]


def _base_words(family, n):
    """The base relators before and after folding, and the registry words."""
    words, folded = _folded_base(family, n)
    return words + folded + [r.word for r in build_presentation(family, n).relators]


@pytest.mark.parametrize("family", ["pln", "hln"])
def test_conjugate_by_bars_is_act_gamma_atom_by_atom(family):
    n = 4
    subsets = [ks for m in range(n + 1) for ks in combinations(range(1, n + 1), m)]
    for w in _base_words(family, n):
        for ks in subsets:
            want = tuple(_bar_reference(ks, a) for a in w.atoms)
            assert conjugate_by_bars(ks, w).atoms == want, (format_word(w), ks)


def test_orbit_of_larger_first_atoms_is_the_orbit_of_their_folds():
    words = [parse_word("l2,1:12 l1,2:1", 2)]
    words += _base_words("pln", 4) + _base_words("hln", 4)
    for w in words:
        folded = Word(w.n, [canonicalize_atom(a) for a in w.atoms])
        assert conjugation_orbit(w) == conjugation_orbit(folded), format_word(w)
    assert len(conjugation_orbit(words[0])) == 2


def _pair_atoms():
    """Signed decorated pair atoms at n=6, larger-first ones included."""
    return st.tuples(
        st.sampled_from(["l", "x"]),
        st.sampled_from(list(permutations(range(1, 7), 2))),
        st.sampled_from([(), (0,), (1,), (0, 1)]),
        st.sampled_from([1, -1]),
    ).map(lambda t: _atom(t[0], *t[1], tuple(sorted(t[1][b] for b in t[2])), t[3]))


def _orbit_keys(w):
    return {canonical_key(conjugate_by_bars(ks, w)) for ks in _bar_subsets(w)}


@given(st.lists(_pair_atoms(), min_size=1, max_size=8), st.integers(0, 7), st.booleans())
def test_rotations_and_inverses_share_the_bar_orbit(atoms, shift, inverted):
    """The bar orbit of a rotation or inverse of w is the orbit of w class by
    class: so one base relator per cyclic class expands the whole registry."""
    w = Word(6, atoms)
    shift %= len(atoms)
    moved = tuple(atoms[shift:] + atoms[:shift])
    if inverted:
        moved = _raw_invert_atoms(moved)
    assert _orbit_keys(Word(6, moved)) == _orbit_keys(w)


@pytest.mark.parametrize("family", ["pln", "hln"])
@pytest.mark.parametrize("n", range(3, 7))
def test_base_orbits_are_equal_or_disjoint_and_cover_the_registry(family, n):
    """The class sets of the folded base relators' bar orbits are pairwise
    equal or disjoint, and their union is the registry's classes.  So a base
    relator whose folded word lies in an orbit already expanded adds nothing
    to the registry."""
    orbit_of = {}  # class key -> the class set of the orbit that holds it
    for w in _folded_base(family, n)[1]:
        orbit = frozenset(canonical_key(x) for x in conjugation_orbit(w))
        for key in orbit:
            assert orbit_of.setdefault(key, orbit) == orbit, format_word(w)
    assert orbit_of.keys() == build_presentation(family, n).relator_keys().keys()


def test_conjugate_by_bars_rejects_crossings():
    for text in ("s1", "l1,2 r2", "g1 s2^-1"):
        with pytest.raises(ValueError):
            conjugate_by_bars([1], parse_word(text, 3))
    assert conjugate_by_bars([1], parse_word("g1 l2,1", 3)) == parse_word("g1 l1,2:2", 3)


def test_psi_image_constant_on_orbits():
    h = make_hom("psiP", 3)
    base = free_reduce(parse_word("l1,2 l1,3 l2,3 l3,2^-1 l3,1^-1 l2,1^-1", 3))
    for w in conjugation_orbit(base):
        assert _raw_image(h, w).is_identity()


def test_generator_identification():
    for n in range(2, 6):
        assert check_generator_identification(n, "l") == []
        assert check_generator_identification(n, "x") == []
