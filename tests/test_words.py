import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvbraid.present import FAMILIES, _decorated_generators, build_presentation
from tvbraid.words import (
    _ATOMS,
    _KIND_ORDER,
    Atom,
    ParseError,
    Word,
    _atom,
    _cyclic_key,
    canonical_key,
    concat,
    format_atom,
    format_word,
    free_reduce,
    gamma,
    invert,
    lam,
    parse_word,
    reduce,
    rho,
    sigma,
    xgen,
)

N = 6


def atom_strategy(n=N):
    idx = st.integers(1, n)
    sign = st.sampled_from([1, -1])

    def pair_atom(kind):
        return st.tuples(idx, idx, sign).filter(lambda t: t[0] != t[1]).flatmap(
            lambda t: st.sets(st.sampled_from([t[0], t[1]])).map(
                lambda deco: Atom(kind, t[0], t[1], tuple(sorted(deco)), t[2])
            )
        )

    return st.one_of(
        st.tuples(st.integers(1, n - 1), sign).map(lambda t: sigma(t[0], t[1])),
        st.integers(1, n - 1).map(rho),
        idx.map(gamma),
        pair_atom("l"),
        pair_atom("x"),
    )


def word_strategy(n=N, max_len=20):
    return st.lists(atom_strategy(n), max_size=max_len).map(
        lambda atoms: Word(n, atoms)
    )


def random_word(rng, n=N, max_len=30):
    atoms = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice(["s", "r", "g", "l", "x"])
        if kind == "s":
            atoms.append(sigma(rng.randint(1, n - 1), rng.choice([1, -1])))
        elif kind == "r":
            atoms.append(rho(rng.randint(1, n - 1)))
        elif kind == "g":
            atoms.append(gamma(rng.randint(1, n)))
        else:
            i, j = rng.sample(range(1, n + 1), 2)
            deco = tuple(sorted(k for k in (i, j) if rng.random() < 0.5))
            make = lam if kind == "l" else xgen
            atoms.append(make(i, j, deco, rng.choice([1, -1])))
    return Word(n, atoms)


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom("s", 0)
    with pytest.raises(ValueError):
        Atom("l", 2, 2)
    with pytest.raises(ValueError):
        lam(1, 2, (3,))
    # an Atom still represents an out-of-pair decoration; words reject it
    assert Atom("l", 1, 2, (3,)).deco == (3,)
    with pytest.raises(ParseError):
        Word(3, [Atom("l", 1, 2, (3,))])
    with pytest.raises(ValueError):
        Atom("q", 1)
    with pytest.raises(ValueError):
        Atom("l", 1, 1)
    with pytest.raises(ParseError):
        Word(3, [Atom("s", 5)])


def test_library_atoms_come_from_one_table():
    assert lam(1, 2) is lam(1, 2)
    assert sigma(1).inverse().inverse() is sigma(1)
    assert invert(Word(3, [sigma(2, -1)])).atoms[0] is sigma(2)
    # atoms built outside the table still compare and hash by value
    assert Atom("l", 1, 2) == lam(1, 2) and Atom("l", 1, 2) is not lam(1, 2)
    assert hash(Atom("l", 1, 2, (1,))) == hash(lam(1, 2, (1,)))
    # an invalid value is rejected every time, never stored
    for _ in range(2):
        with pytest.raises(ValueError):
            lam(1, 1)


def test_involutions_fold_signs():
    assert rho(1).sign == 1
    assert gamma(2).sign == 1
    assert Atom("r", 1, sign=-1) == rho(1)
    assert sigma(1, -1).sign == -1


def test_parse_frozen_examples():
    w = parse_word("s1 r2 g3 l1,2 x2,3^-1", 3)
    assert w.atoms == (
        sigma(1),
        rho(2),
        gamma(3),
        lam(1, 2),
        xgen(2, 3, sign=-1),
    )
    assert parse_word("l1,3:1,3", 3).atoms == (lam(1, 3, (1, 3)),)
    assert parse_word("l1,2:12", 3).atoms == (lam(1, 2, (1, 2)),)
    assert parse_word("", 4).atoms == ()
    assert format_word(parse_word("", 4)) == ""


def test_parse_rejects_garbage():
    for bad in [
        "q1", "s0", "s3", "l1,1", "l1,2:4", "l1,2:3", "s1^2", "s1^-2", "r1^-1x",
        "l1,2:11", "l1,2:1,1", "x2,1:22",
    ]:
        with pytest.raises(ParseError):
            parse_word(bad, 3)
    with pytest.raises(ParseError, match="index twice"):
        parse_word("l1,11:11", 11)
    assert parse_word("l1,2:21", 3) == parse_word("l1,2:12", 3)


@given(st.one_of(word_strategy(), word_strategy(12)))
def test_parse_format_round_trip(w):
    assert parse_word(format_word(w), w.n) == w


def test_decorations_above_nine_round_trip():
    for n in (10, 11, 12):
        for kind in ("l", "x"):
            for g in _decorated_generators(n, kind):
                assert parse_word(format_atom(g), n).atoms == (g,)
    assert format_atom(lam(1, 11, (11,))) == "l1,11:11,"
    assert format_atom(lam(1, 11, (1, 11), -1)) == "l1,11:1,11^-1"
    assert format_atom(lam(1, 9, (9,))) == "l1,9:9"
    assert parse_word("l1,11:11,", 11).atoms == (lam(1, 11, (11,)),)
    for bad in ("l1,11:11,,", "l1,11:,", "l1,11:,11"):
        with pytest.raises(ParseError):
            parse_word(bad, 11)


@given(word_strategy())
def test_invert_is_involution(w):
    assert invert(invert(w)) == reduce(w)


@given(word_strategy())
def test_inverse_cancels(w):
    assert reduce(concat(w, invert(w))).atoms == ()
    assert reduce(concat(invert(w), w)).atoms == ()


def test_reduce_idempotent_bulk():
    rng = random.Random(401)
    for _ in range(10_000):
        w = random_word(rng)
        r = reduce(w)
        assert reduce(r) == r
        f = free_reduce(w)
        assert free_reduce(f) == f


def test_free_reduce_keeps_involution_squares():
    w = parse_word("g1 g1 r2 r2", 3)
    assert free_reduce(w) == w
    assert reduce(w).atoms == ()
    # signed cancellation happens in both tiers
    assert free_reduce(parse_word("s1 s1^-1", 3)).atoms == ()


def test_reduce_cascades():
    assert reduce(parse_word("s1 g2 g2 s1^-1", 3)).atoms == ()
    assert reduce(parse_word("l1,2 g1 g1 l1,2^-1 g3", 3)) == parse_word("g3", 3)


def test_word_equality_is_rank_and_atoms():
    u = parse_word("g1", 3)
    v = Word(3, [gamma(1)])
    assert u == v
    assert hash(u) == hash(v)
    assert u != parse_word("g1", 4)


def test_concat_rank_mismatch():
    with pytest.raises(ValueError):
        concat(parse_word("s1", 3), parse_word("s1", 4))


@given(word_strategy(), st.integers(0, 19))
def test_canonical_key_rotation_invariant(w, k):
    atoms = free_reduce(w).atoms
    if not atoms:
        return
    k %= len(atoms)
    rotated = Word(w.n, atoms[k:] + atoms[:k])
    assert canonical_key(rotated) == canonical_key(Word(w.n, atoms))


@given(word_strategy())
def test_canonical_key_inverse_invariant(w):
    raw_inverse = Word(w.n, [a.inverse() for a in reversed(w.atoms)])
    assert canonical_key(raw_inverse) == canonical_key(w)
    r = reduce(w)
    assert canonical_key(invert(r)) == canonical_key(r)


def test_canonical_key_gamma_runs():
    # bars commute with each other, so keys agree across run orderings
    assert canonical_key(parse_word("g2 g1 l1,2", 3)) == canonical_key(
        parse_word("g1 g2 l1,2", 3)
    )
    assert canonical_key(parse_word("g2 g1", 3)) == canonical_key(
        parse_word("g1 g2", 3)
    )
    # wrapped runs sort too: these are the same cyclic class
    assert canonical_key(parse_word("g1 l1,2 g2", 3)) == canonical_key(
        parse_word("g2 l1,2 g1", 3)
    )
    # but bars do not travel past other letters
    assert canonical_key(parse_word("g1 l1,2 g1 l1,2", 3)) != canonical_key(
        parse_word("l1,2 l1,2 g1 g1", 3)
    )


def _field_key(a):
    """An atom's sort key, recomputed from its fields."""
    return (_KIND_ORDER[a.kind], a.i, a.j or 0, a.deco, a.sign)


def _key_oracle(w):
    """canonical_key by its definition: the least rotation of the word or of
    its atom-by-atom inverse, each rotation with its runs of bars sorted.
    Sorting each rotation's own runs reaches the same least key as sorting
    the cyclic runs first, since a whole sorted run beats any part of it.
    The keys come from the atoms' fields, not from the keys they store."""
    best = ()
    inverse = [a.inverse() for a in reversed(w.atoms)]
    for base in (list(w.atoms), inverse):
        for r in range(len(base)):
            out, run = [], []
            for a in base[r:] + base[:r] + [None]:
                if a is not None and a.kind == "g":
                    run.append(a)
                    continue
                out.extend(sorted(run, key=_field_key))
                run = []
                if a is not None:
                    out.append(a)
            cand = tuple(map(_field_key, out))
            if not best or cand < best:
                best = cand
    return best


def _bar_heavy_words(n, max_len=10):
    bar = st.integers(1, n).map(gamma)
    return st.lists(
        st.one_of(bar, bar, atom_strategy(n)), max_size=max_len
    ).map(lambda atoms: Word(n, atoms))


@settings(max_examples=400)
@given(
    st.one_of(
        word_strategy(n=4, max_len=10), st.integers(2, 5).flatmap(_bar_heavy_words)
    )
)
def test_canonical_key_matches_its_definition(w):
    assert canonical_key(w) == _key_oracle(w)


def test_atoms_store_the_key_of_their_fields():
    """Every atom the library built for the families at n <= 5, and every
    parsed atom, holds the sort key its fields give, folded involution signs
    included."""
    for family in FAMILIES:
        for n in range(1, 6):
            build_presentation(family, n)
    assert len(_ATOMS) > 100
    for a in _ATOMS.values():
        assert a.sort_key() == _field_key(a), a
    text = "r1^-1 g2^-1 s1^-1 s2 l2,1:12^-1 x1,3:3 l10,11:10,11 x1,11:11,"
    for a in parse_word(text, 11).atoms:
        assert a.sort_key() == _field_key(a), a
    assert [a.sort_key() for a in parse_word("r1^-1 g2^-1", 3).atoms] == [
        (1, 1, 0, (), 1),
        (0, 2, 0, (), 1),
    ]


def test_canonical_key_edge_words():
    for text in ("", "g1", "g3 g1 g3 g2", "s1^-1", "r2 g1", "l2,1:12^-1 g1 x1,3:3"):
        w = parse_word(text, 4)
        assert canonical_key(w) == _key_oracle(w), text


@settings(max_examples=200)
@given(word_strategy(n=4, max_len=10))
def test_canonical_key_distinguishes_reduced_words(w):
    # sanity: identical words always share a key
    assert canonical_key(w) == canonical_key(Word(w.n, w.atoms))


def _cyclic_class(seq, bars):
    """Every sequence reached from seq by breadth-first search over
    rotations and swaps of two cyclically adjacent members of bars."""
    seen, todo = {seq}, deque([seq])
    while todo:
        w = todo.popleft()
        moves = [w[1:] + w[:1]]
        for i in range(len(w)):
            j = (i + 1) % len(w)
            if i != j and w[i] in bars and w[j] in bars:
                v = list(w)
                v[i], v[j] = v[j], v[i]
                moves.append(tuple(v))
        for v in moves:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def _assert_names_its_class(seq, bars):
    key = _cyclic_key(seq, bars)
    members = _cyclic_class(seq, bars)
    assert key in members
    assert all(_cyclic_key(w, bars) == key for w in members), (seq, bars)
    return key


@settings(max_examples=300)
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=6).map(tuple),
    st.sets(st.integers(0, 4)),
)
def test_cyclic_key_names_the_class(seq, bars):
    """The shared key of words and of generator-id rewrites is one member of
    the class, the same for every member, whatever letters are bars."""
    _assert_names_its_class(seq, bars)


def test_cyclic_key_edge_sequences():
    # a single letter, bar or not
    assert _assert_names_its_class((3,), set()) == (3,)
    assert _assert_names_its_class((3,), {3}) == (3,)
    # an all-bar word is one cyclic run, sorted
    assert _assert_names_its_class((2, 0, 1, 0), {0, 1, 2}) == (0, 0, 1, 2)
    # a repeated minimum: the least of the rotations at each copy
    assert _assert_names_its_class((2, 1, 3, 1, 2), set()) == (1, 2, 2, 1, 3)
    # the run 2 0 wraps around the end and sorts to 0 2
    assert _assert_names_its_class((0, 5, 2), {0, 2}) == (0, 2, 5)


def test_equal_atoms_hash_alike_however_built():
    """Atom(...), parse_word and the library's atom table give equal atoms
    equal hashes, so each finds the others as dict keys."""
    cases = [
        (Atom("l", 1, 2, (1,), -1), "l1,2:1^-1", lam(1, 2, (1,), -1)),
        (Atom("x", 3, 1), "x3,1", xgen(3, 1)),
        (Atom("s", 2, sign=-1), "s2^-1", sigma(2, -1)),
        (Atom("r", 1, sign=-1), "r1", rho(1)),
        (Atom("g", 3), "g3", _atom("g", 3)),
    ]
    for built, text, table in cases:
        parsed = parse_word(text, 3).atoms[0]
        assert built == parsed == table
        assert hash(built) == hash(parsed) == hash(table)
        for a, b in [(built, parsed), (parsed, table), (table, built)]:
            assert {a: text}[b] == text
