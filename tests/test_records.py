"""The package's record classes: equality, hashing, repr, immutability, and
pickle and copy round trips."""

import copy
import pickle

import pytest

from tvbraid.abelian import AbelianInvariants
from tvbraid.homs import Homomorphism
from tvbraid.perms import FlipVector, Permutation, SignedPermutation
from tvbraid.present import Relator, build_presentation, transcribed_pl_table
from tvbraid.rs import DerivedRelator, RewriteResult, derive_relators, make_context, rewrite_tau
from tvbraid.suite import CheckReport
from tvbraid.words import Atom, Word, format_word, gamma, lam, parse_word, rho, sigma, xgen

ATOMS = [
    lam(1, 2),
    lam(2, 1, (1, 2), -1),
    xgen(3, 1, (3,)),
    sigma(2, -1),
    rho(1),
    gamma(3),
    # built outside the atom table, so a round trip gives the table's atom
    Atom("x", 2, 1, (1,), -1),
]

ELEMENTS = [
    Permutation([2, 3, 1]),
    FlipVector([1, 0, 1]),
    SignedPermutation(Permutation([3, 1, 2]), FlipVector([0, 1, 1])),
]

ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _c6_word() -> Word:
    """The transcribed C6 row: the index it prints outside its last atom's
    pair is written as bar conjugation, so its word holds bars."""
    return dict(transcribed_pl_table(3))["C6(1,2,3)"]


def test_atom_hashes_as_its_field_tuple():
    for a in ATOMS:
        assert hash(a) == hash((a.kind, a.i, a.j, a.deco, a.sign))


def test_atom_equality():
    assert Atom("l", 1, 2) == lam(1, 2)
    assert Atom("r", 2, sign=-1) == rho(2)
    assert lam(1, 2) != lam(2, 1)
    for a in ATOMS:
        as_tuple = (a.kind, a.i, a.j, a.deco, a.sign)
        assert a != as_tuple and as_tuple != a
        assert a not in {as_tuple}


def test_atom_repr():
    assert repr(lam(1, 2)) == "Atom(kind='l', i=1, j=2, deco=(), sign=1)"
    assert repr(sigma(3, -1)) == "Atom(kind='s', i=3, j=None, deco=(), sign=-1)"


def test_records_are_immutable():
    relator = Relator("r1", parse_word("s1 s1", 2))
    frozen = [
        (lam(1, 2), "i"),
        (relator, "word"),
        (DerivedRelator("d1", relator.word, "r1", Word(2)), "rid"),
        (AbelianInvariants(1, (2,)), "torsion"),
        (relator.word, "atoms"),
        (build_presentation("tvpn", 2), "n"),
        (ELEMENTS[0], "images"),
        (ELEMENTS[1], "bits"),
        (ELEMENTS[2], "flips"),
    ]
    for record, field in frozen:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    for record, field in frozen:
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert hasattr(record, field)


@pytest.mark.parametrize(
    "make",
    [
        lambda word: Relator("r1", word),
        lambda word: DerivedRelator("d1", word, "r1", Word(3)),
        lambda word: AbelianInvariants(len(word), (2, 2)),
        lambda word: build_presentation("pln", len(word)),
    ],
)
def test_frozen_records_compare_and_hash_by_fields(make):
    a = make(parse_word("s1 s2", 3))
    b = make(parse_word("s1 s2", 3))
    c = make(parse_word("s1 s2 s1", 3))
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b, c}) == 2
    assert a != c


def test_frozen_record_fields_and_repr():
    w = parse_word("s1", 2)
    assert repr(Relator("r1", w)) == "Relator(rid='r1', word=Word('s1', n=2))"
    d = DerivedRelator(rid="d1", word=w, source_rid="r1", conj=Word(2))
    assert (d.rid, d.word, d.source_rid, d.conj) == ("d1", w, "r1", Word(2))
    assert repr(d) == (
        "DerivedRelator(rid='d1', word=Word('s1', n=2), source_rid='r1', "
        "conj=Word('', n=2))"
    )
    assert repr(AbelianInvariants(1, (2,))) == "AbelianInvariants(free_rank=1, torsion=(2,))"
    assert AbelianInvariants(1, (2,)) != (1, (2,))


def test_mutable_records():
    report = CheckReport("x", 2, "pass", "ok", 1.5)
    assert report == CheckReport("x", 2, "pass", "ok", 1.5)
    assert report != CheckReport("x", 2, "fail", "ok", 1.5)
    report.status = "fail"
    assert report.status == "fail"
    assert repr(report) == (
        "CheckReport(check_id='x', n=2, status='fail', details='ok', seconds=1.5)"
    )
    w = parse_word("s1", 2)
    assert RewriteResult(w, w) == RewriteResult(w, Word(2, w.atoms))
    for record in (report, RewriteResult(w, w)):
        with pytest.raises(TypeError):
            hash(record)


def test_context_equality_ignores_its_caches():
    ctx = make_context("tvp", 2)
    twin = copy.copy(ctx)
    assert twin == ctx
    rewrite_tau(ctx, parse_word("s1 s1^-1", 2))
    twin.rows = []
    assert twin == ctx
    twin.n = 3
    assert twin != ctx
    assert repr(ctx).startswith("RSContext(name='tvp', n=2, ambient=Presentation(")
    with pytest.raises(TypeError):
        hash(ctx)
    # the map compares by name, rank and images, and the transversal by kind
    # and rank, so equal contexts need not share them
    ctx = make_context("tvp", 3)
    assert make_context("tvp", 3) == ctx
    assert make_context("tvp", 3) != make_context("tvh", 3)
    assert make_context("tvp", 3) != make_context("tvp", 4)
    derive_relators(ctx)
    for trip in ROUND_TRIPS.values():
        back = trip(ctx)
        assert back == ctx and back.hom == ctx.hom and back.transversal == ctx.transversal
        addresses = {hex(id(ctx.hom)): hex(id(back.hom))}
        addresses[hex(id(ctx.transversal))] = hex(id(back.transversal))
        text = repr(ctx)
        for old, new in addresses.items():
            text = text.replace(old, new)
        assert repr(back) == text
    h = ctx.hom
    variant = Homomorphism(h.name, h.n, {**h.images, sigma(1): h.images[rho(2)]}, h.identity)
    assert variant != h
    back = Homomorphism(h.name, h.n, {**variant.images, sigma(1): h.images[sigma(1)]}, h.identity)
    assert back == h


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_atoms_round_trip_to_the_table_atom(how):
    for a in ATOMS:
        back = ROUND_TRIPS[how](a)
        assert back == a and hash(back) == hash(a)
    # library atoms come back as themselves, so coset cells keep identity
    for a in ATOMS[:6]:
        assert ROUND_TRIPS[how](a) is a


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_words_and_presentations_round_trip(how):
    trip = ROUND_TRIPS[how]
    for w in (parse_word("s1 r2 g3 l1,2:1^-1", 3), Word(4), _c6_word()):
        back = trip(w)
        assert back == w and back.n == w.n and format_word(back) == format_word(w)
    pres = build_presentation("pln", 3)
    back = trip(pres)
    assert (back.family, back.n, back.generators, back.relators) == (
        pres.family,
        pres.n,
        pres.generators,
        pres.relators,
    )
    assert back.relator_keys() == pres.relator_keys()
    assert back == pres and hash(back) == hash(pres)


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_quotient_elements_round_trip(how):
    for el in ELEMENTS:
        back = ROUND_TRIPS[how](el)
        assert back == el and hash(back) == hash(el) and repr(back) == repr(el)
        assert type(back) is type(el)


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_records_holding_words_round_trip(how):
    trip = ROUND_TRIPS[how]
    ctx = make_context("pl", 3)
    derived = derive_relators(ctx)
    for d in derived[:5]:
        assert trip(d) == d
    result = rewrite_tau(ctx, parse_word("g1 l1,2 g1", 3))
    assert trip(result) == result
    c6 = Relator("C6(1,2,3)", _c6_word())
    assert trip(c6) == c6
    assert trip(AbelianInvariants(1, (2, 2))) == AbelianInvariants(1, (2, 2))


def test_unpickled_context_rewrites_alike():
    ctx = make_context("pt", 3)
    derived = [d.line() for d in derive_relators(ctx)]
    back = pickle.loads(pickle.dumps(ctx))
    w = parse_word("s1 r1 g3 s2^-1 r2 g3", 3)
    assert rewrite_tau(back, w) == rewrite_tau(ctx, w)
    assert [d.line() for d in derive_relators(back)] == derived


def test_copied_context_rewrites_alike():
    ctx = make_context("pt", 3)
    derived = [d.line() for d in derive_relators(ctx)]
    # the context's last word is now its last relator, held by identity
    back = copy.deepcopy(ctx)
    w = parse_word("s1 r1 g3 s2^-1 r2 g3", 3)
    assert rewrite_tau(back, w) == rewrite_tau(ctx, w)
    for r, copied in zip(ctx.ambient.relators[-2:], back.ambient.relators[-2:]):
        assert rewrite_tau(back, copied.word) == rewrite_tau(ctx, r.word)
        assert rewrite_tau(back, r.word) == rewrite_tau(ctx, copied.word)
    assert [d.line() for d in derive_relators(back)] == derived
