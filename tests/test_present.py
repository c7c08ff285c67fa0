import hashlib
from itertools import combinations

import pytest
from test_conj import _folded_base

from tvbraid.conj import conjugate_by_bars, expand_word
from tvbraid.homs import _raw_image, make_hom
from tvbraid.present import (
    FAMILIES,
    _comm,
    _eq,
    build_presentation,
    generator_expression,
    presentation_dict,
    presentation_text,
    reduced_presentation,
    transcribed_pl_table,
)
from tvbraid.words import (
    Atom,
    Word,
    canonical_key,
    format_word,
    free_reduce,
    gamma,
    lam,
    parse_word,
    reduce,
    xgen,
)

# (family, n) -> (generator count, relator count)
FROZEN_SIZES = {
    ("bn", 3): (2, 1),
    ("vbn", 3): (4, 5),
    ("vpn", 3): (6, 6),
    ("an", 3): (3, 6),
    ("tsn", 3): (5, 13),
    ("tvbn", 2): (4, 6),
    ("tvbn", 3): (7, 19),
    ("tvpn", 2): (4, 4),
    ("tvpn", 3): (9, 21),
    ("tvhn", 2): (4, 4),
    ("tvhn", 3): (9, 21),
    ("pln", 2): (4, 0),
    ("pln", 3): (12, 24),
    ("hln", 3): (12, 24),
}


def test_frozen_sizes():
    for (family, n), (gens, rels) in FROZEN_SIZES.items():
        pres = build_presentation(family, n)
        assert (len(pres.generators), len(pres.relators)) == (gens, rels), (family, n)


def test_all_families_build():
    for family in FAMILIES:
        pres = build_presentation(family, 4)
        assert pres.family == family
        assert len({r.rid for r in pres.relators}) == len(pres.relators)
    # past n=9 a bar set's label needs separators: {1,2} and {12} differ
    for family, label in (("pln", "lambda"), ("hln", "x")):
        rids = [r.rid for r in build_presentation(family, 12).relators]
        assert len(set(rids)) == len(rids), family
        rid = f"{label}-comm(1,2;3,12)"
        assert {f"{rid}|S=12", f"{rid}|S=12,", f"{rid}|S=1,12"} <= set(rids)


def test_relators_distinct_up_to_cyclic_class():
    for family in ("tvbn", "tvpn", "tvhn", "pln"):
        pres = build_presentation(family, 3)
        keys = [canonical_key(r.word) for r in pres.relators]
        assert len(set(keys)) == len(keys), family


# (family, n) -> Atom validations from an empty atom table: one per
# distinct atom built (22 453 for pln5 and 22 393 for hln5 when every
# construction validated)
ATOM_VALIDATIONS = {("pln", 4): 70, ("pln", 5): 113, ("hln", 5): 113}


@pytest.mark.parametrize(
    "family, n, calls", [("pln", 4, 384), ("pln", 5, 1440), ("hln", 5, 1440)]
)
def test_orbits_conjugate_only_by_bars_on_own_strands(monkeypatch, family, n, calls):
    # 2^|strands| bar sets per distinct base class: 16 per commutator class,
    # 8 per triple class
    count = 0
    validations = 0

    def counted(ks, w):
        nonlocal count
        count += 1
        return conjugate_by_bars(ks, w)

    check = Atom._check

    def counted_check(self):
        nonlocal validations
        validations += 1
        check(self)

    monkeypatch.setattr("tvbraid.present.conjugate_by_bars", counted)
    monkeypatch.setattr(Atom, "_check", counted_check)
    monkeypatch.setattr("tvbraid.words._ATOMS", {})
    build_presentation(family, n)
    assert count == calls
    assert validations == ATOM_VALIDATIONS[family, n]


def _distinct_classes(words):
    keys = [canonical_key(w) for w in words]
    return len(set(keys)) == len(keys)


def test_relators_reduced_and_one_per_class():
    """Every family stores free-reduced relators in pairwise distinct
    cyclic classes, and so does its reduced presentation: the schemas
    emit one word per class, and only the bar orbits of pln/hln skip
    repeats, while the base relators of those orbits lie in distinct
    classes once folded.  Two relators in one class touch the same
    strands, at most four, and the schemas tell strands apart only by
    their order and which of them are adjacent, so ranks up to 8 show
    every pattern of strands a repeat can use."""
    for family in FAMILIES:
        for n in range(2, 9):
            pres = build_presentation(family, n)
            for r in pres.relators:
                assert r.word == free_reduce(r.word), (family, n, r.rid)
            assert _distinct_classes(r.word for r in pres.relators), (family, n)
            reduced = reduced_presentation(pres).relators
            assert _distinct_classes(r.word for r in reduced), (family, n)
    for family in ("pln", "hln"):
        for n in range(3, 7):
            assert _distinct_classes(_folded_base(family, n)[1]), (family, n)


def test_unknown_family():
    with pytest.raises(ValueError):
        build_presentation("nope", 3)


def test_single_strand_degenerates_gracefully():
    pres = build_presentation("tvbn", 1)
    assert len(pres.generators) == 1
    assert [r.rid for r in pres.relators] == ["gamma-square(1)"]


def test_tvpn2_exact():
    pres = build_presentation("tvpn", 2)
    assert [format_word(Word(2, [g])) for g in pres.generators] == [
        "l1,2",
        "l2,1",
        "g1",
        "g2",
    ]
    words = {r.rid: format_word(r.word) for r in pres.relators}
    assert words == {
        "gamma-square(1)": "g1 g1",
        "gamma-square(2)": "g2 g2",
        "gamma-comm(1,2)": "g1 g2 g1 g2",
        "lambda-swap(1,2)": "l1,2 g1 g2 l2,1^-1 g2 g1",
    }


def test_matches_relator_handles_rotations():
    pres = build_presentation("tvpn", 3)
    r = next(r for r in pres.relators if r.rid == "lambda-swap(1,2)")
    atoms = r.word.atoms
    rotated = Word(3, atoms[2:] + atoms[:2])
    assert pres.find_matching(rotated) == "lambda-swap(1,2)"
    assert pres.find_matching(parse_word("", 3)) is None
    assert pres.find_matching(parse_word("l1,2", 3)) is None


def test_generator_expressions_frozen():
    cases = [
        ("tvpn", lam(1, 2), "r1 s1^-1"),
        ("tvpn", lam(2, 1), "s1^-1 r1"),
        ("tvpn", lam(1, 3), "r2 r1 s1^-1 r2"),
        ("tvpn", lam(3, 1), "r2 s1^-1 r1 r2"),
        ("tvpn", lam(2, 4), "r3 r2 s2^-1 r3"),
        ("vpn", lam(1, 2), "r1 s1"),
        ("vpn", lam(2, 1), "s1 r1"),
        ("tvhn", xgen(1, 2), "s1"),
        ("tvhn", xgen(2, 1), "r1 s1 r1"),
        ("tvhn", xgen(1, 3), "r2 s1 r2"),
        ("tvhn", xgen(3, 1), "r2 r1 s1 r1 r2"),
        ("pln", lam(1, 2, (1,)), "g1 r1 s1^-1 g1"),
        ("tvpn", lam(2, 1, (1, 2)), "g2 g1 s1^-1 r1 g1 g2"),
        ("hln", xgen(1, 3, (1, 3), sign=-1), "g3 g1 r2 s1^-1 r2 g1 g3"),
        ("tvpn", lam(1, 2, sign=-1), "s1 r1"),
        ("tvpn", gamma(2), "g2"),
    ]
    for family, atom, expected in cases:
        assert format_word(generator_expression(atom, 4, family)) == expected


def test_pair_expressions_land_in_pure_kernel():
    # the defining property: each pair generator maps into ker(phiP) / ker(phiH)
    for n in range(2, 7):
        hp = make_hom("phiP", n)
        hh = make_hom("phiH", n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                wl = generator_expression(lam(i, j), n, "tvpn")
                assert _raw_image(hp, wl).is_identity(), (i, j)
                wx = generator_expression(xgen(i, j), n, "tvhn")
                assert _raw_image(hh, wx).is_identity(), (i, j)


DISPLAYED_TRIPLES = [
    ("D1", ((1, 2), (1, 3), (2, 3)), ((), (), ())),
    ("D2", ((1, 2), (1, 3), (2, 3)), ((1, 2), (1, 3), (2, 3))),
    ("D3", ((1, 2), (2, 3), (1, 3)), ((1, 2), (), ())),
    ("D4", ((1, 2), (2, 3), (1, 3)), ((), (2, 3), (1, 3))),
    ("D5", ((1, 3), (1, 2), (2, 3)), ((), (), (2, 3))),
    ("D6", ((1, 3), (1, 2), (2, 3)), ((1, 3), (1, 2), ())),
]

DISPLAYED_BAR_COMMS = [
    (1, (2, 3), ()),
    (1, (2, 3), (2, 3)),
    (2, (1, 3), (1, 3)),
    (2, (1, 3), ()),
    (3, (1, 2), ()),
    (3, (1, 2), (1, 2)),
]


def displayed_reduced_tvp3():
    n = 3
    out = []
    for i in range(1, 4):
        out.append(Word(n, [gamma(i), gamma(i)]))
    for i, j in combinations(range(1, 4), 2):
        out.append(Word(n, [gamma(i), gamma(j), gamma(i), gamma(j)]))
    for k, (i, j), deco in DISPLAYED_BAR_COMMS:
        out.append(_comm(n, [gamma(k)], [lam(i, j, deco)]))
    for _, pairs, decos in DISPLAYED_TRIPLES:
        atoms = [lam(i, j, d) for (i, j), d in zip(pairs, decos)]
        out.append(_eq(n, atoms, list(reversed(atoms))))
    return out


def test_elimination_matches_displayed_reduced_presentation():
    pres = build_presentation("tvpn", 3)
    red = reduced_presentation(pres)
    removed = set(pres.generators) - set(red.generators)
    assert sorted(format_word(Word(3, [a])) for a in removed) == [
        "l2,1",
        "l3,1",
        "l3,2",
    ]
    assert len(red.generators) == 6
    assert red.family == "tvpn-reduced"
    assert len(red.relators) == 18
    # involution squares collapse under the ambient-tier reduction, so the
    # comparison key folds both sides the same way
    got = {canonical_key(reduce(expand_word(r.word))) for r in red.relators}
    want = {canonical_key(reduce(expand_word(w))) for w in displayed_reduced_tvp3()}
    assert got == want


# first 16 hex digits of the sha256 of presentation_text of each family's
# reduced presentation at n=2..6, as substituting each larger-first
# generator's swap-identity word gave them
REDUCED_DIGESTS = {
    "bn": "842cf07ae741e2b7 67c93896160a2e28 729920fbb44de2c5 f7e2776fb403a3c5 af01a1aac2cca6e8",
    "vbn": "41dd204bbe8abca6 78661aa0e2bb9ffa 7ed31765e4b94664 7ef48b8a12c2a1fd 26768e7ef4de4ca1",
    "vpn": "f4f6e9d3a3bac1f0 cd8391abd3a79103 241bdb8d7447df29 57e5ebaaebfeff11 691ab80d2e113a69",
    "vhn": "f6327f1ba486beee 6d0775cd0c170788 77d6741616be1bf4 0fa7238c07c57b65 0c7df4082c6b6857",
    "tvbn": "c2a8a946acf2a7c7 33124f1f14d52561 04bed7979c5a0cb7 6c1f293e6d9b5809 1d8a34d70b4ce088",
    "tvpn": "052e6b3af1cce784 dc21121f897f858d e1f93ec292e9705f c2afaa16677b2ac5 ba94a9a15fb3b927",
    "tvhn": "cc7cc79a6d2e57da 898e8a87ba11f3ae 8c7bda5a9e59389b fb2893f45717611c efb20bfef6089937",
    "tsn": "25b8dfe5cdbe9372 3039494783bed47f dbe0185a0afc8dd1 8448b26ebf749687 51bd36cc919b5b2f",
    "an": "2459ce48aca714f1 3ed18dc1d4c77756 cecca4752cb4cd05 35de12e171da1dfd a81c9c27e67095d8",
    "pln": "f8290266170d11a8 284e72d8ee1c1c6e 395c574e29598537 5122798436c35a9b dce235d2d290d25c",
    "hln": "7ea3971a53e90528 8280d044e66c1875 c2d856de5c46c238 95e299af855f7bea 658a7f41dda38a98",
}


def test_reduced_presentation_digests():
    assert set(REDUCED_DIGESTS) == set(FAMILIES)
    for family, digests in REDUCED_DIGESTS.items():
        for n, want in zip(range(2, 7), digests.split()):
            text = presentation_text(reduced_presentation(build_presentation(family, n)))
            got = hashlib.sha256(text.encode()).hexdigest()[:16]
            assert got == want, (family, n)


def test_transcribed_table_shape():
    rows3 = transcribed_pl_table(3)
    assert len(rows3) == 24
    ids = [rid for rid, _ in rows3]
    assert "A5(1,2,3)" in ids
    assert "C6(1,2,3)" in ids
    assert len(transcribed_pl_table(4)) == 144
    # transcription is verbatim: no duplicate folding
    assert len(ids) == len(set(ids))


def test_presentation_text_stable():
    a = presentation_text(build_presentation("tvpn", 2))
    b = presentation_text(build_presentation("tvpn", 2))
    assert a == b
    assert a.splitlines()[0] == "tvpn n=2"
    d = presentation_dict(build_presentation("tvpn", 2))
    assert d["family"] == "tvpn"
    assert d["n"] == 2
    assert len(d["relators"]) == 4
