import pytest

from tvbraid.homs import (
    HOM_TABLE,
    Homomorphism,
    check_well_defined,
    image,
    in_kernel,
    make_hom,
)
from tvbraid.perms import Permutation, format_element
from tvbraid.present import build_presentation, generator_expression
from tvbraid.rs import derive_relators, make_context
from tvbraid.words import Word, format_word, lam, parse_word, sigma, xgen


def test_all_maps_well_defined():
    for name in HOM_TABLE:
        for n in range(2, 6):
            ok, report = check_well_defined(make_hom(name, n))
            assert ok, (name, n, [row for row in report if not row[1]][:3])


def test_report_details():
    h = make_hom("phiP", 3)
    _, report = check_well_defined(h)
    assert all(detail == format_element(h.identity) for _, _, detail in report)
    _, sym_report = check_well_defined(make_hom("plToVp", 3))
    for _, passed, detail in sym_report:
        assert passed
        assert detail == "empty" or detail.startswith(("lambda-", "rho-"))


def test_unknown_name():
    with pytest.raises(ValueError):
        make_hom("phiQ", 3)


def test_frozen_images():
    h = make_hom("phiP", 3)
    assert format_element(image(h, parse_word("s1", 3))) == "[2,1,3]"
    assert format_element(image(h, parse_word("r2 r1", 3))) == "[2,3,1]"
    hp = make_hom("psiP", 3)
    assert format_element(image(hp, parse_word("l1,3 g2", 3))) == "[0,1,0]"
    ht = make_hom("phiHT", 2)
    assert format_element(image(ht, parse_word("s1 g1", 2))) == "[1,2|1,0]"
    pv = make_hom("plToVp", 3)
    assert format_word(image(pv, parse_word("l1,2:1 l1,2", 3))) == "l1,2"
    assert format_word(image(pv, parse_word("l1,2:1,2", 3))) == "l2,1"


def test_corrupted_map_is_caught():
    h = make_hom("phiP", 3)
    h = Homomorphism(h.name, 3, {**h.images, sigma(1): Permutation.identity(3)}, h.identity)
    ok, report = check_well_defined(h)
    assert not ok
    by_id = {rid: passed for rid, passed, _ in report}
    # the braid relator sees the broken image, the twist relator does not
    assert by_id["sigma-braid(1)"] is False
    assert by_id["gamma-twist(1)"] is True
    assert by_id["gamma-square(1)"] is True
    with pytest.raises(ValueError):
        image(h, parse_word("s1", 3))
    with pytest.raises(ValueError):
        in_kernel(h, parse_word("s1", 3))


def test_kernel_membership():
    for n in range(2, 6):
        hp = make_hom("phiP", n)
        hh = make_hom("phiH", n)
        hpt = make_hom("phiPT", n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                wl = generator_expression(lam(i, j), n, "tvpn")
                assert in_kernel(hp, wl)
                assert in_kernel(hpt, wl)
                wx = generator_expression(xgen(i, j), n, "tvhn")
                assert in_kernel(hh, wx)
        assert not in_kernel(hp, parse_word("s1", n))
        assert in_kernel(hh, parse_word("s1", n))
        assert not in_kernel(hpt, parse_word("g1", n))
        assert in_kernel(hpt, parse_word("g1 g1", n))


def test_flip_kernels():
    h = make_hom("psiP", 3)
    assert in_kernel(h, parse_word("l1,2 l2,1^-1", 3))
    assert in_kernel(h, parse_word("l1,2:1,2 g1 g1", 3))
    assert not in_kernel(h, parse_word("g1", 3))
    assert in_kernel(make_hom("psiH", 3), parse_word("x1,2:2 g2 g2", 3))


def test_symbolic_target_has_no_kernel_test():
    h = make_hom("plToVp", 3)
    with pytest.raises(ValueError):
        in_kernel(h, parse_word("l1,2", 3))


def test_decorated_sources_expand():
    # decorated atoms evaluate through their bar-conjugated expansion
    h = make_hom("psiP", 3)
    assert format_element(image(h, parse_word("l1,2:1", 3))) == "[0,0,0]"
    assert format_element(image(h, parse_word("g1 l1,2 g2", 3))) == "[1,1,0]"


def test_decorated_alphabets_expand_with_bars():
    # decorated words evaluate through their expansion with bars, and the
    # relators derived for pl and hl use only canonical pair atoms of their kind
    for name, pair in (("psiP", lam), ("psiH", xgen)):
        w = Word(3, [pair(1, 2, (1,))])
        assert format_element(image(make_hom(name, 3), w)) == "[0,0,0]"
    for name, ctx_name, kind in (("psiP", "pl", "l"), ("psiH", "hl", "x")):
        h = make_hom(name, 3)
        derived = derive_relators(make_context(ctx_name, 3))
        assert derived
        for d in derived:
            assert all(a.kind == kind and a.i < a.j for a in d.word.atoms), d.rid
        assert all(image(h, d.word).is_identity() for d in derived)


def test_rank_mismatch():
    h = make_hom("phiP", 3)
    with pytest.raises(ValueError):
        image(h, parse_word("s1", 4))


def _vp_section(a):
    """s: VP_n -> PL_n, l_ij -> l_ij and l_ji -> l_ij:{i,j} for i < j."""
    if a.i < a.j:
        return a
    return lam(a.j, a.i, (a.i, a.j), a.sign)


@pytest.mark.parametrize("n", range(2, 7))
def test_vp_is_a_retract_of_pl(n):
    # VP_n sits inside TVP_n through PL_n: plToVp after the section s is
    # the identity on generators, and s sends relators to relators
    h = make_hom("plToVp", n)
    vp = build_presentation("vpn", n)
    for g in vp.generators:
        assert image(h, Word(n, [_vp_section(g)])) == Word(n, [g])
    pl = build_presentation("pln", n)
    for r in vp.relators:
        w = Word(n, [_vp_section(a) for a in r.word.atoms])
        assert pl.find_matching(w) is not None, (r.rid, format_word(w))
    assert len(vp.relators) == {2: 0, 3: 6, 4: 36, 5: 120, 6: 300}[n]
