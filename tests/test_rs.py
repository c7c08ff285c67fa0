import random
from functools import lru_cache
from itertools import groupby
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvbraid.conj import expand_word
from tvbraid.homs import _raw_image, make_hom
from tvbraid import rs
from tvbraid.perms import FlipVector, Permutation, enumerate_closure
from tvbraid.present import build_presentation, generator_expression
from tvbraid.rs import (
    ClassifyError,
    KERNEL_TABLE,
    RewriteResult,
    _ClassIndex,
    _coset_id,
    classify,
    derive_relators,
    make_context,
    representative,
    rewrite_tau,
    schreier_generator,
    split,
)
from tvbraid.words import (
    Atom,
    Word,
    _atom,
    _raw_invert_atoms,
    canonical_key,
    format_word,
    free_reduce,
    gamma,
    parse_word,
)

FROZEN_LAMBDA_3 = ["", "r2", "r2 r1", "r1", "r1 r2", "r1 r2 r1"]


def test_perm_transversal_frozen_order():
    ctx = make_context("tvp", 3)
    tr = ctx.transversal
    assert [format_word(tr.lookup(el)) for el in tr.order] == FROZEN_LAMBDA_3


def test_transversal_sizes():
    for n in range(2, 7):
        assert len(make_context("tvp", n).transversal) == factorial(n)
    for n in range(2, 7):
        assert len(make_context("pl", n).transversal) == 2 ** n
    for n in range(2, 5):
        assert len(make_context("pt", n).transversal) == 2 ** n * factorial(n)


def test_transversal_images_distinct():
    for name in ("tvp", "pl", "pt"):
        ctx = make_context(name, 3)
        tr = ctx.transversal
        assert len({tr.lookup(el) for el in tr.order}) == len(tr)


def test_representative():
    ctx = make_context("tvp", 3)
    # s1 and r1 share an image, so their product lies in the kernel
    assert format_word(representative(ctx, parse_word("s1 r1", 3))) == ""
    assert format_word(representative(ctx, parse_word("s1 r2", 3))) == "r1 r2"
    assert format_word(representative(ctx, parse_word("g1 g2", 3))) == ""
    bars = make_context("pl", 3)
    assert format_word(representative(bars, parse_word("g2 l1,2 g1", 3))) == "g1 g2"


FROZEN_TAU = [
    ("tvp", 2, "g1 g1", "g1 g1"),
    ("tvp", 3, "s1 g3 s1^-1 g3", "l1,2^-1 g3 l1,2 g3"),
    ("tvp", 3, "r1 s1 r1 g2 g1 s1^-1 g1 g2", "l2,1^-1 g1 g2 l1,2 g1 g2"),
    ("pl", 3, "g1 l1,2 g1", "l1,2:1"),
]


def test_frozen_rewrites():
    for name, n, text, expect in FROZEN_TAU:
        ctx = make_context(name, n)
        got = rewrite_tau(ctx, parse_word(text, n))
        assert format_word(got.word) == expect, (name, text)


def test_rewrite_requires_kernel_words():
    cases = [
        ("tvp", "s1", r"not in the tvp kernel; quotient image \[2,1,3\]$"),
        ("pt", "s1 g3", r"not in the pt kernel; quotient image \[2,1,3\|0,0,1\]$"),
        ("pl", "g1 l1,2", r"not in the pl kernel; quotient image \[1,0,0\]$"),
    ]
    for name, text, pattern in cases:
        with pytest.raises(ValueError, match=pattern):
            rewrite_tau(make_context(name, 3), parse_word(text, 3))


def test_schreier_generator_shape():
    ctx = make_context("tvp", 3)
    t = parse_word("r1", 3)
    s = schreier_generator(ctx, t, Atom("s", 1))
    # t a rep(t a)^-1 with everything freely reduced
    assert _raw_image(ctx.hom, s).is_identity()
    assert classify(ctx, t, Atom("r", 2)) is None
    c = classify(ctx, t, Atom("s", 1))
    assert c is not None and c.kind == "l" and c.sign == -1
    assert issubclass(ClassifyError, ValueError)
    with pytest.raises(ValueError):
        classify(ctx, parse_word("s1", 3), Atom("s", 1))


def _subgroup_atoms(ctx):
    # plain kernels admit bars; decorated kernels do not
    from tvbraid.words import lam, xgen

    out = []
    make = xgen if ctx.name in ("tvh", "ht", "hl") else lam
    decorated = ctx.name in ("pt", "ht", "pl", "hl")
    for i in range(1, ctx.n + 1):
        for j in range(1, ctx.n + 1):
            if i == j:
                continue
            if decorated:
                if i < j:
                    for deco in [(), (i,), (j,), (i, j)]:
                        out.append(make(i, j, deco))
            else:
                out.append(make(i, j))
    if not decorated:
        out += [gamma(j) for j in range(1, ctx.n + 1)]
    return out


def _expand_to_ambient(ctx, w):
    # pl and hl sit inside the mid-level groups, the others inside the full one
    if ctx.name in ("pl", "hl"):
        return expand_word(w)
    family = ctx.registry_family
    return Word(
        ctx.n, [b for a in w.atoms for b in generator_expression(a, ctx.n, family)]
    )


def test_rewrite_round_trip():
    rng = random.Random(977)
    for name in ("tvp", "tvh", "pt", "ht", "pl", "hl"):
        for n in (2, 3, 4):
            ctx = make_context(name, n)
            atoms = _subgroup_atoms(ctx)
            for _ in range(60):
                picked = []
                for _ in range(rng.randint(0, 8)):
                    a = rng.choice(atoms)
                    if rng.random() < 0.5:
                        a = a.inverse()
                    picked.append(a)
                v = Word(n, picked)
                u = _expand_to_ambient(ctx, v)
                back = rewrite_tau(ctx, u).word
                assert back == free_reduce(v), (name, n, format_word(v))


def test_split_factorisation():
    rng = random.Random(31)
    for name in ("tvp", "pl", "pt"):
        ctx = make_context(name, 3)
        gens = [Word(3, [g]) for g in ctx.ambient.generators]
        for _ in range(200):
            atoms = []
            for _ in range(rng.randint(0, 12)):
                w = rng.choice(gens)
                atoms.extend(
                    w.atoms if rng.random() < 0.5 else [a.inverse() for a in w.atoms]
                )
            w = Word(3, atoms)
            k, t = split(ctx, w)
            assert _raw_image(ctx.hom, k).is_identity()
            assert _raw_image(ctx.hom, w) == _raw_image(ctx.hom, t)


FROZEN_DERIVED_COUNTS = {
    ("tvp", 2): 4,
    ("tvp", 3): 21,
    ("tvp", 4): 76,
    ("tvh", 2): 4,
    ("tvh", 3): 21,
    ("tvh", 4): 76,
    ("pl", 2): 0,
    ("pl", 3): 24,
    ("pl", 4): 144,
    ("hl", 3): 24,
}


def test_derived_counts():
    for (name, n), count in FROZEN_DERIVED_COUNTS.items():
        assert len(derive_relators(make_context(name, n))) == count, (name, n)


def test_repeated_derivation_shares_ids_and_words():
    ctx = make_context("pl", 3)
    first, again = derive_relators(ctx), derive_relators(ctx)
    assert [d.line() for d in first] == [d.line() for d in again]
    assert all(a is b for a, b in zip(first, again))


#: (context, ranks); each context's registry family is its own.  pt and ht
#: are the kernels of TVB_n onto the signed permutations, PL_n and HL_n by
#: TVB_n = TVP_n x| S_n and TVP_n = PL_n x| Z_2^n (likewise for H)
REGISTRY_MATCHES = [
    ("tvp", (2, 3, 4, 5)),
    ("tvh", (2, 3, 4, 5)),
    ("pl", (2, 3, 4, 5)),
    ("hl", (2, 3, 4, 5)),
    ("pt", (2, 3, 4, 5)),
    ("ht", (2, 3, 4, 5)),
]


def test_derived_matches_registry():
    for name, ranks in REGISTRY_MATCHES:
        for n in ranks:
            ctx = make_context(name, n)
            derived = {canonical_key(d.word) for d in derive_relators(ctx)}
            registry = set(build_presentation(ctx.registry_family, n).relator_keys())
            assert derived == registry, (name, n)


def test_relator_walk_from_start_coset_is_conjugate_rewrite():
    """Walking r from the coset of t gives the raw atoms of t r t^-1: the
    letters of a Schreier representative classify to nothing."""
    for name in sorted(KERNEL_TABLE):
        for n in (2, 3, 4):
            ctx = make_context(name, n)
            for el in ctx.transversal.order:
                t = ctx.transversal.lookup(el)
                start = _coset_id(ctx, _raw_image(ctx.hom, t))
                for r in ctx.ambient.relators:
                    conj = Word(n, t.atoms + r.word.atoms + _raw_invert_atoms(t.atoms))
                    got = rewrite_tau(ctx, r.word, start=start).raw
                    assert got == rewrite_tau(ctx, conj).raw, (name, n, r.rid, t)


#: (kernel, rank) -> ambient relators x representatives: the walks of one
#: derive, which traced benchmark runs pin as rs.conjugates_tried
WALKS_PER_DERIVE = {("tvp", 4): 984, ("pl", 4): 1216, ("pt", 3): 912}


def test_derive_walks_every_relator_from_every_representative(monkeypatch):
    calls = []

    def counting(ctx, u, start=None):
        calls.append(start)
        return rewrite_tau(ctx, u, start)

    monkeypatch.setattr(rs, "rewrite_tau", counting)
    for (name, n), walks in WALKS_PER_DERIVE.items():
        ctx = make_context(name, n)
        for _ in range(2):
            calls.clear()
            derive_relators(ctx)
            assert len(calls) == walks, (name, n)
            assert walks == len(ctx.ambient.relators) * len(ctx.transversal)


def _strands(w: Word) -> list[int]:
    """The strands that the atoms of w touch."""
    out = set()
    for a in w.atoms:
        out.add(a.i)
        if a.kind in "sr":
            out.add(a.i + 1)
        elif a.j is not None:
            out.add(a.j)
    return sorted(out)


def _local_key(el, strands) -> tuple:
    """The inverse of the quotient element el at the strands, with its flips
    there."""
    inv = el.inverse()
    if type(inv) is FlipVector:
        return tuple(inv.bits[x - 1] for x in strands)
    if type(inv) is Permutation:
        return tuple(inv(x) for x in strands)
    return tuple((inv.perm(x), inv.flips.bits[x - 1]) for x in strands)


#: (kernel, rank) -> distinct (relator, local key) pairs, where known
LOCAL_PAIRS = {("tvp", 4): 724, ("pl", 4): 632, ("pt", 3): 570}


def test_walk_depends_only_on_the_local_coset():
    """A walk of r from the coset of t visits t q with q moving only the
    strands S(r) that r touches, and the classifier reads the inverses of
    those elements only there: so walks from cosets whose inverses agree on
    S(r), flips included, give identical raw rewrites."""
    cases = [("tvp", 4), ("tvh", 4), ("pt", 3), ("ht", 3), ("pl", 4), ("hl", 4)]
    for name, n in cases + [("tvp", 5), ("pt", 4)]:
        ctx = make_context(name, n)
        walked = {}
        for index, r in enumerate(ctx.ambient.relators):
            strands = _strands(r.word)
            for el in ctx.transversal.order:
                raw = rewrite_tau(ctx, r.word, start=_coset_id(ctx, el)).raw
                key = (index, _local_key(el, strands))
                assert walked.setdefault(key, raw) == raw, (name, n, r.rid, el)
        if (name, n) in LOCAL_PAIRS:
            assert len(walked) == LOCAL_PAIRS[name, n], (name, n)


def _shape(w: Word) -> tuple:
    """The atoms of w as (kind, i, j, deco, sign) with the strands that w
    touches renumbered 0, 1, ... in increasing order."""
    rank = {x: b for b, x in enumerate(_strands(w))}.get
    return tuple(
        (a.kind, rank(a.i), rank(a.j), tuple(map(rank, a.deco)), a.sign)
        for a in w.atoms
    )


def _rewrites_outside_first_of_shape(ctx) -> int:
    """Rewrites, as generator ids, of ambient relators walked from every
    representative that the first relator of their shape never gives."""
    reps = [_coset_id(ctx, el) for el in ctx.transversal.order]
    first: dict[tuple, set] = {}
    missed = 0
    for r in ctx.ambient.relators:
        rewrites = {rewrite_tau(ctx, r.word, start=c)._word for c in reps}
        shape = _shape(r.word)
        if shape in first:
            missed += len(rewrites - first[shape])
        else:
            first[shape] = rewrites
    return missed


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in ("tvp", "tvh") for n in range(2, 6)]
    + [(name, n) for name in ("pt", "ht") for n in range(2, 5)],
)
def test_perm_targets_repeat_the_first_relator_of_each_shape(name, n):
    """Under a perm or perm-bars target, the classifier names a generator by
    the values of t^-1 on a column's strands, never by the strands: so each
    ambient relator's rewrites, from every representative, are exact
    repeats of those of the first relator of its shape."""
    ctx = make_context(name, n)
    assert ctx.transversal.name in ("perm", "perm-bars")
    assert _rewrites_outside_first_of_shape(ctx) == 0


def test_bars_target_names_absolute_strands():
    """Under the bars target a rewrite names the relator's own strands, so
    relators of one shape give new rewrites."""
    ctx = make_context("pl", 4)
    assert ctx.transversal.name == "bars"
    assert _rewrites_outside_first_of_shape(ctx) > 0


#: kernel -> a kernel word at n=4
KERNEL_WORDS_4 = {
    "tvp": "s1 g4 s3 r3 g4 s1^-1 r2 s2",
    "tvh": "s1 g3 s2^-1 g3 s3",
    "pt": "g2 s1 r1 g2 s3^-1 r2 s2 r3",
    "ht": "s2 g4 s3 r3 r3 g4 s1^-1",
    "pl": "g1 l1,2 g1 l2,4:4 g4 l3,4 g4",
    "hl": "g2 x1,2 g2 x3,4:3 g3 x2,4 g3",
}


def test_rewrite_result_contract():
    """A walk's result holds generator ids: its words are built from the
    atom table's atoms, and it equals and prints as the result built from
    its words."""
    for name, text in KERNEL_WORDS_4.items():
        ctx = make_context(name, 4)
        res = rewrite_tau(ctx, parse_word(text, 4))
        assert res.raw.atoms and res.word.atoms, name
        for a in res.word.atoms + res.raw.atoms:
            assert a is _atom(a.kind, a.i, a.j, a.deco, a.sign), (name, a)
        rebuilt = RewriteResult(res.word, res.raw)
        assert rebuilt == res and repr(rebuilt) == repr(res)
        assert repr(res) == f"RewriteResult(word={res.word!r}, raw={res.raw!r})"
    for name in KERNEL_WORDS_4:
        ctx = make_context(name, 3)
        derive_relators(ctx)
        for a in ctx.gens:
            assert a is _atom(a.kind, a.i, a.j, a.deco, a.sign), (name, a)


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in ("tvp", "tvh") for n in range(2, 6)]
    + [(name, n) for name in ("pl", "hl", "pt", "ht") for n in range(2, 5)],
)
def test_class_index_partitions_like_canonical_key(name, n):
    """Over every distinct nonempty rewrite of every relator from every
    representative, with each one's rotation by one letter, its inverse and
    its runs of bars reversed, two words share a class of the id-level
    index exactly when their canonical_key agrees, in walk order and in
    reverse; classes are numbered 0, 1, ... as they are met."""
    ctx = make_context(name, n)
    starts = [_coset_id(ctx, el) for el in ctx.transversal.order]
    words = []
    for r in ctx.ambient.relators:
        for ids in filter(None, (rewrite_tau(ctx, r.word, start=c)._word for c in starts)):
            back = tuple(ctx.gen_ids[ctx.gens[g].inverse()] for g in reversed(ids))
            runs = groupby(ids, lambda g: ctx.gens[g].kind == "g")
            shuffled = tuple(g for bar, run in runs for g in (list(run)[::-1] if bar else run))
            words += [ids, ids[1:] + ids[:1], back, shuffled]
    words = list(dict.fromkeys(words))
    key = {w: canonical_key(Word._trusted(n, tuple(ctx.gens[g] for g in w))) for w in words}
    for order in (words, words[::-1]):
        index = _ClassIndex(ctx)
        numbers = [index[ids] for ids in order]
        met = list(dict.fromkeys(numbers))
        assert met == list(range(len(met))), (name, n)
        pairs = set(zip(numbers, map(key.get, order)))
        assert len(pairs) == len(met) == len(set(key.values())), (name, n)


@pytest.mark.parametrize("name", ("tvp", "tvh", "pl", "pt"))
def test_derive_does_not_depend_on_generator_id_order(name):
    """A context that first rewrote an unrelated kernel word numbers its
    generators in another order, and derives the same relator lines."""
    fresh, warm = make_context(name, 4), make_context(name, 4)
    rewrite_tau(warm, parse_word(KERNEL_WORDS_4[name], 4))
    lines = [d.line() for d in derive_relators(warm)]
    assert lines == [d.line() for d in derive_relators(fresh)]
    assert warm.gens != fresh.gens and set(warm.gens) == set(fresh.gens)


def test_walk_reduction_is_free_reduction():
    """The word a walk reduces as it goes is the free reduction of its raw
    atoms, for every relator walked from every start coset and for seeded
    kernel words."""
    rng = random.Random(59)
    for name in sorted(KERNEL_TABLE):
        for n in (2, 3, 4):
            ctx = make_context(name, n)
            starts = [_coset_id(ctx, el) for el in ctx.transversal.order]
            for r in ctx.ambient.relators:
                for start in starts:
                    res = rewrite_tau(ctx, r.word, start=start)
                    assert res.word == free_reduce(res.raw), (name, n, r.rid, start)
            letters = ctx.ambient.generators
            for _ in range(100):
                atoms = [rng.choice(letters) for _ in range(rng.randint(0, 16))]
                atoms = [a.inverse() if rng.random() < 0.5 else a for a in atoms]
                res = rewrite_tau(ctx, split(ctx, Word(n, atoms))[0])
                assert res.word == free_reduce(res.raw), (name, n, atoms)


GOLDEN = Path(__file__).parent / "golden"

#: kernel context -> texts of kernel words at n >= 3 whose letters cancel
CANCELLING_TEXTS = {
    "pl": ["l1,2 l1,2^-1", "l1,2:1 l1,2:1^-1", "l2,3:3^-1 l2,3:3"],
    "hl": ["x1,2 x1,2^-1", "x1,2:2 x1,2:2^-1", "x2,3:3^-1 x2,3:3"],
}


def test_walk_reduction_of_parsed_letters():
    """parse_word builds fresh atoms, not the atom table's.  Walked first
    on a new context, they fill its cells; the walk still reduces as
    free_reduce does, and the relators derived afterwards on the same
    context are the golden ones."""
    rng = random.Random(61)
    for name in sorted(KERNEL_TABLE):
        for n in (2, 3, 4):
            ctx = make_context(name, n)
            texts = list(CANCELLING_TEXTS.get(name, [])) if n >= 3 else []
            letters = ctx.ambient.generators
            for _ in range(100):
                atoms = [rng.choice(letters) for _ in range(rng.randint(0, 16))]
                atoms = [a.inverse() if rng.random() < 0.5 else a for a in atoms]
                texts.append(format_word(split(ctx, Word(n, atoms))[0]))
            for text in texts:
                res = rewrite_tau(ctx, parse_word(text, n))
                assert res.word == free_reduce(res.raw), (name, n, text)
            lines = [d.line() for d in derive_relators(ctx)]
            golden = (GOLDEN / f"derived_{name}_{n}.txt").read_text().splitlines()
            assert lines == golden, (name, n)
    ctx = make_context("pl", 3)
    assert rewrite_tau(ctx, parse_word("l1,2 l1,2^-1", 3)).word.atoms == ()


def test_derived_relator_lines():
    ctx = make_context("tvp", 2)
    lines = [d.line() for d in derive_relators(ctx)]
    assert all(line.startswith("relator d") for line in lines)
    assert all(" from=" in line and " conj=" in line and " word=" in line for line in lines)
    first = lines[0].split()
    assert first[0] == "relator"
    assert first[1] == "d1"


def test_kernel_table_contexts():
    for name in KERNEL_TABLE:
        ctx = make_context(name, 2)
        assert ctx.name == name
    with pytest.raises(ValueError):
        make_context("xx", 3)


_IMAGE_ORDERS = {
    "tvp": factorial,
    "tvh": factorial,
    "pt": lambda n: 2 ** n * factorial(n),
    "ht": lambda n: 2 ** n * factorial(n),
    "pl": lambda n: 2 ** n,
    "hl": lambda n: 2 ** n,
}


def test_transversal_counts_the_image_of_its_map():
    """The transversal kind is read from the map; closing the map's
    generator images in its model counts the cosets independently."""
    assert set(_IMAGE_ORDERS) == set(KERNEL_TABLE)
    for name, order in _IMAGE_ORDERS.items():
        for n in (2, 3, 4):
            ctx = make_context(name, n)
            closure = enumerate_closure(ctx.hom.images.values(), limit=order(n))
            assert len(ctx.transversal) == len(closure) == order(n), (name, n)


def _built_transversal(kind, n):
    """(element, word) pairs built forward by multiplying the model images
    of the crossings and bars along each representative word."""
    from itertools import product

    from tvbraid.perms import FlipVector, Permutation, SignedPermutation
    from tvbraid.words import rho

    pairs = []
    if kind == "bars":
        for mask in range(1 << n):
            el, atoms = FlipVector.identity(n), []
            for k in range(1, n + 1):
                if mask >> (k - 1) & 1:
                    el = el * FlipVector.unit(n, k)
                    atoms.append(gamma(k))
            pairs.append((el, atoms))
        return pairs
    for js in product(*[range(k, 0, -1) for k in range(2, n + 1)]):
        el, atoms = Permutation.identity(n), []
        for k, j in zip(range(2, n + 1), js):
            for m in range(k - 1, j - 1, -1):
                el = el * Permutation.transposition(n, m, m + 1)
                atoms.append(rho(m))
        if kind == "perm":
            pairs.append((el, atoms))
            continue
        for mask in range(1 << n):
            sel, satoms = SignedPermutation(el, FlipVector.identity(n)), list(atoms)
            for k in range(1, n + 1):
                if mask >> (k - 1) & 1:
                    bar = SignedPermutation(Permutation.identity(n), FlipVector.unit(n, k))
                    sel = sel * bar
                    satoms.append(gamma(k))
            pairs.append((sel, satoms))
    return pairs


@pytest.mark.parametrize(
    "kind,name,ranks",
    [("perm", "tvp", range(1, 7)), ("bars", "pl", range(1, 7)), ("perm-bars", "pt", range(1, 6))],
)
def test_decoder_matches_built_transversal(kind, name, ranks):
    for n in ranks:
        tr = make_context(name, n).transversal
        pairs = _built_transversal(kind, n)
        assert len(tr) == len(pairs)
        assert tr.order == [el for el, _ in pairs]
        words = {tuple(atoms) for _, atoms in pairs}
        for el, atoms in pairs:
            assert tr.lookup(el).atoms == tuple(atoms), (kind, n, atoms)
            # Schreier property: each prefix is the representative of its coset
            assert all(tuple(atoms[:k]) in words for k in range(len(atoms))), atoms


def test_lookup_rejects_foreign_elements():
    from tvbraid.perms import Permutation

    tr = make_context("tvp", 3).transversal
    with pytest.raises(ValueError, match=r"element \[2,1\] has no coset representative"):
        tr.lookup(Permutation([2, 1]))


def test_rank_eight_without_enumeration():
    ctx = make_context("pt", 8)
    assert len(ctx.transversal) == 2 ** 8 * factorial(8)
    got = rewrite_tau(ctx, parse_word("s1 r1 g3 s2^-1 r2 g3", 8))
    assert format_word(got.word) == "l1,2^-1 l2,3:2"
    w = parse_word("s3 g1 r7 s5^-1", 8)
    k, t = split(ctx, w)
    assert format_word(t) == "r3 r5 r7 g1"
    assert _raw_image(ctx.hom, t) == _raw_image(ctx.hom, w)
    assert format_word(rewrite_tau(ctx, k).word) == "l3,4^-1 l5,6:56"
    assert "order" not in vars(ctx.transversal)
    assert "table" not in vars(ctx.transversal)


def test_out_of_domain_atom():
    ctx = make_context("pt", 3)
    u = Word(3, [Atom("l", 1, 2)])
    with pytest.raises(ValueError, match=r"^atom not in the domain of phiPT: l1,2$"):
        rewrite_tau(ctx, u)
    with pytest.raises(ValueError, match="rank mismatch"):
        rewrite_tau(ctx, parse_word("s1 s1^-1", 2))
    # a symbolic target's domain error names the map, as a model target's does
    with pytest.raises(ValueError, match=r"^atom not in the domain of plToVp: g1$"):
        _raw_image(make_hom("plToVp", 1), parse_word("g1", 1))


def test_failed_rewrite_keeps_context_usable():
    ctx = make_context("tvp", 3)
    with pytest.raises(ValueError):
        rewrite_tau(ctx, parse_word("s1 r2 s2", 3))
    with pytest.raises(ValueError):
        rewrite_tau(ctx, Word(3, [Atom("s", 1), Atom("l", 1, 2)]))
    # an out-of-domain letter is not numbered
    letters = list(ctx.letters)
    with pytest.raises(ValueError, match=r"^atom not in the domain of phiP: l1,2$"):
        rewrite_tau(ctx, Word(3, [Atom("l", 1, 2)]))
    assert ctx.letters == letters and len(ctx.images) == len(letters)
    assert Atom("l", 1, 2) not in ctx.letter_ids
    for name, n, text, expect in FROZEN_TAU:
        if (name, n) == ("tvp", 3):
            assert format_word(rewrite_tau(ctx, parse_word(text, n)).word) == expect
    start = _coset_id(ctx, _raw_image(ctx.hom, parse_word("r1", 3)))
    with pytest.raises(ValueError, match=r"walk from coset \[2,1,3\] ends at coset \[3,1,2\]$"):
        rewrite_tau(ctx, parse_word("s2", 3), start=start)
    assert rewrite_tau(ctx, parse_word("s2 s2^-1", 3), start=start).word.atoms == ()
    fresh = make_context("tvp", 3)
    u = parse_word("s1 r2 s2 s2^-1 r2 s1^-1", 3)
    assert rewrite_tau(ctx, u) == rewrite_tau(fresh, u)


def test_rewrite_rejects_unknown_start():
    ctx = make_context("pl", 3)
    derive_relators(ctx)
    u = parse_word("g1 g1", 3)
    for start in (-1, 10 ** 6):
        with pytest.raises(ValueError, match=rf"^start {start} is not a coset id of the pl"):
            rewrite_tau(ctx, u, start=start)


def test_letters_numbered_after_rows_exist():
    """Decorated letters never occur in the ambient relators, so a derive
    leaves them unnumbered; numbering them later grows every row."""
    ctx = make_context("pl", 3)
    derive_relators(ctx)
    cases = [
        ("g1 l1,2:1 g1", "l1,2"),
        ("l2,1:2 g2 l2,1:2^-1 g2", "l1,2:1 l1,2:12^-1"),
    ]
    for text, expect in cases:
        letters = len(ctx.letters)
        got = rewrite_tau(ctx, parse_word(text, 3))
        assert len(ctx.letters) > letters
        assert format_word(got.word) == expect
        assert got == rewrite_tau(make_context("pl", 3), parse_word(text, 3))
        assert all(len(row) == len(ctx.letters) for row in ctx.rows)


def test_last_word_cache_follows_the_word():
    """Equal words that are distinct objects, interleaved with another word,
    and words dropped right after their rewrite, whose memory the next word
    may reuse, rewrite as on a fresh context."""
    ctx = make_context("pt", 3)
    texts = ["s1 r1 g3 s2^-1 r2 g3", "g1 s1 r1 g1 s2 r2", "s2 r2 s1^-1 r1"]
    fresh = make_context("pt", 3)
    want = {text: rewrite_tau(fresh, parse_word(text, 3)) for text in texts}
    u, twin, v = (parse_word(text, 3) for text in (texts[0], texts[0], texts[1]))
    for w in (u, v, twin, u, v, twin):
        assert rewrite_tau(ctx, w) == want[format_word(w)]
    for text in texts * 3:
        assert rewrite_tau(ctx, parse_word(text, 3)) == want[text], text


def test_classify_rejects_non_transversal_words():
    ctx = make_context("pl", 3)
    with pytest.raises(ValueError, match="not a transversal word"):
        classify(ctx, parse_word("g2 g1", 3), Atom("l", 1, 2))
    assert classify(ctx, parse_word("g1 g2", 3), Atom("l", 1, 2)) == Atom("l", 1, 2, (1, 2))
    with pytest.raises(ValueError, match="positive atom"):
        classify(ctx, parse_word("g1", 3), Atom("l", 1, 2, sign=-1))


@lru_cache(maxsize=None)
def _context_and_letters(name, n):
    ctx = make_context(name, n)
    return ctx, ctx.ambient.generators


_PICKS = st.lists(st.tuples(st.integers(0, 63), st.booleans()), max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(KERNEL_TABLE)), st.integers(2, 4), _PICKS, _PICKS)
def test_rewrite_is_multiplicative(name, n, picks_u, picks_v):
    ctx, letters = _context_and_letters(name, n)

    def kernel_word(picks):
        atoms = []
        for i, inverted in picks:
            a = letters[i % len(letters)]
            atoms.append(a.inverse() if inverted else a)
        return split(ctx, Word(n, atoms))[0]

    u, v = kernel_word(picks_u), kernel_word(picks_v)
    uv = rewrite_tau(ctx, Word(n, u.atoms + v.atoms)).word
    ru, rv = rewrite_tau(ctx, u).word, rewrite_tau(ctx, v).word
    assert uv == free_reduce(Word(n, ru.atoms + rv.atoms))
