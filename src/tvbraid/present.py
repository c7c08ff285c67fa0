"""Presentation registry for the braid-like families this package knows.

Families, keyed by short names:

    bn    classical braid group
    vbn   virtual braid group (adds virtual crossings r<i>)
    vpn   virtual pure braid group on pair generators l<k>,<l>
    vhn   the unsigned-flavour analogue on x<k>,<l>
    tvbn  twisted virtual braid group (adds bars g<j>)
    tvpn  kernel of the bar-aware strand-permutation map, on l plus g
    tvhn  kernel of the bar-aware crossing-forgetting map, on x plus g
    tsn   subgroup generated by virtual crossings and bars
    an    elementary abelian bar subgroup
    pln   bar-free kernel inside tvpn, on decorated l generators
    hln   bar-free kernel inside tvhn, on decorated x generators

Each relator schema emits one free-reduced word per cyclic class: a
symmetric schema, whose mirrored instance is the inverse of a rotation,
runs over index combinations rather than permutations.  Relators are
stored as the schemas emit them, so involution squares such as ``g1 g1``,
themselves relators, survive storage.  The bar orbits of pln/hln are the
one place where two words share a class, and ``_orbit_relators`` skips
the repeats there.
"""

from __future__ import annotations

from itertools import chain, combinations, permutations

from ._record import FrozenRecord
from .conj import _bar_subsets, _expanded, canonicalize_atom, conjugate_by_bars, expand_word
from .words import (
    Atom,
    Word,
    _atom,
    _raw_invert_atoms,
    canonical_key,
    format_atom,
    format_deco,
    format_word,
    free_reduce,
    gamma,
    lam,
    reduce,
    rho,
    sigma,
    xgen,
)

FAMILIES = (
    "bn",
    "vbn",
    "vpn",
    "vhn",
    "tvbn",
    "tvpn",
    "tvhn",
    "tsn",
    "an",
    "pln",
    "hln",
)


class Relator(FrozenRecord):
    __slots__ = _fields = ("rid", "word")

    def __init__(self, rid: str, word: Word):
        object.__setattr__(self, "rid", rid)
        object.__setattr__(self, "word", word)


class Presentation(FrozenRecord):
    """A group presentation, compared and hashed by its fields; ``_keys``
    caches ``relator_keys``."""

    _fields = ("family", "n", "generators", "relators")
    __slots__ = _fields + ("_keys",)

    def __init__(self, family: str, n: int, generators, relators):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "relators", tuple(relators))
        object.__setattr__(self, "_keys", None)

    def relator_keys(self) -> dict:
        """Cyclic class key -> id of the first relator in that class."""
        if self._keys is None:
            keys = {}
            for r in self.relators:
                keys.setdefault(canonical_key(r.word), r.rid)
            object.__setattr__(self, "_keys", keys)
        return self._keys

    def find_matching(self, w: Word) -> str | None:
        w = free_reduce(w)
        if not w.atoms:
            return None
        return self.relator_keys().get(canonical_key(w))

    def __repr__(self) -> str:
        return (
            f"Presentation({self.family!r}, n={self.n}, "
            f"{len(self.generators)} generators, {len(self.relators)} relators)"
        )


def _word(n, atoms) -> Word:
    return Word._trusted(n, tuple(atoms))


def _eq(n, lhs, rhs) -> Word:
    """Relator for lhs == rhs, as lhs rhs^-1 without cancellation of
    involution squares."""
    return free_reduce(_word(n, tuple(lhs) + _raw_invert_atoms(tuple(rhs))))


def _comm(n, a, b) -> Word:
    return _eq(n, tuple(a) + tuple(b), tuple(b) + tuple(a))


def _braid_relators(n):
    for i in range(1, n - 1):
        yield f"sigma-braid({i})", _eq(
            n,
            [sigma(i), sigma(i + 1), sigma(i)],
            [sigma(i + 1), sigma(i), sigma(i + 1)],
        )
    for i, j in combinations(range(1, n), 2):
        if j - i >= 2:
            yield f"sigma-comm({i},{j})", _comm(n, [sigma(i)], [sigma(j)])


def _virtual_relators(n):
    for i in range(1, n):
        yield f"rho-square({i})", _word(n, [rho(i), rho(i)])
    for i in range(1, n - 1):
        yield f"rho-braid({i})", _eq(
            n, [rho(i), rho(i + 1), rho(i)], [rho(i + 1), rho(i), rho(i + 1)]
        )
    for i, j in combinations(range(1, n), 2):
        if j - i >= 2:
            yield f"rho-comm({i},{j})", _comm(n, [rho(i)], [rho(j)])
    for i, j in permutations(range(1, n), 2):
        if abs(i - j) >= 2:
            yield f"sigma-rho-comm({i},{j})", _comm(n, [sigma(i)], [rho(j)])
    for i in range(1, n - 1):
        yield f"sigma-rho-braid({i})", _eq(
            n, [rho(i), rho(i + 1), sigma(i)], [sigma(i + 1), rho(i), rho(i + 1)]
        )


def _bar_relators(n):
    for i in range(1, n + 1):
        yield f"gamma-square({i})", _word(n, [gamma(i), gamma(i)])
    for i, j in combinations(range(1, n + 1), 2):
        yield f"gamma-comm({i},{j})", _comm(n, [gamma(i)], [gamma(j)])


def _twisted_ambient_relators(n):
    yield from _bar_relators(n)
    for i in range(1, n):
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                yield f"gamma-rho-comm({j};{i})", _comm(n, [gamma(j)], [rho(i)])
    for i in range(1, n):
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                yield f"gamma-sigma-comm({j};{i})", _comm(n, [gamma(j)], [sigma(i)])
    for i in range(1, n):
        yield f"gamma-rho-shift({i})", _eq(
            n, [rho(i), gamma(i)], [gamma(i + 1), rho(i)]
        )
    for i in range(1, n):
        yield f"gamma-twist({i})", _eq(
            n,
            [rho(i), sigma(i), rho(i)],
            [gamma(i + 1), gamma(i), sigma(i), gamma(i), gamma(i + 1)],
        )


def _pair_relators(n, make, label):
    for (i, j), (k, l) in combinations(permutations(range(1, n + 1), 2), 2):
        if {i, j}.isdisjoint({k, l}):
            yield f"{label}-comm({i},{j};{k},{l})", _comm(
                n, [make(i, j)], [make(k, l)]
            )


def _lambda_triples(n):
    for i, j, k in permutations(range(1, n + 1), 3):
        a, b, c = lam(k, i), lam(k, j), lam(i, j)
        yield f"lambda-triple({k};{i},{j})", _eq(n, [a, b, c], [c, b, a])


def _x_braids(n):
    for i, k, j in permutations(range(1, n + 1), 3):
        a, b = xgen(i, k), xgen(k, j)
        yield f"x-braid({i},{k},{j})", _eq(n, [a, b, a], [b, a, b])


def _pair_bar_relators(n, make, label):
    for i, j in permutations(range(1, n + 1), 2):
        for k in range(1, n + 1):
            if k not in (i, j):
                yield f"{label}-gamma-comm({i},{j};{k})", _comm(
                    n, [make(i, j)], [gamma(k)]
                )
    for i, j in combinations(range(1, n + 1), 2):
        yield f"{label}-swap({i},{j})", _eq(
            n,
            [make(i, j)],
            [gamma(i), gamma(j), make(j, i), gamma(j), gamma(i)],
        )


def _orbit_relators(n, base_pairs):
    """Expand each base relator into its full bar-conjugation orbit.

    The base words may use larger-first pair atoms; those are folded to
    canonical decorated form first, so every output word is bar-free over
    the decorated alphabet.  Bar sets run over the relator's own strands
    in ascending bitmask order, which makes the registry order
    deterministic, and each conjugate's id names its bar set the way a
    decoration is written, ``S=0`` for the empty set.

    The base schemas emit one relator per cyclic class, so no base orbit
    is expanded twice; orbits of distinct bases still meet, and a
    conjugate is yielded only if no earlier one lies in its cyclic class.
    """
    seen = set()
    for rid, w in base_pairs:
        folded = _word(n, [canonicalize_atom(a) for a in w.atoms])
        for ks in _bar_subsets(folded):
            c = conjugate_by_bars(ks, folded)
            key = canonical_key(c)
            if key not in seen:
                seen.add(key)
                yield f"{rid}|S={format_deco(ks) or '0'}", c


def _decorated_generators(n, kind):
    for i, j in combinations(range(1, n + 1), 2):
        for deco in ((), (i,), (j,), (i, j)):
            yield _atom(kind, i, j, deco)


def build_presentation(family: str, n: int) -> Presentation:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(FAMILIES)}")
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")
    sig = [sigma(i) for i in range(1, n)]
    vr = [rho(i) for i in range(1, n)]
    bars = [gamma(i) for i in range(1, n + 1)]
    if family == "bn":
        gens, rels = sig, _braid_relators(n)
    elif family == "vbn":
        gens, rels = sig + vr, chain(_braid_relators(n), _virtual_relators(n))
    elif family == "tvbn":
        gens = sig + vr + bars
        rels = chain(
            _braid_relators(n), _virtual_relators(n), _twisted_ambient_relators(n)
        )
    elif family == "tsn":
        gens = vr + bars
        rels = (
            (rid, w)
            for rid, w in chain(_virtual_relators(n), _twisted_ambient_relators(n))
            if all(a.kind != "s" for a in w.atoms)
        )
    elif family == "an":
        gens, rels = bars, _bar_relators(n)
    else:
        if family in ("vpn", "tvpn", "pln"):
            kind, make, label, core = "l", lam, "lambda", _lambda_triples(n)
        else:
            kind, make, label, core = "x", xgen, "x", _x_braids(n)
        pure = chain(_pair_relators(n, make, label), core)
        pairs = [make(i, j) for i, j in permutations(range(1, n + 1), 2)]
        if family in ("vpn", "vhn"):
            gens, rels = pairs, pure
        elif family in ("tvpn", "tvhn"):
            gens = pairs + bars
            rels = chain(pure, _bar_relators(n), _pair_bar_relators(n, make, label))
        else:
            gens = list(_decorated_generators(n, kind))
            rels = _orbit_relators(n, pure)
    return Presentation(family, n, gens, (Relator(rid, w) for rid, w in rels))


_EXPR_STYLE = {
    "tvpn": "signed",
    "pln": "signed",
    "vpn": "unsigned",
    "tvhn": "x",
    "vhn": "x",
    "hln": "x",
}


def generator_expression(a: Atom, n: int, family: str) -> Word:
    """Express a pair generator (possibly decorated) as a word in crossings
    and bars.

    The family carries the convention: in the signed flavour the adjacent
    pair generator is r<i> s<i>^-1 and its transpose s<i>^-1 r<i>; the
    unsigned virtual-pure convention is r<i> s<i> and s<i> r<i>; the x
    flavour uses s<i> and r<i> s<i> r<i>.  Distant pairs conjugate the
    adjacent one by a descending chain of virtual crossings.  A decorated
    generator is the expression of its expansion into bars and the bare
    generator.
    """
    if a.kind == "g":
        return Word(n, [a])
    if a.kind not in ("l", "x"):
        raise ValueError(f"no expression for kind {a.kind!r}")
    style = _EXPR_STYLE.get(family)
    if style is None:
        raise ValueError(f"family {family!r} has no pair-generator convention")
    if (a.kind == "x") != (style == "x"):
        raise ValueError(f"atom kind {a.kind!r} does not belong to family {family!r}")
    if a.deco:
        return Word(
            n, [c for b in _expanded(a) for c in generator_expression(b, n, family)]
        )
    i, j = (a.i, a.j) if a.i < a.j else (a.j, a.i)
    if style == "signed":
        base = [rho(i), sigma(i, -1)] if a.i < a.j else [sigma(i, -1), rho(i)]
    elif style == "unsigned":
        base = [rho(i), sigma(i)] if a.i < a.j else [sigma(i), rho(i)]
    else:
        base = [sigma(i)] if a.i < a.j else [rho(i), sigma(i), rho(i)]
    chain = [rho(m) for m in range(j - 1, i, -1)]
    atoms = tuple(chain) + tuple(base) + tuple(reversed(chain))
    if a.sign == -1:
        atoms = _raw_invert_atoms(atoms)
    return Word(n, atoms)


def reduced_presentation(pres: Presentation) -> Presentation:
    """Tietze elimination of the larger-first pair generators through the
    swap identity.

    A relator holding a larger-first atom is folded to canonical atoms,
    has its decorations written out as bars, is fully reduced (sound: the
    involution squares are relators too) and is dropped if empty.  Every
    other relator passes through as stored, so those squares survive.
    """
    gens = [g for g in pres.generators if canonicalize_atom(g) == g]
    out = []
    for r in pres.relators:
        folded = tuple(map(canonicalize_atom, r.word.atoms))
        if folded == r.word.atoms:
            out.append(r)
            continue
        w = reduce(expand_word(Word._trusted(pres.n, folded)))
        if w.atoms:
            out.append(Relator(r.rid, w))
    return Presentation(f"{pres.family}-reduced", pres.n, gens, out)


# ---------------------------------------------------------------------------
# Faithful transcription of the externally printed relator table for the
# bar-free kernel on decorated l generators.  Row C6 is reproduced as
# printed even though it breaks the a b c = c b a mirror pattern of every
# other row and prints a decoration index outside its atom's pair.  No atom
# carries such an index, so the row writes it out as the bar conjugation a
# decoration stands for, and its word holds bars; comparisons against
# mechanically derived relators, which are bar-free, are expected to flag
# exactly that row rather than silently absorb it.
# ---------------------------------------------------------------------------

_PL_TRIPLE_ROWS = [
    ("A1", ("ij", "ik", "jk"), ("", "", "")),
    ("A2", ("ij", "ik", "jk"), ("i", "i", "")),
    ("A3", ("ij", "ik", "jk"), ("j", "", "j")),
    ("A4", ("ij", "ik", "jk"), ("", "k", "k")),
    ("A5", ("ij", "ik", "jk"), ("ij", "i", "j")),
    ("A6", ("ij", "ik", "jk"), ("j", "k", "jk")),
    ("A7", ("ij", "ik", "jk"), ("i", "ik", "k")),
    ("A8", ("ij", "ik", "jk"), ("ij", "ik", "jk")),
    ("B1", ("ij", "jk", "ik"), ("ij", "", "")),
    ("B2", ("ij", "jk", "ik"), ("j", "", "i")),
    ("B3", ("ij", "jk", "ik"), ("i", "j", "")),
    ("B4", ("ij", "jk", "ik"), ("", "j", "i")),
    ("B5", ("ij", "jk", "ik"), ("ij", "k", "k")),
    ("B6", ("ij", "jk", "ik"), ("i", "jk", "k")),
    ("B7", ("ij", "jk", "ik"), ("j", "k", "ik")),
    ("B8", ("ij", "jk", "ik"), ("", "jk", "ik")),
    ("C1", ("ik", "ij", "jk"), ("", "", "jk")),
    ("C2", ("ik", "ij", "jk"), ("i", "i", "jk")),
    ("C3", ("ik", "ij", "jk"), ("", "j", "k")),
    ("C4", ("ik", "ij", "jk"), ("k", "", "j")),
    ("C5", ("ik", "ij", "jk"), ("i", "ij", "k")),
    ("C6", ("ik", "ij", "jk"), ("k", "j", "jk")),
    ("C7", ("ik", "ij", "jk"), ("ik", "i", "j")),
    ("C8", ("ik", "ij", "jk"), ("ik", "ij", "")),
]

# Row C6 is printed with an unmirrored right side: the final atom repeats
# the pair ik but carries decoration j, transcribed as g<j> l<i>,<k> g<j>.
_PL_C6_RHS = (("jk", "ij", "ik"), ("jk", "j", "j"))

_PL_COMM_DECOS = [
    ("", ""),
    ("i", ""),
    ("j", ""),
    ("", "k"),
    ("", "l"),
    ("ij", ""),
    ("", "kl"),
    ("i", "k"),
    ("i", "l"),
    ("j", "k"),
    ("j", "l"),
    ("ij", "k"),
    ("ij", "l"),
    ("i", "kl"),
    ("j", "kl"),
    ("ij", "kl"),
]


def _table_atom(pair_name, deco_name, env) -> tuple:
    """The atoms of one printed table entry, in ``_expanded``'s order: the
    decoration's indices outside the pair as descending bars, the atom
    decorated by its indices inside the pair, the outside bars ascending."""
    i, j = env[pair_name[0]], env[pair_name[1]]
    deco = sorted(env[c] for c in deco_name)
    bars = tuple(gamma(k) for k in deco if k != i and k != j)
    inside = tuple(k for k in deco if k == i or k == j)
    return bars[::-1] + (_atom("l", i, j, inside),) + bars


def transcribed_pl_table(n: int) -> list[tuple[str, Word]]:
    """Instantiate the printed relator table over all index choices.

    Triple rows run over sorted triples i < j < k; commutation rows over
    disjoint sorted pairs.  Words are returned as printed (relator form
    lhs rhs^-1, C6's outside index as bars), without dedup, so callers can
    diff against a derived registry and attribute any mismatch to a row id.
    """
    out = []
    for row_id, order, decos in _PL_TRIPLE_ROWS:
        for i, j, k in combinations(range(1, n + 1), 3):
            env = {"i": i, "j": j, "k": k}
            lhs = [a for p, d in zip(order, decos) for a in _table_atom(p, d, env)]
            if row_id == "C6":
                rhs = [a for p, d in zip(*_PL_C6_RHS) for a in _table_atom(p, d, env)]
            else:
                rhs = list(reversed(lhs))
            out.append((f"{row_id}({i},{j},{k})", _eq(n, lhs, rhs)))
    for (i, j), (k, l) in combinations(combinations(range(1, n + 1), 2), 2):
        if not {i, j}.isdisjoint({k, l}):
            continue
        env = {"i": i, "j": j, "k": k, "l": l}
        for d1, d2 in _PL_COMM_DECOS:
            a = _table_atom("ij", d1, env)
            b = _table_atom("kl", d2, env)
            out.append(
                (
                    f"comm({i},{j};{k},{l})[{d1 or '0'},{d2 or '0'}]",
                    _comm(n, a, b),
                )
            )
    return out


def presentation_text(pres: Presentation) -> str:
    lines = [f"{pres.family} n={pres.n}"]
    lines.extend(f"gen {format_atom(g)}" for g in pres.generators)
    lines.extend(f"rel {format_word(r.word)}" for r in pres.relators)
    return "\n".join(lines)


def presentation_dict(pres: Presentation) -> dict:
    return {
        "family": pres.family,
        "n": pres.n,
        "generators": [format_atom(g) for g in pres.generators],
        "relators": [
            {"id": r.rid, "word": format_word(r.word)} for r in pres.relators
        ],
    }
