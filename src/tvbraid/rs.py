"""Coset-transversal rewriting of kernel words into subgroup generators.

A context is one of the named quotient maps plus the registry family its
kernel is compared with.  The map's HOM_TABLE row gives everything else:
the ambient group is the map's source presentation, the target names the
Schreier transversal of coset representative words (every prefix of a
representative is a representative), and the pair kind names the subgroup
generators.  Representatives are decoded from the quotient element, never
tabulated.  Kernel words are rewritten letter by letter: the
letter at position p, conjugated back by the representative of the walked
prefix, classifies to a named subgroup generator or to nothing, and the
collected atoms form the subgroup word.  A context numbers each coset, each
signed letter and each classified generator when a walk first meets it,
keeps the last word's letter ids, and fills each (coset id, letter id) cell
of its list rows once with the next coset id, the classified generator's id
and the id of the generator that cancels it; the walk collects generator
ids and free-reduces them as it goes.  The kernel
presentation comes from walking every ambient relator from the coset of
every representative t: that walk yields the atoms of the rewrite of
t r t^-1, since the letters of a Schreier representative classify to
nothing.  Those rewrites are deduplicated up to cyclic class on generator
ids alone: each class is keyed by ``words._cyclic_key`` of its word and of
its inverse, the least rotation once bar runs are sorted by id, which is
the routine ``canonical_key`` runs on atom sort keys; any fixed order of
the ids gives the same classes.

Context names and their kernels:

    tvp  kernel of phiP, pair generators l plus bars
    tvh  kernel of phiH, pair generators x plus bars
    pt   kernel of phiPT, decorated l generators
    ht   kernel of phiHT, decorated x generators
    pl   kernel of psiP, decorated l generators
    hl   kernel of psiH, decorated x generators
"""

from __future__ import annotations

from functools import cached_property
from math import factorial

from ._record import FrozenRecord, Record
from .conj import _act, canonicalize_atom
from .homs import Homomorphism, _raw_image, make_hom
from .perms import FlipVector, Permutation, SignedPermutation, format_element
from .present import Presentation
from .words import (
    Atom,
    Word,
    _atom,
    _cyclic_key,
    _raw_invert_atoms,
    format_atom,
    format_word,
    gamma,
    reduce,
    rho,
    strip_sign,
)


class ClassifyError(ValueError):
    """No named subgroup generator matches a rewritten column."""


def _bars(el) -> list[int]:
    """Bar strands of the representative of a bar vector or signed
    permutation, ascending: a flipped point x carries its bar to p(x)."""
    if type(el) is FlipVector:
        return [k for k, b in enumerate(el.bits, 1) if b]
    p = el.perm.images
    return sorted(p[x] for x, b in enumerate(el.flips.bits) if b)


class Transversal:
    """Coset representative words of the finite target of a map, decoded
    from the quotient element; its kind is the map's target.

    ``perm``: one word per permutation p, the product, k ascending, of one
    block per strand k >= 2, the descending chain r<k-1> ... r<j> with
    j = p(k) once the later blocks are peeled off (empty when j = k).
    ``bars``: the ascending bars g<k> of the flipped strands.
    ``perm-bars``: the crossing word of the permutation part followed by
    the ascending bars g<p(x)> of the flipped points x.

    Every prefix of a representative is again one.  ``order`` lists the
    quotient elements of all cosets on first use, in a frozen order; their
    words come from ``lookup`` one at a time.
    """

    def __init__(self, hom: Homomorphism):
        self.name = hom.target
        self.n = n = hom.n
        self._type = type(hom.identity)
        self._rho = [None] + [rho(i) for i in range(1, n)]
        self._gamma = [None] + [gamma(k) for k in range(1, n + 1)]

    def _crossings(self, images) -> list[Atom]:
        """Insertion factorisation of a permutation, strand n first."""
        images = list(images)
        blocks = []
        for k in range(self.n, 1, -1):
            j = images.pop()
            blocks.append(self._rho[k - 1 : j - 1 : -1])
            images = [x - (x > j) for x in images]
        return [a for block in reversed(blocks) for a in block]

    def lookup(self, el) -> Word:
        if type(el) is not self._type or el.n != self.n:
            raise ValueError(
                f"element {format_element(el)} has no coset representative"
            )
        if self.name == "perm":
            return Word._trusted(self.n, tuple(self._crossings(el.images)))
        atoms = [] if self.name == "bars" else self._crossings(el.perm.images)
        atoms += [self._gamma[k] for k in _bars(el)]
        return Word._trusted(self.n, tuple(atoms))

    @cached_property
    def order(self) -> list:
        n = self.n
        if self.name == "bars":
            return [
                FlipVector(tuple(mask >> k & 1 for k in range(n)), check=False)
                for mask in range(1 << n)
            ]
        perms = [(1,)]
        for k in range(2, n + 1):
            perms = [
                tuple(x + (x >= j) for x in p) + (j,)
                for p in perms
                for j in range(k, 0, -1)
            ]
        if self.name == "perm":
            return [Permutation(p, check=False) for p in perms]
        return [
            SignedPermutation(
                Permutation(p, check=False),
                FlipVector(tuple(mask >> (x - 1) & 1 for x in p), check=False),
            )
            for p in perms
            for mask in range(1 << n)
        ]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.n) == (other.name, other.n)
        return NotImplemented

    def __len__(self) -> int:
        perms = 1 if self.name == "bars" else factorial(self.n)
        return perms if self.name == "perm" else perms << self.n


#: context -> (quotient map, registry family); the ambient family,
#: transversal kind and subgroup generators come from the map's HOM_TABLE row
KERNEL_TABLE = {
    "tvp": ("phiP", "tvpn"),
    "tvh": ("phiH", "tvhn"),
    "pt": ("phiPT", "pln"),
    "ht": ("phiHT", "hln"),
    "pl": ("psiP", "pln"),
    "hl": ("psiH", "hln"),
}


class RSContext(Record):
    """A kernel's rewriting context.  Equality and the repr use the first six
    fields; the rest are caches that the walks fill, each empty (or None)
    when the context is made."""

    _fields = ("name", "n", "ambient", "hom", "transversal", "registry_family")
    __slots__ = _fields + ("elements", "ids", "rows", "letter_ids", "letters")
    __slots__ += ("images", "gen_ids", "gens", "last", "rep_ids")
    __slots__ += ("relators",)

    def __init__(
        self,
        name: str,
        n: int,
        ambient: Presentation,
        hom: Homomorphism,
        transversal: Transversal,
        registry_family: str,
    ):
        self.name = name
        self.n = n
        self.ambient = ambient
        self.hom = hom
        self.transversal = transversal
        self.registry_family = registry_family
        #: coset id -> quotient element; ids are handed out in the order
        #: walks first reach the cosets
        self.elements = []
        #: quotient element -> coset id
        self.ids = {}
        #: coset id -> a list indexed by letter id of (next coset id, id of
        #: the classified generator or None, id of the s, l or x generator
        #: that cancels it or None), each None until a walk first visits it
        self.rows = []
        #: signed letter -> letter id, and letter id -> the letter and its
        #: quotient element, numbered in the order walks first meet them
        self.letter_ids = {}
        self.letters = []
        self.images = []
        #: classified generator -> id, and id -> the atom table's atom,
        #: numbered in the order cells first produce them
        self.gen_ids = {}
        self.gens = []
        #: (word, its letter ids) of the last word walked
        self.last = (None, ())
        #: coset ids of the transversal's cosets, in its order, once derived
        self.rep_ids = None
        #: generator ids -> derived relator, so that every derivation on this
        #: context hands out the same relator objects
        self.relators = {}


def make_context(name: str, n: int) -> RSContext:
    if name not in KERNEL_TABLE:
        raise ValueError(f"unknown kernel {name!r}; known: {', '.join(KERNEL_TABLE)}")
    hom_name, registry = KERNEL_TABLE[name]
    hom = make_hom(hom_name, n)
    return RSContext(
        name, n, hom.source_presentation(), hom, Transversal(hom), registry
    )


def representative(ctx: RSContext, w: Word) -> Word:
    """Transversal word for the coset of w."""
    return ctx.transversal.lookup(_raw_image(ctx.hom, w))


def schreier_generator(ctx: RSContext, t: Word, a: Atom) -> Word:
    """The word t a (representative of t a)^-1, fully reduced."""
    ta = Word(ctx.n, t.atoms + (a,))
    rep = representative(ctx, ta)
    return reduce(Word(ctx.n, ta.atoms + _raw_invert_atoms(rep.atoms)))


def classify(ctx: RSContext, t: Word, a: Atom):
    """Subgroup generator equal to t a (rep of t a)^-1, or None when that
    element is trivial.  t must be a representative of the transversal.

    The rule conjugates the base generator for the column a by t^-1: first
    the bar toggles from the bar part of t, then the index action of the
    inverse of its strand permutation.  Triviality of the skipped columns
    is sound because pure crossing/bar words with trivial signed image are
    trivial, and pure bar words with trivial bar-vector image likewise.
    """
    if a.sign != 1:
        raise ValueError("classify takes a positive atom")
    el = _raw_image(ctx.hom, t)
    if ctx.transversal.lookup(el) != t:
        raise ValueError(f"{format_word(t)!r} is not a transversal word")
    return _classify_element(ctx, el, a)


def _classify_element(ctx: RSContext, el, a: Atom):
    """classify for the representative of the coset element el.

    On tvbn a column s<i> names a generator of the map's pair kind, based
    on l<i>,<i+1>^-1 or x<i>,<i+1>; r<i> columns are trivial, and so are
    g<i> columns when the bars lie in the transversal.  On tvpn and tvhn
    the pair columns name decorated generators and the bars are trivial.
    """
    kind, target, pair = a.kind, ctx.hom.target, ctx.hom.pair_kind
    if target == "bars":
        if kind == "g":
            return None
        if kind == pair:
            return _act((a,), _bars(el))[0]
    elif kind == "r" or kind == "g" and target == "perm-bars":
        return None
    elif kind == "g" or kind == "s":
        if kind == "s":
            a = _atom(pair, a.i, a.i + 1, (), -1 if pair == "l" else 1)
        if target == "perm":
            return _act((a,), (), el.inverse())[0]
        return canonicalize_atom(_act((a,), _bars(el), el.perm.inverse())[0])
    t = ctx.transversal.lookup(el)
    raise ClassifyError(
        f"no generator for column ({format_word(t)!r}, {format_atom(a)})"
    )


def _coset_id(ctx: RSContext, el) -> int:
    """Id of the coset of the quotient element el, new ids counting up."""
    i = ctx.ids.get(el)
    if i is None:
        i = ctx.ids[el] = len(ctx.elements)
        ctx.elements.append(el)
        ctx.rows.append([None] * len(ctx.letters))
    return i


def _letter_ids(ctx: RSContext, atoms) -> list[int]:
    """Letter ids of the atoms; a new letter is numbered once it has an image."""
    ids = ctx.letter_ids
    out = []
    for a in atoms:
        k = ids.get(a)
        if k is None:
            img = _raw_image(ctx.hom, Word._trusted(ctx.n, (a,)))
            k = ids[a] = len(ctx.letters)
            ctx.letters.append(a)
            ctx.images.append(img)
            for row in ctx.rows:
                row.append(None)
        out.append(k)
    return out


def _gen_id(ctx: RSContext, c: Atom) -> int:
    """Id of the classified generator c, new ids counting up."""
    g = ctx.gen_ids.get(c)
    if g is None:
        g = ctx.gen_ids[c] = len(ctx.gens)
        ctx.gens.append(c)
    return g


def _cell(ctx: RSContext, cur: int, k: int):
    """Coset id after the letter with id k from the coset cur, the id of the
    letter's classified generator and the id of the one that cancels it: a
    positive letter is classified at the coset before it, a negative one at
    the coset after it, and the generator inherits the letter's sign."""
    el = ctx.elements[cur]
    a = ctx.letters[k]
    nxt = el * ctx.images[k]
    c = _classify_element(ctx, el if a.sign == 1 else nxt, strip_sign(a))
    if c is None:
        return _coset_id(ctx, nxt), None, None
    if a.sign == -1:
        c = c.inverse()
    g = _gen_id(ctx, c)
    return _coset_id(ctx, nxt), g, None if c.kind in "rg" else _gen_id(ctx, c.inverse())


class RewriteResult(Record):
    """The freely reduced rewrite and the raw atoms of a walk, held as ids
    into a sequence of atoms (for a walk, its context's generators) and
    built into words when read.  Both keep squares of r and g generators."""

    _fields = ("word", "raw")
    __slots__ = ("_n", "_gens", "_word", "_raw")

    def __init__(self, word: Word, raw: Word):
        self._n = word.n
        self._gens = word.atoms + raw.atoms
        self._word = tuple(range(len(word.atoms)))
        self._raw = tuple(range(len(word.atoms), len(self._gens)))

    @property
    def word(self) -> Word:
        return Word._trusted(self._n, tuple(map(self._gens.__getitem__, self._word)))

    @property
    def raw(self) -> Word:
        return Word._trusted(self._n, tuple(map(self._gens.__getitem__, self._raw)))

    def __reduce__(self):
        return RewriteResult, (self.word, self.raw)


def rewrite_tau(ctx: RSContext, u: Word, start: int | None = None) -> RewriteResult:
    """Rewrite a kernel word into subgroup generators.

    Walks u letter by letter through the context's coset cells from the
    coset id start, by default the identity's, and free-reduces the
    collected atoms as it goes.  The result keeps the raw atom sequence
    alongside the freely reduced word.  Both keep squares of involution
    generators: r and g generators have no cancelling generator.

    Raises ValueError when start is not a coset id the context has
    numbered, and when the walk does not end at its start coset: from the
    identity, when u is not in the kernel.
    """
    if u.n != ctx.n:
        raise ValueError(f"rank mismatch: word has {u.n}, context has {ctx.n}")
    if start is None:
        start = _coset_id(ctx, ctx.hom.identity)
    elif type(start) is not int or not 0 <= start < len(ctx.elements):
        raise ValueError(f"start {start!r} is not a coset id of the {ctx.name} context")
    if ctx.last[0] is not u:
        ctx.last = (u, _letter_ids(ctx, u.atoms))
    ids = ctx.last[1]
    rows = ctx.rows
    cur = start
    raw: list[int] = []
    out: list[int] = []
    for k in ids:
        row = rows[cur]
        cell = row[k]
        if cell is None:
            cell = row[k] = _cell(ctx, cur, k)
        cur, c, inv = cell
        if c is not None:
            raw.append(c)
            # r and g generators have no cancelling generator
            if out and out[-1] == inv:
                out.pop()
            else:
                out.append(c)
    if cur != start:
        el = ctx.elements[cur]
        if ctx.elements[start].is_identity():
            raise ValueError(
                f"word is not in the {ctx.name} kernel; quotient image "
                f"{format_element(el)}"
            )
        raise ValueError(
            f"walk from coset {format_element(ctx.elements[start])} ends at "
            f"coset {format_element(el)}"
        )
    res = object.__new__(RewriteResult)
    res._n = ctx.n
    res._gens = ctx.gens
    res._word = tuple(out)
    res._raw = tuple(raw)
    return res


class DerivedRelator(FrozenRecord):
    __slots__ = _fields = ("rid", "word", "source_rid", "conj")

    def __init__(self, rid: str, word: Word, source_rid: str, conj: Word):
        set_field = object.__setattr__
        set_field(self, "rid", rid)
        set_field(self, "word", word)
        set_field(self, "source_rid", source_rid)
        set_field(self, "conj", conj)

    def line(self) -> str:
        return (
            f"relator {self.rid} from={self.source_rid} "
            f"conj={format_word(self.conj)} word={format_word(self.word)}"
        )


class _ClassIndex(dict):
    """Nonempty rewrite, as generator ids -> number of its cyclic class,
    counted from 0 as classes are met.  A class is a word up to rotation,
    inversion and the order of bars within a run, as for ``canonical_key``.
    A new class enters under the ``words._cyclic_key`` of its first word and
    of that word's inverse, and with the inverse itself, and every rewrite met
    enters too: an exact repeat costs one lookup, any other rewrite a key
    and a second lookup."""

    __slots__ = ("ctx", "inv", "bars", "count")

    def __init__(self, ctx: RSContext):
        self.ctx, self.inv, self.bars, self.count = ctx, [], set(), 0

    def __missing__(self, ids: tuple) -> int:
        gens, inv, bars = self.ctx.gens, self.inv, self.bars
        if len(inv) < len(gens):  # the walks numbered new generators
            for g in range(len(inv), len(gens)):
                inv.append(self.ctx.gen_ids[gens[g].inverse()])
                if gens[g].kind == "g":
                    bars.add(g)
        key = _cyclic_key(ids, bars)
        k = self.get(key)
        if k is None:
            back = tuple(map(inv.__getitem__, reversed(ids)))
            k = self[back] = self[_cyclic_key(back, bars)] = self[key] = self.count
            self.count += 1
        self[ids] = k
        return k


def derive_relators(ctx: RSContext) -> list[DerivedRelator]:
    """Presentation relators of the kernel: every ambient relator r,
    conjugated by every representative t, rewritten and deduplicated up to
    cyclic class.  The rewrite of t r t^-1 is that of r walked from the
    coset of t.  Empty rewrites are dropped, and a rewrite is kept only when
    it opens a new class of the derive's own ``_ClassIndex``, which works on
    generator ids and keeps nothing after the derive; each survivor keeps
    its ambient relator and conjugator for auditing; its word and the
    conjugator's are built only for a relator the context has not handed
    out before."""
    if ctx.rep_ids is None:
        ctx.rep_ids = [_coset_id(ctx, el) for el in ctx.transversal.order]
    out: list[DerivedRelator] = []
    index = _ClassIndex(ctx)
    for r in ctx.ambient.relators:
        word = r.word
        for c in ctx.rep_ids:
            ids = rewrite_tau(ctx, word, c)._word
            if not ids or index[ids] < len(out):
                continue
            d = ctx.relators.get(ids)
            if d is None:
                w = Word._trusted(ctx.n, tuple(ctx.gens[g] for g in ids))
                t = ctx.transversal.lookup(ctx.elements[c])
                d = ctx.relators[ids] = DerivedRelator(f"d{len(out) + 1}", w, r.rid, t)
            out.append(d)
    return out


def split(ctx: RSContext, w: Word) -> tuple[Word, Word]:
    """Factor w as (kernel word) * (coset representative)."""
    t = representative(ctx, w)
    k = reduce(Word._trusted(ctx.n, w.atoms + _raw_invert_atoms(t.atoms)))
    return k, t
