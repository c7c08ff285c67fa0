"""The named quotient maps between the presented families.

Each row of HOM_TABLE is the one description of a map: its source family,
its target and its pair kind.  A concrete target is one of the models from
perms, named as the coset transversal of its kernel: ``perm`` (S_n),
``perm-bars`` (the extended symmetric group) or ``bars`` (Z_2^n).  One map
rewrites words of the decorated pair family into the virtual pure family,
so its target ``vpn`` is symbolic.  A map constructed by make_hom is
unverified until check_well_defined has run; evaluating through an
unverified map runs the check first and refuses a map whose relator images
do not vanish.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .conj import expand_word
from .perms import (
    FlipVector,
    Permutation,
    SignedPermutation,
    eval_word,
    format_element,
)
from .present import Presentation, build_presentation
from .words import (
    Atom,
    Word,
    _atom,
    format_atom,
    format_word,
    free_reduce,
    gamma,
    invert,
    lam,
    rho,
    sigma,
    strip_sign,
)

#: name -> (source family, target, pair kind).  The pair kind, l or x, names
#: the pair generators of the kernel; on tvbn it also says whether s<i> maps
#: to the transposition (l) or to 1 (x).
HOM_TABLE = {
    "phiP": ("tvbn", "perm", "l"),
    "phiH": ("tvbn", "perm", "x"),
    "phiPT": ("tvbn", "perm-bars", "l"),
    "phiHT": ("tvbn", "perm-bars", "x"),
    "psiP": ("tvpn", "bars", "l"),
    "psiH": ("tvhn", "bars", "x"),
    "plToVp": ("pln", "vpn", "l"),
}


class Homomorphism:
    """A generator-image table with a memoized well-definedness verdict,
    equal to a map of the same name and rank with the same images."""

    def __init__(self, name, n, images, identity):
        self.name = name
        self.source_family, self.target, self.pair_kind = HOM_TABLE[name]
        self.n = n
        self.images = dict(images)
        self.identity = identity
        self._checked: bool | None = None
        self._source_pres: Presentation | None = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.name, self.n, self.images) == (
                other.name,
                other.n,
                other.images,
            )
        return NotImplemented

    @property
    def concrete(self) -> bool:
        return self.target != "vpn"

    def source_presentation(self) -> Presentation:
        if self._source_pres is None:
            self._source_pres = build_presentation(self.source_family, self.n)
        return self._source_pres


def _perm_images(n, pair_kind):
    ident = Permutation.identity(n)
    images = {}
    for i in range(1, n):
        t = Permutation.transposition(n, i, i + 1)
        images[sigma(i)] = t if pair_kind == "l" else ident
        images[rho(i)] = t
    for j in range(1, n + 1):
        images[gamma(j)] = ident
    return images, ident


def _signed_images(n, pair_kind):
    """The permutation images without bars; g<j> flips strand j."""
    perms, ident = _perm_images(n, pair_kind)
    flat = FlipVector.identity(n)
    images = {a: SignedPermutation(p, flat) for a, p in perms.items()}
    for j in range(1, n + 1):
        images[gamma(j)] = SignedPermutation(ident, FlipVector.unit(n, j))
    return images, SignedPermutation.identity(n)


def _flip_images(n, pair_kind):
    ident = FlipVector.identity(n)
    images = {}
    for i, j in permutations(range(1, n + 1), 2):
        images[_atom(pair_kind, i, j)] = ident
    for j in range(1, n + 1):
        images[gamma(j)] = FlipVector.unit(n, j)
    return images, ident


def _pl_to_vp_images(n, pair_kind):
    empty = Word(n, ())
    images = {}
    for i, j in combinations(range(1, n + 1), 2):
        images[_atom(pair_kind, i, j)] = Word(n, [lam(i, j)])
        images[_atom(pair_kind, i, j, (i,))] = empty
        images[_atom(pair_kind, i, j, (j,))] = empty
        images[_atom(pair_kind, i, j, (i, j))] = Word(n, [lam(j, i)])
    return images, empty


#: target -> builder of (generator images, identity) from (n, pair kind)
_IMAGES = {
    "perm": _perm_images,
    "perm-bars": _signed_images,
    "bars": _flip_images,
    "vpn": _pl_to_vp_images,
}


def make_hom(name: str, n: int) -> Homomorphism:
    if name not in HOM_TABLE:
        raise ValueError(f"unknown homomorphism {name!r}; known: {', '.join(HOM_TABLE)}")
    _, target, pair_kind = HOM_TABLE[name]
    return Homomorphism(name, n, *_IMAGES[target](n, pair_kind))


def _eval_symbolic(h: Homomorphism, w: Word) -> Word:
    atoms: list[Atom] = []
    for a in w.atoms:
        img = h.images[strip_sign(a)]
        atoms.extend(img.atoms if a.sign == 1 else invert(img).atoms)
    return free_reduce(Word._trusted(w.n, tuple(atoms)))


def _raw_image(h: Homomorphism, w: Word):
    if w.n != h.n:
        raise ValueError(f"rank mismatch: word has {w.n}, map has {h.n}")
    if h.concrete and h.source_family in ("tvpn", "tvhn"):
        w = expand_word(w)
    try:
        if h.concrete:
            return eval_word(w, h.images, h.identity)
        return _eval_symbolic(h, w)
    except KeyError as exc:
        raise ValueError(
            f"atom not in the domain of {h.name}: {format_atom(exc.args[0])}"
        ) from None


def check_well_defined(h: Homomorphism):
    """Map every relator of the source presentation and check it vanishes.

    Returns (ok, report) where report rows are (relator id, passed, detail):
    for model targets the detail is the image element, for the symbolic
    target the matched relator id or "empty".  The verdict is memoized on
    the map.
    """
    report = []
    ok = True
    target_pres = None if h.concrete else build_presentation(h.target, h.n)
    for r in h.source_presentation().relators:
        img = _raw_image(h, r.word)
        if h.concrete:
            passed = img.is_identity()
            detail = format_element(img)
        elif not img.atoms:
            passed, detail = True, "empty"
        else:
            rid = target_pres.find_matching(img)
            passed = rid is not None
            detail = rid if passed else format_word(img)
        ok = ok and passed
        report.append((r.rid, passed, detail))
    h._checked = ok
    return ok, report


def _ensure_checked(h: Homomorphism) -> None:
    if h._checked is None:
        check_well_defined(h)
    if not h._checked:
        raise ValueError(f"{h.name} is not well-defined with these images")


def image(h: Homomorphism, w: Word):
    """Image of a word; raises if the map fails its relator check."""
    _ensure_checked(h)
    return _raw_image(h, w)


def _require_kernel_test(h: Homomorphism) -> None:
    if not h.concrete:
        raise ValueError(
            f"kernel membership is only decidable for model targets, not {h.target}"
        )


def in_kernel(h: Homomorphism, w: Word) -> bool:
    _require_kernel_test(h)
    _ensure_checked(h)
    return _raw_image(h, w).is_identity()
