"""Concrete finite quotients: permutations, signed permutations, bar vectors.

Composition is left-to-right throughout: (a * b) means apply a, then b, so
one-line images satisfy (a * b).images[p] = b(a(p)).  Words evaluate in the
same order, which keeps eval(u v) == eval(u) * eval(v) without reversals.
"""

from __future__ import annotations

from ._record import FrozenRecord
from .words import Word, strip_sign


class Permutation(FrozenRecord):
    """Permutation of {1..n} in one-line notation (1-based images)."""

    __slots__ = _fields = ("images",)

    def __init__(self, images, check: bool = True):
        images = tuple(images)
        if check:
            n = len(images)
            if sorted(images) != list(range(1, n + 1)):
                raise ValueError(f"not a permutation of 1..{n}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1), check=False)

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise ValueError(f"bad transposition ({i} {j}) for n={n}")
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(images, check=False)

    def __call__(self, p: int) -> int:
        return self.images[p - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(
            (other.images[x - 1] for x in self.images), check=False
        )

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for p, x in enumerate(self.images, start=1):
            inv[x - 1] = p
        return Permutation(inv, check=False)

    def is_identity(self) -> bool:
        return all(x == p for p, x in enumerate(self.images, start=1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


class FlipVector(FrozenRecord):
    """Element of the rank-n elementary abelian bar group, as a 0/1 vector."""

    __slots__ = _fields = ("bits",)

    def __init__(self, bits, check: bool = True):
        bits = tuple(bits)
        if check and any(b not in (0, 1) for b in bits):
            raise ValueError(f"bits must be 0/1: {bits}")
        object.__setattr__(self, "bits", bits)

    @property
    def n(self) -> int:
        return len(self.bits)

    @classmethod
    def identity(cls, n: int) -> "FlipVector":
        return cls((0,) * n, check=False)

    @classmethod
    def unit(cls, n: int, k: int) -> "FlipVector":
        bits = [0] * n
        bits[k - 1] = 1
        return cls(bits, check=False)

    def __mul__(self, other: "FlipVector") -> "FlipVector":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return FlipVector(
            (a ^ b for a, b in zip(self.bits, other.bits)), check=False
        )

    def inverse(self) -> "FlipVector":
        return self

    def is_identity(self) -> bool:
        return not any(self.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, FlipVector) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"FlipVector({list(self.bits)})"


class SignedPermutation(FrozenRecord):
    """Pair (permutation, bar vector) modelling the extended symmetric group.

    The product rule moves the right factor's bars along the left factor's
    strand action:

        (p1, s1) * (p2, s2) = (p1 * p2, s) with s[k] = s1[k] xor s2[p1(k)]

    so a bar on strand k followed by a crossing becomes a bar on the image
    strand, matching r<i> g<i> == g<i+1> r<i> in the ambient group.
    """

    __slots__ = _fields = ("perm", "flips")

    def __init__(self, perm: Permutation, flips: FlipVector):
        if perm.n != flips.n:
            raise ValueError("size mismatch")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "flips", flips)

    @property
    def n(self) -> int:
        return self.perm.n

    @classmethod
    def identity(cls, n: int) -> "SignedPermutation":
        return cls(Permutation.identity(n), FlipVector.identity(n))

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        perm = self.perm * other.perm
        flips = FlipVector(
            (
                s ^ other.flips.bits[x - 1]
                for s, x in zip(self.flips.bits, self.perm.images)
            ),
            check=False,
        )
        return SignedPermutation(perm, flips)

    def inverse(self) -> "SignedPermutation":
        inv = self.perm.inverse()
        flips = FlipVector((self.flips.bits[x - 1] for x in inv.images), check=False)
        return SignedPermutation(inv, flips)

    def is_identity(self) -> bool:
        return self.perm.is_identity() and self.flips.is_identity()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedPermutation)
            and self.perm == other.perm
            and self.flips == other.flips
        )

    def __hash__(self) -> int:
        return hash((self.perm, self.flips))

    def __repr__(self) -> str:
        return f"SignedPermutation({list(self.perm.images)}, {list(self.flips.bits)})"


def format_element(e) -> str:
    if isinstance(e, Permutation):
        return "[" + ",".join(str(x) for x in e.images) + "]"
    if isinstance(e, FlipVector):
        return "[" + ",".join(str(b) for b in e.bits) + "]"
    if isinstance(e, SignedPermutation):
        return (
            "["
            + ",".join(str(x) for x in e.perm.images)
            + "|"
            + ",".join(str(b) for b in e.flips.bits)
            + "]"
        )
    raise TypeError(f"cannot format {type(e).__name__}")


def eval_word(w: Word, images: dict, identity):
    """Fold a word through generator images, left-to-right.

    ``images`` maps positive atoms to model elements; negative occurrences
    use the element's inverse.  Raises KeyError for an unmapped generator.
    """
    acc = identity
    for a in w.atoms:
        g = images[strip_sign(a)]
        if a.sign == -1:
            g = g.inverse()
        acc = acc * g
    return acc


def enumerate_closure(generators, limit: int | None = None):
    """Closure of a generating set under the model product, by BFS.

    Stops with a ValueError if ``limit`` would be exceeded, which guards the
    fixed-time acceptance checks against runaway models.
    """
    gens = list(generators)
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = e * g
                if h not in seen:
                    if limit is not None and len(seen) >= limit:
                        raise ValueError(f"closure exceeds limit {limit}")
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen
