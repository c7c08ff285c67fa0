"""Words over the generator alphabets of twisted virtual braid groups.

A word is a flat sequence of generator atoms, each an exponent-(+1 or -1)
occurrence of one of five kinds:

    s<i>        classical crossing on strands i, i+1
    r<i>        virtual crossing on strands i, i+1
    g<i>        bar (twist) on strand i
    l<i>,<j>    pure twisted generator on the ordered strand pair (i, j)
    x<i>,<j>    unsigned-flavour pure generator on the ordered pair (i, j)

The l and x kinds may carry a decoration suffix naming a set of bar
conjugators, e.g. ``l1,2:12`` is the pair generator conjugated by g1 g2.
Decoration digits are read one index per character; a decoration with an
index above 9 is comma separated, and a one-index one ends in a comma
(``l10,11:10,11``, ``l1,11:11,``).  An inverse is written with a trailing
``^-1``.  Atoms are space separated and the empty string is the empty word.

r and g atoms are involutions, so their sign is folded to +1 on
construction; ``r1^-1`` parses but is stored as ``r1``.  Two reduction tiers
exist.  ``free_reduce`` cancels only adjacent inverse pairs of the
sign-carrying kinds (s, l, x) and is what relator bookkeeping uses, since it
keeps squares such as ``g1 g1`` intact.  ``reduce`` additionally cancels
adjacent equal involution atoms.  Both give a reduced form, not a normal
form: neither applies the swap identity of ``tvbraid.conj``.

A word is its rank and its atoms.  Input is validated at the boundary:
``parse_word`` and the public ``Atom`` and ``Word`` constructors check
every index against the rank and every decoration against its pair.
Atoms the library builds come from one table that validates each value
the first time it is seen, and words derived from already checked words
skip the checks.
"""

from __future__ import annotations

import re

from ._record import FrozenRecord

KINDS = ("s", "r", "g", "l", "x")

_INVOLUTION = frozenset("rg")
_PAIRED = frozenset("lx")
_KIND_ORDER = {"g": 0, "r": 1, "s": 2, "l": 3, "x": 4}


class ParseError(ValueError):
    """Malformed word text, or a word that does not fit its rank."""


class Atom(FrozenRecord):
    """One generator occurrence.

    ``j`` is None except for the paired kinds l and x.  ``deco`` is a
    strictly increasing tuple of bar-conjugator indices (paired kinds only).
    Involution kinds fold their sign to +1.  Index-range checks against a
    rank happen at Word construction, not here.  An atom hashes as the tuple
    of its fields and never equals a tuple; that hash and its sort key, which
    names the fields one to one, are computed once, when it is built.  Its
    text is kept the first time ``format_atom`` builds it.  A pair atom
    keeps, the first time ``tvbraid.conj`` conjugates it, its canonical
    strands (i, j) and the four canonical atoms it becomes when bars toggle
    nothing, i, j or both.
    """

    _fields = ("kind", "i", "j", "deco", "sign")
    __slots__ = _fields + ("_hash", "_key", "_text", "_toggles")

    def __init__(
        self, kind: str, i: int, j: int | None = None, deco: tuple = (), sign: int = 1
    ):
        set_field = object.__setattr__
        set_field(self, "kind", kind)
        set_field(self, "i", i)
        set_field(self, "j", j)
        set_field(self, "deco", deco)
        set_field(self, "sign", sign)
        self._check()
        sign = self.sign
        set_field(self, "_hash", hash((kind, i, j, deco, sign)))
        set_field(self, "_key", (_KIND_ORDER[kind], i, j or 0, deco, sign))

    def _check(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if self.i < 1:
            raise ValueError(f"strand index must be positive, got {self.i}")
        if self.kind in _PAIRED:
            if self.j is None:
                raise ValueError(f"kind {self.kind!r} needs two strand indices")
            if self.j < 1:
                raise ValueError(f"strand index must be positive, got {self.j}")
            if self.j == self.i:
                raise ValueError("paired generator needs distinct strands")
        else:
            if self.j is not None:
                raise ValueError(f"kind {self.kind!r} takes one strand index")
            if self.deco:
                raise ValueError(f"kind {self.kind!r} cannot carry a decoration")
        if any(b <= a for a, b in zip(self.deco, self.deco[1:])) or any(
            d < 1 for d in self.deco
        ):
            raise ValueError(f"decoration must be strictly increasing, got {self.deco}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.kind in _INVOLUTION and self.sign == -1:
            object.__setattr__(self, "sign", 1)

    # Hand-written for speed: letter ids, map images and relator sets key on atoms.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # through the atom table, so that an unpickled or copied atom is the
        # library's atom of its value, as the coset cells' atoms must be
        return _atom, (self.kind, self.i, self.j, self.deco, self.sign)

    def inverse(self) -> "Atom":
        if self.kind in _INVOLUTION:
            return self
        return _atom(self.kind, self.i, self.j, self.deco, -self.sign)

    def sort_key(self) -> tuple:
        """(kind order, i, j or 0, deco, sign): bars sort first, kind order 0."""
        return self._key


#: (kind, i, j, deco, sign) -> the one validated Atom of that value
_ATOMS: dict[tuple, Atom] = {}


def _atom(kind: str, i: int, j: int | None = None, deco=(), sign: int = 1) -> Atom:
    """The library's Atom of this value, built and validated only the first
    time the value is seen.  ``deco`` must be a tuple."""
    key = (kind, i, j, deco, sign)
    a = _ATOMS.get(key)
    if a is None:
        a = _ATOMS[key] = Atom(kind, i, j, deco, sign)
    return a


def strip_sign(a: Atom) -> Atom:
    """The positive atom of a's generator."""
    return a if a.sign == 1 else _atom(a.kind, a.i, a.j, a.deco, 1)


def sigma(i: int, sign: int = 1) -> Atom:
    return _atom("s", i, sign=sign)


def rho(i: int) -> Atom:
    return _atom("r", i)


def gamma(i: int) -> Atom:
    return _atom("g", i)


def _pair_atom(kind: str, i: int, j: int, deco, sign: int) -> Atom:
    deco = tuple(sorted(set(deco)))
    if any(d not in (i, j) for d in deco):
        raise ValueError(f"decoration {deco} not a subset of {{{i}, {j}}}")
    return _atom(kind, i, j, deco, sign)


def lam(i: int, j: int, deco=(), sign: int = 1) -> Atom:
    """Pair generator l<i>,<j>, optionally decorated by a subset of {i, j}."""
    return _pair_atom("l", i, j, deco, sign)


def xgen(i: int, j: int, deco=(), sign: int = 1) -> Atom:
    """Pair generator x<i>,<j>; arguments as for ``lam``."""
    return _pair_atom("x", i, j, deco, sign)


class Word(FrozenRecord):
    """Immutable atom sequence: a word is its rank and its atoms.

    The constructor checks the atoms against the rank, and that each
    decoration lies inside its pair.
    """

    __slots__ = _fields = ("n", "atoms")

    def __init__(self, n: int, atoms=()):
        if n < 1:
            raise ValueError(f"rank must be at least 1, got {n}")
        atoms = tuple(atoms)
        for a in atoms:
            if a.kind in ("s", "r"):
                if a.i > n - 1:
                    raise ParseError(f"index {a.i} out of range for rank {n}")
            elif a.i > n or (a.j or 0) > n:
                raise ParseError(f"strand index out of range for rank {n}")
            if any(d > n for d in a.deco):
                raise ParseError(f"decoration index out of range for rank {n}")
            if a.kind in _PAIRED and any(d not in (a.i, a.j) for d in a.deco):
                raise ParseError(f"decoration {a.deco} not within pair ({a.i}, {a.j})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def _trusted(cls, n: int, atoms: tuple) -> "Word":
        """Word without checks, for a tuple of atoms already valid for rank
        n: atoms of checked words or built by the library."""
        w = object.__new__(cls)
        object.__setattr__(w, "n", n)
        object.__setattr__(w, "atoms", atoms)
        return w

    def __reduce__(self):
        # no checks on the way back, so that a word built by the library
        # outside the constructor's rules (a transcribed relator with a
        # decoration outside its pair) survives too
        return Word._trusted, (self.n, self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self):
        return iter(self.atoms)

    def __mul__(self, other: "Word") -> "Word":
        return concat(self, other)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r}, n={self.n})"


_TOKEN = re.compile(
    r"(?P<kind>[srglx])(?P<i>[0-9]+)(?:,(?P<j>[0-9]+))?"
    r"(?::(?P<deco>[0-9,]+))?(?:\^(?P<sign>-1))?\Z"
)


def _index(digits: str, tok: str) -> int:
    """The index the digits name.  Past the interpreter's limit on digits
    that int() converts, a short error names the digit count and cuts the
    token short, rather than repeating it whole."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"bad token {tok[:20]!r}...: index of {len(digits)} digits"
        ) from None


def _parse_deco(text: str, tok: str) -> tuple[int, ...]:
    if "," in text:
        parts = text.removesuffix(",").split(",")
    else:
        parts = list(text)
    if "" in parts:  # the token pattern lets only ASCII digits and commas in
        raise ParseError(f"bad decoration {text!r}")
    return tuple(_index(p, tok) for p in parts)


def parse_word(text: str, n: int) -> Word:
    """Parse space-separated atom tokens into a Word of the given rank."""
    atoms = []
    for tok in text.split():
        m = _TOKEN.match(tok)
        if m is None:
            raise ParseError(f"bad token {tok!r}")
        kind = m.group("kind")
        sign = -1 if m.group("sign") else 1
        try:
            i = _index(m.group("i"), tok)
            j = _index(m.group("j"), tok) if m.group("j") else None
            deco = _parse_deco(m.group("deco"), tok) if m.group("deco") else ()
            if deco and kind not in _PAIRED:
                raise ParseError(f"kind {kind!r} cannot carry a decoration: {tok!r}")
            if len(set(deco)) != len(deco):
                raise ParseError(f"decoration names an index twice: {tok!r}")
            atoms.append(Atom(kind, i, j, tuple(sorted(deco)), sign))
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"bad token {tok!r}: {exc}") from None
    try:
        return Word(n, atoms)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_deco(deco) -> str:
    """The text of an increasing index tuple as a decoration writes it:
    bare digits while every index is at most 9, else comma-separated with
    a trailing comma after a single index; empty for no index."""
    if not deco or deco[-1] <= 9:
        return "".join(map(str, deco))
    return ",".join(map(str, deco)) + "," * (len(deco) == 1)


def format_atom(a: Atom) -> str:
    """The atom's text, built once per atom and kept on it."""
    try:
        return a._text
    except AttributeError:
        pass
    out = f"{a.kind}{a.i}"
    if a.j is not None:
        out += f",{a.j}"
    if a.deco:
        out += ":" + format_deco(a.deco)
    if a.sign == -1:
        out += "^-1"
    object.__setattr__(a, "_text", out)
    return out


def format_word(w: Word) -> str:
    return " ".join(map(format_atom, w.atoms))


def _is_inverse_pair(a: Atom, b: Atom, involutions: bool) -> bool:
    if a.kind != b.kind:
        return False
    if a.kind in _INVOLUTION:
        return involutions and a == b
    return (a.i, a.j, a.deco) == (b.i, b.j, b.deco) and a.sign == -b.sign


def _cancel(atoms, involutions: bool):
    out = []
    for a in atoms:
        if out and _is_inverse_pair(out[-1], a, involutions):
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs of s, l, x atoms only."""
    return Word._trusted(w.n, _cancel(w.atoms, False))


def reduce(w: Word) -> Word:
    """Reduced form, not a normal form: free reduction plus cancellation of
    adjacent equal involution atoms (r r, g g), iterated to a fixpoint in one
    stack pass; the swap identity is not applied."""
    return Word._trusted(w.n, _cancel(w.atoms, True))


def _raw_invert_atoms(atoms) -> tuple:
    return tuple(a.inverse() for a in reversed(atoms))


def invert(w: Word) -> Word:
    """Group inverse: reversed sequence with signs flipped, then reduced."""
    return Word._trusted(w.n, _cancel(_raw_invert_atoms(w.atoms), True))


def concat(u: Word, v: Word) -> Word:
    if u.n != v.n:
        raise ValueError(f"rank mismatch: {u.n} vs {v.n}")
    return Word._trusted(u.n, u.atoms + v.atoms)


def _cyclic_key(seq: tuple, bars: set) -> tuple:
    """Least rotation of a nonempty sequence once each cyclic run of the
    members of bars is sorted.  Bars commute in every group this package
    presents, so the key names the word up to rotation and the order within
    bar runs.  The sequence may hold atom sort keys or generator ids; any
    fixed order of its letters gives the same classes."""
    if bars and not bars.isdisjoint(seq):
        p = next((k for k, g in enumerate(seq) if g not in bars), 0)
        out, run = [], []
        for g in seq[p:] + seq[:p]:  # from a non-bar, so the last run wraps
            if g in bars:
                run.append(g)
            else:
                out += sorted(run) if run else ()
                out.append(g)
                run = []
        seq = tuple(out + sorted(run))
    m = min(seq)
    p = seq.index(m)
    if seq.count(m) == 1:
        return seq[p:] + seq[:p]
    twice = seq + seq
    return min(twice[k : k + len(seq)] for k in range(p, len(seq)) if seq[k] == m)


def canonical_key(w: Word) -> tuple:
    """Cyclic-class key: the least of the cyclic keys of the word's atom sort
    keys and of its inverse's, with bar runs sorted.

    Two relators that differ by a cyclic rotation, by inversion, or by the
    order of bars inside a run get the same key.  Example: the derived
    relator ``l2,1^-1 g1 g2 l1,2 g1 g2`` and the registry form
    ``l1,2 g1 g2 l2,1^-1 g2 g1`` are cyclically equal only after the final
    run g2 g1 is sorted to g1 g2; both produce one key.  The inverse's keys
    are the word's reversed, with s, l and x signs negated.
    """
    keys = tuple([a._key for a in w.atoms])
    if not keys:
        return ()
    inv = tuple(k if k[0] < 2 else k[:4] + (-k[4],) for k in reversed(keys))
    bars = {k for k in keys if not k[0]}
    return min(_cyclic_key(keys, bars), _cyclic_key(inv, bars))
