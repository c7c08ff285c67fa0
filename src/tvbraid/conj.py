"""Bar-conjugation algebra on decorated pair generators.

A decorated atom l<i>,<j>:<S> stands for the pair generator conjugated by
the bars named in S, g_S^-1 l<i>,<j> g_S, and ``_expanded`` alone writes
it out that way.  Conjugation by a single bar g<k> either fixes the
atom (k outside the pair) or toggles k's membership in the decoration, so
conjugation by a set of bars toggles, in each atom's decoration, those of
its two strands that lie in the set; conjugating by the full ambient
symmetric action permutes all indices.
The canonical form keeps i < j with the decoration inside {i, j}, folding
larger-first atoms through the swap identity

    l<i>,<j> == l<j>,<i> conjugated by g<j> g<i>

which turns l<i>,<j>:<S> with i > j into l<j>,<i>:<{i,j} xor S>.

Since a bar set acts on a pair atom only through its two strands, each
pair atom keeps, on first use, the four atoms that the four toggles of its
strands make of it (``_toggles``), and conjugation is one table lookup per
atom.  Both actions live in ``_act``, which every other action here and the
Schreier classifier of ``tvbraid.rs`` call; ``act_gamma`` keeps its own
one-bar body as the reference that the tests check ``_act`` against.
"""

from __future__ import annotations

from .words import _PAIRED, Atom, Word, _atom, canonical_key, gamma


def canonicalize_atom(a: Atom) -> Atom:
    """Fold a pair atom to its i < j canonical form via the swap identity."""
    if a.kind not in _PAIRED:
        return a
    i, j = a.i, a.j
    if i < j:
        # a decoration is strictly increasing, so these are all the subsets
        if a.deco in ((), (i,), (j,), (i, j)):
            return a
        raise ValueError(f"decoration {a.deco} not inside pair ({i}, {j})")
    pair = {i, j}
    if any(d not in pair for d in a.deco):
        raise ValueError(f"decoration {a.deco} not inside pair ({i}, {j})")
    deco = tuple(sorted(pair.symmetric_difference(a.deco)))
    return _atom(a.kind, j, i, deco, a.sign)


def act_gamma(k: int, a: Atom) -> Atom:
    """Conjugate a canonical decorated atom (or a bar atom) by g<k>."""
    if a.kind == "g":
        return a
    if a.kind not in _PAIRED:
        raise ValueError(f"act_gamma undefined for kind {a.kind!r}")
    a = canonicalize_atom(a)
    if k not in (a.i, a.j):
        return a
    deco = tuple(sorted({k}.symmetric_difference(a.deco)))
    return _atom(a.kind, a.i, a.j, deco, a.sign)


def _toggles(a: Atom) -> tuple:
    """a's canonical strands (i, j) and the four canonical atoms it becomes
    when bars toggle nothing, i, j or both, in that order; kept on a the
    first time it is asked for.  All four come from the atom table, and an
    atom whose decoration lies outside its pair raises and keeps nothing."""
    c = canonicalize_atom(a)
    i, j, deco = c.i, c.j, set(c.deco)
    v = tuple(
        _atom(c.kind, i, j, tuple(sorted(deco.symmetric_difference(t))), c.sign)
        for t in ((), (i,), (j,), (i, j))
    )
    object.__setattr__(a, "_toggles", (i, j, v))
    return i, j, v


def _act(atoms, bars, p=None) -> tuple:
    """The atoms conjugated by the bar set bars, then renamed by the strand
    permutation p: each pair atom becomes the one of its four ``_toggles``
    that its strands in bars pick, and only with p are its indices
    renamed, with no second fold, so it may come out larger-first.  A bar
    atom only moves with p; any other kind raises ValueError."""
    bars = set(bars)
    out = []
    for a in atoms:
        if a.kind in _PAIRED:
            try:
                i, j, v = a._toggles
            except AttributeError:
                i, j, v = _toggles(a)
            a = v[(i in bars) | (j in bars) << 1]
            if p is not None:
                a = _atom(a.kind, p(i), p(j), tuple(sorted(map(p, a.deco))), a.sign)
        elif a.kind != "g":
            raise ValueError(f"no bar or strand action on kind {a.kind!r}")
        elif p is not None:
            a = gamma(p(a.i))
        out.append(a)
    return tuple(out)


def conjugate_by_bars(ks, w: Word) -> Word:
    """Conjugate a decorated word by the bar set ks, atom by atom: each
    pair atom comes out canonical, with its strands in ks toggled in its
    decoration; bar atoms pass through."""
    return Word._trusted(w.n, _act(w.atoms, ks))


def _bar_subsets(w: Word):
    """Bar sets to conjugate w by: the subsets of the strands its pair
    atoms touch.

    Every other bar fixes each atom of w, so these sets reach every bar
    conjugate.  They come in ascending bitmask order over {1..n} (bit b of
    the local mask names the b-th smallest strand, a map that keeps
    order), so each conjugate is first reached by the same set as in a
    walk over all 2^n subsets.
    """
    support = sorted({k for a in w.atoms if a.j is not None for k in (a.i, a.j)})
    for mask in range(1 << len(support)):
        yield [k for b, k in enumerate(support) if mask >> b & 1]


def conjugation_orbit(w: Word) -> list[Word]:
    """All distinct bar conjugates of a bar-free decorated word.

    Keeps one representative per cyclic class, in the order the bar sets
    of ``_bar_subsets`` reach them, so the output order is deterministic.
    """
    seen = {}
    for ks in _bar_subsets(w):
        cand = conjugate_by_bars(ks, w)
        seen.setdefault(canonical_key(cand), cand)
    return list(seen.values())


def _expanded(a: Atom) -> tuple:
    """The atom with its decoration written out: descending conjugator
    bars, the bare atom, ascending bars."""
    asc = tuple(gamma(k) for k in a.deco)
    return asc[::-1] + (_atom(a.kind, a.i, a.j, (), a.sign),) + asc


def expand_word(w: Word) -> Word:
    """The word over undecorated pair atoms and bars: each decorated pair
    atom replaced by ``_expanded``'s atoms."""
    out = []
    for a in w.atoms:
        if a.deco:
            out.extend(_expanded(a))
        else:
            out.append(a)
    return Word._trusted(w.n, tuple(out))


def check_generator_identification(n: int, kind: str = "l") -> list[str]:
    """Verify the three larger-first identification identities in canonical
    form for every ordered pair i > j; returns a list of failures."""
    bad = []
    for j in range(1, n + 1):
        for i in range(j + 1, n + 1):
            pair = (i, j)
            cases = [
                (Atom(kind, i, j, (i,)), Atom(kind, j, i, (j,))),
                (Atom(kind, i, j, (j,)), Atom(kind, j, i, (i,))),
                (Atom(kind, i, j, ()), Atom(kind, j, i, (j, i))),
            ]
            for raw, expected in cases:
                got = canonicalize_atom(raw)
                want = canonicalize_atom(expected)
                if got != want:
                    bad.append(f"pair {pair}: {raw} -> {got}, expected {want}")
    return bad
