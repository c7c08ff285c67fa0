"""Correctness oracles for the benchmark.

None of these call into tvbraid: they work on formatted words and on plain
tuples, so a defect on a timed path cannot also hide in the check of its
output.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"([srglx])(\d+)(?:,(\d+))?(?::([\d,]+))?(\^-1)?\Z")
_INVOLUTIONS = "rg"


def parse_token(tok: str) -> tuple:
    """(kind, i, j, deco, sign) of one formatted atom such as ``l2,1:12^-1``."""
    m = _TOKEN.match(tok)
    if m is None:
        raise ValueError(f"bad token {tok!r}")
    kind, i, j, deco, inv = m.groups()
    if deco is None:
        deco_t = ()
    elif "," in deco:
        deco_t = tuple(int(d) for d in deco.split(","))
    else:
        deco_t = tuple(int(d) for d in deco)
    sign = -1 if inv and kind not in _INVOLUTIONS else 1
    return kind, int(i), int(j) if j else 0, deco_t, sign


def _inverse(atoms: list) -> list:
    return [
        a if a[0] in _INVOLUTIONS else (a[0], a[1], a[2], a[3], -a[4])
        for a in reversed(atoms)
    ]


def _sort_bar_runs(atoms: list) -> list:
    """Sort every cyclic run of bar atoms; bars commute and are involutions."""
    starts = [k for k, a in enumerate(atoms) if a[0] != "g"]
    if not starts:
        return sorted(atoms)
    rotated = atoms[starts[0]:] + atoms[: starts[0]]
    out, run = [], []
    for a in rotated:
        if a[0] == "g":
            run.append(a)
        else:
            out.extend(sorted(run))
            run = []
            out.append(a)
    return out + sorted(run)


def class_key(atoms: list) -> tuple:
    """Key of a relator's class under rotation, inversion and reordering of
    bar runs: the least rotation of either orientation."""
    if not atoms:
        return ()
    best = None
    for seq in (atoms, _inverse(atoms)):
        seq = _sort_bar_runs(seq)
        for r in range(len(seq)):
            cand = tuple(seq[r:] + seq[:r])
            if best is None or cand < best:
                best = cand
    return best


def normalize(text: str) -> str:
    """Stack cancellation of inverse pairs and of squares of r and g atoms."""
    out: list[str] = []
    for tok in text.split():
        top = out[-1] if out else None
        if top is not None and (
            top == tok if tok[0] in _INVOLUTIONS
            else top != tok and top.removesuffix("^-1") == tok.removesuffix("^-1")
        ):
            out.pop()
        else:
            out.append(tok)
    return " ".join(out)


# A model of the twisted virtual braid group in the hyperoctahedral group:
# s<i> acts trivially, r<i> swaps strands i and i+1, g<k> negates strand k.
# An element is the tuple of signed images of the strands 1..n.


def _compose(f: tuple, g: tuple) -> tuple:
    return tuple(f[x - 1] if x > 0 else -f[-x - 1] for x in g)


def model_image(n: int, atoms) -> tuple:
    """Image of a word over s, r, g atoms; the word's letters compose left
    to right as functions, so the map is a homomorphism."""
    acc = tuple(range(1, n + 1))
    for kind, i, _j, _deco, _sign in atoms:
        if kind == "s":
            continue
        f = list(range(1, n + 1))
        if kind == "r":
            f[i - 1], f[i] = i + 1, i
        elif kind == "g":
            f[i - 1] = -i
        else:
            raise ValueError(f"no model image for kind {kind!r}")
        acc = _compose(acc, tuple(f))
    return acc


def expand_l(atom: tuple) -> list:
    """Ambient word of a decorated l generator in the signed convention:
    l<a>,<b> = r<a> s<a>^-1 and l<b>,<a> = s<a>^-1 r<a> for b = a + 1,
    conjugated by a descending chain of r atoms for distant strands, and by
    the decoration bars."""
    kind, i, j, deco, sign = atom
    if kind != "l":
        raise ValueError(f"expected an l atom, got {kind!r}")
    a, b = min(i, j), max(i, j)
    chain = [("r", m, 0, (), 1) for m in range(b - 1, a, -1)]
    r, s_inv = ("r", a, 0, (), 1), ("s", a, 0, (), -1)
    core = chain + ([r, s_inv] if i < j else [s_inv, r]) + chain[::-1]
    if sign == -1:
        core = _inverse(core)
    bars = [("g", k, 0, (), 1) for k in deco]
    return bars[::-1] + core + bars
