"""Verification suite: one check per acceptance-grade property.

run_suite executes checks in a fixed order with a fixed default seed, so
the rendered report is byte-identical across runs; wall times live on the
report objects but stay out of the default rendering.
"""

from __future__ import annotations

import random
import time
from itertools import combinations
from math import factorial

from ._record import Record
from .abelian import (
    AbelianInvariants,
    abelian_invariants,
    invariants_text,
    minor_gcd_invariants,
    smith_normal_form,
)
from .conj import act_gamma, check_generator_identification, conjugation_orbit
from .homs import _raw_image, check_well_defined, make_hom
from .perms import FlipVector, enumerate_closure, eval_word, format_element
from .present import (
    _eq,
    build_presentation,
    generator_expression,
    transcribed_pl_table,
    _decorated_generators,
)
from .rs import (
    KERNEL_TABLE,
    classify,
    derive_relators,
    make_context,
    rewrite_tau,
    schreier_generator,
    split,
)
from .words import (
    Atom,
    Word,
    canonical_key,
    format_word,
    gamma,
    lam,
    parse_word,
)

DEFAULT_SEED = 20260821


class CheckReport(Record):
    __slots__ = _fields = ("check_id", "n", "status", "details", "seconds")

    def __init__(self, check_id: str, n: int, status: str, details: str, seconds: float):
        self.check_id = check_id
        self.n = n
        self.status = status
        self.details = details
        self.seconds = seconds


def _check_relators_vanish(n: int, seed: int):
    for name in ("phiP", "phiH", "phiPT", "phiHT"):
        ok, report = check_well_defined(make_hom(name, n))
        if not ok:
            bad = next(row for row in report if not row[1])
            return False, f"{name}: relator {bad[0]} maps to {bad[2]}"
    return True, "all ambient relators vanish under phiP phiH phiPT phiHT"


def _check_extended_symmetric(n: int, seed: int):
    h = make_hom("phiPT", n)
    gens = [h.images[Atom("r", i)] for i in range(1, n)]
    gens += [h.images[Atom("g", j)] for j in range(1, n + 1)]
    closure = enumerate_closure(gens, limit=2 ** n * factorial(n) + 1)
    want = 2 ** n * factorial(n)
    if len(closure) != want:
        return False, f"model closure has {len(closure)} elements, expected {want}"
    ts = build_presentation("tsn", n)
    for r in ts.relators:
        el = eval_word(r.word, h.images, h.identity)
        if not el.is_identity():
            return False, f"tsn relator {r.rid} maps to {format_element(el)}"
    bars = [FlipVector.unit(n, j) for j in range(1, n + 1)]
    bar_closure = enumerate_closure(bars, limit=2 ** n + 1)
    if len(bar_closure) != 2 ** n:
        return False, f"bar closure has {len(bar_closure)} elements"
    inv = abelian_invariants(build_presentation("an", n))
    if inv != AbelianInvariants(0, (2,) * n):
        return False, f"bar subgroup invariants {invariants_text(inv)}"
    return True, f"model order {want}, tsn relators hold, bar subgroup is Z_2^{n}"


def _check_transversal(n: int, seed: int):
    ctx = make_context("tvp", n)
    tr = ctx.transversal
    reps = [tr.lookup(el) for el in tr.order]
    if len(set(reps)) != factorial(n):
        return False, f"transversal size {len(set(reps))}, expected {factorial(n)}"
    for w in reps:
        for k in range(len(w.atoms)):
            prefix = Word(n, w.atoms[:k])
            if tr.lookup(_raw_image(ctx.hom, prefix)) != prefix:
                return False, (
                    f"prefix {format_word(prefix)!r} of {format_word(w)!r} "
                    "is not a representative"
                )
    if n > 5:
        return True, f"{factorial(n)} distinct prefix-closed representatives"
    pt_hom = make_hom("phiPT", n)
    for t in reps:
        for i in range(1, n):
            c = classify(ctx, t, Atom("r", i))
            if c is not None:
                return False, f"crossing column ({format_word(t)!r}, r{i}) -> {c}"
            s = schreier_generator(ctx, t, Atom("r", i))
            if any(a.kind != "r" for a in s.atoms):
                return False, f"rho Schreier word not pure: {format_word(s)}"
            if not _raw_image(pt_hom, s).is_identity():
                return False, f"rho Schreier word nontrivial: {format_word(s)}"
        for i in range(1, n):
            c = classify(ctx, t, Atom("s", i))
            if c is None or c.kind != "l" or c.sign != -1:
                return False, f"column ({format_word(t)!r}, s{i}) -> {c}"
        for i in range(1, n + 1):
            c = classify(ctx, t, Atom("g", i))
            if c is None or c.kind != "g":
                return False, f"column ({format_word(t)!r}, g{i}) -> {c}"
    return True, (
        f"{factorial(n)} representatives, prefix closed, "
        "all columns classify as expected"
    )


_FROZEN_REWRITES = [
    ("g1 g1", "g1 g1"),
    ("g1 g2 g1 g2", "g1 g2 g1 g2"),
    ("s1 g3 s1^-1 g3", "l1,2^-1 g3 l1,2 g3"),
    ("r1 s1 r1 g2 g1 s1^-1 g1 g2", "l2,1^-1 g1 g2 l1,2 g1 g2"),
]


def _check_derived_vs_registry(n: int, seed: int):
    if n == 3:
        ctx3 = make_context("tvp", 3)
        for text, expect in _FROZEN_REWRITES:
            got = format_word(rewrite_tau(ctx3, parse_word(text, 3)).word)
            if got != expect:
                return False, f"rewrite of {text!r} gave {got!r}, expected {expect!r}"
    for name in KERNEL_TABLE:
        ctx = make_context(name, n)
        derived = {canonical_key(d.word) for d in derive_relators(ctx)}
        registry = set(
            build_presentation(ctx.registry_family, n).relator_keys()
        )
        if derived != registry:
            return False, (
                f"{name}: derived {len(derived)} classes vs registry "
                f"{len(registry)}, {len(derived ^ registry)} differ"
            )
    return True, "derived kernel relators match the registry up to cyclic class"


_DISPLAYED_PL3 = [
    ("D1", ((1, 2), (1, 3), (2, 3)), ((), (), ())),
    ("D2", ((1, 2), (1, 3), (2, 3)), ((1, 2), (1, 3), (2, 3))),
    ("D3", ((1, 2), (2, 3), (1, 3)), ((1, 2), (), ())),
    ("D4", ((1, 2), (2, 3), (1, 3)), ((), (2, 3), (1, 3))),
    ("D5", ((1, 3), (1, 2), (2, 3)), ((), (), (2, 3))),
    ("D6", ((1, 3), (1, 2), (2, 3)), ((1, 3), (1, 2), ())),
]


def _check_derived_pl(n: int, seed: int):
    ctx = make_context("pl", n)
    derived = {canonical_key(d.word): d for d in derive_relators(ctx)}
    orbit_keys = set()
    for rid, pairs, decos in _DISPLAYED_PL3:
        atoms = [lam(i, j, d) for (i, j), d in zip(pairs, decos)]
        base = _eq(n, atoms, list(reversed(atoms)))
        for w in conjugation_orbit(base):
            orbit_keys.add(canonical_key(w))
    if orbit_keys != set(derived):
        return False, (
            f"derived {len(derived)} classes vs displayed-relator orbits "
            f"{len(orbit_keys)}"
        )
    table = transcribed_pl_table(n)
    table_keys = {}
    for rid, w in table:
        table_keys.setdefault(canonical_key(w), rid)
    unmatched_table = [rid for key, rid in table_keys.items() if key not in derived]
    unmatched_derived = [
        d.rid for key, d in derived.items() if key not in table_keys
    ]
    expected_bad = [f"C6({i},{j},{k})" for i, j, k in combinations(range(1, n + 1), 3)]
    detail = (
        f"derived matches displayed orbits ({len(derived)} classes); "
        f"table rows with no derived partner: {', '.join(unmatched_table) or 'none'}; "
        f"derived classes missing from table: {len(unmatched_derived)}"
    )
    if unmatched_table != expected_bad or len(unmatched_derived) != len(expected_bad):
        return False, detail
    return True, detail


_EXPECTED_INVARIANTS = {
    "tvpn": lambda n: AbelianInvariants(n * (n - 1) // 2, (2,) * n),
    "tvhn": lambda n: AbelianInvariants(1, (2,) * n),
}


def _check_abelian(n: int, seed: int):
    got = {}
    for fam, expect in _EXPECTED_INVARIANTS.items():
        inv = abelian_invariants(build_presentation(fam, n))
        if inv != expect(n):
            return False, f"{fam} invariants {invariants_text(inv)}"
        got[fam] = inv
    same = got["tvpn"] == got["tvhn"]
    if same != (n == 2):
        return False, f"same={same} at n={n}"
    detail = (
        f"tvpn {invariants_text(got['tvpn'])}, tvhn {invariants_text(got['tvhn'])}, "
        f"same={same}"
    )
    if n == 2:
        rng = random.Random(seed)
        for trial in range(1000):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            M = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
            if smith_normal_form(M) != minor_gcd_invariants(M):
                return False, f"Smith form disagrees with minor gcds on {M}"
        detail += "; Smith form agrees with minor-gcd oracle on 1000 matrices"
    return True, detail


def _check_pl_to_vp(n: int, seed: int):
    ctx = make_context("pl", n)
    h = make_hom("plToVp", n)
    target = build_presentation("vpn", n)
    count_empty = 0
    for d in derive_relators(ctx):
        img = _raw_image(h, d.word)
        if not img.atoms:
            count_empty += 1
            continue
        if target.find_matching(img) is None:
            return False, (
                f"derived relator {d.rid} ({d.line()}) maps to "
                f"{format_word(img)}, not a target relator"
            )
    return True, (
        f"all derived relators map to target relator instances "
        f"({count_empty} collapse outright)"
    )


_SPLIT_CONTEXTS = ("tvp", "tvh", "pt", "pl", "hl")


def _random_word(rng, n, alphabet_atoms, max_len=24):
    atoms = []
    for _ in range(rng.randint(0, max_len)):
        a = rng.choice(alphabet_atoms)
        if a.kind in ("s", "l", "x") and rng.random() < 0.5:
            a = a.inverse()
        atoms.append(a)
    return Word(n, atoms)


def _check_split(n: int, seed: int):
    rng = random.Random(seed + n)
    for name in _SPLIT_CONTEXTS:
        ctx = make_context(name, n)
        atoms = ctx.ambient.generators
        for trial in range(1000):
            w = _random_word(rng, n, atoms)
            k, t = split(ctx, w)
            if not _raw_image(ctx.hom, k).is_identity():
                return False, (
                    f"{name}: kernel part of {format_word(w)!r} "
                    f"has nontrivial image"
                )
            if _raw_image(ctx.hom, w) != _raw_image(ctx.hom, t):
                return False, (
                    f"{name}: representative of {format_word(w)!r} "
                    f"is in the wrong coset"
                )
    return True, f"1000 seeded splits per context ({', '.join(_SPLIT_CONTEXTS)})"


def _check_bar_conjugation(n: int, seed: int):
    for kind in ("l", "x"):
        bad = check_generator_identification(n, kind)
        if bad:
            return False, f"identification failures: {bad[0]}"
    if n > 4:
        return True, "larger-first identifications hold in canonical form"
    for kind, ctxname, fam in (("l", "pt", "tvpn"), ("x", "ht", "tvhn")):
        ctx = make_context(ctxname, n)
        for g in _decorated_generators(n, kind):
            for k in range(1, n + 1):
                expect = act_gamma(k, g)
                exp = generator_expression(g, n, fam)
                u = Word(n, (gamma(k),) + exp.atoms + (gamma(k),))
                got = rewrite_tau(ctx, u).word
                if len(got.atoms) != 1 or got.atoms[0] != expect:
                    return False, (
                        f"{ctxname}: bar {k} on {g} rewrote to "
                        f"{format_word(got)!r}, expected {expect}"
                    )
    return True, (
        "bar action matches kernel rewriting of conjugated expansions; "
        "identifications hold"
    )


CHECKS = {
    "relators-vanish": (_check_relators_vanish, (2, 3, 4, 5)),
    "extended-symmetric-model": (_check_extended_symmetric, (2, 3, 4, 5)),
    "transversal-classification": (_check_transversal, (2, 3, 4, 5, 6)),
    "derived-vs-registry": (_check_derived_vs_registry, (2, 3, 4)),
    "derived-pl-table": (_check_derived_pl, (3,)),
    "abelian-invariants": (_check_abelian, (2, 3, 4, 5)),
    "pl-to-vp": (_check_pl_to_vp, (3, 4)),
    "split-random": (_check_split, (2, 3, 4)),
    "bar-conjugation": (_check_bar_conjugation, (2, 3, 4, 5)),
}


def run_suite(checks=None, n_range=None, seed: int = DEFAULT_SEED) -> list[CheckReport]:
    """Run the named checks (all by default), each once and in declaration
    order, over their supported ranks, optionally intersected with n_range."""
    if checks is None:
        checks = CHECKS
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    out = []
    for cid in [c for c in CHECKS if c in checks]:
        fn, default_ns = CHECKS[cid]
        ns = [n for n in default_ns if n_range is None or n in n_range]
        for n in ns:
            t0 = time.perf_counter()
            try:
                ok, details = fn(n, seed)
            except (MemoryError, RecursionError):
                raise  # out of resources is not a failed check
            except Exception as exc:  # a crashing check is a failing check
                ok, details = False, f"exception: {type(exc).__name__}: {exc}"
            out.append(
                CheckReport(
                    cid,
                    n,
                    "pass" if ok else "fail",
                    details,
                    time.perf_counter() - t0,
                )
            )
    return out


def format_report(reports, include_timings: bool = False) -> str:
    lines = []
    width = max((len(r.check_id) for r in reports), default=0)
    for r in reports:
        line = f"{r.check_id:<{width}}  n={r.n}  {r.status.upper():4}  {r.details}"
        if include_timings:
            line += f"  [{r.seconds:.2f}s]"
        lines.append(line)
    ok = sum(1 for r in reports if r.status == "pass")
    lines.append(f"{ok}/{len(reports)} checks passed")
    return "\n".join(lines)
