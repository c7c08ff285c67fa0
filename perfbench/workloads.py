"""The four benchmark workloads.

Each workload builds its state in ``setup`` (the set-up time the benchmark
reports), hands out one round of operations in ``ops``, checks each
operation's output against an oracle in ``check``, and turns the per-label
latencies into its named metrics.  Inputs come only from the seeded
generator passed in; the program sees nothing else.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import oracles
from reference import MINIATURE, Yardstick

DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Profile:
    name: str
    derive: tuple  # (kernel, rank) pairs
    present_n: int
    rewrite_n: int
    verify_n: str
    verify_checks: int
    batch: int  # rewrite words per round
    cold_calls: int  # normalize processes per cli round
    #: frozen at the seed commit: sha256 of presentation_text per family
    present_sha256: dict
    #: frozen at the seed commit: sha256 of the rewrite outputs for DEFAULT_SEED
    rewrite_sha256: str
    free_rank: dict  # family -> free rank of its abelianization (no torsion)
    #: deterministic work counts, metric -> {key: count}, checked in traced runs
    counts: dict


FULL = Profile(
    name="full",
    derive=(("tvp", 4), ("pl", 4), ("pt", 3)),
    present_n=5,
    rewrite_n=6,
    verify_n="2..6",
    verify_checks=30,
    batch=1024,
    cold_calls=10,
    present_sha256={
        "pln": "981ed6ebecec43e096fb6825d53087943c15390ab735da20573f23a19c9a6d14",
        "hln": "fe57513507953871e4743c2908bbb349ba808663968df22b3a982ec68c6e21e6",
    },
    rewrite_sha256="c5a33ece6904494a05826f29d312b12696e4b24ea8b14e84a769da2491d97ec3",
    free_rank={"pln": 40, "hln": 1},
    counts={
        "rs.transversal_cosets": {"tvp4": 24, "pl4": 16, "pt3": 48, "pt6": 46080},
        "rs.conjugates_tried": {"tvp4": 984, "pl4": 1216, "pt3": 912},
        "rs.relators_kept": {"tvp4": 76, "pl4": 144, "pt3": 24},
        "present.relators_kept": {"pln5": 480, "hln5": 480},
    },
)

SMALL = Profile(
    name="small",
    derive=(("tvp", 3), ("pl", 3), ("pt", 3)),
    present_n=3,
    rewrite_n=3,
    verify_n="3",
    verify_checks=9,
    batch=64,
    cold_calls=2,
    present_sha256={
        "pln": "1603c51d868dc61eebbbf94c6f003e4297565d7f6b61c85b17f8ec8418b6238f",
        "hln": "19f0bdb11f08151da898a8d34bf2e89a1dfa70a94d1f7e41ea1f2d8fac222c82",
    },
    rewrite_sha256="39a34b1f46c545bdd0d5bada42a2fb2f2e701dd83e3de2fb0b1c0e4632367425",
    free_rank={"pln": 12, "hln": 1},
    counts={
        "rs.transversal_cosets": {"tvp3": 6, "pl3": 8, "pt3": 48},
        "rs.conjugates_tried": {"tvp3": 114, "pl3": 168, "pt3": 912},
        "rs.relators_kept": {"tvp3": 21, "pl3": 24, "pt3": 24},
        "present.relators_kept": {"pln3": 24, "hln3": 24},
    },
)

PROFILES = {p.name: p for p in (FULL, SMALL)}


def fresh_import(tracer=None) -> SimpleNamespace:
    """Import tvbraid from scratch, so that every set-up pays for its
    imports, and install the tracer on the new modules when given one."""
    for name in [m for m in sys.modules if m == "tvbraid" or m.startswith("tvbraid.")]:
        del sys.modules[name]
    pkg = importlib.import_module("tvbraid")
    src = Path.cwd().resolve() / "src"
    if src not in Path(pkg.__file__).resolve().parents:
        raise RuntimeError(f"tvbraid was imported from {pkg.__file__}, not from {src}")
    if tracer is not None:
        tracer.install()
    return SimpleNamespace(
        **{m: sys.modules[f"tvbraid.{m}"] for m in ("words", "present", "rs", "abelian")}
    )


def _atoms(word) -> list:
    return [(a.kind, a.i, a.j or 0, a.deco, a.sign) for a in word.atoms]


def percentile(xs, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, -(-len(s) * q // 100) - 1)] if s else float("nan")


class DeriveKernels:
    name = "derive-kernels"
    yardstick = MINIATURE
    registry = {"tvp": "tvpn", "pl": "pln", "pt": "pln"}

    def __init__(self, profile: Profile, rng, seed: int):
        self.kernels = list(profile.derive)
        rng.shuffle(self.kernels)
        keys = {f"{k}{n}" for k, n in self.kernels}
        self.expected_counts = {
            m: {k: c for k, c in per.items() if k in keys}
            for m, per in profile.counts.items()
            if m.startswith("rs.")
        }
        self._registry_keys = {}

    def setup(self, tracer):
        self.tv = fresh_import(tracer)
        self.contexts = [
            (f"derive_{k}{n}", self.tv.rs.make_context(k, n)) for k, n in self.kernels
        ]

    def ops(self):
        return [
            (label, lambda ctx=ctx: self.tv.rs.derive_relators(ctx))
            for label, ctx in self.contexts
        ]

    def check(self, index, out):
        label, ctx = self.contexts[index]
        reg = (self.registry[ctx.name], ctx.n)
        if reg not in self._registry_keys:
            pres = self.tv.present.build_presentation(*reg)
            self._registry_keys[reg] = {oracles.class_key(_atoms(r.word)) for r in pres.relators}
        keys = {oracles.class_key(_atoms(d.word)) for d in out}
        if len(keys) != len(out):
            return f"{label}: {len(out)} relators but {len(keys)} classes"
        want = self._registry_keys[reg]
        if keys != want:
            return (
                f"{label}: {len(keys & want)}/{len(want)} registry classes derived, "
                f"{len(keys - want)} extra"
            )
        return None

    def finish(self, first_round):
        return []

    def named(self, lat, wall):
        return [(f"{label}_s", statistics.median(xs), "s") for label, xs in sorted(lat.items())]


class OrbitPresent:
    name = "orbit-present"
    yardstick = MINIATURE

    def __init__(self, profile: Profile, rng, seed: int):
        self.n = profile.present_n
        self.families = ["pln", "hln"]
        rng.shuffle(self.families)
        self.profile = profile
        self.expected_counts = {
            m: v for m, v in profile.counts.items() if m.startswith("present.")
        }
        self.built = {}

    def setup(self, tracer):
        self.tv = fresh_import(tracer)

    def _present(self, family):
        pres = self.tv.present.build_presentation(family, self.n)
        self.built[family] = pres
        return self.tv.present.presentation_text(pres)

    def _abelianize(self):
        inv = self.tv.abelian.abelian_invariants(self.built["hln"])
        return inv.free_rank, inv.torsion

    def ops(self):
        out = [
            (f"present_{fam}{self.n}", lambda fam=fam: self._present(fam))
            for fam in self.families
        ]
        return out + [(f"abelianize_hln{self.n}", self._abelianize)]

    def check(self, index, out):
        if index == len(self.families):
            want = (self.profile.free_rank["hln"], ())
            return None if out == want else f"abelianize: got {out}, want {want}"
        family = self.families[index]
        label = f"present_{family}{self.n}"
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != self.profile.present_sha256[family]:
            return f"{label}: presentation text differs from the frozen digest ({digest})"
        return None

    def finish(self, first_round):
        if "pln" not in self.built:
            return [f"pln{self.n} was never built"]
        inv = self.tv.abelian.abelian_invariants(self.built["pln"])
        want = (self.profile.free_rank["pln"], ())
        got = (inv.free_rank, inv.torsion)
        return [] if got == want else [f"pln{self.n} invariants {got}, want {want}"]

    def named(self, lat, wall):
        return [(f"{label}_s", statistics.median(xs), "s") for label, xs in sorted(lat.items())]


def _random_letter(rng, n):
    k = rng.randrange(3)
    if k == 0:
        return f"s{rng.randint(1, n - 1)}" + ("^-1" if rng.random() < 0.5 else "")
    if k == 1:
        return f"r{rng.randint(1, n - 1)}"
    return f"g{rng.randint(1, n)}"


def _invert_tokens(tokens):
    return [
        t if t[0] in "rg" else t.removesuffix("^-1") if t.endswith("^-1") else t + "^-1"
        for t in reversed(tokens)
    ]


class RewriteBatch:
    name = "rewrite-batch"
    yardstick = MINIATURE
    conjugates = 3
    ambient_len = 5

    def __init__(self, profile: Profile, rng, seed: int):
        self.n = profile.rewrite_n
        self.profile = profile
        self.seed = seed
        self.words = [self._kernel_word(rng) for _ in range(profile.batch)]
        self.expected_counts = {
            "rs.transversal_cosets": {
                k: v for k, v in profile.counts.get("rs.transversal_cosets", {}).items()
                if k == f"pt{self.n}"
            }
        }
        self._verdicts = {}

    def _kernel_word(self, rng):
        """Product of conjugates w (s_i r_i)^+-1 w^-1, which phiPT kills
        because it sends s_i and r_i to the same element."""
        tokens = []
        for _ in range(self.conjugates):
            w = [_random_letter(rng, self.n) for _ in range(self.ambient_len)]
            i = rng.randint(1, self.n - 1)
            core = [f"s{i}", f"r{i}"]
            if rng.random() < 0.5:
                core = _invert_tokens(core)
            tokens += w + core + _invert_tokens(w)
        return " ".join(tokens)

    def setup(self, tracer):
        self.tv = fresh_import(tracer)
        self.ctx = self.tv.rs.make_context("pt", self.n)

    def _rewrite(self, text):
        words = self.tv.words
        u = words.parse_word(text, self.n)
        return words.format_word(self.tv.rs.rewrite_tau(self.ctx, u).word)

    def ops(self):
        return [("rewrite", lambda t=t: self._rewrite(t)) for t in self.words]

    def check(self, index, out):
        key = (index, out)
        if key not in self._verdicts:
            n, text = self.n, self.words[index]
            lhs = oracles.model_image(n, [oracles.parse_token(t) for t in text.split()])
            expanded = [
                a for t in out.split() for a in oracles.expand_l(oracles.parse_token(t))
            ]
            ok = lhs == oracles.model_image(n, expanded)
            self._verdicts[key] = None if ok else f"rewrite of {text!r} gave {out!r}"
        return self._verdicts[key]

    def finish(self, first_round):
        if self.seed != DEFAULT_SEED or not all(isinstance(o, str) for o in first_round):
            return []
        digest = hashlib.sha256("\n".join(first_round).encode()).hexdigest()
        if digest != self.profile.rewrite_sha256:
            return [f"rewrite outputs differ from the frozen digest ({digest})"]
        return []

    def named(self, lat, wall):
        xs = lat["rewrite"]
        return [
            ("rewrite_words_per_s", len(xs) / wall, "1/s"),
            ("rewrite_p50_ms", statistics.median(xs) * 1e3, "ms"),
            ("rewrite_p99_ms", percentile(xs, 99) * 1e3, "ms"),
        ]


def _bare_start() -> None:
    # Output captured as for the timed processes: without it, a wait with a
    # timeout polls in sleeps of up to 50 ms.
    subprocess.run(
        [sys.executable, "-c", "pass"], capture_output=True, check=True, timeout=CHILD_TIMEOUT_S
    )


class Cli:
    name = "cli"
    # A bare interpreter start: the same process creation, exec and runtime
    # start-up as a cold start, without tvbraid.  It tracks the host's
    # process-start speed far better than the in-process miniature does
    # (spread 0.01 against 0.06 over 20-s windows).  One start takes as long
    # as a whole burst of the miniature.
    yardstick = Yardstick(_bare_start, 1, 0.045)
    #: set by the harness in a traced run: verify joins the rounds
    traced_run = False
    normalize_words = 4
    normalize_len = 16
    probes = 5

    def __init__(self, profile: Profile, rng, seed: int):
        self.profile = profile
        self.calls = [
            [
                " ".join(_random_letter(rng, 3) for _ in range(self.normalize_len))
                for _ in range(self.normalize_words)
            ]
            for _ in range(profile.cold_calls)
        ]
        self.expected_counts = {}
        src = str(Path.cwd().resolve() / "src")
        self.env = dict(os.environ, PYTHONPATH=src)

    def _run(self, argv):
        return subprocess.run(
            [sys.executable, *argv],
            capture_output=True,
            text=True,
            env=self.env,
            timeout=CHILD_TIMEOUT_S,
        )

    def _cli(self, args):
        proc = self._run(["-m", "tvbraid.cli", *args])
        return proc.returncode, proc.stdout, proc.stderr

    def setup(self, tracer):
        # A warm-up process: the first start in a fresh checkout compiles the
        # package's bytecode, which users pay once per install.
        rc, _out, err = self._cli(["normalize", "-n", "3", "s1"])
        if rc != 0:
            raise RuntimeError(f"tvbraid normalize failed: {err.strip()}")

    def ops(self):
        out = [
            ("normalize", lambda words=words: self._cli(["normalize", "-n", "3", *words]))
            for words in self.calls
        ]
        if self.traced_run:
            out.append(("verify", lambda: self._cli(self._verify_argv())))
        return out

    def _verify_argv(self):
        argv = ["verify", "--all", "-n", self.profile.verify_n]
        # The child processes cannot be traced from here; both rounds of a
        # traced run ask verify for its per-check --timings instead.
        return argv + ["--timings"] if self.traced_run else argv

    def check(self, index, out):
        rc, stdout, stderr = out
        if rc != 0:
            return f"exit {rc}: {stderr.strip()[-200:]}"
        lines = stdout.split("\n")[:-1]
        if index < len(self.calls):
            want = [oracles.normalize(w) for w in self.calls[index]]
            return None if lines == want else f"normalize gave {lines}, want {want}"
        k = self.profile.verify_checks
        last = lines[-1] if lines else ""
        return None if last == f"{k}/{k} checks passed" else f"verify printed {last!r}"

    def finish(self, first_round):
        """An untraced run ends with one timed ``verify --all``.  It stays out
        of the rounds: one process of several seconds is too long for the
        yardstick bursts around it to say how fast the host ran meanwhile."""
        if self.traced_run:
            return []
        t0 = time.perf_counter()
        out = self._cli(self._verify_argv())
        self.verify_s = time.perf_counter() - t0
        err = self.check(len(self.calls), out)
        return [] if err is None else [f"verify: {err}"]

    def named(self, lat, wall):
        return [
            ("cli_cold_start_ms", statistics.median(lat["normalize"]) * 1e3, "ms"),
            ("verify_all_s", self.verify_s, "s"),
        ]

    def layer_metrics(self, outputs):
        """suite.<check>_s parsed from ``verify --timings`` and the cli start
        probes; called after the traced round."""
        metrics = {}
        for _rc, stdout, _err in outputs:
            for line in stdout.split("\n"):
                parts = line.split()
                if len(parts) >= 4 and parts[1].startswith("n=") and parts[-1].endswith("s]"):
                    name = f"suite.{parts[0]}_s"
                    metrics[name] = metrics.get(name, 0.0) + float(parts[-1][1:-2])
        start = self._probe(["-c", "pass"])
        imported = self._probe(["-c", "import tvbraid.cli"])
        metrics["cli.interpreter_start_ms"] = start * 1e3
        metrics["cli.import_ms"] = (imported - start) * 1e3
        return metrics

    def _probe(self, argv):
        times = []
        for _ in range(self.probes):
            t0 = time.perf_counter()
            proc = self._run(argv)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"probe {argv} failed: {proc.stderr.strip()}")
        return statistics.median(times)


WORKLOADS = {w.name: w for w in (DeriveKernels, OrbitPresent, RewriteBatch, Cli)}
