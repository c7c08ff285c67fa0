"""tvbraid benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload derive-kernels --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload runs untraced: set-up is repeated and its
median reported, then whole rounds of operations run until ``--seconds``
have passed, every output is checked, and the end-to-end metrics are
printed.  With ``--trace 1`` one untraced round and one traced round run,
spans are written under ``.perfbench/``, and the per-layer metrics and the
tracing overhead (traced minus untraced wall time) are printed.  The last
line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn; ``--profile small`` runs
the same workloads at rank 3 for a quick smoke test.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
from reference import Reference
from tracer import LAYER_METRICS, Tracer

# Set-up repeats at least SETUP_MIN times and until SETUP_BUDGET_S seconds of
# set-up have accumulated, at most SETUP_MAX times: cheap set-ups are short
# and noisy, so they get more samples.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 1.0
# Every run measures at least MIN_ROUNDS rounds, so that a round as long as
# the whole run still yields a median of three.
MIN_ROUNDS = 3
MAX_ERRORS_SHOWN = 5
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_rel": "ref",
    "op_geomean_rel": "ref",
}
TRACE_DIR = Path(".perfbench")


def _commit() -> str:
    """HEAD of a git checkout, read without running git; "unknown" elsewhere."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _meta() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def _run_round(wl, tracer=None, between=None):
    """One round of the workload's operations: [(index, label, seconds, output)];
    a raised exception stands in for the output.  ``between`` runs untimed
    before each operation."""
    out = []
    for index, (label, fn) in enumerate(wl.ops()):
        if between is not None:
            between()
        if tracer is not None:
            tracer.op_id = index
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            result = exc
        out.append((index, label, time.perf_counter() - t0, result))
    return out


def _check(wl, records):
    """Number of failed operations and their messages."""
    errors = []
    for index, label, _secs, result in records:
        if isinstance(result, Exception):
            errors.append(f"{label}: {type(result).__name__}: {result}")
            continue
        try:
            err = wl.check(index, result)
        except Exception as exc:  # malformed output: a failed check, not a crash
            err = f"{label}: checking the output raised {type(exc).__name__}: {exc}"
        if err is not None:
            errors.append(err)
    return len(errors), errors


def _geomean_of_medians(by_label) -> float:
    """Each kind of operation weighs the same, however cheap it is."""
    return statistics.geometric_mean([statistics.median(xs) for xs in by_label.values()])


def run_untraced(make, yardstick, seconds: float):
    # Every set-up and every operation is timed between two bursts of the
    # yardstick and reported in its units; see reference.py.
    ref = Reference(yardstick)
    setups, setup_bursts = [], []
    while len(setups) < SETUP_MIN or (
        sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX
    ):
        # A fresh workload each time, so the previous state is freed first.
        wl = None
        gc.collect()
        wl = make()
        ref.burst()
        setup_bursts.append(len(ref.bursts) - 1)
        t0 = time.perf_counter()
        wl.setup(None)
        setups.append(time.perf_counter() - t0)
    ref.burst()
    setup_units = [ref.units(secs, b) for secs, b in zip(setups, setup_bursts)]

    op_bursts = []  # per operation, the index of the last burst before it

    def between():
        ref.maybe()
        op_bursts.append(len(ref.bursts) - 1)

    records = []
    start = time.perf_counter()
    while len(records) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        records.append(_run_round(wl, between=between))
    ref.burst()
    wall = time.perf_counter() - start
    flat = [r for rnd in records for r in rnd]
    units = [ref.units(r[2], b) for r, b in zip(flat, op_bursts)]
    failed, errors = _check(wl, flat)
    errors += wl.finish([r[3] for r in records[0]])
    # Failed operations count here too; `failed` flags them.
    lat, rel = defaultdict(list), defaultdict(list)
    for (_i, label, secs, _result), u in zip(flat, units):
        lat[label].append(secs)
        rel[label].append(u)
    it = iter(units)
    rel_rounds = [sum(next(it) for _ in rnd) for rnd in records]
    rounds = [sum(r[2] for r in rnd) for rnd in records]
    metrics = {
        "setup_s": statistics.median(setup_units) * yardstick.nominal_s,
        "peak_rss_mb": _peak_rss_mb(),
        "round_rel": statistics.median(rel_rounds),
        "op_geomean_rel": _geomean_of_medians(rel),
    }
    named = [(m, metrics[m], E2E_UNITS[m]) for m in E2E_UNITS]
    named += [
        ("setup_wall_s", statistics.median(setups), "s"),
        ("round_s", statistics.median(rounds), "s"),
        ("op_geomean_ms", _geomean_of_medians(lat) * 1e3, "ms"),
        ("yardstick_ms", statistics.median(ref.samples) * 1e3, "ms"),
    ]
    named += [(f"{label}_rel", statistics.median(xs), "ref") for label, xs in sorted(rel.items())]
    named += wl.named(lat, wall)
    named.append(("error_rate", failed / len(flat), "ratio"))
    info = [
        f"samples setups={len(setups)} rounds={len(rounds)} ops={len(flat)} "
        f"yardstick={len(ref.samples)}",
        "round_times_s " + " ".join(f"{r:.4f}" for r in rounds),
    ]
    return metrics, E2E_UNITS, named, info, len(flat), failed, errors


def run_traced(make, yardstick, seed: int, meta: dict):
    wl = make()
    wl.traced_run = True
    ref = Reference(yardstick)
    ref.burst()
    t0 = time.perf_counter()
    wl.setup(None)
    plain = _run_round(wl)
    untraced_wall = time.perf_counter() - t0
    ref.burst()
    tracer = Tracer()
    t0 = time.perf_counter()
    try:
        wl.setup(tracer)
        traced = _run_round(wl, tracer)
    finally:
        tracer.uninstall()
    traced_wall = time.perf_counter() - t0
    ref.burst()
    failed, errors = _check(wl, plain + traced)
    errors += wl.finish([r[3] for r in plain])
    metrics, keyed = tracer.summary()
    metrics.update({m: 0.0 for m in LAYER_METRICS if m not in metrics})
    if hasattr(wl, "layer_metrics"):
        metrics.update(wl.layer_metrics([r[3] for r in traced if not isinstance(r[3], Exception)]))
    # In yardstick units, so that a change of host speed between the two
    # passes does not pass for overhead.
    metrics["trace.overhead_s"] = (
        ref.units(traced_wall, 1) - ref.units(untraced_wall, 0)
    ) * yardstick.nominal_s
    for m, want in wl.expected_counts.items():
        got = {k: keyed.get(m, {}).get(k) for k in want}
        if got != want:
            errors.append(f"work count {m}: got {got}, want {want}")
    info = [f"count {m}[{k}] {v}" for m, per in keyed.items() for k, v in per.items()]
    path = TRACE_DIR / f"trace-{wl.name}-{seed}.json"
    tracer.write(path, {"meta": meta, "workload": wl.name, "metrics": metrics, "counts": keyed})
    info += [
        f"overhead untraced_s={untraced_wall} traced_s={traced_wall}",
        f"spans written to {path}",
    ]
    named = [(m, metrics[m], LAYER_METRICS[m]) for m in LAYER_METRICS]
    return metrics, LAYER_METRICS, named, info, len(plain) + len(traced), failed, errors


def run_workload(name, profile, seed, seconds, trace, meta):
    cls = workloads.WORKLOADS[name]

    def make():
        return cls(profile, random.Random(f"{name}:{seed}"), seed)

    if trace:
        result = run_traced(make, cls.yardstick, seed, meta)
    else:
        result = run_untraced(make, cls.yardstick, seconds)
    metrics, units, named, info, attempted, failed, errors = result
    print(f"workload {name} profile={profile.name} seed={seed} trace={int(trace)}")
    for line in info:
        print(line)
    for metric, value, unit in named:
        print(f"metric {metric} {value!r} {unit}")
    shown = errors[:MAX_ERRORS_SHOWN]
    if len(errors) > len(shown):
        shown.append(f"... and {len(errors) - len(shown)} more")
    for err in shown:
        print(f"error {name}: {err}")
        print(f"error {name}: {err}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(workloads.PROFILES), default="full")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "tvbraid" / "__init__.py").is_file():
        print(f"error: no tvbraid sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))

    meta = _meta()
    # The yardstick and the timed operations, child processes included,
    # share one processor, so the yardstick sees what the operations see.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    profile = workloads.PROFILES[args.profile]
    results = {
        name: run_workload(name, profile, args.seed, args.seconds, bool(args.trace), meta)
        for name in names
    }
    meta["loadavg_end"] = list(os.getloadavg())
    print("meta " + json.dumps(meta))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{m}": v for name, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
