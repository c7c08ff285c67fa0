"""Smoke test of the benchmark harness at rank 3.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: workload -> named metrics printed at rank 3, with their units
NAMED = {
    "derive-kernels": {"derive_tvp3_s": "s", "derive_pl3_s": "s", "derive_pt3_s": "s"},
    "orbit-present": {
        "present_pln3_s": "s",
        "present_hln3_s": "s",
        "abelianize_hln3_s": "s",
    },
    "rewrite-batch": {
        "rewrite_words_per_s": "1/s",
        "rewrite_p50_ms": "ms",
        "rewrite_p99_ms": "ms",
    },
    "cli": {"cli_cold_start_ms": "ms", "verify_all_s": "s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}


def _run(trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--profile", "small",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _printed(stdout: str) -> dict:
    """workload -> {metric: (value, unit)} from the `metric` lines."""
    out, current = {}, None
    for line in stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["workload"]:
            current = out.setdefault(parts[1], {})
        elif parts[:1] == ["metric"]:
            current[parts[1]] = (float(parts[2]), parts[3])
    return out


def _check_result(proc, spec_key):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    for wl in SPEC["workloads"]:
        for m in SPEC[spec_key]:
            assert result["metrics"][f"{wl['name']}/{m['name']}"]["unit"] == m["unit"]
    return _printed(proc.stdout)


def test_untraced_prints_every_metric_and_no_errors():
    printed = _check_result(_run(0), "end_to_end")
    assert set(printed) == set(NAMED)
    for name, metrics in printed.items():
        for metric, unit in {**COMMON, **NAMED[name]}.items():
            assert metrics[metric][1] == unit, (name, metric)
        assert metrics["error_rate"][0] == 0
        for metric in SPEC["end_to_end"]:
            if metric["name"] in COMMON:
                assert metrics[metric["name"]][0] > 0


def test_traced_prints_every_layer_metric_and_checks_counts():
    proc = _run(1)
    printed = _check_result(proc, "per_layer")
    for name, metrics in printed.items():
        for m in SPEC["per_layer"]:
            assert metrics[m["name"]][1] == m["unit"], (name, m["name"])
    assert "count rs.conjugates_tried[pt3] 912" in proc.stdout
    assert printed["orbit-present"]["conj.conjugate_by_bars_calls"][0] > 0
    assert printed["cli"]["suite.split-random_s"][0] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
