"""Span tracing of tvbraid's public functions, installed from outside.

Each layer is one module of the package.  ``Tracer.install`` replaces every
binding of the listed functions in every loaded ``tvbraid`` module (so the
names that one module imported from another are traced too) with a wrapper
that records a span: name, start, end, parent span and operation id.
Spans stay in flat arrays in memory until ``write`` saves them.  Per-product
hot paths such as ``Permutation.__mul__`` are deliberately not wrapped.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import defaultdict

#: layer -> public functions wrapped in it
LAYERS = {
    "words": ("parse_word", "format_word", "reduce", "free_reduce", "canonical_key"),
    "perms": ("eval_word", "enumerate_closure"),
    "conj": ("conjugate_by_bars", "conjugation_orbit", "expand_word"),
    "present": ("build_presentation", "presentation_text"),
    "homs": ("make_hom", "image", "in_kernel", "check_well_defined"),
    "rs": ("make_context", "rewrite_tau", "derive_relators", "split"),
    "abelian": ("relation_matrix", "smith_normal_form", "abelian_invariants"),
}

#: the nine checks of ``tvbraid verify --all``, timed by ``--timings``
SUITE_CHECKS = (
    "relators-vanish",
    "extended-symmetric-model",
    "transversal-classification",
    "derived-vs-registry",
    "derived-pl-table",
    "abelian-invariants",
    "pl-to-vp",
    "split-random",
    "bar-conjugation",
)

#: per-layer metric -> unit, in the order they are reported
LAYER_METRICS = {
    "rs.make_context_s": "s",
    "rs.transversal_cosets": "count",
    "rs.derive_relators_s": "s",
    "rs.conjugates_tried": "count",
    "rs.relators_kept": "count",
    "rs.derive_kept_ratio": "ratio",
    "rs.rewrite_tau_calls": "count",
    "rs.rewrite_tau_s": "s",
    "rs.letters_rewritten": "count",
    "perms.eval_word_calls": "count",
    "perms.eval_word_letters": "count",
    "perms.eval_word_s": "s",
    "words.canonical_key_calls": "count",
    "words.canonical_key_s": "s",
    "words.parse_word_s": "s",
    "words.format_word_s": "s",
    "conj.conjugate_by_bars_calls": "count",
    "conj.conjugate_by_bars_s": "s",
    "present.build_presentation_s": "s",
    "present.relators_kept": "count",
    "present.orbit_kept_ratio": "ratio",
    "abelian.relation_matrix_s": "s",
    "abelian.smith_normal_form_s": "s",
    "abelian.snf_cells": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"suite.{check}_s": "s" for check in SUITE_CHECKS},
    "cli.interpreter_start_ms": "ms",
    "cli.import_ms": "ms",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def _key(*parts) -> str:
    return "".join(str(p) for p in parts)


def _on_make_context(tr, idx, args, result):
    tr.add("rs.transversal_cosets", _key(*args), len(result.transversal))


def _on_derive(tr, idx, args, result):
    key = _key(args[0].name, args[0].n)
    tr.span_info[idx] = (key, len(result))
    tr.add("rs.relators_kept", key, len(result))


def _on_rewrite(tr, idx, args, result):
    tr.add("rs.letters_rewritten", None, len(args[1].atoms))


def _on_eval_word(tr, idx, args, result):
    tr.add("perms.eval_word_letters", None, len(args[0].atoms))


def _on_build_presentation(tr, idx, args, result):
    key = _key(*args)
    tr.span_info[idx] = (key, len(result.relators))
    tr.add("present.relators_kept", key, len(result.relators))


def _on_smith(tr, idx, args, result):
    matrix = args[0]
    tr.add("abelian.snf_cells", None, len(matrix) * (len(matrix[0]) if matrix else 0))


#: counters recorded at the boundary of a traced function
HOOKS = {
    "rs.make_context": _on_make_context,
    "rs.derive_relators": _on_derive,
    "rs.rewrite_tau": _on_rewrite,
    "perms.eval_word": _on_eval_word,
    "present.build_presentation": _on_build_presentation,
    "abelian.smith_normal_form": _on_smith,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.current = -1
        self.op_id = -1
        #: span index -> (count key, items kept) for derive and present spans
        self.span_info: dict[int, tuple[str, int]] = {}
        self.counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        self._patched: list[tuple] = []

    def add(self, metric: str, key, value: int) -> None:
        self.counts[metric][key] += value

    def _wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.current
            idx = len(self.sp_name)
            self.sp_name.append(nid)
            self.sp_parent.append(parent)
            self.sp_op.append(self.op_id)
            self.sp_start.append(0)
            self.sp_end.append(0)
            self.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.current = parent
                self.sp_start[idx] = t0
                self.sp_end[idx] = t1
            if hook is not None:
                hook(self, idx, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "tvbraid" or k.startswith("tvbraid."))
        ]
        for layer, fnames in LAYERS.items():
            home = sys.modules[f"tvbraid.{layer}"]
            for fname in fnames:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
                            self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def summary(self) -> tuple[dict, dict]:
        """Per-layer metrics in seconds and counts, plus per-key counts."""
        n = len(self.sp_name)
        child = [0] * n
        for k in range(n):
            p = self.sp_parent[k]
            if p >= 0:
                child[p] += self.sp_end[k] - self.sp_start[k]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        for k in range(n):
            name = self.names[self.sp_name[k]]
            calls[name] += 1
            self_ns[name] += self.sp_end[k] - self.sp_start[k] - child[k]
        nid = self.name_ids.get
        derive_id, rewrite_id = nid("rs.derive_relators"), nid("rs.rewrite_tau")
        present_id, orbit_id = nid("present.build_presentation"), nid("conj.conjugate_by_bars")
        tried_by_key = defaultdict(int)
        orbit_children = defaultdict(int)
        for k in range(n):
            p = self.sp_parent[k]
            if p < 0:
                continue
            if self.sp_name[k] == rewrite_id and self.sp_name[p] == derive_id:
                tried_by_key[self.span_info[p][0]] += 1
            elif self.sp_name[k] == orbit_id and self.sp_name[p] == present_id:
                orbit_children[p] += 1
        orbit_words = sum(orbit_children.values())
        orbit_kept = sum(self.span_info[p][1] for p in orbit_children)

        def total(metric):
            return sum(self.counts[metric].values())

        def secs(name):
            return self_ns[name] / 1e9

        tried, kept = sum(tried_by_key.values()), total("rs.relators_kept")
        metrics = {
            "rs.make_context_s": secs("rs.make_context"),
            "rs.transversal_cosets": total("rs.transversal_cosets"),
            "rs.derive_relators_s": secs("rs.derive_relators"),
            "rs.conjugates_tried": tried,
            "rs.relators_kept": kept,
            "rs.derive_kept_ratio": kept / tried if tried else 0.0,
            "rs.rewrite_tau_calls": calls["rs.rewrite_tau"],
            "rs.rewrite_tau_s": secs("rs.rewrite_tau"),
            "rs.letters_rewritten": total("rs.letters_rewritten"),
            "perms.eval_word_calls": calls["perms.eval_word"],
            "perms.eval_word_letters": total("perms.eval_word_letters"),
            "perms.eval_word_s": secs("perms.eval_word"),
            "words.canonical_key_calls": calls["words.canonical_key"],
            "words.canonical_key_s": secs("words.canonical_key"),
            "words.parse_word_s": secs("words.parse_word"),
            "words.format_word_s": secs("words.format_word"),
            "conj.conjugate_by_bars_calls": calls["conj.conjugate_by_bars"],
            "conj.conjugate_by_bars_s": secs("conj.conjugate_by_bars"),
            "present.build_presentation_s": secs("present.build_presentation"),
            "present.relators_kept": total("present.relators_kept"),
            "present.orbit_kept_ratio": orbit_kept / orbit_words if orbit_words else 0.0,
            "abelian.relation_matrix_s": secs("abelian.relation_matrix"),
            "abelian.smith_normal_form_s": secs("abelian.smith_normal_form"),
            "abelian.snf_cells": total("abelian.snf_cells"),
            "trace.spans": n,
        }
        for layer, fnames in LAYERS.items():
            metrics[f"{layer}.self_s"] = sum(secs(f"{layer}.{f}") for f in fnames)
        keyed = {
            m: dict(sorted(per.items()))
            for m, per in sorted(self.counts.items())
            if None not in per
        }
        keyed["rs.conjugates_tried"] = dict(sorted(tried_by_key.items()))
        return metrics, keyed

    def write(self, path, extra: dict) -> None:
        """Save every span, column-wise, with start and end relative to the
        first span, together with ``extra`` (metadata and metrics)."""
        t0 = min(self.sp_start, default=0)
        doc = dict(extra)
        doc["span_names"] = self.names
        doc["spans"] = {
            "name": self.sp_name.tolist(),
            "parent": self.sp_parent.tolist(),
            "op": self.sp_op.tolist(),
            "start_ns": [t - t0 for t in self.sp_start],
            "end_ns": [t - t0 for t in self.sp_end],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
