"""Layer spans recorded from outside the program.

The pipeline calls each layer through a module attribute (``tracking.advance``,
``_kernels.batch_mutual_nn``, ...), so replacing that attribute with a timing
wrapper records a span per call without changing the program. A span holds
its name, start, end, parent span and frame id; spans stay in memory and are
written out when the run ends. Counters are computed after the traced pass
from references the wrapper kept, so their cost lands in no span.

A layer whose function no longer exists is listed as unmeasured instead of
failing the run, so a renamed function costs only its own layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time


def _count_group(args, out):
    frame = args[0]
    return {"groups": len(out.groups), "features": frame.count,
            "grouped": sum(g.n for g in out.groups)}


def _count_match(args, out):
    return {"candidates": len(args[4]), "accepted": len(out)}


def _count_batch_mutual_nn(args, out):
    desc_a, cnt_a, cnt_b, pair_a, pair_b = args[0], args[4], args[7], args[8], args[9]
    n_a = cnt_a[pair_a]
    n_b = cnt_b[pair_b]
    # computed, not measured: every descriptor row a pair reads, once
    return {"cells": int((n_a * n_b).sum()),
            "bytes": int((n_a + n_b).sum()) * int(desc_a.shape[1])}


def _count_dedup(args, out):
    return {"supports": sum(gm.sup_a.shape[0] for gm in args[0]), "kept": len(out)}


def _count_advance(args, out):
    continued = len(out.proxies)
    return {"continued": continued, "born": len(out.groups) - continued}


def _count_write(args, out):
    return {"pairs": len(out), "bytes": sum(os.path.getsize(p) for p in out)}


# (module, attribute, span name, counter); module names are under dynafeat
LAYERS = [
    ("pipeline", "load_frame", "frontend.load", None),
    ("pipeline", "load_features", "frontend.parse", lambda a, out: {"features": out.count}),
    ("pipeline", "load_image", "image_io.load", None),
    ("pipeline", "extract_frame", "frontend.extract", None),
    ("frontend", "detect_corners", "frontend.detect", None),
    ("frontend", "describe", "frontend.describe", None),
    ("_kernels", "fast_response_map", "kernels.fast_response", None),
    ("_kernels", "brief_descriptors", "kernels.brief", None),
    ("pipeline", "group_features", "grouping.group", _count_group),
    ("tracking", "intersect_candidates", "tracking.restrict",
     lambda a, out: {"candidates": len(out)}),
    ("matching", "score_candidate_pairs", "matching.match", _count_match),
    ("_kernels", "batch_mutual_nn", "kernels.batch_mutual_nn", _count_batch_mutual_nn),
    ("matching", "dedup_inlier_columns", "matching.dedup", _count_dedup),
    ("_kernels", "claim_first", "kernels.claim_first", lambda a, out: {"rows": len(a[0])}),
    ("tracking", "advance", "tracking.advance", _count_advance),
    ("cli", "write_match_files", "pipeline.write", _count_write),
]

# every frame starts with this span; the frame index is load_frame's third
# argument and labels the spans that follow until the next frame
_FRAME_SPAN = "frontend.load"


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._frame = -1
        self._installed: list[tuple[object, str, object]] = []
        self._refs: dict[int, tuple] = {}
        self.unmeasured: list[str] = []
        for module, attr, _, _ in LAYERS:
            if getattr(self._module(module), attr, None) is None:
                self.unmeasured.append(f"{module}.{attr}")

    @staticmethod
    def _module(name: str):
        try:
            return importlib.import_module(f"dynafeat.{name}")
        except ImportError:
            return None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append({"name": name, "parent": self._stack[-1] if self._stack else -1,
                           "frame": self._frame, "start": time.perf_counter(), "end": None})
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == _FRAME_SPAN:
                self._frame = args[2] if len(args) > 2 else kwargs.get("index", -1)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self._refs[idx] = (counter, args, out)
            return out
        return wrapper

    def install(self) -> None:
        for module, attr, name, counter in LAYERS:
            mod = self._module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            setattr(mod, attr, self._wrap(name, fn, counter))
            self._installed.append((mod, attr, fn))

    def uninstall(self) -> None:
        while self._installed:
            mod, attr, fn = self._installed.pop()
            setattr(mod, attr, fn)

    def span(self, name: str, call):
        """Run ``call()`` inside a top-level span; returns (result, seconds)."""
        self._frame = -1
        idx = self._open(name)
        try:
            out = call()
        finally:
            self._close(idx)
        return out, self.spans[idx]["end"] - self.spans[idx]["start"]

    def count(self) -> None:
        """Attach counters to the spans recorded so far and drop references."""
        for idx, (counter, args, out) in self._refs.items():
            self.spans[idx]["counts"] = counter(args, out)
        self._refs.clear()


# ---------------------------------------------------------------------------
# From spans to per-layer metrics
# ---------------------------------------------------------------------------

TIMED_LAYERS = ["frontend.parse", "image_io.load", "frontend.detect", "frontend.describe",
                "kernels.fast_response", "kernels.brief", "grouping.group",
                "tracking.restrict", "tracking.advance", "matching.match",
                "matching.dedup", "kernels.batch_mutual_nn", "kernels.claim_first"]
HOT_LAYERS = ("tracking.restrict", "matching.match", "matching.dedup", "tracking.advance")

# every per-layer metric and its unit
UNITS = {name + "_ms": "ms" for name in TIMED_LAYERS + ["matching.match_self"]}
UNITS.update({
    "frontend.parse_us_per_feature": "us",
    "grouping.groups": "count", "grouping.grouped_share": "ratio",
    "tracking.candidates": "count", "tracking.continued": "count", "tracking.born": "count",
    "matching.accept_ratio": "ratio", "matching.dedup_kept_ratio": "ratio",
    "kernels.batch_mutual_nn_cells": "count", "kernels.batch_mutual_nn_bytes": "B",
    "kernels.claim_first_rows": "count",
    "pipeline.write_ms": "ms", "pipeline.write_bytes": "B", "pipeline.hot_ms": "ms",
    "pipeline.frame_ms_traced": "ms", "pipeline.unexplained_ms": "ms",
    "pipeline.trace_overhead": "ratio",
})


def _dur_ms(span) -> float:
    return (span["end"] - span["start"]) * 1000.0


def summarize(tracer: Tracer, frames: int, untraced_frame_ms: list[float]) -> dict:
    """Per-layer samples from the traced passes.

    Timings are samples per frame (layer time summed within one frame of
    one pass); write and whole-pass figures are one sample per pass. Layers
    that never ran inside a pass take their samples from the probe spans,
    which time the other front end on a frame converted from the workload.
    """
    spans = tracer.spans
    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _dur_ms(s)

    per_frame: dict[str, dict[tuple, float]] = {}
    probe: dict[str, list[float]] = {}
    probe_parse = [0.0, 0]     # probe parse ms and features
    counts: dict[str, dict[str, list[int]]] = {}
    frame_ms, unexplained_ms, write_ms, write_bytes = [], [], [], []
    owner: dict[int, tuple[str, int]] = {}   # span index -> (root kind, root index)

    for i, s in enumerate(spans):
        parent = s["parent"]
        if parent < 0:
            owner[i] = (s["name"], i)
            if s["name"] == "pipeline.pass":
                frame_ms.append(_dur_ms(s) / frames)
                unexplained_ms.append((_dur_ms(s) - children.get(i, 0.0)) / frames)
            continue
        kind, root = owner[parent]
        owner[i] = (kind, root)
        name, dur = s["name"], _dur_ms(s)
        if kind == "pipeline.probe":
            probe.setdefault(name, []).append(dur)
            if name == "frontend.parse":
                probe_parse[0] += dur
                probe_parse[1] += s["counts"]["features"]
            continue
        key = (root, s["frame"])
        per_frame.setdefault(name, {})
        per_frame[name][key] = per_frame[name].get(key, 0.0) + dur
        if name == "matching.match":
            self_key = "matching.match_self"
            per_frame.setdefault(self_key, {})
            per_frame[self_key][key] = per_frame[self_key].get(key, 0.0) \
                + dur - children.get(i, 0.0)
        for cname, value in s.get("counts", {}).items():
            counts.setdefault(name, {}).setdefault(cname, []).append(value)
        if name == "pipeline.write":
            pairs = max(s["counts"]["pairs"], 1)
            write_ms.append(dur / pairs)
            write_bytes.append(s["counts"]["bytes"] / pairs)

    samples: dict[str, list[float]] = {}
    source: dict[str, str] = {}
    for name in TIMED_LAYERS + ["matching.match_self"]:
        if per_frame.get(name):
            samples[name + "_ms"] = list(per_frame[name].values())
            source[name + "_ms"] = "pass"
        elif probe.get(name):
            samples[name + "_ms"] = probe[name]
            source[name + "_ms"] = "probe"
    hot: dict[tuple, float] = {}
    for name in HOT_LAYERS:
        for key, v in per_frame.get(name, {}).items():
            hot[key] = hot.get(key, 0.0) + v
    samples["pipeline.hot_ms"] = list(hot.values())
    samples["pipeline.write_ms"] = write_ms
    samples["pipeline.write_bytes"] = write_bytes
    samples["pipeline.frame_ms_traced"] = frame_ms
    samples["pipeline.unexplained_ms"] = unexplained_ms

    for metric, (layer, cname) in {
            "grouping.groups": ("grouping.group", "groups"),
            "tracking.candidates": ("tracking.restrict", "candidates"),
            "tracking.continued": ("tracking.advance", "continued"),
            "tracking.born": ("tracking.advance", "born"),
            "kernels.batch_mutual_nn_cells": ("kernels.batch_mutual_nn", "cells"),
            "kernels.batch_mutual_nn_bytes": ("kernels.batch_mutual_nn", "bytes"),
            "kernels.claim_first_rows": ("kernels.claim_first", "rows")}.items():
        samples[metric] = [float(v) for v in counts.get(layer, {}).get(cname, [])]

    def pooled(layer, num, den):
        c = counts.get(layer, {})
        total = sum(c.get(den, []))
        return (sum(c.get(num, [])) / total if total else None), total

    ratios = {
        "grouping.grouped_share": pooled("grouping.group", "grouped", "features"),
        "matching.accept_ratio": pooled("matching.match", "accepted", "candidates"),
        "matching.dedup_kept_ratio": pooled("matching.dedup", "kept", "supports"),
    }
    parse_ms = sum(per_frame.get("frontend.parse", {}).values())
    parse_features = sum(counts.get("frontend.parse", {}).get("features", []))
    if not parse_features:
        parse_ms, parse_features = probe_parse
        source["frontend.parse_us_per_feature"] = "probe"
    ratios["frontend.parse_us_per_feature"] = (
        (parse_ms * 1000.0 / parse_features if parse_features else None), parse_features)

    overhead = None
    if frame_ms and untraced_frame_ms:
        overhead = statistics.median(frame_ms) / statistics.median(untraced_frame_ms) - 1.0
    return {"samples": samples, "ratios": ratios, "source": source,
            "trace_overhead": overhead}
