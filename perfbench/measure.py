"""Passes, checks and metrics of one benchmark run (entry point: run.py)."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import dynafeat
from dynafeat import cli, pipeline
from dynafeat.config import PipelineConfig

import layers
import workloads

SETUP_STARTS = 7          # timed fresh starts per run; setup_s is their median

END_TO_END_UNITS = {"ms_per_frame": "ms", "setup_s": "s", "peak_rss_mb": "MB",
                    "precision": "ratio", "recall": "ratio", "pass_rate": "ratio"}


def _git_sha(root: str) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def _src_digest(src: str) -> str:
    """sha256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "dynafeat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _match_outputs(out_dir: str) -> tuple[str, dict]:
    """sha256 over the match files, and their paths keyed by frame pair."""
    h = hashlib.sha256()
    files = {}
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    for name in names:
        if not (name.startswith("matches_") and name.endswith(".txt")):
            continue
        a, b = name[len("matches_"):-len(".txt")].split("_")
        path = os.path.join(out_dir, name)
        files[(int(a), int(b))] = path
        h.update(name.encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest(), files


def _setup_seconds(src: str, cfg: str, in_dir: str, out_dir: str) -> list[float]:
    """Wall time of fresh interpreters from spawn to first frame read."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    cmd = [sys.executable, probe, src, cfg, in_dir, out_dir]
    times = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120, check=False)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError("setup probe failed: " + proc.stderr.decode(errors="replace"))
        if i > 0:  # the first start also writes bytecode caches
            times.append(dt)
    return times


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return {"n": len(values), "median": v, "q1": v, "q3": v, "p90": v}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "p90": statistics.quantiles(values, n=10, method="inclusive")[-1]}


class Runner:
    """Runs ``dynafeat match`` in-process on one workload's inputs."""

    def __init__(self, cfg: str, in_dir: str, out_dir: str, tracer=None, probe=None):
        self.argv = ["match", cfg, in_dir, "--output-dir", out_dir]
        self.out_dir = out_dir
        self.tracer = tracer
        self.probe = probe        # (config, path) for the front end off the path

    def one_pass(self, traced: bool) -> tuple[int, float]:
        """Exit code and wall seconds of one pass, outputs left in out_dir.

        Each pass starts with no outputs and no pending garbage, as a fresh
        ``dynafeat match`` process would; the CLI's summary line is dropped
        so the benchmark's result stays the last line of standard output.
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()):
            if not traced:
                t0 = time.perf_counter()
                rc = cli.main(self.argv)
                return rc, time.perf_counter() - t0
            self.tracer.install()
            try:
                rc, dt = self.tracer.span("pipeline.pass", lambda: cli.main(self.argv))
                config, path = self.probe
                self.tracer.span("pipeline.probe",
                                 lambda: pipeline.load_frame(config, path, 0))
            finally:
                self.tracer.uninstall()
            self.tracer.count()
            return rc, dt


def run(args, root: str, nproc: int, thread_vars) -> int:
    src = os.path.join(root, "src")
    work_root = os.path.join(root, ".perfbench")
    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(work_root, f"work-{wl.name}-{args.seed}-{os.getpid()}")
    env = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "frames": wl.frames,
           "backend": getattr(dynafeat, "active_backend", lambda: "unknown")(),
           "numpy": np.__version__, "python": platform.python_version(), "nproc": nproc,
           "git_sha": _git_sha(root), "src_sha256": _src_digest(src),
           "threads": {v: os.environ[v] for v in thread_vars}}
    try:
        in_dir, out_dir = os.path.join(work, "in"), os.path.join(work, "out")
        cfg = os.path.join(work, "pipeline.cfg")
        gt = workloads.generate(wl, args.seed, in_dir)
        PipelineConfig(input_mode=wl.input_mode).save(cfg)
        if args.trace:
            setup = []
            probe_path, probe_mode = workloads.write_probe(wl, gt, args.seed,
                                                           os.path.join(work, "probe"))
            runner = Runner(cfg, in_dir, out_dir, layers.Tracer(),
                            (PipelineConfig(input_mode=probe_mode), probe_path))
        else:
            setup = _setup_seconds(src, cfg, in_dir, os.path.join(work, "setup"))
            runner = Runner(cfg, in_dir, out_dir)
        record = _measure(args, wl, gt, runner, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["env"] = env
    _report(args, wl, record, runner.tracer, work_root)
    return 0


def _measure(args, wl, gt, runner: Runner, setup: list[float]) -> dict:
    # the first pass warms caches and is the reference the others must equal
    rc, _ = runner.one_pass(False)
    ref_digest, files = _match_outputs(runner.out_dir)
    emitted, correct, recalled, truth = workloads.score(gt, files)
    precision = correct / emitted if emitted else 0.0
    recall = recalled / truth if truth else 0.0
    ref_ok = (rc == 0 and bool(files) and precision >= wl.min_precision
              and recall >= wl.min_recall)
    attempted = 1
    failed = 0 if ref_ok else 1

    untraced_ms: list[float] = []
    deadline = time.perf_counter() + args.seconds
    i = 0
    min_passes = 2 if args.trace else 1   # a traced run needs one pass of each kind
    while i < min_passes or time.perf_counter() < deadline:
        # traced passes in an ABBA order, so drift hits both sides alike
        traced = bool(args.trace) and i % 4 in (1, 2)
        rc, dt = runner.one_pass(traced)
        digest, _ = _match_outputs(runner.out_dir)
        attempted += 1
        failed += not (ref_ok and rc == 0 and digest == ref_digest)
        if not traced:
            untraced_ms.append(dt * 1000.0 / wl.frames)
        i += 1

    record = {"attempted": attempted, "failed": failed, "output_sha256": ref_digest,
              "scoring": {"emitted": emitted, "correct": correct, "recalled": recalled,
                          "true_correspondences": truth,
                          "min_precision": wl.min_precision, "min_recall": wl.min_recall}}
    if args.trace:
        record["metrics"] = _per_layer(runner.tracer, wl.frames, untraced_ms)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["metrics"] = {
            "ms_per_frame": _quartiles(untraced_ms),
            "setup_s": _quartiles(setup),
            "peak_rss_mb": {"n": 1, "median": peak_rss_mb},
            "precision": {"n": emitted, "median": precision},
            "recall": {"n": truth, "median": recall},
            "pass_rate": {"n": attempted, "median": (attempted - failed) / attempted}}
    return record


def _per_layer(tracer, frames: int, untraced_ms: list[float]) -> dict:
    summary = layers.summarize(tracer, frames, untraced_ms)
    stats = {}
    for name, values in summary["samples"].items():
        if values:
            stats[name] = _quartiles(values)
            stats[name]["source"] = summary["source"].get(name, "pass")
    for name, (value, base) in summary["ratios"].items():
        if value is not None:
            stats[name] = {"n": base, "median": value,
                           "source": summary["source"].get(name, "pass")}
    if summary["trace_overhead"] is not None:
        stats["pipeline.trace_overhead"] = {"n": len(untraced_ms),
                                            "median": summary["trace_overhead"]}
    return dict(sorted(stats.items()))


def _report(args, wl, record: dict, tracer, work_root: str) -> None:
    stats = record["metrics"]
    if args.trace:
        units = {name: layers.UNITS[name] for name in stats}
    else:
        units = END_TO_END_UNITS
    env = record["env"]
    print(f"# {wl.name} seed={args.seed} trace={args.trace} backend={env['backend']} "
          f"numpy={env['numpy']} python={env['python']} nproc={env['nproc']} "
          f"git={env['git_sha'][:12]} outputs={record['output_sha256'][:16]}")
    for name, unit in units.items():
        s = stats[name]
        extra = "".join(f" {k}={s[k]:.6g}" for k in ("q1", "q3", "p90") if k in s)
        where = f" [{s['source']}]" if s.get("source") == "probe" else ""
        print(f"{name:<34} {s['median']:>14.6g} {unit:<6} n={s['n']}{extra}{where}")
    if tracer is not None:
        record["unmeasured"] = tracer.unmeasured
        if tracer.unmeasured:
            print("unmeasured (function not found): " + ", ".join(tracer.unmeasured))
    os.makedirs(work_root, exist_ok=True)
    stem = f"{wl.name}-{args.seed}"
    with open(os.path.join(work_root, f"result-{stem}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(work_root, f"spans-{stem}.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
