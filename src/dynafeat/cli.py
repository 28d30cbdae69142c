"""Command-line interface.

Verbs:
    match <config> <input...>              run the pipeline, write match files
    eval  <config> <input...> --gt DIR     add ground-truth metrics
    bench <config> <input...> --reps N     median stage timings
    synth <scene-config> --out DIR         generate a synthetic sequence

Inputs are feature files or images per the config's input_mode; a single
directory argument expands to its sorted regular files. Every config field
has a --kebab-case override flag and --seed drives all random generators.
Exit codes: 0 ok, 2 bad input, 3 bad config, 4 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .config import CONFIG_CONVERTERS, PipelineConfig, parse_bool, read_key_values
from .errors import ConfigError, InputDataError
from .pipeline import (RunStats, bench, run_eval, run_sequence, write_match_files,
                       write_stats, write_tracks)
from .synthetic import generate_sequence, make_cluster_scene, save_sequence

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3
EXIT_RUNTIME = 4

_SCENE_CONVERTERS = {
    "seed": int, "frames": int, "n_clusters": int, "points_per_cluster": int,
    "cluster_radius_px": float, "trajectory": str, "step": float,
    "width": int, "height": int, "jitter_px": float,
    "descriptor_bit_flips": int, "outlier_rate": float, "flat_depth": parse_bool,
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for name, convert in CONFIG_CONVERTERS.items():
        flag = "--" + name.replace("_", "-")
        if convert is parse_bool:
            group = parser.add_mutually_exclusive_group()
            group.add_argument(flag, dest=name, action="store_true", default=None)
            group.add_argument("--no-" + name.replace("_", "-"), dest=name,
                               action="store_false", default=None)
        else:
            parser.add_argument(flag, dest=name, type=convert, default=None)


def _load_config(args) -> PipelineConfig:
    config = PipelineConfig.load(args.config)
    overrides = {name: getattr(args, name) for name in CONFIG_CONVERTERS
                 if getattr(args, name, None) is not None}
    if overrides:
        config = config.replace(**overrides)
    return config


def _expand_inputs(inputs: list[str]) -> list[str]:
    if len(inputs) == 1 and os.path.isdir(inputs[0]):
        root = inputs[0]
        names = sorted(n for n in os.listdir(root)
                       if os.path.isfile(os.path.join(root, n)))
        return [os.path.join(root, n) for n in names]
    for path in inputs:
        if not os.path.isfile(path):
            raise InputDataError(f"input not found: {path}")
    return list(inputs)


def _cmd_match(args) -> int:
    config = _load_config(args)
    inputs = _expand_inputs(args.inputs)
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    stats, files = RunStats(), 0
    with (open(os.path.join(out_dir, "tracks.txt"), "w", encoding="ascii")
          if args.dump_tracks else contextlib.nullcontext()) as tracks:
        for row, pair, track in run_sequence(config, inputs):
            stats.rows.append(row)
            if pair is not None:
                files += len(write_match_files([pair], out_dir))
            if tracks is not None and track is not None:
                write_tracks(tracks, track)
    if config.timing:
        write_stats(stats, os.path.join(out_dir, "stats.txt"))
    print(f"matched {files} frame pairs, {sum(stats.column('inliers'))} inlier matches, "
          f"{stats.fps:.1f} fps -> {out_dir} ({files} files)")
    return EXIT_OK


def _cmd_eval(args) -> int:
    config = _load_config(args)
    inputs = _expand_inputs(args.inputs)
    report = run_eval(config, inputs, args.gt)
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="ascii") as fh:
        fh.write(report.summary_text())
    with open(os.path.join(out_dir, "pose_curve.dat"), "w", encoding="ascii") as fh:
        fh.write(report.curve_text())
    if config.timing:
        write_stats(report.stats, os.path.join(out_dir, "stats.txt"))
    sys.stdout.write(report.summary_text())
    return EXIT_OK


def _cmd_bench(args) -> int:
    config = _load_config(args)
    inputs = _expand_inputs(args.inputs)
    report = bench(config, inputs, repetitions=args.reps)
    os.makedirs(config.output_dir, exist_ok=True)
    with open(os.path.join(config.output_dir, "bench.txt"), "w", encoding="ascii") as fh:
        fh.write(report.to_text())
    sys.stdout.write(report.to_text())
    return EXIT_OK


def _cmd_synth(args) -> int:
    values = read_key_values(args.scene_config, _SCENE_CONVERTERS)
    if args.seed is not None:
        values["seed"] = args.seed
    values.setdefault("seed", 0)
    try:
        scene = make_cluster_scene(**values)
    except ValueError as exc:
        raise ConfigError(f"scene config {args.scene_config}: {exc}") from None
    seq = generate_sequence(scene, seed=values["seed"])
    save_sequence(seq, args.out)
    counts = [f.count for f in seq.frames]
    print(f"wrote {len(seq.frames)} frames to {args.out} "
          f"(features per frame: min {min(counts)}, max {max(counts)})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynafeat",
                                     description="group-based feature matching for video")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_match = sub.add_parser("match", help="run the matching pipeline")
    p_match.add_argument("config")
    p_match.add_argument("inputs", nargs="+")
    p_match.add_argument("--dump-tracks", action="store_true")
    _add_config_flags(p_match)
    p_match.set_defaults(func=_cmd_match)

    p_eval = sub.add_parser("eval", help="match and score against ground truth")
    p_eval.add_argument("config")
    p_eval.add_argument("inputs", nargs="+")
    p_eval.add_argument("--gt", required=True, help="ground-truth directory")
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_bench = sub.add_parser("bench", help="median stage timings")
    p_bench.add_argument("config")
    p_bench.add_argument("inputs", nargs="+")
    p_bench.add_argument("--reps", type=int, default=3)
    _add_config_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_synth = sub.add_parser("synth", help="generate a synthetic sequence")
    p_synth.add_argument("scene_config")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputDataError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - map anything else to the runtime code
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
