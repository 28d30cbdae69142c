"""End-to-end CLI verbs, file formats, exit codes and determinism."""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

from dynafeat.cli import main
from dynafeat.config import CONFIG_CONVERTERS, PipelineConfig, parse_key_values
from dynafeat.errors import ConfigError, InputDataError
from dynafeat.frontend import FrameFeatures, GrayImage, save_features
from dynafeat.image_io import load_image, load_pgm, rgb_to_luma, save_pgm
from dynafeat.matching import InlierColumns
from dynafeat.pipeline import (COLUMNS, BenchReport, RunStats, bench, run_sequence,
                               write_match_files)
from dynafeat.synthetic import (frame_filename, generate_sequence,
                                make_cluster_scene, save_sequence)


@pytest.fixture
def synth_dir(tmp_path):
    scene = make_cluster_scene(seed=4, frames=4, n_clusters=25,
                               points_per_cluster=9, trajectory="translate_x",
                               step=0.08, jitter_px=0.05, descriptor_bit_flips=4,
                               outlier_rate=0.1)
    seq = generate_sequence(scene, seed=4)
    out = tmp_path / "seq"
    save_sequence(seq, out)
    return out


def _write_config(tmp_path, **overrides):
    cfg = PipelineConfig(**overrides)
    path = tmp_path / "pipeline.cfg"
    cfg.save(path)
    return path


# ---------------------------------------------------------------------------
# config format
# ---------------------------------------------------------------------------

def _config_from_text(text):
    return PipelineConfig(**parse_key_values(text, CONFIG_CONVERTERS))


def test_config_roundtrip_is_fixed_point(tmp_path):
    cfg = PipelineConfig(window=25.0, k=2.5, timing=False, seed=7)
    text = cfg.to_text()
    again = _config_from_text(text)
    assert again == cfg
    assert again.to_text() == text


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        _config_from_text("wibble=3\n")


def test_config_rejects_bad_value():
    with pytest.raises(ConfigError):
        _config_from_text("window=fast\n")
    with pytest.raises(ConfigError):
        _config_from_text("min_group=10\nmax_group=5\n")
    with pytest.raises(ConfigError):
        _config_from_text("input_mode=video\n")
    with pytest.raises(ConfigError):
        _config_from_text("window 40.0\n")
    with pytest.raises(ConfigError):
        _config_from_text("max_features=0\n")
    with pytest.raises(ConfigError):
        _config_from_text("fast_threshold=0\n")


@pytest.mark.parametrize("name,value", [("max_group", 35.5), ("seed", 1.5),
                                        ("min_group", True), ("timing", "no"),
                                        ("window", "30")])
def test_config_rejects_value_its_file_format_cannot_hold(name, value):
    with pytest.raises(ConfigError, match=name):
        PipelineConfig(**{name: value})


def test_config_numpy_scalars_roundtrip_as_builtins():
    cfg = PipelineConfig(window=np.float64(30.0), max_group=np.int64(35), k=np.float32(2.5))
    text = cfg.to_text()
    assert "window=30.0\n" in text and "max_group=35\n" in text and "k=2.5\n" in text
    again = _config_from_text(text)
    assert again == cfg
    assert again.to_text() == text


def test_config_comments_and_blanks_ignored():
    cfg = _config_from_text("# comment\n\nwindow=40.0\n")
    assert cfg.window == 40.0


# ---------------------------------------------------------------------------
# match verb
# ---------------------------------------------------------------------------

def test_match_writes_per_pair_files(tmp_path, synth_dir, capsys):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, output_dir=str(out))
    inputs = sorted(str(synth_dir / n) for n in os.listdir(synth_dir)
                    if n.endswith(".feat"))
    rc = main(["match", str(cfg_path)] + inputs)
    assert rc == 0
    files = sorted(os.listdir(out))
    assert "matches_000000_000001.txt" in files
    assert "matches_000002_000003.txt" in files
    assert "stats.txt" in files
    line = (out / "matches_000000_000001.txt").read_text().splitlines()[0]
    parts = line.split()
    assert len(parts) == 9
    assert parts[0] == "0" and parts[1] == "1"
    float(parts[2]), float(parts[6])  # positions and distance parse


def test_match_accepts_directory_input(tmp_path, synth_dir):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, output_dir=str(out))
    # directory expansion ignores the gt subdirectory (not a regular file)
    rc = main(["match", str(cfg_path), str(synth_dir)])
    assert rc == 0
    assert (out / "matches_000000_000001.txt").exists()


def test_match_dump_tracks_format(tmp_path, synth_dir):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, output_dir=str(out))
    rc = main(["match", str(cfg_path), str(synth_dir), "--dump-tracks"])
    assert rc == 0
    rows = (out / "tracks.txt").read_text().splitlines()
    assert rows
    first = rows[0].split()
    assert len(first) == 8
    assert first[0] == "0"
    # frame-0 groups carry no proxy: zero displacement, age 0
    assert float(first[4]) == 0.0 and float(first[5]) == 0.0 and first[6] == "0"
    ages = [int(r.split()[6]) for r in rows if r.split()[0] == "3"]
    assert max(ages) >= 1  # tracked groups aged across the sequence


def test_dump_tracks_bytes_golden(tmp_path):
    # moving scene: groups continue with growing age, and a group born on
    # frame 2 (slot 3) starts at zero displacement and age 0
    scene = make_cluster_scene(seed=6, frames=3, n_clusters=4, points_per_cluster=20,
                               cluster_radius_px=20.0, trajectory="translate_x", step=0.1,
                               jitter_px=0.5, descriptor_bit_flips=10, outlier_rate=0.2)
    src = tmp_path / "seq"
    save_sequence(generate_sequence(scene, seed=6), src)
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, output_dir=str(out), timing=False)
    assert main(["match", str(cfg_path), str(src), "--dump-tracks"]) == 0
    assert (out / "tracks.txt").read_bytes() == (
        b"0 0 243.90369549113603 304.1703164599515 0.0 0.0 0 35\n"
        b"0 1 252.7816573742877 176.2708186845907 0.0 0.0 0 21\n"
        b"0 2 338.18218167680095 430.4789565124423 0.0 0.0 0 20\n"
        b"1 0 235.39038385485136 305.6735521163212 -8.51331163628467 1.503235656369725 1 35\n"
        b"1 1 247.92557094681425 175.3889120286632 -4.856086427473457 -0.8819066559274802 1 20\n"
        b"1 2 332.7202018881137 430.58411500672884 -5.461979788687245 0.10515849428651336 1 20\n"
        b"2 0 228.53504001421632 305.62510370105736 -6.855343840635044 -0.0484484152638629 2 35\n"
        b"2 1 242.79483411861128 175.61643077175114 -5.13073682820297 0.22751874308792708 2 20\n"
        b"2 2 327.16331451696425 430.2869526401244 -5.5568873711494575 -0.2971623666044252 2 20\n"
        b"2 3 222.35682855112114 277.56118782134797 0.0 0.0 0 5\n")


def test_flag_overrides_beat_config(tmp_path, synth_dir):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, output_dir=str(out), min_group=5)
    rc = main(["match", str(cfg_path), str(synth_dir), "--min-group", "64",
               "--max-group", "64"])
    assert rc == 0
    # a minimum group size larger than any cluster kills all matches
    for name in os.listdir(out):
        if name.startswith("matches_"):
            assert (out / name).read_text() == ""


@pytest.mark.parametrize("flag,value", [
    ("--k", "nan"), ("--k", "inf"), ("--search-margin", "nan"), ("--search-margin", "inf"),
    ("--window", "nan"), ("--window", "inf"), ("--max-bbox-side", "nan"),
    ("--max-bbox-side", "inf")])
def test_non_finite_config_value_exits_3(tmp_path, synth_dir, flag, value):
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["match", str(cfg_path), str(synth_dir), flag, value]) == 3
    with pytest.raises(ConfigError):
        _config_from_text(f"{flag[2:].replace('-', '_')}={value}\n")


def test_negative_seed_exits_3(tmp_path, synth_dir):
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "out"))
    frames = [str(synth_dir / frame_filename(i)) for i in range(3)]
    assert main(["match", str(cfg_path)] + frames + ["--seed", "-1"]) == 3
    with pytest.raises(ConfigError):
        _config_from_text("seed=-1\n")


def test_missing_input_exits_2(tmp_path):
    cfg_path = _write_config(tmp_path)
    assert main(["match", str(cfg_path), str(tmp_path / "nope.feat"),
                 str(tmp_path / "nope2.feat")]) == 2


def test_single_frame_exits_2(tmp_path, synth_dir):
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "o"))
    assert main(["match", str(cfg_path), str(synth_dir / frame_filename(0))]) == 2


def test_bad_config_exits_3(tmp_path, synth_dir):
    bad = tmp_path / "bad.cfg"
    bad.write_text("windows=95\n")
    assert main(["match", str(bad), str(synth_dir)]) == 3


@pytest.mark.parametrize("bits", [(256, 512), (512, 256)],
                         ids=["256-then-512", "512-then-256"])
def test_mismatched_descriptor_widths_exit_2(tmp_path, capsys, bits):
    # same scene, two descriptor widths: frame 0 from one, frame 1 from the other
    frames = []
    for which, desc_bits in enumerate(bits):
        scene = make_cluster_scene(seed=4, frames=2, n_clusters=25,
                                   points_per_cluster=9, desc_bits=desc_bits)
        frames.append(generate_sequence(scene, seed=4).frames[which])
    src = tmp_path / "mixed"
    src.mkdir()
    for i, frame in enumerate(frames):
        save_features(frame, src / frame_filename(i))
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, output_dir=str(out))
    assert main(["match", str(cfg_path), str(src)]) == 2
    err = capsys.readouterr().err
    assert f"frame 1 has {bits[1]}-bit descriptors" in err
    assert not (out / "matches_000000_000001.txt").exists()


@pytest.mark.parametrize("response", ["nan", "inf"])
def test_non_finite_response_exits_2(tmp_path, synth_dir, capsys, response):
    bad = tmp_path / "bad.feat"
    lines = (synth_dir / frame_filename(1)).read_text().splitlines()
    fields = lines[2].split()
    fields[3] = response
    lines[2] = " ".join(fields)
    bad.write_text("\n".join(lines) + "\n")
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "o"))
    assert main(["match", str(cfg_path), str(synth_dir / frame_filename(0)), str(bad)]) == 2
    assert "line 3: response must be finite" in capsys.readouterr().err


def test_removed_metric_key_exits_3(tmp_path, synth_dir):
    # Hamming is the only matching rule; a config naming the old key is stale
    old = tmp_path / "old.cfg"
    old.write_text("metric=hamming\n")
    assert main(["match", str(old), str(synth_dir)]) == 3


@pytest.mark.parametrize("size", ["8 8", "0 20", "-5 -5"])
def test_too_small_pgm_exits_2(tmp_path, capsys, size):
    frames = []
    for i in range(2):
        path = tmp_path / f"frame_{i}.pgm"
        path.write_bytes(f"P5\n{size}\n255\n".encode("ascii") + bytes(64))
        frames.append(str(path))
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "o"), input_mode="images")
    assert main(["match", str(cfg_path)] + frames) == 2
    assert "input error" in capsys.readouterr().err


def test_missing_config_exits_3(tmp_path, synth_dir):
    assert main(["match", str(tmp_path / "absent.cfg"), str(synth_dir)]) == 3


@pytest.mark.parametrize("overrides", [{"k": "6"}, {"k": "3", "max_group": "9"}],
                         ids=["k6", "k3-max-group-9"])
def test_config_that_accepts_no_pair_exits_3(tmp_path, synth_dir, capsys, overrides):
    # a score is at most max_group, and tau(35) = 6 * sqrt(35) = 35.5 or
    # tau(9) = 3 * sqrt(9) = 9 leaves no score above tau
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, output_dir=str(out))
    flags = [arg for key, value in overrides.items()
             for arg in ("--" + key.replace("_", "-"), value)]
    assert main(["match", str(cfg_path), str(synth_dir)] + flags) == 3
    assert "no pair can be accepted" in capsys.readouterr().err
    text = f"output_dir={out}\n" + "".join(f"{k}={v}\n" for k, v in overrides.items())
    cfg_path.write_text(text)
    assert main(["match", str(cfg_path), str(synth_dir)]) == 3
    assert not out.exists()


def test_largest_k_that_can_accept_runs(tmp_path, synth_dir):
    # tau(10) = 3 * sqrt(10) = 9.49: a full 10-member pair is still accepted
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["match", str(cfg_path), str(synth_dir), "--k", "3", "--max-group", "10"]) == 0


def _non_ascii_input(tmp_path, synth_dir, kind):
    """argv of a run whose one input file of ``kind`` holds a non-ASCII byte."""
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "out"))
    if kind == "pipeline-config":
        cfg_path.write_bytes(cfg_path.read_bytes().replace(b"window=30.0", b"window=3\xc3\xa9"))
        return ["match", str(cfg_path), str(synth_dir)]
    # a "-cr" kind ends its lines with a lone \r
    end = b"\r" if kind.endswith("-cr") else b"\n"
    if kind.startswith("scene-config"):
        scene = tmp_path / "scene.cfg"
        scene.write_bytes(b"seed=3" + end + b"trajectory=st\xc3\xa4tic" + end)
        return ["synth", str(scene), "--out", str(tmp_path / "gen")]
    src = tmp_path / "copy"
    shutil.copytree(synth_dir, src)
    if kind.startswith("feature-line"):
        path = src / frame_filename(1)
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b" ", b" \xc3\xa9", 1)
        path.write_bytes(end.join(lines))
        return ["match", str(cfg_path), str(src)]
    with open(src / "gt" / "poses.txt", "ab") as fh:
        fh.write(b"\xff\xfe")
    return ["eval", str(cfg_path), str(src), "--gt", str(src / "gt")]


@pytest.mark.parametrize("kind,code,message", [
    ("pipeline-config", 3, "line 1: non-ASCII byte"),
    ("scene-config", 3, "line 2: non-ASCII byte"),
    ("scene-config-cr", 3, "line 2: non-ASCII byte"),
    ("feature-line", 2, "line 3: non-ASCII byte"),
    ("feature-line-cr", 2, "line 3: non-ASCII byte"),
    ("gt-poses", 2, "poses.txt: line 5: non-ASCII byte")],
    ids=["pipeline-config", "scene-config", "scene-config-cr", "feature-line",
         "feature-line-cr", "gt-poses"])
def test_non_ascii_input_exits_2_or_3(tmp_path, synth_dir, capsys, kind, code, message):
    assert main(_non_ascii_input(tmp_path, synth_dir, kind)) == code
    assert message in capsys.readouterr().err


# edits of frame 1's feature file (line 1 header, line 3 its second feature)
def _set_field(lines, row, col, value):
    """The lines with field ``col`` of line index ``row`` replaced by ``value``."""
    fields = lines[row].split(" ")
    fields[col] = value
    return lines[:row] + [" ".join(fields)] + lines[row + 1:]


def _pad_to_cap(lines, cap=PipelineConfig().max_features):
    """The lines plus copies of the last feature, renumbered, one past the cap."""
    tail = lines[-1].split(" ", 1)[1]
    return lines + [f"{i} {tail}" for i in range(len(lines) - 1, cap + 1)]


_FEATURE_FILE_EDITS = {
    "empty-file": (lambda lines: [], "line 1: empty file"),
    "bad-header": (lambda lines: ["DYNAFEAT v2" + lines[0][11:]] + lines[1:],
                   "line 1: bad header, expected 'DYNAFEAT v1 <w> <h> <bits> <seed>'"),
    "non-integer-header": (lambda lines: ["DYNAFEAT v1 640 wide 256 42"] + lines[1:],
                           "line 1: non-integer header field"),
    "header-out-of-range": (lambda lines: ["DYNAFEAT v1 640 480 12 42"] + lines[1:],
                            "line 1: header dimensions out of range"),
    "field-count": (lambda lines: lines[:2] + [lines[2].rsplit(" ", 1)[0]] + lines[3:],
                    "line 3: expected 5 fields, got 4"),
    "id-sequence": (lambda lines: lines[:2] + ["7" + lines[2][1:]] + lines[3:],
                    "line 3: feature id 7 out of sequence"),
    "invalid-hex": (lambda lines: lines[:2] + [lines[2][:-2] + "zz"] + lines[3:],
                    "line 3: descriptor is not valid hex"),
    "blank-line": (lambda lines: lines[:2] + ["", "  "] + lines[2:], None),
    "malformed-number": (lambda lines: _set_field(lines, 2, 2, "1.5e"),
                         "line 3: malformed numeric field"),
    "descriptor-length": (lambda lines: _set_field(lines, 2, 4, lines[2][-62:]),
                          "line 3: descriptor length 248 bits does not match header 256"),
    "negative-response": (lambda lines: _set_field(lines, 2, 3, "-0.5"),
                          "line 3: response must be finite and non-negative"),
    "patch-margin": (lambda lines: _set_field(lines, 2, 1, "15.5"),
                     "line 3: position violates the descriptor patch margin"),
    "feature-cap": (_pad_to_cap, "7001 features exceed the cap of 7000"),
    # six fields then four: the field totals still fit five per line
    "misaligned-fields": (lambda lines: lines[:1] + [lines[1] + " 1", lines[2].split(" ", 1)[1]]
                          + lines[3:], "line 2: expected 5 fields, got 6"),
    # which error wins: the first bad line, then the first rule it breaks
    "hex-before-field-count": (lambda lines: lines[:2] + [lines[2][:-2] + "zz",
                                                          lines[3].rsplit(" ", 1)[0]] + lines[4:],
                               "line 3: descriptor is not valid hex"),
    "number-before-length": (lambda lines: _set_field(_set_field(lines, 2, 4, lines[2][-62:]),
                                                      2, 2, "1.5e"),
                             "line 3: malformed numeric field"),
    # CRLF line ends: the blank and whitespace-only lines still count
    "crlf-blank-lines": (lambda lines: [line + "\r" for line in lines[:2] + ["", " \t"]
                                        + ["7" + lines[2][1:]] + lines[3:]],
                         "line 5: feature id 7 out of sequence"),
}


@pytest.mark.parametrize("edit", sorted(_FEATURE_FILE_EDITS))
def test_feature_file_errors_name_their_line(tmp_path, synth_dir, capsys, edit):
    change, message = _FEATURE_FILE_EDITS[edit]
    src = tmp_path / "copy"
    shutil.copytree(synth_dir, src)
    path = src / frame_filename(1)
    path.write_text("".join(line + "\n" for line in change(path.read_text().splitlines())))
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "out"))
    rc = main(["match", str(cfg_path), str(src)])
    if message is None:  # blank lines are skipped: the file still loads
        assert rc == 0
        return
    assert rc == 2
    assert f"input error: {message}" in capsys.readouterr().err


def test_bad_frame_stops_the_run_after_its_predecessors(tmp_path, synth_dir, capsys):
    # the error names the frame; the run leaves the match files of the
    # transitions before it and the track lines of the frames before it,
    # each as a clean run writes it, and no stats.txt
    clean = tmp_path / "clean"
    cfg_path = _write_config(tmp_path, output_dir=str(clean))
    assert main(["match", str(cfg_path), str(synth_dir), "--dump-tracks"]) == 0
    src = tmp_path / "copy"
    shutil.copytree(synth_dir, src)
    path = src / frame_filename(2)
    lines = path.read_text().splitlines()
    path.write_text("".join(line + "\n" for line in lines[:3] + [lines[3] + " 1"] + lines[4:]))
    out = tmp_path / "out"
    assert main(["match", str(cfg_path), str(src), "--dump-tracks",
                 "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "input error: line 4: expected 5 fields, got 6" in err
    assert f"(frame 2: {path})" in err
    assert sorted(os.listdir(out)) == ["matches_000000_000001.txt", "tracks.txt"]
    assert (out / "matches_000000_000001.txt").read_bytes() == \
        (clean / "matches_000000_000001.txt").read_bytes()
    clean_tracks = (clean / "tracks.txt").read_text().splitlines(keepends=True)
    assert (out / "tracks.txt").read_text() == "".join(
        line for line in clean_tracks if line.split(" ", 1)[0] in ("0", "1"))
    assert (clean / "stats.txt").exists()


def test_one_frame_input_exits_2(tmp_path, synth_dir, capsys):
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["match", str(cfg_path), str(synth_dir / frame_filename(0))]) == 2
    assert "input error: at least 2 frames are required" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# image input
# ---------------------------------------------------------------------------

def _shifted_blob_frames(shift, count, width=160, height=120):
    """Frames of four noise-textured blobs on a flat background, the whole
    picture moving by ``shift`` pixels per frame; every blob stays far
    enough inside the border that its descriptors never see the edge."""
    rng = np.random.default_rng(3)
    canvas = np.full((height + 40, width + 40), 90, np.uint8)
    for cx, cy in [(65, 60), (130, 65), (80, 105), (135, 105)]:
        canvas[cy - 10:cy + 10, cx - 10:cx + 10] = rng.integers(0, 256, (20, 20))
    dx, dy = shift
    return [canvas[20 - f * dy:20 - f * dy + height, 20 - f * dx:20 - f * dx + width]
            for f in range(count)]


def test_match_on_shifted_pgm_frames(tmp_path):
    frames = []
    for i, pixels in enumerate(_shifted_blob_frames((3, 2), 3)):
        frames.append(str(tmp_path / f"frame_{i}.pgm"))
        save_pgm(GrayImage.from_array(pixels), frames[-1])
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, output_dir=str(out), input_mode="images")
    assert main(["match", str(cfg_path)] + frames) == 0
    for name in ("matches_000000_000001.txt", "matches_000001_000002.txt"):
        rows = np.loadtxt(out / name, ndmin=2)
        assert len(rows) > 100
        assert (rows[:, 4:6] - rows[:, 2:4] == [3.0, 2.0]).all()


@pytest.mark.parametrize("threshold,code", [("254", 0), ("255", 3), ("10000000000", 3)])
def test_fast_threshold_that_detects_nothing_exits_3(tmp_path, capsys, threshold, code):
    # on 8-bit pixels no ring pixel is brighter than c + 255 or darker than
    # c - 255; 0/255 frames still have corners at 254
    frames = []
    for i, pixels in enumerate(_shifted_blob_frames((3, 2), 2)):
        frames.append(str(tmp_path / f"frame_{i}.pgm"))
        save_pgm(GrayImage.from_array((pixels > 127).astype(np.uint8) * 255), frames[-1])
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, output_dir=str(out), input_mode="images")
    assert main(["match", str(cfg_path)] + frames + ["--fast-threshold", threshold]) == code
    if code:
        assert "fast_threshold must be in 1..254" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="fast_threshold"):
            _config_from_text(f"fast_threshold={threshold}\n")
    else:
        assert np.loadtxt(out / "matches_000000_000001.txt", ndmin=2).shape[0] > 0


def test_pgm_header_comment_is_skipped(tmp_path):
    pixels = np.arange(32 * 24).astype(np.uint8).reshape(24, 32)
    path = tmp_path / "commented.pgm"
    path.write_bytes(b"P5\n# written by hand\n32 24\n255\n" + pixels.tobytes())
    image = load_pgm(path)
    assert (image.width, image.height) == (32, 24)
    assert np.array_equal(image.pixels, pixels)


_RASTER = bytes(range(256)) * 4  # 32x32 pixels


@pytest.mark.parametrize("name,data,message", [
    ("frame.pgm", b"P2\n32 32\n255\n" + _RASTER, "not a binary PGM"),
    ("frame.pgm", b"P5\n32 32\n0\n" + _RASTER, "maxval 0 unsupported"),
    ("frame.pgm", b"P5\n32 32\n256\n" + _RASTER, "maxval 256 unsupported"),
    ("frame.pgm", b"P5\n32 32\n255\n" + _RASTER[:-1], "PGM raster truncated"),
    ("frame.jpg", b"P5\n32 32\n255\n" + _RASTER, "unsupported image type '.jpg'"),
    ("frame.pgm", b"P5\n32", "truncated PGM header"),
    ("frame.pgm", b"P5\nab 32\n255\n", "non-integer PGM header field"),
    ("frame.pgm", b"P5\n3_2 +32\n2_55\n" + _RASTER, "non-integer PGM header field")],
    ids=["magic-P2", "maxval-0", "maxval-256", "truncated-raster", "jpg", "truncated-header",
         "non-integer-header", "underscore-sign-header"])
def test_bad_image_exits_2(tmp_path, capsys, name, data, message):
    frames = [tmp_path / f"{i}_{name}" for i in range(2)]
    for path in frames:
        path.write_bytes(data)
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "o"), input_mode="images")
    assert main(["match", str(cfg_path)] + [str(path) for path in frames]) == 2
    assert message in capsys.readouterr().err


class _FakePngImage:
    """What load_png reads of a Pillow image: mode, array view, convert."""

    def __init__(self, pixels, mode):
        self.pixels, self.mode = np.asarray(pixels, np.uint8), mode

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def __array__(self, dtype=None, copy=None):
        return self.pixels.astype(dtype or np.uint8)

    def convert(self, mode):
        assert mode == "RGBA"
        alpha = np.full(self.pixels.shape[:2] + (1,), 255, np.uint8)
        return _FakePngImage(np.concatenate([self.pixels, alpha], axis=2), mode)


def _install_fake_pil(monkeypatch, image):
    pil = types.ModuleType("PIL")
    pil.Image = types.SimpleNamespace(open=lambda path: image)
    monkeypatch.setitem(sys.modules, "PIL", pil)


@pytest.mark.parametrize("image,message", [
    (_FakePngImage(np.zeros((10, 10)), "L"), "image must be at least 16x16, got 10x10"),
    (_FakePngImage(np.zeros((32, 32)), "P"), "unsupported PNG mode P")],
    ids=["10x10-L", "mode-P"])
def test_bad_png_exits_2(tmp_path, capsys, monkeypatch, image, message):
    _install_fake_pil(monkeypatch, image)
    frames = [tmp_path / f"{i}.png" for i in range(2)]
    for path in frames:
        path.write_bytes(b"")
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "o"), input_mode="images")
    assert main(["match", str(cfg_path)] + [str(path) for path in frames]) == 2
    assert message in capsys.readouterr().err


def test_rgb_png_loads_as_luma(monkeypatch):
    rgb = np.random.default_rng(3).integers(0, 256, (32, 32, 3), dtype=np.uint8)
    _install_fake_pil(monkeypatch, _FakePngImage(rgb, "RGB"))
    image = load_image("frame.png")
    assert (image.width, image.height) == (32, 32)
    assert np.array_equal(image.pixels, rgb_to_luma(rgb))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_match_file_bytes_golden(tmp_path):
    # shortest-repr floats, integer-valued distances and multi-digit group ids
    cols = InlierColumns(
        frame_prev=7, frame_curr=12,
        feature_prev=np.array([0, 5, 12]), feature_curr=np.array([1, 2, 30]),
        pos_prev=np.array([[0.1 + 0.2, 1e-05], [639.9999999999999, 16.0], [100.5, 479.0]]),
        pos_curr=np.array([[17.25, 3e-05], [623.0, 16.000000000000004], [1e+16, 2.5e-07]]),
        distance=np.array([3.0, 0.0, 17.0]),
        group_prev=np.array([12, 0, 105]), group_curr=np.array([9, 10, 2048]))
    empty = InlierColumns(12, 13, np.zeros(0, np.int64), np.zeros(0, np.int64),
                          np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0),
                          np.zeros(0, np.int64), np.zeros(0, np.int64))
    written = write_match_files([cols, empty], tmp_path / "out")
    assert [os.path.basename(p) for p in written] == ["matches_000007_000012.txt",
                                                      "matches_000012_000013.txt"]
    with open(written[0], "rb") as fh:
        assert fh.read() == (
            b"7 12 0.30000000000000004 1e-05 17.25 3e-05 3.0 12 9\n"
            b"7 12 639.9999999999999 16.0 623.0 16.000000000000004 0.0 0 10\n"
            b"7 12 100.5 479.0 1e+16 2.5e-07 17.0 105 2048\n")
    with open(written[1], "rb") as fh:
        assert fh.read() == b""


def test_match_runs_byte_identical(tmp_path, synth_dir):
    cfg_path = _write_config(tmp_path, output_dir="unused", timing=False)
    outs = []
    for run in range(2):
        out = tmp_path / f"run{run}"
        rc = main(["match", str(cfg_path), str(synth_dir),
                   "--output-dir", str(out)])
        assert rc == 0
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# ---------------------------------------------------------------------------
# eval verb
# ---------------------------------------------------------------------------

def test_eval_writes_summary_and_curve(tmp_path, synth_dir, capsys):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, output_dir=str(out))
    rc = main(["eval", str(cfg_path), str(synth_dir), "--gt", str(synth_dir / "gt")])
    assert rc == 0
    summary = (out / "summary.txt").read_text()
    assert "precision=" in summary
    assert "mean_inlier_ratio=" in summary
    curve = (out / "pose_curve.dat").read_text().splitlines()
    assert curve[0].startswith("#")
    ratios = [float(r.split()[1]) for r in curve[1:]]
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))
    # every pair with >= 8 inliers yields a finite pose error
    fields = dict(line.split("=") for line in summary.splitlines() if "=" in line)
    assert fields["pose_errors_finite"] == fields["pose_pairs_evaluated"]


def test_eval_static_scene_reports_zero_repeatability(tmp_path):
    scene = make_cluster_scene(seed=6, frames=3, trajectory="static")
    seq = generate_sequence(scene, seed=6)
    src = tmp_path / "static"
    save_sequence(seq, src)
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, output_dir=str(out))
    rc = main(["eval", str(cfg_path), str(src), "--gt", str(src / "gt")])
    assert rc == 0
    summary = (out / "summary.txt").read_text()
    assert "repeatability_px=0.0" in summary
    assert "precision=1.000000" in summary
    # zero-baseline pairs recover the identity rotation, so the success
    # curve saturates at every threshold
    for line in summary.splitlines():
        if line.startswith("success@"):
            assert line.endswith("=1.000000"), line


def test_eval_noisy_pair_with_tiny_inlier_ratio_exits_0(tmp_path):
    # on pair 2->3 an early best RANSAC sample explains so few matches that
    # the adaptive stopping bound is infinite
    scene = make_cluster_scene(seed=5, frames=4, n_clusters=25, points_per_cluster=9,
                               trajectory="translate_x", step=0.08, jitter_px=1.5,
                               descriptor_bit_flips=90, outlier_rate=0.4)
    src = tmp_path / "noisy"
    save_sequence(generate_sequence(scene, seed=5), src)
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, output_dir=str(out), timing=False)
    assert main(["eval", str(cfg_path), str(src), "--gt", str(src / "gt")]) == 0
    summary = (out / "summary.txt").read_text()
    assert "pairs=3\n" in summary and "pose_pairs_evaluated=3\n" in summary


def test_eval_reports_are_deterministic(tmp_path, synth_dir):
    cfg_path = _write_config(tmp_path, output_dir="unused", timing=False)
    texts = []
    for run in range(2):
        out = tmp_path / f"eval{run}"
        rc = main(["eval", str(cfg_path), str(synth_dir), "--gt", str(synth_dir / "gt"),
                   "--output-dir", str(out)])
        assert rc == 0
        texts.append(((out / "summary.txt").read_bytes(),
                      (out / "pose_curve.dat").read_bytes()))
    assert texts[0] == texts[1]


# summary.txt and pose_curve.dat of `dynafeat eval` as the per-match object
# evaluator wrote them before the evaluator read match columns
_EVAL_GOLDEN = {
    "translate": ("""\
format=dynafeat-eval-v1
pairs=3
matches=675
precision=1.000000
mean_inlier_ratio=1.000000
pose_pairs_evaluated=3
pose_errors_finite=3
repeatability_px=n/a
success@0.25=0.000000
success@0.5=0.000000
success@1.0=0.000000
success@2.0=0.000000
success@3.0=0.000000
success@5.0=1.000000
success@7.5=1.000000
success@10.0=1.000000
success@15.0=1.000000
success@20.0=1.000000
success@30.0=1.000000
""", """\
# threshold_deg success_ratio
0.25 0.000000
0.5 0.000000
1.0 0.000000
2.0 0.000000
3.0 0.000000
5.0 1.000000
7.5 1.000000
10.0 1.000000
15.0 1.000000
20.0 1.000000
30.0 1.000000
"""),
    "static": ("""\
format=dynafeat-eval-v1
pairs=2
matches=596
precision=0.998322
mean_inlier_ratio=0.943116
pose_pairs_evaluated=2
pose_errors_finite=2
repeatability_px=0.9031141812360446
repeatability_per_1000=2.3156773877847296
success@0.25=1.000000
success@0.5=1.000000
success@1.0=1.000000
success@2.0=1.000000
success@3.0=1.000000
success@5.0=1.000000
success@7.5=1.000000
success@10.0=1.000000
success@15.0=1.000000
success@20.0=1.000000
success@30.0=1.000000
""", """\
# threshold_deg success_ratio
0.25 1.000000
0.5 1.000000
1.0 1.000000
2.0 1.000000
3.0 1.000000
5.0 1.000000
7.5 1.000000
10.0 1.000000
15.0 1.000000
20.0 1.000000
30.0 1.000000
"""),
}


@pytest.mark.parametrize("scene", sorted(_EVAL_GOLDEN))
def test_eval_outputs_golden(tmp_path, synth_dir, scene):
    if scene == "translate":
        src = synth_dir
    else:
        # noisy enough for precision and RANSAC inlier ratio below 1
        seq = generate_sequence(make_cluster_scene(seed=12, frames=3, trajectory="static",
                                                   jitter_px=0.5, descriptor_bit_flips=40,
                                                   outlier_rate=0.3), seed=12)
        src = tmp_path / "static"
        save_sequence(seq, src)
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, output_dir=str(out), timing=False)
    assert main(["eval", str(cfg_path), str(src), "--gt", str(src / "gt")]) == 0
    summary, curve = _EVAL_GOLDEN[scene]
    assert (out / "summary.txt").read_text() == summary
    assert (out / "pose_curve.dat").read_text() == curve


def _few_points_sequence(tmp_path):
    # one 7-point cluster: every transition keeps fewer than 8 matches
    scene = make_cluster_scene(seed=4, frames=3, n_clusters=1, points_per_cluster=7,
                               trajectory="translate_x", step=0.02)
    src = tmp_path / "few"
    save_sequence(generate_sequence(scene, seed=4), src)
    return src


def _eval_summary(tmp_path, src):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, output_dir=str(out), timing=False)
    assert main(["eval", str(cfg_path), str(src), "--gt", str(src / "gt")]) == 0
    return (out / "summary.txt").read_text()


def test_eval_transitions_under_8_matches_score_no_pose(tmp_path):
    # a transition too small for the eight-point solver counts as an
    # infinite pose error, so no threshold is met
    summary = _eval_summary(tmp_path, _few_points_sequence(tmp_path))
    assert summary == "".join([
        "format=dynafeat-eval-v1\npairs=2\nmatches=14\nprecision=1.000000\n",
        "mean_inlier_ratio=0.000000\npose_pairs_evaluated=2\npose_errors_finite=0\n",
        "repeatability_px=n/a\n"]
        + [f"success@{th}=0.000000\n"
           for th in ("0.25", "0.5", "1.0", "2.0", "3.0", "5.0", "7.5", "10.0",
                      "15.0", "20.0", "30.0")])


def test_eval_without_transitions_has_no_curve(tmp_path):
    # frames 1 and 2 carry a header and no feature, so both are skipped
    # and no transition is matched: no precision, no success curve
    src = _few_points_sequence(tmp_path)
    header = (src / frame_filename(0)).read_text().splitlines()[0]
    for i in (1, 2):
        (src / frame_filename(i)).write_text(header + "\n")
    assert _eval_summary(tmp_path, src) == (
        "format=dynafeat-eval-v1\npairs=0\nmatches=0\nmean_inlier_ratio=0.000000\n"
        "pose_pairs_evaluated=0\npose_errors_finite=0\nrepeatability_px=n/a\n")


def test_missing_frame_path_names_the_frame(tmp_path, synth_dir):
    paths = [str(synth_dir / frame_filename(0)), str(tmp_path / "gone.feat")]
    with pytest.raises(InputDataError, match="cannot read frame 1 "):
        list(run_sequence(PipelineConfig(), paths))


def test_eval_misaligned_gt_exits_2(tmp_path, synth_dir):
    # ground truth with too few poses for the frames
    gt = tmp_path / "gt"
    gt.mkdir()
    (gt / "poses.txt").write_text("0 1 0 0 0 1 0 0 0 1 0 0 0\n")
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "o"))
    assert main(["eval", str(cfg_path), str(synth_dir), "--gt", str(gt)]) == 2


def test_eval_missing_pair_file_exits_2(tmp_path, synth_dir, capsys):
    gt = tmp_path / "gt"
    shutil.copytree(synth_dir / "gt", gt)
    (gt / "pairs_000001_000002.txt").unlink()
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "o"))
    assert main(["eval", str(cfg_path), str(synth_dir), "--gt", str(gt)]) == 2
    assert "missing ground-truth pair file for frames 1-2" in capsys.readouterr().err


@pytest.mark.parametrize("name,line,edit,message", [
    ("poses.txt", 1, lambda fields: fields[:-1], "poses.txt: line 2: expected 13 fields, got 12"),
    ("pairs_000001_000002.txt", 0, lambda fields: fields[:-1] + ["4x"],
     "pairs_000001_000002.txt: line 1: malformed numeric field")],
    ids=["poses-field-count", "pairs-non-integer-id"])
def test_eval_malformed_gt_exits_2(tmp_path, synth_dir, capsys, name, line, edit, message):
    gt = tmp_path / "gt"
    shutil.copytree(synth_dir / "gt", gt)
    lines = (gt / name).read_text().splitlines()
    lines[line] = " ".join(edit(lines[line].split()))
    (gt / name).write_text("\n".join(lines) + "\n")
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "o"))
    assert main(["eval", str(cfg_path), str(synth_dir), "--gt", str(gt)]) == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# stats.txt and bench.txt
# ---------------------------------------------------------------------------

_STATS_SUMMARY = (
    b"fps=100.000\n"
    b"median_detection_ms=7.1728\nmedian_grouping_ms=1.6250\n"
    b"median_matching_ms=0.2500\nmedian_filtering_ms=0.5625\n"
    b"pct_detection=74.64\npct_grouping=16.91\npct_matching=2.60\npct_filtering=5.85\n")
_EMPTY_SUMMARY = (
    b"fps=0.000\n"
    b"median_detection_ms=0.0000\nmedian_grouping_ms=0.0000\n"
    b"median_matching_ms=0.0000\nmedian_filtering_ms=0.0000\n"
    b"pct_detection=0.00\npct_grouping=0.00\npct_matching=0.00\npct_filtering=0.00\n")
_TABLE_HEADER = (b"table=frame features groups candidates accepted inliers "
                 b"detect_ms group_ms match_ms filter_ms total_ms\n")


def _report_bytes(stats, repetitions=None):
    if repetitions is None:
        text = stats.to_text()
    else:
        text = BenchReport(repetitions, stats, stats).to_text()
    return text.encode("ascii")


def test_stats_and_bench_bytes_golden():
    # one processed frame, then one skipped frame (zero but for its detect
    # and total times, as run_sequence records it)
    processed = dict(zip(COLUMNS, (1234, 56, 78, 9, 321, 12.34567, 3.25, 0.5, 1.125, 17.5)))
    skipped = {**dict.fromkeys(COLUMNS, 0), "detect_ms": 2.0, "total_ms": 2.5}
    stats = RunStats([processed, skipped])
    assert _report_bytes(stats) == (
        b"format=dynafeat-stats-v1\nframes=2\n" + _STATS_SUMMARY + _TABLE_HEADER
        + b"0 1234 56 78 9 321 12.3457 3.2500 0.5000 1.1250 17.5000\n"
        + b"1 0 0 0 0 0 2.0000 0.0000 0.0000 0.0000 2.5000\n")
    assert _report_bytes(stats, repetitions=2) == (
        b"format=dynafeat-bench-v1\nrepetitions=2\n" + _STATS_SUMMARY)
    # no frame, no time: every rate and share reads zero
    assert _report_bytes(RunStats()) == (
        b"format=dynafeat-stats-v1\nframes=0\n" + _EMPTY_SUMMARY + _TABLE_HEADER)
    assert _report_bytes(RunStats(), repetitions=1) == (
        b"format=dynafeat-bench-v1\nrepetitions=1\n" + _EMPTY_SUMMARY)


# ---------------------------------------------------------------------------
# bench verb
# ---------------------------------------------------------------------------

def test_bench_single_rep_equals_single_run(tmp_path):
    scene = make_cluster_scene(seed=8, frames=3, trajectory="static")
    seq = generate_sequence(scene, seed=8)
    cfg = PipelineConfig()
    report = bench(cfg, seq.frames, repetitions=1)
    assert report.repetitions == 1
    med = report.last_stats.median_stage_ms()
    assert report.pooled_stats.median_stage_ms() == med


def test_bench_medians_pool_every_repetition(monkeypatch):
    # one frame per run: the warmup takes 5 ms, the three repetitions 1, 2 and 9 ms
    times = iter([5.0, 1.0, 2.0, 9.0])

    def one_frame_run(config, sources):
        ms = next(times)
        row = {**dict.fromkeys(COLUMNS, 0), "detect_ms": ms, "total_ms": ms}
        yield row, None, None

    monkeypatch.setattr("dynafeat.pipeline.run_sequence", one_frame_run)
    report = bench(PipelineConfig(), [], repetitions=3)
    # neither the warmup nor one run
    assert report.pooled_stats.median_stage_ms()["detection"] == 2.0
    assert report.last_stats.fps == 1000.0 / 9.0        # the last repetition
    text = report.to_text()
    assert "\nfps=111.111\n" in text and "\nmedian_detection_ms=2.0000\n" in text


def test_bench_reads_an_iterator_like_a_list():
    # the warmup and every repetition read the same frames
    seq = generate_sequence(make_cluster_scene(seed=8, frames=3), seed=8)
    reports = [bench(PipelineConfig(), frames, repetitions=2)
               for frames in (seq.frames, iter(seq.frames))]
    assert [r.repetitions for r in reports] == [2, 2]
    want, got = (r.last_stats for r in reports)
    for name in ("features", "groups", "candidates", "accepted", "inliers"):
        assert got.column(name) == want.column(name), name
    inliers = want.column("inliers")
    assert len(inliers) == 3 and all(inliers[1:])   # both transitions matched


def test_bench_percentages_sum_to_100(tmp_path, synth_dir):
    out = tmp_path / "out"
    cfg_path = _write_config(tmp_path, output_dir=str(out))
    rc = main(["bench", str(cfg_path), str(synth_dir), "--reps", "2"])
    assert rc == 0
    text = (out / "bench.txt").read_text()
    pct = [float(line.split("=")[1]) for line in text.splitlines()
           if line.startswith("pct_")]
    assert abs(sum(pct) - 100.0) <= 1.0


def test_bench_zero_reps_exits_2(tmp_path, synth_dir):
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["bench", str(cfg_path), str(synth_dir), "--reps", "0"]) == 2


def test_perfbench_tracer_counts_every_layer(tmp_path, synth_dir, monkeypatch):
    # perfbench/layers.py wraps pipeline functions by name and reads their
    # outputs; a rename or a changed return shape shows up here
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import layers
    tracer = layers.Tracer()
    assert tracer.unmeasured == []
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "out"))
    tracer.install()
    try:
        assert main(["match", str(cfg_path), str(synth_dir)]) == 0
    finally:
        tracer.uninstall()
    tracer.count()
    json.dumps(tracer.spans)  # the spans file is written this way; numpy scalars fail
    counted = {name for _, _, name, counter in layers.LAYERS if counter is not None}
    assert len(counted) == 9
    assert {s["name"] for s in tracer.spans if "counts" in s} == counted
    groups = {s["frame"]: s["counts"]["groups"] for s in tracer.spans
              if s["name"] == "grouping.group"}
    advanced = [s for s in tracer.spans if s["name"] == "tracking.advance"]
    assert len(advanced) == len(groups) - 1
    for s in advanced:
        assert s["counts"]["continued"] + s["counts"]["born"] == groups[s["frame"]]
        assert s["counts"]["continued"] > 0


def test_perfbench_setup_probe_stops_at_the_first_frame(tmp_path, synth_dir):
    # perfbench's setup_s probe replaces cli.run_sequence and needs the match
    # verb to call it through that module global before anything else runs
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    cfg_path = _write_config(tmp_path, output_dir=str(tmp_path / "out"))
    proc = subprocess.run([sys.executable, os.path.join(root, "perfbench", "setup_probe.py"),
                           os.path.join(root, "src"), str(cfg_path), str(synth_dir),
                           str(tmp_path / "out")], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Match files of the benchmark workloads at seed 301: sha256 prefixes over
# file names and bytes. Inputs and pipeline are both seeded, so a moved
# digest means changed outputs, a finding to explain rather than re-pin.
WORKLOAD_DIGESTS = {"dense7k": "e01b5e07426ef9e4", "sparse300": "1f06f3b17a02c807",
                    "image640": "4046c5cb6c9506d6"}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_DIGESTS))
def test_benchmark_workload_match_files_unchanged(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "perfbench"))
    import measure
    import workloads
    wl = workloads.WORKLOADS[workload]
    workloads.generate(wl, 301, str(tmp_path / "in"))
    cfg_path = tmp_path / "pipeline.cfg"
    PipelineConfig(input_mode=wl.input_mode).save(cfg_path)
    out = tmp_path / "out"
    assert main(["match", str(cfg_path), str(tmp_path / "in"), "--output-dir", str(out)]) == 0
    digest, files = measure._match_outputs(str(out))
    assert len(files) == wl.frames - 1
    assert digest[:16] == WORKLOAD_DIGESTS[workload]


# ---------------------------------------------------------------------------
# synth verb
# ---------------------------------------------------------------------------

def test_synth_verb_generates_usable_sequence(tmp_path):
    scene_cfg = tmp_path / "scene.cfg"
    scene_cfg.write_text("seed=3\nframes=3\nn_clusters=12\npoints_per_cluster=8\n"
                         "trajectory=translate_x\nstep=0.05\n")
    out = tmp_path / "gen"
    assert main(["synth", str(scene_cfg), "--out", str(out)]) == 0
    assert (out / "frame_000000.feat").exists()
    assert (out / "gt" / "poses.txt").exists()
    assert (out / "gt" / "pairs_000001_000002.txt").exists()
    run_out = tmp_path / "runout"
    cfg_path = _write_config(tmp_path, output_dir=str(run_out))
    assert main(["match", str(cfg_path), str(out)]) == 0


def test_synth_seed_flag_overrides_scene_seed(tmp_path):
    outs = []
    for seed_line, flags in (("seed=7", ["--seed", "5"]), ("seed=5", [])):
        scene_cfg = tmp_path / "scene.cfg"
        scene_cfg.write_text(f"{seed_line}\nframes=2\nn_clusters=6\n")
        out = tmp_path / f"gen{len(outs)}"
        assert main(["synth", str(scene_cfg), "--out", str(out)] + flags) == 0
        outs.append({str(p.relative_to(out)): p.read_bytes()
                     for p in sorted(out.rglob("*")) if p.is_file()})
    assert outs[0] == outs[1]
    assert len(outs[0]) == 4   # two frames, the poses and one pair file


def test_synth_bad_scene_key_exits_3(tmp_path):
    scene_cfg = tmp_path / "scene.cfg"
    scene_cfg.write_text("volume=11\n")
    assert main(["synth", str(scene_cfg), "--out", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("line", [
    "flat_depth=maybe", "trajectory=spiral", "n_clusters=0", "frames=0",
    # NaN, infinite, negative or out-of-range noise and geometry values
    "outlier_rate=nan", "outlier_rate=inf", "outlier_rate=-0.5", "jitter_px=-1",
    "descriptor_bit_flips=300", "cluster_radius_px=nan", "trajectory=translate_x\nstep=nan",
    # scenes with no points, or frames too small for the border margin
    "points_per_cluster=0", "points_per_cluster=-1", "width=20", "height=40"])
def test_synth_bad_scene_value_exits_3(tmp_path, capsys, line):
    scene_cfg = tmp_path / "scene.cfg"
    scene_cfg.write_text(f"seed=3\nframes=3\n{line}\n")
    assert main(["synth", str(scene_cfg), "--out", str(tmp_path / "x")]) == 3
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pipeline-level behaviors
# ---------------------------------------------------------------------------

def test_zero_feature_frame_skipped_state_preserved(tmp_path, capsys):
    scene = make_cluster_scene(seed=9, frames=3, trajectory="static")
    seq = generate_sequence(scene, seed=9)
    empty = FrameFeatures(1, 640, 480, np.zeros((0, 2)), np.zeros(0),
                          np.zeros((0, 32), np.uint8))
    frames = [seq.frames[0], empty, seq.frames[2]]
    warnings = []
    rows, pairs, tracks = zip(*run_sequence(PipelineConfig(), frames,
                                            warn=warnings.append))
    assert any("skipping" in w for w in warnings)
    # the empty frame is bridged: the single pair joins frames 0 and 2
    pairs = [p for p in pairs if p is not None]
    assert [(p.frame_prev, p.frame_curr) for p in pairs] == [(0, 2)]
    assert len(pairs[0]) > 0
    # the skipped frame keeps its stats row, zero but for its times, and no track entry
    row = rows[1]
    assert tuple(row) == COLUMNS
    assert all(row[c] == 0 for c in COLUMNS if c not in ("detect_ms", "total_ms"))
    assert row["total_ms"] > 0
    assert [t[0] for t in tracks if t is not None] == [0, 2]


def test_stats_counters_consistent(synth_dir):
    paths = sorted(str(synth_dir / n) for n in os.listdir(synth_dir)
                   if n.endswith(".feat"))
    s = RunStats([row for row, _, _ in run_sequence(PipelineConfig(), paths)])
    accepted, inliers = s.column("accepted"), s.column("inliers")
    assert all(a <= c for a, c in zip(accepted, s.column("candidates")))
    assert all(i >= 0 for i in inliers)
    assert s.frame_count == len(paths)
    assert s.fps > 0
    # identity sequence sanity: every accepted pair scored at most n_eff
    assert all(i <= 35 * max(1, a) for i, a in zip(inliers, accepted))


def test_run_memory_does_not_grow_with_frame_count():
    # the run keeps only what the next frame needs: 40 frames peak no higher
    # than 5 but for the extra stats rows the caller keeps (~1 KB each)
    def frames(count):
        return generate_sequence(make_cluster_scene(seed=1, frames=count,
                                                    trajectory="translate_x", step=0.02),
                                 seed=1).frames

    def peak(sources):
        tracemalloc.start()
        try:
            rows = [row for row, _, _ in run_sequence(PipelineConfig(), sources)]
            size = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == len(sources)
        return size

    short, long = frames(5), frames(40)
    peak(short)   # warmup: first-call allocations are not charged to either run
    assert peak(long) - peak(short) < 256 * 1024


def test_identical_frames_give_zero_displacement_matches():
    scene = make_cluster_scene(seed=10, frames=2, trajectory="static")
    seq = generate_sequence(scene, seed=10)
    inliers = [p for _, p, _ in run_sequence(PipelineConfig(), seq.frames) if p is not None][0]
    assert len(inliers)
    for p, q, d in zip(inliers.pos_prev.tolist(), inliers.pos_curr.tolist(),
                       inliers.distance.tolist()):
        assert p == q
        assert d == 0.0


def test_identity_sequence_accepted_pairs_score_fully():
    # clusters far enough apart that search regions reach only the true
    # partner, so every accepted pair must agree on all of its features
    from dynafeat.grouping import group_features
    from dynafeat.matching import score_candidate_pairs
    from dynafeat.synthetic import SyntheticScene, default_intrinsics
    from dynafeat.tracking import bootstrap, intersect_candidates

    K = default_intrinsics()
    rng = np.random.default_rng(0)
    pts = []
    for cx in (120.0, 320.0, 520.0):
        for cy in (120.0, 330.0):
            pix = np.array([cx, cy]) + rng.uniform(-8, 8, (9, 2))
            z = 8.0
            pts.append(np.column_stack([(pix[:, 0] - K.cx) / K.fx * z,
                                        (pix[:, 1] - K.cy) / K.fy * z,
                                        np.full(9, z)]))
    points = np.vstack(pts)
    scene = SyntheticScene(points=points,
                           descriptors=rng.integers(0, 256, (len(points), 32),
                                                    dtype=np.uint8),
                           rotations=np.stack([np.eye(3)] * 2),
                           translations=np.zeros((2, 3)), intrinsics=K)
    seq = generate_sequence(scene, seed=0)
    cfg = PipelineConfig()
    groups = [group_features(f, cfg).groups for f in seq.frames]
    state = bootstrap(seq.frames[0], groups[0], cfg.search_margin)
    candidates = intersect_candidates(groups[1], state)
    accepted = score_candidate_pairs(state.groups, state.features, groups[1],
                                     seq.frames[1], candidates, k=cfg.k)
    assert accepted
    for gm in accepted:
        assert len(gm.sup_a) == min(groups[0][gm.group_prev].n, groups[1][gm.group_curr].n)
