"""Detector, descriptor and feature-file tests."""

import random
import re
import sys

import numpy as np
import pytest

from dynafeat import _kernels
from dynafeat.errors import FeatureFileError, InputDataError
from dynafeat.frontend import (DEFAULT_MAX_FEATURES, FrameFeatures, GrayImage, _repr_tokens,
                               describe, detect_corners, extract_frame, load_features,
                               save_features)
from dynafeat.image_io import load_image, rgb_to_luma

from oracles import (RING, FeatureFileRejected, adversarial_tokens, box_sums_reference,
                     fast_corners_reference, fast_response_reference, feature_file_reference,
                     hamming_reference, repr_token_reference)


def _noise_image(seed, h=64, w=64):
    rng = np.random.default_rng(seed)
    return GrayImage.from_array(rng.integers(0, 256, (h, w), dtype=np.uint8))


# ---------------------------------------------------------------------------
# detect_corners
# ---------------------------------------------------------------------------

def test_uniform_image_has_no_corners():
    img = GrayImage.from_array(np.full((64, 64), 128, np.uint8))
    positions, responses = detect_corners(img, 5)
    assert positions.shape == (0, 2)
    assert responses.shape == (0,)


def test_white_square_corners_near_square_and_match_oracle():
    px = np.zeros((64, 64), np.uint8)
    px[20:25, 30:35] = 255
    positions, responses = detect_corners(GrayImage.from_array(px), 5)
    assert len(positions) >= 1
    square = [(30, 20), (34, 20), (30, 24), (34, 24)]
    for x, y in positions:
        assert min(max(abs(x - a), abs(y - b)) for a, b in square) <= 4
    ref = fast_corners_reference(px, 5, 7000)
    assert [(int(x), int(y), int(r)) for (x, y), r in zip(positions, responses)] == ref


def test_checkerboard_count_matches_oracle():
    idx = np.indices((64, 64))
    board = (((idx[0] // 8 + idx[1] // 8) % 2) * 255).astype(np.uint8)
    positions, _ = detect_corners(GrayImage.from_array(board), 5)
    ref = fast_corners_reference(board, 5, 7000)
    assert len(positions) == len(ref)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_detector_equals_oracle_on_noise(seed):
    img = _noise_image(seed, 48, 56)
    positions, responses = detect_corners(img, 9, 7000)
    ref = fast_corners_reference(img.pixels, 9, 7000)
    assert [(int(x), int(y), int(r)) for (x, y), r in zip(positions, responses)] == ref


def test_response_map_matches_reference_on_noise():
    from dynafeat import _kernels
    img = _noise_image(5, 40, 44)
    assert np.array_equal(_kernels.fast_response_map(img.pixels, 9),
                          fast_response_reference(img.pixels, 9))
    rng = np.random.default_rng(6)
    # flat background with a few textured 5x5 blobs, like the image640 frames
    blobs = np.full((40, 48), 128, np.uint8)
    for y, x in rng.integers(0, 35, (6, 2)):
        blobs[y:y + 5, x:x + 5] = rng.integers(0, 256, (5, 5))
    cases = [(img.pixels, 1), (img.pixels, 254),
             (rng.integers(0, 2, (30, 36)).astype(np.uint8) * 255, 254),
             (blobs, 5),
             (rng.integers(0, 256, (7, 9), dtype=np.uint8), 1),
             (rng.integers(0, 256, (6, 40), dtype=np.uint8), 1)]
    for pixels, threshold in cases:
        got = _kernels.fast_response_map(pixels, threshold)
        assert got.dtype == np.int32
        assert np.array_equal(got, fast_response_reference(pixels, threshold))
    # 0/255 pixels still make corners at the largest threshold
    assert (_kernels.fast_response_map(cases[2][0], 254) > 0).any()
    assert (_kernels.fast_response_map(blobs, 5) > 0).any()


@pytest.mark.parametrize("length", [8, 9, 16])
def test_response_map_arc_wraps_around_the_ring(length):
    # one ring arc of `length` slots from every start slot, so arcs that
    # run from slot 15 on to slot 0 are covered
    from dynafeat import _kernels
    for start in range(16):
        for value in (200, 0):
            px = np.full((7, 7), 100, np.uint8)
            for i in range(length):
                dx, dy = RING[(start + i) % 16]
                px[3 + dy, 3 + dx] = value
            got = _kernels.fast_response_map(px, 20)
            assert np.array_equal(got, fast_response_reference(px, 20))
            assert (got[3, 3] > 0) == (length >= 9), (start, value)


def test_response_map_rejects_threshold_that_detects_nothing():
    from dynafeat import _kernels
    pixels = _noise_image(5).pixels
    for threshold in (0, 255, 10_000_000_000):
        with pytest.raises(ValueError, match="1..254"):
            _kernels.fast_response_map(pixels, threshold)
    # the uint8 bounds are exact for 8-bit pixels only
    with pytest.raises(ValueError, match="uint8"):
        _kernels.fast_response_map(pixels.astype(np.int32), 5)


def test_nms_property_no_neighbor_exceeds():
    img = _noise_image(11)
    positions, responses = detect_corners(img, 8, 7000)
    resp_map = fast_response_reference(img.pixels, 8)
    for (x, y), r in zip(positions, responses):
        neighborhood = resp_map[max(0, y - 1):y + 2, max(0, x - 1):x + 2]
        assert neighborhood.max() <= r


def test_nms_keeps_both_corners_of_a_plateau():
    # two adjacent bright pixels have no ring pixel in common with each
    # other's centre: equal responses side by side, neither suppressed
    px = np.zeros((20, 20), np.uint8)
    px[8, 8:10] = 255
    positions, responses = detect_corners(GrayImage.from_array(px), 5)
    assert positions.tolist() == [[8, 8], [9, 8]]
    assert responses[0] == responses[1] > 0
    ref = fast_corners_reference(px, 5, 7000)
    assert [(int(x), int(y), int(r)) for (x, y), r in zip(positions, responses)] == ref


def test_nms_at_the_3_pixel_border():
    # bright pixels on the outermost rows and columns that can score, one of
    # them beside a stronger corner that suppresses it
    px = np.zeros((16, 18), np.uint8)
    for y, x in ((3, 3), (3, 14), (12, 3), (12, 14)):
        px[y, x] = 200
    px[4, 13] = 255
    positions, responses = detect_corners(GrayImage.from_array(px), 5)
    ref = fast_corners_reference(px, 5, 7000)
    assert [(int(x), int(y), int(r)) for (x, y), r in zip(positions, responses)] == ref
    assert sorted(map(tuple, positions.tolist())) == [(3, 3), (3, 12), (13, 4), (14, 12)]


@pytest.mark.parametrize("call", [
    lambda px: _kernels.fast_response_map(px, 5.9),
    lambda px: detect_corners(GrayImage.from_array(px), 5.9),
    lambda px: detect_corners(GrayImage.from_array(px), 5, max_features=2.5)],
    ids=["kernel-threshold", "detect-threshold", "detect-max-features"])
def test_detector_rejects_non_integer_arguments(call):
    # 5.9 would run as threshold 5; 2.5 would fail in a slice
    with pytest.raises(ValueError, match="must be an integer"):
        call(_noise_image(4).pixels)


def test_detector_accepts_numpy_integers():
    img = _noise_image(4)
    want = detect_corners(img, 7, 50)
    got = detect_corners(img, np.int64(7), np.int32(50))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_detection_is_deterministic():
    img = _noise_image(12)
    a = detect_corners(img, 6)
    b = detect_corners(img, 6)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_max_features_truncates_to_strongest():
    img = _noise_image(13)
    all_pos, all_resp = detect_corners(img, 6, 7000)
    assert len(all_pos) > 10
    pos, resp = detect_corners(img, 6, 10)
    assert len(pos) == 10
    assert np.array_equal(pos, all_pos[:10])
    assert resp.min() >= all_resp[10:].max()


def test_small_image_rejected():
    with pytest.raises(ValueError):
        GrayImage.from_array(np.zeros((8, 8), np.uint8))


@pytest.mark.parametrize("make", [
    lambda: GrayImage.from_array(np.full((16, 16), 300)),
    lambda: GrayImage.from_array(np.full((16, 16), -1.5)),
    lambda: GrayImage.from_array(np.full((16, 16), np.nan)),
    lambda: GrayImage(16, 16, np.full((16, 16), 1000))],
    ids=["300", "-1.5", "nan", "init-1000"])
def test_pixels_outside_8_bits_rejected(make):
    # a uint8 cast would wrap them (300 -> 44, -1.5 -> 255)
    with pytest.raises(ValueError, match="pixels must be integers in 0..255"):
        make()


def test_integer_pixels_in_8_bits_accepted():
    img = GrayImage.from_array(np.full((16, 16), 200, np.int64))
    assert img.pixels.dtype == np.uint8 and (img.pixels == 200).all()


@pytest.mark.parametrize("call,match", [
    (lambda: GrayImage(16, 16, np.zeros((16, 17), np.uint8)), "must be a \\(height, width\\)"),
    (lambda: GrayImage.from_array(np.zeros((16, 16, 3), np.uint8)), "expected a 2-D"),
    (lambda: FrameFeatures(0, 64, 64, np.zeros((2, 2)), np.zeros(3),
                           np.zeros((2, 32), np.uint8)), "disagree on count"),
    (lambda: FrameFeatures(0, 64, 64, np.zeros((2, 2)), np.zeros(2),
                           np.zeros(2, np.uint8)), "descriptors must be a 2-D"),
    # one inf would put every feature in one grouping cell, and a NaN
    # fails the cell index cast
    (lambda: FrameFeatures(0, 64, 64, [[1.0, 2.0], [np.inf, 3.0]], np.zeros(2),
                           np.zeros((2, 32), np.uint8)), "positions must be finite"),
    (lambda: FrameFeatures(0, 64, 64, [[1.0, np.nan]], np.zeros(1),
                           np.zeros((1, 32), np.uint8)), "positions must be finite"),
    (lambda: detect_corners(_noise_image(0), 5, max_features=0), "max_features must be >= 1"),
    # frames the feature file cannot hold
    (lambda: FrameFeatures(0, 64, 64, np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2), np.uint8),
                           desc_bits=12), "desc_bits not a positive multiple of 8"),
    (lambda: FrameFeatures(0, 8, 64, np.zeros((0, 2)), np.zeros(0), np.zeros((0, 32), np.uint8)),
     "width or height below 16"),
    (lambda: FrameFeatures(0, 64, 8, np.zeros((0, 2)), np.zeros(0), np.zeros((0, 32), np.uint8)),
     "width or height below 16")],
    ids=["pixels-shape", "from-array-3d", "feature-count", "descriptors-1d",
         "positions-non-finite", "positions-nan", "max-features-0",
         "desc-bits-12", "width-8", "height-8"])
def test_frontend_validation_raises(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# ---------------------------------------------------------------------------
# describe
# ---------------------------------------------------------------------------

def test_box_sums_match_reference():
    from dynafeat.frontend import _box_sums_5x5
    rng = np.random.default_rng(9)
    for pixels in (rng.integers(0, 256, (17, 23), dtype=np.uint8),
                   np.full((17, 23), 255, np.uint8)):
        got = _box_sums_5x5(pixels)
        assert np.array_equal(got, box_sums_reference(pixels))
    # every sum of the all-255 image is the largest one, 25 * 255
    assert got.dtype == np.int16 and (got == 6375).all()


def test_identical_images_give_zero_distance():
    img = _noise_image(1)
    a = describe(img, np.array([[32, 32]]), 42)
    b = describe(img, np.array([[32, 32]]), 42)
    assert hamming_reference(a.descriptors[0], b.descriptors[0]) == 0


def test_inverted_image_flips_every_bit():
    # image seed 1 has no smoothed-intensity ties at the pattern points of
    # seed 42 around (32, 32), so the inversion flips all 256 comparisons
    rng = np.random.default_rng(1)
    px = rng.integers(0, 256, (64, 64), dtype=np.uint8)
    a = describe(GrayImage.from_array(px), np.array([[32, 32]]), 42)
    b = describe(GrayImage.from_array(255 - px), np.array([[32, 32]]), 42)
    assert hamming_reference(a.descriptors[0], b.descriptors[0]) == 256


def test_translated_image_descriptor_close():
    rng = np.random.default_rng(3)
    base = rng.integers(0, 256, (64, 80), dtype=np.uint8)
    shifted = np.roll(base, 3, axis=1)
    a = describe(GrayImage.from_array(base), np.array([[30, 30]]), 42)
    b = describe(GrayImage.from_array(shifted), np.array([[33, 30]]), 42)
    d = hamming_reference(a.descriptors[0], b.descriptors[0])
    assert d <= 40  # observed 0: integer translation reproduces bits exactly
    assert d == 0


@pytest.mark.parametrize("shift", [(1, 0), (0, 2), (4, 3)])
def test_translation_consistency_bit_identical(shift):
    rng = np.random.default_rng(17)
    base = rng.integers(0, 256, (72, 72), dtype=np.uint8)
    dx, dy = shift
    moved = np.roll(np.roll(base, dx, axis=1), dy, axis=0)
    corners = np.array([[30, 30], [36, 40], [40, 28]])
    a = describe(GrayImage.from_array(base), corners, 42)
    b = describe(GrayImage.from_array(moved), corners + [dx, dy], 42)
    for da, db in zip(a.descriptors, b.descriptors):
        assert hamming_reference(da, db) == 0


def test_same_seed_same_pattern_across_frames():
    img1 = _noise_image(20)
    img2 = _noise_image(21)
    # same pixels at different corners must compare identically per seed
    a = describe(img1, np.array([[20, 20], [40, 40]]), 7)
    b = describe(img1, np.array([[20, 20], [40, 40]]), 7)
    assert all(hamming_reference(x, y) == 0 for x, y in zip(a.descriptors, b.descriptors))
    c = describe(img1, np.array([[20, 20]]), 8)
    assert hamming_reference(a.descriptors[0], c.descriptors[0]) > 0


def test_border_corners_filtered_not_errored():
    img = _noise_image(22)
    feats = describe(img, np.array([[2, 2], [32, 32], [63, 63]]), 42)
    assert feats.count == 1
    # feature ids are row indices: the survivor is feature 0
    assert tuple(feats.positions[0].tolist()) == (32.0, 32.0)


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------

def test_empty_feature_file_roundtrip(tmp_path):
    frame = FrameFeatures(0, 64, 64, np.zeros((0, 2)), np.zeros(0),
                          np.zeros((0, 32), np.uint8))
    path = tmp_path / "empty.feat"
    save_features(frame, path)
    loaded = load_features(path)
    assert loaded.count == 0
    assert loaded.width == 64 and loaded.height == 64


def test_negative_frame_index_rejected():
    with pytest.raises(ValueError, match="frame_index"):
        FrameFeatures(-1, 64, 64, np.zeros((0, 2)), np.zeros(0), np.zeros((0, 32), np.uint8))


def test_feature_file_roundtrip_identity(tmp_path):
    img = _noise_image(30, 96, 128)
    frame = extract_frame(img, 3)
    assert frame.count > 0
    path = tmp_path / "f.feat"
    save_features(frame, path)
    loaded = load_features(path, frame_index=3)
    assert frame.frame_index == loaded.frame_index == 3
    assert loaded.count == frame.count
    assert np.array_equal(loaded.positions, frame.positions)
    assert np.array_equal(loaded.responses, frame.responses)
    assert np.array_equal(loaded.descriptors, frame.descriptors)
    assert loaded.desc_bits == frame.desc_bits
    assert loaded.descriptor_seed == frame.descriptor_seed
    # byte-level fixed point
    path2 = tmp_path / "g.feat"
    save_features(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


_WRITER_TEXT = ("DYNAFEAT v1 64 64 256 42\n"
                "0 17.5 20.25 1.5 " + "ab" * 32 + "\n"
                "1 30.0 31.0 0.0 " + "0f" * 32 + "\n"
                "2 47.0 16.0 2.0 " + "c3" * 32 + "\n")

# Layouts the format accepts besides the writer's own.
_ODD_LAYOUTS = {
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "cr-cr-lf": lambda t: t.replace("\n", "\r\r\n"),
    "cr": lambda t: t.replace("\n", "\r"),
    "vertical-tab": lambda t: t.replace("\n", "\x0b"),
    "form-feed": lambda t: t.replace("\n", "\x0c"),
    "file-separator": lambda t: t.replace("\n", "\x1c"),
    "unit-separator": lambda t: t.replace(" ", "\x1f"),
    "tabs": lambda t: t.replace(" ", "\t"),
    "double-spaces": lambda t: t.replace(" ", "  "),
    "edge-whitespace": lambda t: "".join(f" {line}\t\n" for line in t.splitlines()),
    "blank-lines": lambda t: t.replace("\n1 ", "\n  \n\t\n1 ").replace("\n2 ", "\n\f\n2 "),
    "no-final-newline": lambda t: t[:-1],
    "signed-ids": lambda t: t.replace("\n0 ", "\n+0 ").replace("\n1 ", "\n01 "),
    "underscore-number": lambda t: t.replace("17.5", "1_7.5"),
    "uppercase-hex": lambda t: t.replace("ab" * 32, "AB" * 32),
    "negative-zero-response": lambda t: t.replace(" 0.0 ", " -0.0 "),
    "header-only": lambda t: t.split("\n", 1)[0] + "\n",
}


@pytest.mark.parametrize("layout", sorted(_ODD_LAYOUTS))
def test_odd_layouts_load_like_the_line_parse(tmp_path, layout):
    text = _ODD_LAYOUTS[layout](_WRITER_TEXT)
    assert text != _WRITER_TEXT
    path = tmp_path / "odd.feat"
    path.write_bytes(text.encode("ascii"))
    frame = load_features(path)
    assert frame.count == (0 if layout == "header-only" else 3)
    _assert_loads_like_reference(frame, feature_file_reference(text, DEFAULT_MAX_FEATURES))


def _assert_loads_like_reference(frame, reference):
    header, positions, responses, desc = reference
    assert (frame.width, frame.height, frame.desc_bits, frame.descriptor_seed) == header
    # bytes, not values: -0.0 must stay -0.0
    assert frame.positions.tobytes() == positions.tobytes()
    assert frame.responses.tobytes() == responses.tobytes()
    assert frame.descriptors.tobytes() == desc
    # the match-file text of the positions, whichever way each row takes
    assert frame.position_text == [f"{x!r} {y!r}" for x, y in zip(*positions.T.tolist())]


# what a mutation inserts or puts in place of a byte: every ASCII
# whitespace byte, \r\n, control bytes that are not whitespace, and pieces
# of numbers and hex
_MUTATION_TOKENS = (list("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ") + ["\r\n", "\x00", "\x1b"]
                    + list("0123456789+-_.e") + ["nan", "inf"] + list("abcdefABCDEFgxzG"))


def _mutate(text, rng, start=0):
    """``text`` after 1 to 4 random inserts, deletes or replacements, none
    of them before index ``start``."""
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(start, len(text) + 1)
        edit = rng.choice(("insert", "delete", "replace"))
        token = rng.choice(_MUTATION_TOKENS) if edit != "delete" else ""
        text = text[:at] + token + text[at + (edit != "insert"):]
    return text


def test_mutated_files_load_like_the_reference(tmp_path):
    # a small writer-layout file: 8-bit descriptors, so that a mutation
    # often lands in another field, and values at or near the range ends
    # (x and y in 16..23; 1e3080 is infinite)
    header = "DYNAFEAT v1 40 40 8 42\n"
    base = header + ("0 16 23 1e308 0c\n1 17.5 20.25 0.5 1c\n"
                     "2 23.0 16.0 -0.0 2c\n3 18.5 19 7e-5 3c\n")
    rng = random.Random(19)
    path = tmp_path / "mutated.feat"
    outcomes = set()
    with open(path, "wb") as fh:
        for _ in range(2000):
            # one case in eight may edit the header too
            text = _mutate(base, rng, 0 if rng.random() < 0.125 else len(header))
            cap = rng.choice((None, 7000, 2, 3))
            fh.seek(0)
            fh.write(text.encode("ascii"))
            fh.truncate()
            fh.flush()
            try:
                reference = feature_file_reference(text, cap)
            except FeatureFileRejected as rejected:
                with pytest.raises(FeatureFileError) as caught:
                    load_features(path, max_features=cap)
                assert type(caught.value) is FeatureFileError, repr(text)
                assert caught.value.line == rejected.line, repr(text)
                prefix = "" if rejected.line is None else f"line {rejected.line}: "
                assert str(caught.value) == prefix + rejected.message, repr(text)
                outcomes.add(re.sub(r"-?\d+", "N", rejected.message))
            else:
                _assert_loads_like_reference(load_features(path, max_features=cap), reference)
                outcomes.add("loaded")
    # every header and line rule fails somewhere, so do the cap, and some
    # files load
    assert len(outcomes) == 12, outcomes


def _proven_rows(frame):
    """Rows whose two kept file tokens the proof takes as ``repr``."""
    xs, ys, lengths, parsed = frame._tokens
    proven = _repr_tokens("".join(xs) + "".join(ys), lengths, parsed,
                          frame.positions.T.reshape(-1))
    return proven[:frame.count] & proven[frame.count:]


def test_saved_frame_takes_the_proven_path(tmp_path):
    # save_features writes repr text, so every row of a file it wrote joins
    # its own tokens; the tokens go once the text is made
    rng = np.random.default_rng(8)
    n = 500
    positions = np.column_stack((rng.uniform(16, 623, n), rng.uniform(16, 463, n)))
    frame = FrameFeatures(0, 640, 480, positions, rng.uniform(0, 9, n),
                          rng.integers(0, 256, (n, 32), dtype=np.uint8))
    path = tmp_path / "saved.feat"
    save_features(frame, path)
    loaded = load_features(path)
    assert _proven_rows(loaded).all()
    assert loaded.position_text == [f"{x!r} {y!r}" for x, y in zip(*positions.T.tolist())]
    assert loaded._tokens is None


def test_empty_frame_position_text(tmp_path):
    path = tmp_path / "empty.feat"
    path.write_text("DYNAFEAT v1 64 64 256 42\n")
    frame = load_features(path)
    assert _proven_rows(frame).size == 0
    assert frame.position_text == []


def test_position_changed_before_first_read_is_formatted(tmp_path):
    # a token is proven only for the value parsed from it: a position set
    # after load and before the text is made is written as repr
    path = tmp_path / "f.feat"
    path.write_text(_WRITER_TEXT)
    frame = load_features(path)
    assert _proven_rows(frame).tolist() == [True, False, False]   # 30.0 and 16.0 end in 0
    frame.positions[0, 0] = 27.5      # "17.5" ends as repr(27.5) does
    frame.positions[2] = (47.0, 16.5)
    assert _proven_rows(frame).tolist() == [False, False, False]
    assert frame.position_text == ["27.5 20.25", "30.0 31.0", "47.0 16.5"]
    frame.positions[0, 0] = 99.0      # the text, once made, stays
    assert frame.position_text[0] == "27.5 20.25"


def test_repr_proof_makes_no_false_accepts():
    # a token the proof accepts is repr of the float it reads as; nearly
    # every repr token the proof covers (1 <= x < 2^33, a fraction digit
    # other than a lone 0) is accepted, ties of two nearest decimals aside
    tokens = adversarial_tokens(31, 200_000)
    parsed = np.array([float(t) for t in tokens])
    lengths = np.array([len(t) for t in tokens])
    proven = _repr_tokens("".join(tokens), lengths, parsed, parsed)
    reference = np.array([repr_token_reference(t) for t in tokens])
    assert not (proven & ~reference).any(), [t for t, p, r in zip(tokens, proven, reference)
                                             if p and not r][:5]
    covered = reference & (parsed >= 1) & (parsed < 2.0 ** 33) & ~np.array(
        [t.endswith(".0") or "e" in t for t in tokens])
    assert covered.sum() > 20_000
    assert proven.sum() >= 0.99 * covered.sum()


def test_odd_width_descriptor_roundtrip(tmp_path):
    # 136-bit rows are stored as 17 bytes, unpadded, in memory and on disk
    rng = np.random.default_rng(6)
    desc = rng.integers(0, 256, (4, 17), dtype=np.uint8)
    frame = FrameFeatures(0, 64, 64, np.full((4, 2), 20.0), np.zeros(4), desc,
                          desc_bits=136)
    path = tmp_path / "odd.feat"
    save_features(frame, path)
    loaded = load_features(path)
    assert loaded.desc_bits == 136
    assert loaded.descriptors.shape == (4, 17)
    assert np.array_equal(loaded.descriptors, desc)
    with pytest.raises(ValueError, match="byte width"):
        FrameFeatures(0, 64, 64, np.full((4, 2), 20.0), np.zeros(4),
                      np.pad(desc, ((0, 0), (0, 7))), desc_bits=136)


def test_single_zero_descriptor_feature(tmp_path):
    path = tmp_path / "one.feat"
    path.write_text("DYNAFEAT v1 64 64 256 42\n"
                    "0 10.5 20.25 1.0 " + "0" * 64 + "\n")
    # position (10.5, 20.25) violates the 16 px patch margin on x
    with pytest.raises(FeatureFileError):
        load_features(path)
    path.write_text("DYNAFEAT v1 64 64 256 42\n"
                    "0 16.5 20.25 1.0 " + "0" * 64 + "\n")
    frame = load_features(path)
    assert frame.count == 1
    assert tuple(frame.positions[0].tolist()) == (16.5, 20.25)
    assert not frame.descriptors[0].any()


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_text("DYNAFEAT v1 64 64 256 42\n"
                    "0 20.0 20.0 1.0 " + "ab" * 32 + "\n"
                    "1 21.0 nope 1.0 " + "ab" * 32 + "\n")
    with pytest.raises(FeatureFileError) as err:
        load_features(path)
    assert err.value.line == 3


def test_descriptor_length_mismatch_rejected(tmp_path):
    path = tmp_path / "mismatch.feat"
    path.write_text("DYNAFEAT v1 64 64 256 42\n"
                    "0 20.0 20.0 1.0 " + "ab" * 32 + "\n"
                    "1 21.0 22.0 1.0 " + "ab" * 16 + "\n")
    with pytest.raises(FeatureFileError) as err:
        load_features(path)
    assert err.value.line == 3


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "hdr.feat"
    path.write_text("FEATURES v2 64 64\n")
    with pytest.raises(FeatureFileError):
        load_features(path)


def test_feature_cap_enforced_on_load(tmp_path):
    img = _noise_image(31, 64, 64)
    frame = extract_frame(img, 0, fast_threshold=5)
    path = tmp_path / "many.feat"
    save_features(frame, path)
    with pytest.raises(FeatureFileError):
        load_features(path, max_features=max(1, frame.count - 1))


def test_extract_respects_feature_cap():
    img = _noise_image(32, 96, 96)
    frame = extract_frame(img, 0, max_features=25)
    assert frame.count <= 25


def test_png_without_pillow_names_the_dependency(monkeypatch):
    # a None entry makes "from PIL import Image" raise ImportError
    monkeypatch.setitem(sys.modules, "PIL", None)
    with pytest.raises(InputDataError, match="pillow"):
        load_image("x.png")


def test_rgb_to_luma_rounds_half_up():
    # 0.114 * 250 = 28.5: half up gives 29 where half-even gives 28
    assert rgb_to_luma(np.array([[[0, 0, 250]]], np.uint8)).tolist() == [[29]]
    assert rgb_to_luma(np.array([[[255, 255, 255]]], np.uint8)).tolist() == [[255]]
    rgb = np.random.default_rng(33).integers(0, 256, (1000, 1, 3), dtype=np.uint8)
    luma = rgb_to_luma(rgb)
    assert luma.dtype == np.uint8 and luma.shape == (1000, 1)
    assert luma[:, 0].tolist() == [(299 * r + 587 * g + 114 * b + 500) // 1000
                                   for r, g, b in rgb[:, 0].tolist()]
