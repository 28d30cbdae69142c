"""Independent reference implementations used as test oracles.

Everything here is written for obviousness, not speed: plain loops,
brute-force scans, no shared code with the package internals. The
contracts mirrored here (ring offsets, absorption order, tie rules) are
restated from scratch so a bug in the package cannot hide in a shared
helper.
"""

import math
import random

import numpy as np

RING = [(0, -3), (1, -3), (2, -2), (3, -1), (3, 0), (3, 1), (2, 2), (1, 3),
        (0, 3), (-1, 3), (-2, 2), (-3, 1), (-3, 0), (-3, -1), (-2, -2), (-1, -3)]


def fast_response_reference(pixels: np.ndarray, threshold: int) -> np.ndarray:
    """Per-pixel segment test: 9 contiguous ring pixels all brighter or all
    darker than the center by more than the threshold."""
    img = pixels.astype(int)
    h, w = img.shape
    resp = np.zeros((h, w), int)
    for y in range(3, h - 3):
        for x in range(3, w - 3):
            c = img[y, x]
            vals = [img[y + dy, x + dx] for dx, dy in RING]
            bright = [v > c + threshold for v in vals]
            dark = [v < c - threshold for v in vals]

            def run9(flags):
                return any(all(flags[(s + i) % 16] for i in range(9)) for s in range(16))

            if run9(bright) or run9(dark):
                bs = sum(max(0, v - c - threshold) for v in vals)
                ds = sum(max(0, c - threshold - v) for v in vals)
                resp[y, x] = max(bs, ds)
    return resp


def fast_corners_reference(pixels: np.ndarray, threshold: int,
                           max_features: int) -> list[tuple[int, int, int]]:
    """Full detector oracle: segment test, 3x3 non-max suppression, sort by
    response descending with row-major tie-break, truncate."""
    resp = fast_response_reference(pixels, threshold)
    h, w = resp.shape
    corners = []
    for y in range(h):
        for x in range(w):
            if resp[y, x] <= 0:
                continue
            ok = True
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx == 0 and dy == 0:
                        continue
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and resp[ny, nx] > resp[y, x]:
                        ok = False
            if ok:
                corners.append((x, y, int(resp[y, x])))
    corners.sort(key=lambda c: (-c[2], c[1], c[0]))
    return corners[:max_features]


def box_sums_reference(pixels: np.ndarray) -> np.ndarray:
    """Sum of the 5x5 block around each pixel; a block index outside the
    image is clamped to the nearest border pixel."""
    h, w = pixels.shape
    out = np.zeros((h, w), int)
    for y in range(h):
        for x in range(w):
            for dy in range(-2, 3):
                for dx in range(-2, 3):
                    yy = min(max(y + dy, 0), h - 1)
                    xx = min(max(x + dx, 0), w - 1)
                    out[y, x] += int(pixels[yy, xx])
    return out


def brief_reference(sums: np.ndarray, xs, ys, pattern: np.ndarray) -> np.ndarray:
    """Per-corner, per-bit comparison descriptors: bit k is set when
    sums[y + dy1, x + dx1] < sums[y + dy2, x + dx2]; bits are packed most
    significant first."""
    tests = pattern.tolist()
    out = np.zeros((len(xs), len(tests) // 8), np.uint8)
    for i, (x, y) in enumerate(zip(xs, ys)):
        for k, (dx1, dy1, dx2, dy2) in enumerate(tests):
            if sums[y + dy1, x + dx1] < sums[y + dy2, x + dx2]:
                out[i, k // 8] |= 1 << (7 - k % 8)
    return out


def hamming_reference(a: np.ndarray, b: np.ndarray) -> int:
    return sum(int(x ^ y).bit_count() for x, y in zip(a.tolist(), b.tolist()))


def mutual_nn_reference(desc_a: np.ndarray, desc_b: np.ndarray) -> list[tuple[int, int, int]]:
    """Brute-force bidirectional unique-nearest-neighbor pairs."""
    na = len(desc_a)
    nb = len(desc_b)
    dist = [[hamming_reference(desc_a[i], desc_b[j]) for j in range(nb)] for i in range(na)]
    pairs = []
    for i in range(na):
        row = dist[i]
        m = min(row)
        if row.count(m) != 1:
            continue
        j = row.index(m)
        col = [dist[k][j] for k in range(na)]
        cm = min(col)
        if col.count(cm) != 1 or col.index(cm) != i:
            continue
        pairs.append((i, j, m))
    return pairs


def region_grow_reference(positions: np.ndarray, window: float, min_group: int,
                          max_group: int, max_bbox_side: float,
                          seed: int) -> list[list[int]]:
    """Queue-replay clustering oracle with brute-force neighbor scans.

    Same stated contract as the package (one seeded shuffle for the seed
    order, FIFO queue, ascending-id absorption, per-candidate bounding-box
    veto, hard stop at the member ceiling) but implemented with plain
    sets and full scans instead of a grid hash and a label array.
    """
    pos = np.asarray(positions, float).reshape(-1, 2)
    n = pos.shape[0]
    radius = window / 2.0
    unassigned = np.ones(n, bool)
    order = np.random.default_rng(seed).permutation(n)
    groups = []
    for s in order:
        s = int(s)
        if not unassigned[s]:
            continue
        unassigned[s] = False
        members = [s]
        lo = pos[s].copy()
        hi = pos[s].copy()
        queue = [s]
        head = 0
        closed = False
        while head < len(queue) and not closed:
            f = queue[head]
            head += 1
            if len(members) >= max_group:
                break
            d = np.abs(pos - pos[f])
            near = np.nonzero(unassigned & (d[:, 0] <= radius) & (d[:, 1] <= radius))[0]
            for j in near:
                j = int(j)
                if len(members) >= max_group:
                    closed = True
                    break
                nlo = np.minimum(lo, pos[j])
                nhi = np.maximum(hi, pos[j])
                if float(nhi[0] - nlo[0]) > max_bbox_side \
                        or float(nhi[1] - nlo[1]) > max_bbox_side:
                    continue
                unassigned[j] = False
                members.append(j)
                queue.append(j)
                lo, hi = nlo, nhi
        if len(members) >= min_group:
            groups.append(members)
    return groups


def overlap_pairs_reference(regions: list[tuple[float, float, float, float]],
                            boxes: list[tuple[float, float, float, float]]) -> set[tuple[int, int]]:
    """Closed-interval overlap between (lox, loy, hix, hiy) rectangles."""
    pairs = set()
    for i, (rlx, rly, rhx, rhy) in enumerate(regions):
        for j, (blx, bly, bhx, bhy) in enumerate(boxes):
            if blx <= rhx and bhx >= rlx and bly <= rhy and bhy >= rly:
                pairs.add((i, j))
    return pairs


def claim_first_reference(ia: np.ndarray, ib: np.ndarray) -> list[bool]:
    """Sequential greedy claim: a row is kept when neither of its endpoints
    was claimed by an earlier kept row."""
    taken_a = set()
    taken_b = set()
    keep = []
    for a, b in zip(ia.tolist(), ib.tolist()):
        ok = a not in taken_a and b not in taken_b
        if ok:
            taken_a.add(a)
            taken_b.add(b)
        keep.append(ok)
    return keep


def advance_reference(centroid_prev, age_prev, centroid_curr, accepted):
    """Best-partner loop for one state advance.

    ``accepted`` holds (prev_slot, curr_slot, score, dist_sum) tuples. Each
    current group takes the pair with the highest score, ties to the
    smaller dist_sum and then to the lower previous slot; its displacement
    is the centroid difference and its age the partner's plus one.
    Current groups without a pair keep zero displacement and age 0.
    """
    best = {}
    for gp, gc, score, dist_sum in accepted:
        key = (-score, dist_sum, gp)
        if gc not in best or key < best[gc]:
            best[gc] = key
    displacement = np.zeros((len(centroid_curr), 2))
    age = np.zeros(len(centroid_curr), np.int64)
    for gc, (_, _, gp) in best.items():
        displacement[gc] = np.asarray(centroid_curr[gc]) - np.asarray(centroid_prev[gp])
        age[gc] = age_prev[gp] + 1
    return displacement, age


def run_reference(config, frames):
    """Whole-run oracle composed of the stage oracles above.

    Reads the fields of ``config`` (a PipelineConfig) and ``frames``
    (FrameFeatures records) only. Yields one ``(pair, state)`` per frame,
    as the pipeline's run does: ``pair`` is None or a dict of the
    transition's ``frames`` (prev, curr indices) and its ``feature_prev``,
    ``feature_curr``, ``distance``, ``group_prev`` and ``group_curr`` lists;
    ``state`` is None for a skipped frame, else a dict of the frame's group
    ``centroid``, ``count``, ``displacement`` and ``age`` lists and the
    search ``margin`` its regions use next.

    Per frame: groups by region growing, centroids as member sums over n
    in absorption order. Search regions are the previous centroid plus its
    displacement, +- half the box side plus the margin; a candidate pair is
    a region overlapping a current box. A candidate is accepted when its
    mutual-NN support count exceeds k * sqrt(min(n, m)), and the accepted
    pairs rank by (-score, current slot, distance sum, previous slot). Their
    supports, in rank order, are claimed first come first served; the state
    advances by each current group's best partner.

    The margin: the first frame's state gets 2 * search_margin, each later
    processed frame's gets search_margin. A frame without features is
    skipped; once there is a state, the first skip after a processed frame
    sets its margin to 2 * search_margin and each further skip in a row
    doubles it again.
    """
    state = None
    skips = 0
    for frame in frames:
        if frame.count == 0:
            if state is not None:
                skips += 1
                state = {**state, "margin": config.search_margin * 2.0 ** skips}
            yield None, None
            continue
        skips = 0
        pos = frame.positions.tolist()
        groups = []
        for members in region_grow_reference(frame.positions, config.window, config.min_group,
                                             config.max_group, config.max_bbox_side, config.seed):
            sx = sy = 0.0
            for m in members:
                sx += pos[m][0]
                sy += pos[m][1]
            xs = [pos[m][0] for m in members]
            ys = [pos[m][1] for m in members]
            groups.append({"members": members, "centroid": [sx / len(members), sy / len(members)],
                           "box": (min(xs), min(ys), max(xs), max(ys))})
        pair = None
        if state is None:
            displacement = [[0.0, 0.0]] * len(groups)
            age = [0] * len(groups)
            margin = 2.0 * config.search_margin
        else:
            prev = state["groups"]
            regions = []
            for g, (dx, dy) in zip(prev, state["displacement"]):
                lox, loy, hix, hiy = g["box"]
                cx, cy = g["centroid"][0] + dx, g["centroid"][1] + dy
                hx = (hix - lox) / 2.0 + state["margin"]
                hy = (hiy - loy) / 2.0 + state["margin"]
                regions.append((cx - hx, cy - hy, cx + hx, cy + hy))
            accepted = []
            for gp, gc in overlap_pairs_reference(regions, [g["box"] for g in groups]):
                rows_p, rows_c = prev[gp]["members"], groups[gc]["members"]
                supports = [(rows_p[i], rows_c[j], d) for i, j, d in mutual_nn_reference(
                    state["frame"].descriptors[rows_p], frame.descriptors[rows_c])]
                if len(supports) > config.k * math.sqrt(min(len(rows_p), len(rows_c))):
                    accepted.append((-len(supports), gc, sum(d for _, _, d in supports), gp,
                                     supports))
            accepted.sort(key=lambda a: a[:4])
            rows = [(gp, gc, a, b, d) for _, gc, _, gp, supports in accepted
                    for a, b, d in supports]
            keep = claim_first_reference(np.array([r[2] for r in rows], np.int64),
                                         np.array([r[3] for r in rows], np.int64))
            kept = [r for r, k in zip(rows, keep) if k]
            pair = {"frames": (state["frame"].frame_index, frame.frame_index),
                    "feature_prev": [r[2] for r in kept], "feature_curr": [r[3] for r in kept],
                    "distance": [float(r[4]) for r in kept],
                    "group_prev": [r[0] for r in kept], "group_curr": [r[1] for r in kept]}
            displacement, age = advance_reference(
                [g["centroid"] for g in prev], state["age"], [g["centroid"] for g in groups],
                [(gp, gc, -neg_score, dist_sum) for neg_score, gc, dist_sum, gp, _ in accepted])
            displacement, age = displacement.tolist(), age.tolist()
            margin = config.search_margin
        state = {"frame": frame, "groups": groups, "centroid": [g["centroid"] for g in groups],
                 "count": [len(g["members"]) for g in groups], "displacement": displacement,
                 "age": age, "margin": margin}
        yield pair, state


def triangulate_depths_reference(R, t, xa, xb):
    """Per-point DLT triangulation: the smallest right singular vector of
    each point's 4x4 system, depths in both cameras, zero at infinity."""
    P1 = np.hstack([np.eye(3), np.zeros((3, 1))])
    P2 = np.hstack([R, t.reshape(3, 1)])
    z1 = np.zeros(len(xa))
    z2 = np.zeros(len(xa))
    for i in range(len(xa)):
        A = np.stack([xa[i, 0] * P1[2] - P1[0], xa[i, 1] * P1[2] - P1[1],
                      xb[i, 0] * P2[2] - P2[0], xb[i, 1] * P2[2] - P2[1]])
        X = np.linalg.svd(A)[2][-1]
        if abs(X[3]) >= 1e-15:
            X = X[:3] / X[3]
            z1[i] = X[2]
            z2[i] = (R @ X + t)[2]
    return z1, z2


class FeatureFileRejected(Exception):
    """The reference reader's verdict on a bad feature file."""

    def __init__(self, line, message):
        super().__init__(message)
        self.line = line          # 1-based, or None for the feature cap
        self.message = message


def feature_file_reference(text: str, max_features):
    """Line-by-line feature-file reader.

    Returns ((width, height, desc_bits, seed), positions (n, 2), responses
    (n,), descriptor bytes) or raises FeatureFileRejected at the first bad
    line, checking each line's rules in order: field count, numeric fields,
    id sequence, descriptor length, descriptor hex, response range, patch
    margin (16 px). The header is the first line even when it is blank;
    later blank lines are skipped. The feature cap is checked last.
    """
    lines = text.splitlines()
    if not lines:
        raise FeatureFileRejected(1, "empty file")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "DYNAFEAT" or header[1] != "v1":
        raise FeatureFileRejected(1, "bad header, expected 'DYNAFEAT v1 <w> <h> <bits> <seed>'")
    try:
        width, height, bits, seed = [int(v) for v in header[2:]]
    except ValueError:
        raise FeatureFileRejected(1, "non-integer header field") from None
    if width < 16 or height < 16 or bits < 8 or bits % 8 != 0:
        raise FeatureFileRejected(1, "header dimensions out of range")
    rows = []
    descriptors = b""
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 5:
            raise FeatureFileRejected(lineno, f"expected 5 fields, got {len(parts)}")
        try:
            fid = int(parts[0])
            x, y, response = float(parts[1]), float(parts[2]), float(parts[3])
        except ValueError:
            raise FeatureFileRejected(lineno, "malformed numeric field") from None
        if fid != len(rows):
            raise FeatureFileRejected(lineno, f"feature id {fid} out of sequence")
        if len(parts[4]) * 4 != bits:
            raise FeatureFileRejected(
                lineno, f"descriptor length {len(parts[4]) * 4} bits does not match header {bits}")
        try:
            descriptors += bytes.fromhex(parts[4])
        except ValueError:
            raise FeatureFileRejected(lineno, "descriptor is not valid hex") from None
        if not (response >= 0 and response != float("inf")):
            raise FeatureFileRejected(lineno, "response must be finite and non-negative")
        if not (16 <= x <= width - 17 and 16 <= y <= height - 17):
            raise FeatureFileRejected(lineno, "position violates the descriptor patch margin")
        rows.append((x, y, response))
    if max_features is not None and len(rows) > max_features:
        raise FeatureFileRejected(None, f"{len(rows)} features exceed the cap of {max_features}")
    positions = np.array([(x, y) for x, y, _ in rows], np.float64).reshape(-1, 2)
    responses = np.array([r for _, _, r in rows], np.float64)
    return (width, height, bits, seed), positions, responses, descriptors


def repr_token_reference(token: str) -> bool:
    """A number token is ``repr`` text when it is ``repr`` of the float it
    reads as."""
    return token == repr(float(token))


def _draw_value(rng: random.Random) -> float:
    """A positive float from one of several families that ``repr`` finds
    hard or that feature files hold."""
    kind = rng.randrange(8)
    if kind == 0:      # a pixel position
        return rng.uniform(16.0, 640.0)
    if kind == 1:      # any scale, 2^33 and 1 included
        return 2.0 ** rng.uniform(-4.0, 36.0)
    if kind == 2:      # a short decimal
        return round(rng.uniform(1.0, 10.0 ** rng.randrange(1, 10)), rng.randrange(1, 16))
    if kind == 3:      # next to a power of two
        x = 2.0 ** rng.randrange(-2, 36)
        for _ in range(rng.randrange(4)):
            x = math.nextafter(x, rng.choice((0.0, math.inf)))
        return x
    if kind == 4:      # next to a power of ten
        x = 10.0 ** rng.randrange(0, 12)
        for _ in range(rng.randrange(4)):
            x = math.nextafter(x, rng.choice((0.0, math.inf)))
        return x
    if kind == 5:      # dyadic, so exactly halfway between short decimals
        return rng.randrange(1, 1 << 40) / 2.0 ** rng.randrange(1, 20)
    if kind == 6:      # a whole number
        return float(rng.randrange(1, 10 ** rng.randrange(1, 12)))
    # all 52 fraction bits random, exponent between 2^0 and 2^34
    return math.ldexp(1.0 + rng.getrandbits(52) / 2.0 ** 52, rng.randrange(0, 35))


def _digit_spots(text: str) -> list[int]:
    return [k for k, c in enumerate(text) if c.isdigit()]


def adversarial_tokens(seed: int, count: int) -> list[str]:
    """``count`` number tokens that ``float`` reads as finite, seeded, most of
    them close to ``repr`` text: ``repr`` itself, its last digit moved by
    one, a digit appended, ``_`` between two digits, exponents, a ``+``
    sign, leading and trailing zeros, and the ``.16g`` and ``.17g`` forms."""
    rng = random.Random(seed)
    tokens = []
    while len(tokens) < count:
        text = repr(_draw_value(rng))
        form = rng.randrange(11)
        if form == 1:
            k = _digit_spots(text)[-1]
            text = text[:k] + str((int(text[k]) + rng.choice((1, 9))) % 10) + text[k + 1:]
        elif form == 2:
            text += str(rng.randrange(10))
        elif form == 3:
            spots = [k for k in _digit_spots(text) if k + 1 < len(text) and text[k + 1].isdigit()]
            if spots:
                k = rng.choice(spots) + 1
                text = text[:k] + "_" + text[k:]
        elif form == 4:
            x = float(text)
            text = f"{x:.{rng.randrange(0, 17)}{rng.choice('eE')}}"
        elif form == 5:
            text = "+" + text
        elif form == 6:
            text = "0" * rng.randrange(1, 4) + text
        elif form == 7:
            text += "0" * rng.randrange(1, 4) if "e" in text or "." in text else ".0"
        elif form in (8, 9):
            text = f"{float(text):.{16 + form - 8}g}"
        elif form == 10:
            text = f"{float(text):.{rng.randrange(1, 18)}f}"
        try:
            if math.isfinite(float(text)):
                tokens.append(text)
        except ValueError:
            pass
    return tokens
