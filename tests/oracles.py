"""Independent reference implementations used as test oracles.

Everything here is written for obviousness, not speed: plain loops,
brute-force scans, no shared code with the package internals. The
contracts mirrored here (ring offsets, absorption order, tie rules) are
restated from scratch so a bug in the package cannot hide in a shared
helper.
"""

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
