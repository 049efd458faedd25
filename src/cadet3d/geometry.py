"""Oriented-box geometry: similarity transforms, rotated IoU, NMS, residual codecs.

Conventions used throughout the package: right-handed frame with z up; yaw is
counter-clockwise about +z measured from +x and kept normalized to (-pi, pi];
a box footprint has length ``l`` along its heading, width ``w`` across it and
height ``h`` along z, all centered on (cx, cy, cz). The mirror transform
reflects across the x-z plane (y -> -y, yaw -> -yaw).
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Container, Iterator, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Intersection polygons below this area (m^2) are treated as empty.
DEGENERATE_AREA = 1e-12


def wrap_angle(r: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    r = math.fmod(r, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    elif r > math.pi:
        r -= TWO_PI
    return r


def wrap_angles(r: np.ndarray) -> np.ndarray:
    """:func:`wrap_angle` elementwise, with the same bits for finite angles
    (``fmod`` is exact); a non-finite angle becomes NaN."""
    r = np.fmod(r, TWO_PI)
    return np.where(r <= -math.pi, r + TWO_PI, np.where(r > math.pi, r - TWO_PI, r))


class Box3D(namedtuple("Box3D", "cx cy cz w h l r")):
    """7-DoF oriented box: center (m), width/height/length (m), yaw (rad).

    A tuple of its seven fields, so a list of boxes is already an (N, 7)
    array-like. Construction rejects non-finite fields and non-positive sizes
    and wraps the yaw; ``_make`` and ``_replace`` skip that, so the package
    does not call them.
    """

    __slots__ = ()

    def __new__(cls, cx: float, cy: float, cz: float, w: float, h: float, l: float,
                r: float) -> "Box3D":
        vals = (cx, cy, cz, w, h, l, r)
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"non-finite box field: {vals}")
        if w <= 0 or h <= 0 or l <= 0:
            raise ValueError(f"box sizes must be positive: w={w} h={h} l={l}")
        return tuple.__new__(cls, (cx, cy, cz, w, h, l, wrap_angle(r)))

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=np.float64)

    def corners_bev(self) -> np.ndarray:
        """Footprint corners, CCW, shape (4, 2)."""
        return np.array(_corners_list(self))


def box_rows(boxes: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """The (N, 7) float64 array of ``boxes``: :class:`Box3D` objects, other
    7-sequences or an array of rows."""
    return np.array(boxes, dtype=np.float64).reshape(-1, 7)


def check_boxes(boxes: np.ndarray) -> np.ndarray:
    """``boxes`` itself if every row would pass :class:`Box3D` validation:
    finite fields and positive sizes. Raises ValueError otherwise."""
    if not np.isfinite(boxes).all():
        raise ValueError("non-finite box field")
    if not (boxes[..., 3:6] > 0).all():
        raise ValueError("box sizes must be positive")
    return boxes


@dataclass(frozen=True)
class Transform:
    """Composable scene action: mirror across x-z plane, then rotate about z, then scale."""

    flip_y: bool = False
    theta: float = 0.0
    s: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and math.isfinite(self.s)):
            raise ValueError("transform parameters must be finite")
        if self.s <= 0:
            raise ValueError(f"scale must be positive, got {self.s}")

    @staticmethod
    def identity() -> "Transform":
        return Transform()

    @property
    def is_identity(self) -> bool:
        return not self.flip_y and self.theta == 0.0 and self.s == 1.0


def invert(t: Transform) -> Transform:
    """Exact inverse action, again in flip -> rotate -> scale form.

    Conjugating a rotation by the mirror reverses it, which is what lets the
    inverse collapse back into the same canonical order.
    """
    theta = t.theta if t.flip_y else -t.theta
    return Transform(flip_y=t.flip_y, theta=theta, s=1.0 / t.s)


def compose(outer: Transform, inner: Transform) -> Transform:
    """Transform equivalent to applying ``inner`` first, then ``outer``."""
    theta_inner = -inner.theta if outer.flip_y else inner.theta
    return Transform(
        flip_y=outer.flip_y != inner.flip_y,
        theta=wrap_angle(outer.theta + theta_inner),
        s=outer.s * inner.s,
    )


def relative_transforms(transforms: Sequence[Transform]) -> list[Transform]:
    """T_i o T_1^{-1} per channel, mapping channel 1 into channel i; entry 1 is the identity."""
    t1_inv = invert(transforms[0])
    return [Transform.identity()] + [compose(t, t1_inv) for t in transforms[1:]]


@dataclass
class PointCloud:
    """Points as float64 arrays: xyz (N, 3) and intensity (N,) in [0, 1]."""

    xyz: np.ndarray
    intensity: np.ndarray

    def __post_init__(self) -> None:
        self.xyz = np.asarray(self.xyz, dtype=np.float64).reshape(-1, 3)
        self.intensity = np.asarray(self.intensity, dtype=np.float64).reshape(-1)
        if len(self.intensity) != len(self.xyz):
            raise ValueError("xyz and intensity lengths differ")
        if len(self.xyz) and not np.isfinite(self.xyz).all():
            raise ValueError("point coordinates must be finite")

    def __len__(self) -> int:
        return len(self.xyz)

    @staticmethod
    def empty() -> "PointCloud":
        return PointCloud(np.empty((0, 3)), np.empty((0,)))

    def copy(self) -> "PointCloud":
        return PointCloud(self.xyz.copy(), self.intensity.copy())


def transform_params(transforms: Sequence[Transform]) -> np.ndarray:
    """(n, 5) rows (mirror sign, cos theta, sin theta, s, theta) of ``transforms``,
    with ``math``'s cos and sin. Indexed per point, cell or box, the rows let
    one array pass apply a different transform to each (the channel clouds
    and the BEV alignment of :mod:`cadet3d.detector` and :mod:`cadet3d.voxels`,
    :func:`map_boxes`) with the bits of applying each alone."""
    return np.array([(-1.0 if t.flip_y else 1.0, math.cos(t.theta), math.sin(t.theta), t.s,
                      t.theta) for t in transforms], dtype=np.float64).reshape(-1, 5)


def map_boxes(params: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """(N, 7) boxes, row i mapped covariantly by the :func:`transform_params`
    row ``params[i]`` (``params`` may also be one row for all)."""
    f, c, s, k, theta = params.T
    cx, cy, cz, w, h, l, r = boxes.T
    cy, r = f * cy, f * r
    cx, cy = c * cx - s * cy, s * cx + c * cy
    return np.stack([k * cx, k * cy, k * cz, k * w, k * h, k * l, wrap_angles(r + theta)], axis=1)


def apply_boxes(t: Transform, boxes: np.ndarray) -> np.ndarray:
    """Map the rows of an (N, 7) box array covariantly: centers as points,
    sizes by s, yaws by flip and rotation. The identity returns ``boxes``
    itself."""
    return boxes if t.is_identity else map_boxes(transform_params([t]), boxes)


def apply_box(t: Transform, b: Box3D) -> Box3D:
    """:func:`apply_boxes` of one box, validated. The identity returns ``b``
    itself."""
    return b if t.is_identity else Box3D(*apply_boxes(t, box_rows([b]))[0].tolist())


def _polygon_area(poly: Sequence[tuple[float, float]]) -> float:
    if len(poly) < 3:
        return 0.0
    acc = 0.0
    x0, y0 = poly[-1]
    for x1, y1 in poly:
        acc += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return abs(acc) * 0.5


def _clip_convex(
    subject: list[tuple[float, float]], clip: Sequence[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Sutherland-Hodgman: clip a convex polygon by a CCW convex polygon."""
    output = subject
    n = len(clip)
    for k in range(n):
        if not output:
            return []
        p1x, p1y = clip[k]
        p2x, p2y = clip[(k + 1) % n]
        ex, ey = p2x - p1x, p2y - p1y
        inputlist = output
        output = []
        sx, sy = inputlist[-1]
        s_in = ex * (sy - p1y) - ey * (sx - p1x) >= -DEGENERATE_AREA
        # "inside" = left of the CCW edge, boundary-inclusive so shared edges
        # keep their vertices verbatim
        for qx, qy in inputlist:
            q_in = ex * (qy - p1y) - ey * (qx - p1x) >= -DEGENERATE_AREA
            if q_in != s_in:
                dx, dy = qx - sx, qy - sy
                den = ex * dy - ey * dx
                # a segment parallel to the edge (its ends on either side only
                # within the tolerance) crosses it at its start
                tpar = (ex * (p1y - sy) - ey * (p1x - sx)) / den if den else 0.0
                output.append((sx + tpar * dx, sy + tpar * dy))
            if q_in:
                output.append((qx, qy))
            sx, sy, s_in = qx, qy, q_in
    return output


def _corners_list(box: Sequence[float]) -> list[tuple[float, float]]:
    """Footprint corners of a 7-sequence box, CCW: (along-heading,
    across-heading) offsets (+l/2, +w/2), (-l/2, +w/2), (-l/2, -w/2),
    (+l/2, -w/2) about the center."""
    cx, cy, _, w, _, l, r = box
    c, s = math.cos(r), math.sin(r)
    hl, hw = 0.5 * l, 0.5 * w
    return [
        (cx + c * hl - s * hw, cy + s * hl + c * hw),
        (cx - c * hl - s * hw, cy - s * hl + c * hw),
        (cx - c * hl + s * hw, cy - s * hl - c * hw),
        (cx + c * hl + s * hw, cy + s * hl - c * hw),
    ]


def _bev_overlap(a: Sequence[float], b: Sequence[float]) -> tuple[float, float, float]:
    """(intersection area, area a, area b) of the BEV footprints of two
    7-sequence boxes."""
    acx, acy, _, aw, _, al, _ = a
    bcx, bcy, _, bw, _, bl, _ = b
    # cheap circumradius pre-reject before any corner math
    ra = 0.5 * math.hypot(al, aw)
    rb = 0.5 * math.hypot(bl, bw)
    if math.hypot(acx - bcx, acy - bcy) > ra + rb:
        # disjoint; areas only matter when the intersection is non-empty
        return 0.0, aw * al, bw * bl
    ca, cb = _corners_list(a), _corners_list(b)
    area_a, area_b = _polygon_area(ca), _polygon_area(cb)
    (xa, ya), (xb, yb) = zip(*ca), zip(*cb)
    if max(xa) < min(xb) or max(xb) < min(xa) or max(ya) < min(yb) or max(yb) < min(ya):
        return 0.0, area_a, area_b
    inter = _clip_convex(ca, cb)
    area_i = _polygon_area(inter)
    if area_i < DEGENERATE_AREA:
        return 0.0, area_a, area_b
    return area_i, area_a, area_b


def iou_bev(a: Sequence[float], b: Sequence[float]) -> float:
    """Overlap-over-union of the rotated BEV footprints of two boxes (any
    7-sequences), in [0, 1]; 0.0 when the union rounds to zero."""
    area_i, area_a, area_b = _bev_overlap(a, b)
    union = area_a + area_b - area_i
    if area_i == 0.0 or union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, area_i / union))


def iou_3d(a: Sequence[float], b: Sequence[float]) -> float:
    """Volumetric overlap-over-union of two boxes (any 7-sequences): BEV
    intersection times vertical overlap; 0.0 when the union rounds to zero."""
    _, _, acz, _, ah, _, _ = a
    _, _, bcz, _, bh, _, _ = b
    zo = min(acz + 0.5 * ah, bcz + 0.5 * bh) - max(acz - 0.5 * ah, bcz - 0.5 * bh)
    if zo <= 0.0:
        return 0.0
    area_i, area_a, area_b = _bev_overlap(a, b)
    if area_i == 0.0:
        return 0.0
    vol_i = area_i * zo
    union = area_a * ah + area_b * bh - vol_i
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, vol_i / union))


# Box pairs per chunk of bev_overlap_rows; bounds its transients.
PAIR_CHUNK = 256


def _math_rows(fn, *cols: np.ndarray) -> np.ndarray:
    """``math`` function ``fn`` elementwise over equal-length arrays: numpy's
    ``hypot`` differs from ``math.hypot`` in the last bit for some inputs."""
    return np.array(list(map(fn, *(c.tolist() for c in cols))), dtype=np.float64)


def _corner_rows(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, 4) x and y of the footprint corners of (N, 7) rows, with
    :func:`_corners_list`'s arithmetic and order."""
    cx, cy, _, w, _, l, r = boxes.T
    c, s = _math_rows(math.cos, r), _math_rows(math.sin, r)
    hl, hw = 0.5 * l, 0.5 * w
    return (np.column_stack([cx + c * hl - s * hw, cx - c * hl - s * hw,
                             cx - c * hl + s * hw, cx + c * hl + s * hw]),
            np.column_stack([cy + s * hl + c * hw, cy - s * hl + c * hw,
                             cy - s * hl - c * hw, cy + s * hl - c * hw]))


def _previous(v: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Each vertex's predecessor in the padded polygons of ``n`` vertices whose
    (P, W) coordinates or flags are ``v``: vertex 0 follows the last."""
    prev = np.empty_like(v)
    prev[:, 1:] = v[:, :-1]
    prev[:, 0] = v[np.arange(len(v)), n - 1]
    return prev


def _polygon_areas(x: np.ndarray, y: np.ndarray, n: np.ndarray) -> np.ndarray:
    """:func:`_polygon_area` of each padded polygon: the first ``n[i]`` of the
    (P, W) vertices ``x[i]``, ``y[i]``, summed in the same order."""
    acc = np.zeros(len(x))
    if x.shape[1]:
        term = np.where(np.arange(x.shape[1]) < n[:, None],
                        _previous(x, n) * y - x * _previous(y, n), 0.0)
        for col in term.T:
            acc = acc + col
    return np.where(n >= 3, np.abs(acc) * 0.5, 0.0)


def _clip_rows(x: np.ndarray, y: np.ndarray, n: np.ndarray, cx: np.ndarray, cy: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_clip_convex` of each padded polygon (``x``, ``y``, ``n``) by the
    CCW quadrilateral of (P, 4) corners ``cx``, ``cy``, one clip edge at a
    time. As in the loop, each vertex emits its crossing, then itself; the
    emitted vertices are moved to the front of their row, and the padding
    grows to the most vertices any polygon reaches."""
    for k in range(4):
        if not x.shape[1]:
            break
        p1x, p1y = cx[:, k, None], cy[:, k, None]
        ex, ey = cx[:, (k + 1) % 4, None] - p1x, cy[:, (k + 1) % 4, None] - p1y
        inside = ex * (y - p1y) - ey * (x - p1x) >= -DEGENERATE_AREA
        sx, sy = _previous(x, n), _previous(y, n)
        valid = np.arange(x.shape[1]) < n[:, None]
        dx, dy = x - sx, y - sy
        den = ex * dy - ey * dx
        tpar = np.divide(ex * (p1y - sy) - ey * (p1x - sx), den, out=np.zeros_like(den),
                         where=den != 0)
        emit = np.stack([valid & (inside != _previous(inside, n)), valid & inside], axis=2)
        emit = emit.reshape(len(x), 2 * x.shape[1])
        at = np.cumsum(emit, axis=1)
        n = at[:, -1]
        width = int(n.max(initial=0))
        src = np.flatnonzero(emit)
        dst = src // emit.shape[1] * width + at.ravel()[src] - 1
        x_out, y_out = np.zeros((2, len(x) * width))
        x_out[dst] = np.stack([sx + tpar * dx, x], axis=2).ravel()[src]
        y_out[dst] = np.stack([sy + tpar * dy, y], axis=2).ravel()[src]
        x, y = x_out.reshape(len(x), width), y_out.reshape(len(y), width)
    return x, y, n


def _bev_overlap_chunk(a: np.ndarray, b: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    acx, acy, _, aw, _, al, _ = a.T
    bcx, bcy, _, bw, _, bl, _ = b.T
    inter, area_a, area_b = np.zeros(len(a)), aw * al, bw * bl  # a rejected pair's areas
    reach = 0.5 * _math_rows(math.hypot, al, aw) + 0.5 * _math_rows(math.hypot, bl, bw)
    near = np.flatnonzero(~(_math_rows(math.hypot, acx - bcx, acy - bcy) > reach))
    (ax, ay), (bx, by) = _corner_rows(a[near]), _corner_rows(b[near])
    four = np.full(len(near), 4)
    area_a[near], area_b[near] = _polygon_areas(ax, ay, four), _polygon_areas(bx, by, four)
    live = np.flatnonzero(~((ax.max(axis=1) < bx.min(axis=1)) | (bx.max(axis=1) < ax.min(axis=1))
                            | (ay.max(axis=1) < by.min(axis=1)) | (by.max(axis=1) < ay.min(axis=1))))
    area_i = _polygon_areas(*_clip_rows(ax[live], ay[live], four[live], bx[live], by[live]))
    inter[near[live]] = np.where(area_i < DEGENERATE_AREA, 0.0, area_i)
    return inter, area_a, area_b


@np.errstate(over="ignore", invalid="ignore")
def bev_overlap_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_bev_overlap` of each pair of rows of the (P, 7) arrays ``a``
    and ``b``, ``a[i]`` clipped by ``b[i]``: (P,) intersection areas, areas of
    ``a`` and areas of ``b``, bit for bit.

    Every step runs on arrays with the scalar code's float operations in its
    order: the circumradius and bounding-box rejects, the corners from
    ``math.cos`` and ``math.sin``, Sutherland-Hodgman over padded polygons
    and the shoelace sums. Pairs go ``PAIR_CHUNK`` at a time.
    """
    parts = [_bev_overlap_chunk(a[i:i + PAIR_CHUNK], b[i:i + PAIR_CHUNK])
             for i in range(0, len(a), PAIR_CHUNK)] or [(np.zeros(0),) * 3]
    return tuple(np.concatenate(arrs) for arrs in zip(*parts))


@np.errstate(over="ignore", invalid="ignore")
def iou_3d_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`iou_3d` of each pair of rows of the (P, 7) arrays ``a`` and
    ``b``, bit for bit (see :func:`bev_overlap_rows`); only the pairs that
    overlap vertically reach the BEV overlap."""
    _, _, acz, _, ah, _, _ = a.T
    _, _, bcz, _, bh, _, _ = b.T
    zo = np.minimum(acz + 0.5 * ah, bcz + 0.5 * bh) - np.maximum(acz - 0.5 * ah, bcz - 0.5 * bh)
    up = np.flatnonzero(~(zo <= 0.0))
    area_i, area_a, area_b = bev_overlap_rows(a[up], b[up])
    vol_i = area_i * zo[up]
    union = area_a * ah[up] + area_b * bh[up] - vol_i
    ok = (area_i != 0.0) & ~(union <= 0.0)
    iou = np.zeros(len(a))
    ratio = np.divide(vol_i, union, out=np.zeros(len(up)), where=ok)
    # min(1.0, max(0.0, ratio)), a NaN to 0.0 as there
    iou[up] = np.where(ratio > 0.0, np.where(ratio < 1.0, ratio, 1.0), 0.0)
    return iou


@np.errstate(over="ignore", invalid="ignore")
def overlap_candidates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) mask of the box-row pairs whose BEV footprints may
    overlap.

    A pair is False only where :func:`_bev_overlap` rejects it by its
    circumradius test, so its IoU is exactly 0.0 and it is never clipped.
    The test runs here over all pairs at once, each circumradius loosened by
    a slack far above the test's rounding error, so a borderline pair still
    reaches the exact test. A non-finite row is a candidate of every row.
    """
    def reach(boxes):
        radius = 0.5 * np.hypot(boxes[:, 3], boxes[:, 5])
        return radius * (1.0 + 1e-9) + 1e-9 * (1.0 + np.abs(boxes[:, :2]).sum(axis=1))

    ra = reach(a)
    rb = ra if b is a else reach(b)
    return ~(np.hypot(a[:, 0, None] - b[:, 0], a[:, 1, None] - b[:, 1]) > ra[:, None] + rb)


def best_match(boxes: np.ndarray, candidates: np.ndarray, skip: Container[int] = (),
               near: np.ndarray | None = None) -> Iterator[tuple[float, int]]:
    """For each (7,) row of ``boxes`` in turn, the (3D IoU, index) of the row
    of ``candidates`` overlapping it most, ignoring the indices in ``skip``.
    Ties go to the earliest index; (0.0, -1) when no candidate overlaps.

    ``skip`` is read afresh for every row, so a caller may add the candidates
    it claims as it iterates. The exact :func:`iou_3d` runs only on the pairs
    that :func:`overlap_candidates` keeps, or a caller's subset ``near`` of
    them; any other pair's IoU is 0.0, which never beats the running best.
    """
    if near is None:
        near = overlap_candidates(check_boxes(boxes), check_boxes(candidates))
    near, cands = near.tolist(), candidates.tolist()
    for box, hits in zip(boxes.tolist(), near):
        best_iou, best_idx = 0.0, -1
        for idx, hit in enumerate(hits):
            if not hit or idx in skip:
                continue
            iou = iou_3d(box, cands[idx])
            if iou > best_iou:
                best_iou, best_idx = iou, idx
        yield best_iou, best_idx


def nms(boxes: np.ndarray, scores: Sequence[float], iou_thresh: float) -> list[int]:
    """Greedy BEV-IoU suppression over (N, 7) box rows; returns kept indices
    in descending-score order. A box is suppressed when its IoU with a kept
    box reaches ``iou_thresh``.

    Ties in score break toward the earlier input index, so the result is a
    pure function of the input sequence. The exact :func:`iou_bev` runs only
    on the pairs that :func:`overlap_candidates` keeps; any other pair's IoU
    is 0.0.
    """
    for score in scores:
        if not math.isfinite(score):
            raise ValueError("nms scores must be finite")
    near = overlap_candidates(check_boxes(boxes), boxes).tolist()
    rows = boxes.tolist()
    order = sorted(range(len(rows)), key=lambda i: (-scores[i], i))
    kept: list[int] = []
    for i in order:
        hits = near[i]
        for j in kept:
            if not (iou_bev(rows[i], rows[j]) if hits[j] else 0.0) < iou_thresh:
                break
        else:
            kept.append(i)
    return kept


def encode_residuals(targets: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Diagonal-normalized (N, 7) residuals of the rows of ``targets``
    relative to the rows of ``anchors``."""
    d = np.hypot(anchors[:, 3], anchors[:, 5])
    return np.column_stack([(targets[:, :2] - anchors[:, :2]) / d[:, None],
                            (targets[:, 2] - anchors[:, 2]) / anchors[:, 4],
                            np.log(targets[:, 3:6] / anchors[:, 3:6]),
                            wrap_angles(targets[:, 6] - anchors[:, 6])])


@np.errstate(over="ignore", invalid="ignore")
def decode_residuals(res: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_residuals`. Rows are not validated: a size
    that overflows becomes inf, for :func:`check_boxes` to reject."""
    cx, cy, cz, w, h, l, r = anchors.T
    d = np.hypot(w, l)
    e = np.exp(res[:, 3:6])
    return np.column_stack([cx + res[:, 0] * d, cy + res[:, 1] * d, cz + res[:, 2] * h,
                            w * e[:, 0], h * e[:, 1], l * e[:, 2], wrap_angles(r + res[:, 6])])


def encode_residual(target: Box3D, anchor: Box3D) -> np.ndarray:
    """:func:`encode_residuals` of one box."""
    return encode_residuals(box_rows([target]), box_rows([anchor]))[0]


def decode_residual(res: np.ndarray, anchor: Box3D) -> Box3D:
    """:func:`decode_residuals` of one box, validated."""
    return Box3D(*decode_residuals(np.asarray(res, dtype=np.float64)[None],
                                   box_rows([anchor]))[0].tolist())


def average_box_rows(boxes: np.ndarray) -> np.ndarray:
    """:func:`average_boxes` of each (C, 7) block of a (M, C, 7) array, as
    (M, 7) rows. Rows are not validated."""
    sin, cos = np.sin(boxes[:, :, 6]).sum(axis=1), np.cos(boxes[:, :, 6]).sum(axis=1)
    return np.column_stack([boxes[:, :, :6].mean(axis=1), wrap_angles(np.arctan2(sin, cos))])


def average_boxes(boxes: Sequence[Box3D]) -> Box3D:
    """Arithmetic mean of center and sizes; yaw averaged on the circle."""
    if not boxes:
        raise ValueError("average_boxes requires at least one box")
    return Box3D(*average_box_rows(box_rows(boxes)[None])[0].tolist())


def points_in_box(box: Sequence[float], xyz: np.ndarray, strict: bool = True) -> np.ndarray:
    """Boolean mask of points inside the rotated box, any 7-sequence (strict
    interior by default)."""
    cx, cy, cz, w, h, l, r = box
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    dx = xyz[:, 0] - cx
    dy = xyz[:, 1] - cy
    dz = xyz[:, 2] - cz
    c, s = math.cos(r), math.sin(r)
    u = c * dx + s * dy
    v = -s * dx + c * dy
    if strict:
        return (np.abs(u) < 0.5 * l) & (np.abs(v) < 0.5 * w) & (np.abs(dz) < 0.5 * h)
    return (np.abs(u) <= 0.5 * l) & (np.abs(v) <= 0.5 * w) & (np.abs(dz) <= 0.5 * h)
