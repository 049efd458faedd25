"""Oriented-box geometry: similarity transforms, rotated IoU, NMS, residual codecs.

Conventions used throughout the package: right-handed frame with z up; yaw is
counter-clockwise about +z measured from +x and kept normalized to (-pi, pi];
a box footprint has length ``l`` along its heading, width ``w`` across it and
height ``h`` along z, all centered on (cx, cy, cz). The mirror transform
reflects across the x-z plane (y -> -y, yaw -> -yaw).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Container, Iterator, NamedTuple, Sequence

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


@dataclass(frozen=True)
class Box3D:
    """7-DoF oriented box: center (m), width/height/length (m), yaw (rad)."""

    cx: float
    cy: float
    cz: float
    w: float
    h: float
    l: float
    r: float

    def __post_init__(self) -> None:
        vals = (self.cx, self.cy, self.cz, self.w, self.h, self.l, self.r)
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"non-finite box field: {vals}")
        if self.w <= 0 or self.h <= 0 or self.l <= 0:
            raise ValueError(f"box sizes must be positive: w={self.w} h={self.h} l={self.l}")
        object.__setattr__(self, "r", wrap_angle(self.r))

    def as_array(self) -> np.ndarray:
        return np.array([self.cx, self.cy, self.cz, self.w, self.h, self.l, self.r])

    def corners_bev(self) -> np.ndarray:
        """Footprint corners, CCW, shape (4, 2)."""
        return np.array(_corners_list(self))


class BoxRow(NamedTuple):
    """One row of a box array under :class:`Box3D`'s field names, unvalidated:
    the exact overlap tests read it as they read a Box3D. The array it comes
    from is validated whole by :func:`check_boxes`."""

    cx: float
    cy: float
    cz: float
    w: float
    h: float
    l: float
    r: float


def box_rows(boxes: Sequence[Box3D]) -> np.ndarray:
    """The (N, 7) array of the boxes' fields."""
    return np.array([(b.cx, b.cy, b.cz, b.w, b.h, b.l, b.r) for b in boxes],
                    dtype=np.float64).reshape(-1, 7)


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
    with ``math``'s cos and sin. Indexed per point or box, the rows let one
    array pass apply a different transform to each (:func:`map_xy`,
    :func:`map_boxes`) with the bits of applying each alone."""
    return np.array([(-1.0 if t.flip_y else 1.0, math.cos(t.theta), math.sin(t.theta), t.s,
                      t.theta) for t in transforms], dtype=np.float64).reshape(-1, 5)


def map_xy(params: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """(..., 2) planar coordinates mapped by :func:`transform_params` rows
    ``params``, broadcast against ``xy``'s leading axes: (N, 5) maps row i by
    ``params[i]``, (C, 1, 5) maps every point by each of C transforms."""
    f, c, s, k, _ = np.moveaxis(params, -1, 0)
    x, y = xy[..., 0], f * xy[..., 1]
    return np.stack([k * (c * x - s * y), k * (s * x + c * y)], axis=-1)


def map_boxes(params: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """(N, 7) boxes, row i mapped covariantly by the :func:`transform_params`
    row ``params[i]`` (``params`` may also be one row for all)."""
    f, c, s, k, theta = params.T
    cx, cy, cz, w, h, l, r = boxes.T
    cy, r = f * cy, f * r
    cx, cy = c * cx - s * cy, s * cx + c * cy
    return np.stack([k * cx, k * cy, k * cz, k * w, k * h, k * l, wrap_angles(r + theta)], axis=1)


def transform_xy(t: Transform, xy: np.ndarray) -> np.ndarray:
    """Apply a transform to (N, 2) planar coordinates."""
    return map_xy(transform_params([t]), np.asarray(xy, dtype=np.float64).reshape(-1, 2))


def apply_points(t: Transform, pc: PointCloud) -> PointCloud:
    """Map every point through flip -> rotate -> scale; intensity is untouched."""
    if t.is_identity:
        return pc.copy()
    xyz = np.column_stack([transform_xy(t, pc.xyz[:, :2]), t.s * pc.xyz[:, 2]])
    return PointCloud(xyz, pc.intensity.copy())


def apply_box(t: Transform, b: Box3D) -> Box3D:
    """Map a box covariantly: center as a point, sizes by s, yaw by flip/rotation.
    The identity returns ``b`` itself."""
    if t.is_identity:
        return b
    cx, cy, cz = b.cx, b.cy, b.cz
    r = b.r
    if t.flip_y:
        cy = -cy
        r = -r
    c, s = math.cos(t.theta), math.sin(t.theta)
    cx, cy = c * cx - s * cy, s * cx + c * cy
    return Box3D(
        cx=t.s * cx,
        cy=t.s * cy,
        cz=t.s * cz,
        w=t.s * b.w,
        h=t.s * b.h,
        l=t.s * b.l,
        r=wrap_angle(r + t.theta),
    )


def apply_boxes(t: Transform, boxes: np.ndarray) -> np.ndarray:
    """:func:`apply_box` over the rows of an (N, 7) box array. It keeps the
    scalar map's operations in their order, with ``cos`` and ``sin`` taken
    once, so every row has the bits of mapping that box alone. The identity
    returns ``boxes`` itself."""
    return boxes if t.is_identity else map_boxes(transform_params([t]), boxes)


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
                tpar = (ex * (p1y - sy) - ey * (p1x - sx)) / den
                output.append((sx + tpar * dx, sy + tpar * dy))
            if q_in:
                output.append((qx, qy))
            sx, sy, s_in = qx, qy, q_in
    return output


def _corners_list(box: Box3D) -> list[tuple[float, float]]:
    """Footprint corners, CCW: (along-heading, across-heading) offsets
    (+l/2, +w/2), (-l/2, +w/2), (-l/2, -w/2), (+l/2, -w/2) about the center."""
    c, s = math.cos(box.r), math.sin(box.r)
    hl, hw = 0.5 * box.l, 0.5 * box.w
    cx, cy = box.cx, box.cy
    return [
        (cx + c * hl - s * hw, cy + s * hl + c * hw),
        (cx - c * hl - s * hw, cy - s * hl + c * hw),
        (cx - c * hl + s * hw, cy - s * hl - c * hw),
        (cx + c * hl + s * hw, cy + s * hl - c * hw),
    ]


def _bev_overlap(a: Box3D, b: Box3D) -> tuple[float, float, float]:
    """(intersection area, area a, area b) of the two BEV footprints."""
    # cheap circumradius pre-reject before any corner math
    ra = 0.5 * math.hypot(a.l, a.w)
    rb = 0.5 * math.hypot(b.l, b.w)
    if math.hypot(a.cx - b.cx, a.cy - b.cy) > ra + rb:
        # disjoint; areas only matter when the intersection is non-empty
        return 0.0, a.w * a.l, b.w * b.l
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


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Overlap-over-union of the rotated BEV footprints, in [0, 1]; 0.0 when
    the union rounds to zero."""
    area_i, area_a, area_b = _bev_overlap(a, b)
    union = area_a + area_b - area_i
    if area_i == 0.0 or union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, area_i / union))


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Volumetric overlap-over-union: BEV intersection times vertical overlap;
    0.0 when the union rounds to zero."""
    zo = min(a.cz + 0.5 * a.h, b.cz + 0.5 * b.h) - max(a.cz - 0.5 * a.h, b.cz - 0.5 * b.h)
    if zo <= 0.0:
        return 0.0
    area_i, area_a, area_b = _bev_overlap(a, b)
    if area_i == 0.0:
        return 0.0
    vol_i = area_i * zo
    union = area_a * a.h + area_b * b.h - vol_i
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, vol_i / union))


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


def best_match(boxes: np.ndarray, candidates: np.ndarray,
               skip: Container[int] = ()) -> Iterator[tuple[float, int]]:
    """For each (7,) row of ``boxes`` in turn, the (3D IoU, index) of the row
    of ``candidates`` overlapping it most, ignoring the indices in ``skip``.
    Ties go to the earliest index; (0.0, -1) when no candidate overlaps.

    ``skip`` is read afresh for every row, so a caller may add the candidates
    it claims as it iterates. The exact :func:`iou_3d` runs only on the pairs
    that :func:`overlap_candidates` keeps; any other pair's IoU is 0.0, which
    never beats the running best.
    """
    near = overlap_candidates(check_boxes(boxes), check_boxes(candidates)).tolist()
    cands = [BoxRow(*row) for row in candidates.tolist()]
    for row, hits in zip(boxes.tolist(), near):
        box = BoxRow(*row)
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
    rows = [BoxRow(*row) for row in boxes.tolist()]
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


def points_in_box(box: Box3D, xyz: np.ndarray, strict: bool = True) -> np.ndarray:
    """Boolean mask of points inside the rotated box (strict interior by default)."""
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    dx = xyz[:, 0] - box.cx
    dy = xyz[:, 1] - box.cy
    dz = xyz[:, 2] - box.cz
    c, s = math.cos(box.r), math.sin(box.r)
    u = c * dx + s * dy
    v = -s * dx + c * dy
    if strict:
        return (
            (np.abs(u) < 0.5 * box.l) & (np.abs(v) < 0.5 * box.w) & (np.abs(dz) < 0.5 * box.h)
        )
    return (np.abs(u) <= 0.5 * box.l) & (np.abs(v) <= 0.5 * box.w) & (np.abs(dz) <= 0.5 * box.h)
