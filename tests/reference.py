"""Independent reference implementations used as test oracles.

These deliberately avoid the library's computational paths: IoU by Monte
Carlo point sampling, average precision by direct prefix enumeration,
three-way partitioning by exhaustive search, and BEV alignment by a dense
bilinear lookup that gathers and weights every query point.
"""
from __future__ import annotations

import math

import numpy as np

from cadet3d.geometry import Box3D, compose, invert, transform_xy


def point_in_box_bev(box: Box3D, xy: np.ndarray) -> np.ndarray:
    """Membership via rotation into the box frame (not polygon clipping)."""
    c, s = math.cos(box.r), math.sin(box.r)
    dx = xy[:, 0] - box.cx
    dy = xy[:, 1] - box.cy
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return (np.abs(u) <= 0.5 * box.l) & (np.abs(v) <= 0.5 * box.w)


def mc_iou_bev(a: Box3D, b: Box3D, n_samples: int, rng: np.random.Generator) -> float:
    corners = np.vstack([a.corners_bev(), b.corners_bev()])
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    pts = rng.uniform(lo, hi, (n_samples, 2))
    in_a = point_in_box_bev(a, pts)
    in_b = point_in_box_bev(b, pts)
    union = (in_a | in_b).sum()
    if union == 0:
        return 0.0
    return float((in_a & in_b).sum() / union)


def mc_iou_3d(a: Box3D, b: Box3D, n_samples: int, rng: np.random.Generator) -> float:
    corners = np.vstack([a.corners_bev(), b.corners_bev()])
    lo = np.array([corners[:, 0].min(), corners[:, 1].min(),
                   min(a.cz - a.h / 2, b.cz - b.h / 2)])
    hi = np.array([corners[:, 0].max(), corners[:, 1].max(),
                   max(a.cz + a.h / 2, b.cz + b.h / 2)])
    pts = rng.uniform(lo, hi, (n_samples, 3))
    in_a = point_in_box_bev(a, pts[:, :2]) & (np.abs(pts[:, 2] - a.cz) <= a.h / 2)
    in_b = point_in_box_bev(b, pts[:, :2]) & (np.abs(pts[:, 2] - b.cz) <= b.h / 2)
    union = (in_a | in_b).sum()
    if union == 0:
        return 0.0
    return float((in_a & in_b).sum() / union)


def brute_force_ap(tp_flags: list[bool], n_gt: int, positions: int = 40) -> float | None:
    """AP by scanning every detection-list prefix for each grid recall."""
    if n_gt == 0:
        return None
    total = 0.0
    for k in range(1, positions + 1):
        r = k / positions
        best = 0.0
        tp = fp = 0
        for flag in tp_flags:
            tp += bool(flag)
            fp += not flag
            if tp / n_gt >= r:
                best = max(best, tp / (tp + fp))
        total += best
    return total / positions


def brute_force_three_partition(values) -> tuple[float, np.ndarray]:
    """(SSE, sorted part means) over all contiguous 3-partitions."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    best_sse = math.inf
    best_centers = None
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            parts = [xs[:i], xs[i:j], xs[j:]]
            sse = sum(((p - p.mean()) ** 2).sum() for p in parts)
            if sse < best_sse - 1e-15:
                best_sse = sse
                best_centers = np.array([p.mean() for p in parts])
    return best_sse, best_centers


def dense_bilinear(features: np.ndarray, origin_xy, voxel_size: float, xy: np.ndarray) -> np.ndarray:
    """Bilinear lookup at every point, zero outside the extent: the four
    corners are clipped into a zero-padded frame, then gathered and weighted."""
    nx, ny, n_feat = features.shape
    u = (xy[:, 0] - origin_xy[0]) / voxel_size - 0.5
    v = (xy[:, 1] - origin_xy[1]) / voxel_size - 0.5
    i0 = np.floor(u).astype(np.int64)
    j0 = np.floor(v).astype(np.int64)
    fu = u - i0
    fv = v - j0
    ii0 = np.clip(i0 + 1, 0, nx + 1)
    ii1 = np.clip(i0 + 2, 0, nx + 1)
    jj0 = np.clip(j0 + 1, 0, ny + 1)
    jj1 = np.clip(j0 + 2, 0, ny + 1)
    padded = np.zeros((nx + 2, ny + 2, n_feat))
    padded[1 : nx + 1, 1 : ny + 1] = features
    return (
        ((1 - fu) * (1 - fv))[:, None] * padded[ii0, jj0]
        + ((1 - fu) * fv)[:, None] * padded[ii0, jj1]
        + (fu * (1 - fv))[:, None] * padded[ii1, jj0]
        + (fu * fv)[:, None] * padded[ii1, jj1]
    )


def dense_bev_align(grids, transforms) -> np.ndarray:
    """Fused (nx, ny, F) features: every channel looked up densely at the
    channel-1 cell centers mapped through T_i o T_1^{-1}, then the
    component-wise maximum."""
    base = grids[0]
    centers = base.cell_centers()
    t1_inv = invert(transforms[0])
    fused = base.features.reshape(-1, base.features.shape[2])
    for grid, t in zip(grids[1:], transforms[1:]):
        xy = transform_xy(compose(t, t1_inv), centers)
        fused = np.maximum(fused, dense_bilinear(grid.features, grid.origin_xy, grid.voxel_size, xy))
    return fused.reshape(base.features.shape)
