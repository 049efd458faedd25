"""Independent reference implementations used as test oracles.

These deliberately avoid the library's computational paths: IoU by Monte
Carlo point sampling, average precision by direct prefix enumeration,
three-way partitioning by exhaustive search (and, as it counted distinct
values with ``np.unique``, by :func:`unique_three_partition`), BEV alignment by a dense
bilinear lookup that gathers and weights every query point, connected
components by a flood fill, RoI pooling by a test of every voxel,
proposals by a scan of every BEV cell and a box fit per component, NMS,
best-match, the channel IoU consistency and the pseudo-box quality counts by
the exact scalar IoU of every pair, and scoring and training one proposal,
channel, example and box at a time with ``math`` functions.

The stacked-row forms of the encode stages (:func:`stacked_segment_pca`,
:func:`stacked_propose` and :func:`stacked_roi_features`: sums as one
``reduceat`` over (N, k) stacks, projections as length-2 axis sums, offsets
as row gathers) are what the 1-D column passes of the library must reproduce
byte for byte.

It also holds the scalar box map (:func:`scalar_apply_box`), half-turn
yaw alignment (:func:`align_yaw_to_anchor`) and patch shuffle
(:func:`scalar_shuffle_augment`) that the array forms must reproduce bit
for bit, the class-by-class dataset AP (:func:`classwise_evaluate_scenes`, over
:func:`match_detections`) that the one-pass scene matching must reproduce
exactly, the :class:`Detection` view of a scene's detection rows
(:func:`detections`) and its inverse (:func:`scene_detections`), one-transform
conveniences that build test inputs (:func:`transform_xy`,
:func:`apply_points`) on the planar map :func:`map_xy` whose expressions the
channel clouds write in place, the batch of one
(:func:`encode`), and the step-by-step self-training epoch loop
(:func:`stepwise_ssl_epoch`) that the batched one must reproduce.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from dataclasses import dataclass, replace

from cadet3d.augment import shuffle_augment, strong_channels
from cadet3d.config import RunConfig
from cadet3d.data import CLASS_NAMES, Scene
from cadet3d.detector import (
    BOX_DIM,
    FEATURE_SCALE,
    FINAL_NMS_IOU,
    MATCH_IOU,
    MIN_CELLS,
    MIN_OCC,
    N_FEATURES,
    PADDING,
    PROPOSAL_NMS_IOU,
    REG_LOSS_WEIGHT,
    ROI_ENLARGE,
    Detection,
    LossTotals,
    NonFiniteLossError,
    Proposals,
    SceneDetections,
    SceneEncoding,
    TrainExample,
    TrainLosses,
    _connected_components,
    _smooth_l1,
    detect,
    encode_batch,
    train_on_scene,
)
from cadet3d.evaluation import (
    IOU_THRESHOLDS,
    EvalResult,
    ap40,
)
from cadet3d.geometry import (
    Box3D,
    PointCloud,
    Transform,
    best_match,
    box_rows,
    compose,
    invert,
    iou_3d,
    iou_bev,
    points_in_box,
    transform_params,
    wrap_angle,
    wrap_angles,
)
from cadet3d.selftrain import (
    CRITERIA,
    LEVEL_AMBIGUOUS,
    LEVEL_HIGH,
    LEVEL_LOW,
    EpochMetrics,
    PseudoBox,
    SslState,
    channel_iou_consistency,
    detect_and_score,
    ema_update,
    fit_dual_thresholds,
    remove_low_level_points,
    scene_seed,
)
from cadet3d.voxels import BEV_MAX_HEIGHT, BEV_MAX_OCC, BevGrid


def map_xy(params: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """(..., 2) planar coordinates mapped by :func:`transform_params` rows
    ``params``, broadcast against ``xy``'s leading axes: (N, 5) maps row i by
    ``params[i]``, (C, 1, 5) maps every point by each of C transforms. The
    channel clouds of ``encode_batch`` write these expressions in place."""
    f, c, s, k, _ = np.moveaxis(params, -1, 0)
    x, y = xy[..., 0], f * xy[..., 1]
    return np.stack([k * (c * x - s * y), k * (s * x + c * y)], axis=-1)


def transform_xy(t: Transform, xy: np.ndarray) -> np.ndarray:
    """Apply a transform to (N, 2) planar coordinates."""
    return map_xy(transform_params([t]), np.asarray(xy, dtype=np.float64).reshape(-1, 2))


def apply_points(t: Transform, pc: PointCloud) -> PointCloud:
    """Map every point through flip -> rotate -> scale; intensity is untouched."""
    if t.is_identity:
        return pc.copy()
    xyz = np.column_stack([transform_xy(t, pc.xyz[:, :2]), t.s * pc.xyz[:, 2]])
    return PointCloud(xyz, pc.intensity.copy())


def encode(pc: PointCloud, transforms: Sequence[Transform]) -> SceneEncoding:
    """The encoding of one cloud under its channel transforms: channel c is
    ``pc`` under ``transforms[c]``. This is ``encode_batch`` of one scene."""
    return encode_batch([pc], [transforms])[0]


def scalar_apply_box(t: Transform, b: Box3D) -> Box3D:
    """Map a box covariantly, one field at a time with ``math``'s cos and sin:
    center as a point, sizes by s, yaw by flip/rotation. The identity returns
    ``b`` itself."""
    if t.is_identity:
        return b
    cx, cy, cz, w, h, l, r = b
    if t.flip_y:
        cy = -cy
        r = -r
    c, s = math.cos(t.theta), math.sin(t.theta)
    cx, cy = c * cx - s * cy, s * cx + c * cy
    return Box3D(t.s * cx, t.s * cy, t.s * cz, t.s * w, t.s * h, t.s * l,
                 wrap_angle(r + t.theta))


def align_yaw_to_anchor(target: Box3D, anchor: Box3D) -> Box3D:
    """Equivalent box whose yaw residual against the anchor lies in (-pi/2, pi/2]:
    the target turned by a half-turn where that is needed, else ``target``."""
    d = wrap_angle(target.r - anchor.r)
    if d > math.pi / 2:
        r = target.r - math.pi
    elif d <= -math.pi / 2:
        r = target.r + math.pi
    else:
        return target
    return Box3D(target.cx, target.cy, target.cz, target.w, target.h, target.l, r)


def scalar_shuffle_augment(scene: Scene, grid_cells: int, rng_seed) -> Scene:
    """:func:`cadet3d.augment.shuffle_augment` one patch and one box at a time:
    patches as ``(i, j)`` keys of a destination dict, per-patch displacement
    grids, and the patch of each single-patch box."""
    if grid_cells < 1:
        raise ValueError("grid_cells must be >= 1")
    pts = scene.cloud
    if grid_cells == 1 or len(pts) == 0:
        return Scene(scene.id, pts.copy(), list(scene.gt_boxes), list(scene.gt_classes))
    g = grid_cells
    xmin, ymin = pts.xyz[:, 0].min(), pts.xyz[:, 1].min()
    xmax, ymax = pts.xyz[:, 0].max(), pts.xyz[:, 1].max()
    cw, ch = (xmax - xmin) / g, (ymax - ymin) / g
    if cw < 1e-9 or ch < 1e-9:
        return Scene(scene.id, pts.copy(), list(scene.gt_boxes), list(scene.gt_classes))

    def cell_of(x, y):
        return (
            int(np.clip(math.floor((x - xmin) / cw), 0, g - 1)),
            int(np.clip(math.floor((y - ymin) / ch), 0, g - 1)),
        )

    occupancy = np.zeros((g, g), dtype=int)
    blocked = np.zeros((g, g), dtype=bool)
    box_patch: list[tuple[int, int] | None] = []  # patch fully containing the box, if any
    for box in scene.gt_boxes:
        corners = box.corners_bev()
        i0, j0 = cell_of(corners[:, 0].min(), corners[:, 1].min())
        i1, j1 = cell_of(corners[:, 0].max(), corners[:, 1].max())
        occupancy[i0 : i1 + 1, j0 : j1 + 1] += 1
        if (i0, j0) == (i1, j1):
            box_patch.append((i0, j0))
        else:
            box_patch.append(None)
            blocked[i0 : i1 + 1, j0 : j1 + 1] = True
    blocked |= occupancy >= 2

    rng = np.random.default_rng(rng_seed)
    dest = {(i, j): (i, j) for i in range(g) for j in range(g)}
    for occ_level in (0, 1):
        group = [
            (i, j)
            for i in range(g)
            for j in range(g)
            if not blocked[i, j] and occupancy[i, j] == occ_level
        ]
        perm = rng.permutation(len(group))
        for src_idx, dst_idx in enumerate(perm):
            dest[group[src_idx]] = group[dst_idx]

    xyz = pts.xyz.copy()
    ix = np.clip(np.floor((xyz[:, 0] - xmin) / cw).astype(int), 0, g - 1)
    iy = np.clip(np.floor((xyz[:, 1] - ymin) / ch).astype(int), 0, g - 1)
    dx = np.zeros((g, g))
    dy = np.zeros((g, g))
    for (i, j), (ti, tj) in dest.items():
        dx[i, j] = (ti - i) * cw
        dy[i, j] = (tj - j) * ch
    xyz[:, 0] += dx[ix, iy]
    xyz[:, 1] += dy[ix, iy]

    new_boxes = []
    for box, patch in zip(scene.gt_boxes, box_patch):
        if patch is None or dest[patch] == patch:
            new_boxes.append(box)
        else:
            ti, tj = dest[patch]
            i, j = patch
            new_boxes.append(
                Box3D(box.cx + (ti - i) * cw, box.cy + (tj - j) * ch, box.cz,
                      box.w, box.h, box.l, box.r)
            )
    return Scene(scene.id, PointCloud(xyz, pts.intensity.copy()), new_boxes, list(scene.gt_classes))


def _pca_axes(xy: np.ndarray, weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(major, minor) unit axes of a planar point set."""
    if weights is None:
        weights = np.ones(len(xy))
    total = weights.sum()
    mu = (weights @ xy) / total
    centered = xy - mu
    cov = (centered * weights[:, None]).T @ centered / total
    _, vecs = np.linalg.eigh(cov)  # ascending eigenvalues
    return vecs[:, 1], vecs[:, 0]


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


def detections(rows: SceneDetections) -> list[Detection]:
    """A scene's detection rows viewed as :class:`Detection` objects, as
    ``detect_batch`` built them before it returned rows: each box the
    :class:`Box3D` of its row, its channel boxes lists of Python floats, its
    class scores its row of the scores and its objectness a Python float."""
    return [Detection(Box3D(*box), chans, scores, obj) for box, chans, scores, obj in zip(
        rows.boxes.tolist(), rows.channel_boxes.tolist(), rows.class_scores,
        rows.objectness.tolist())]


def scene_detections(dets: Sequence[Detection]) -> SceneDetections:
    """The rows of one scene's :class:`Detection` list, all of one channel
    count: the inverse of :func:`detections`."""
    if not dets:
        return SceneDetections(np.zeros((0, BOX_DIM)), np.zeros((0, 1, BOX_DIM)),
                               np.zeros((0, len(CLASS_NAMES) + 1)), np.zeros(0))
    return SceneDetections(box_rows([d.box for d in dets]),
                           np.array([box_rows(d.per_channel_boxes) for d in dets]),
                           np.array([d.class_scores for d in dets], dtype=np.float64),
                           np.array([d.objectness for d in dets], dtype=np.float64))


def match_detections(
    det_boxes: list[Box3D],
    det_scores: list[float],
    gt_boxes: list[Box3D],
    iou_thresh: float,
) -> tuple[list[bool], list[tuple[int, int]]]:
    """Greedy same-class matching within one scene, one class at a time.

    Detections are visited in descending confidence (ties keep input order);
    each claims its highest-IoU unmatched ground-truth box if the IoU reaches
    the threshold (ties break toward the lower GT index). Returns TP flags in
    visit order plus (detection index, GT index) pairs.
    """
    order = sorted(range(len(det_boxes)), key=lambda i: (-det_scores[i], i))
    taken: set[int] = set()
    flags: list[bool] = []
    pairs: list[tuple[int, int]] = []
    matches = best_match(box_rows(det_boxes)[order], box_rows(gt_boxes), skip=taken)
    for di, (iou, gi) in zip(order, matches):
        if gi >= 0 and iou >= iou_thresh:
            taken.add(gi)
            flags.append(True)
            pairs.append((di, gi))
        else:
            flags.append(False)
    return flags, pairs


def classwise_evaluate_scenes(dets_per_scene, scenes) -> EvalResult:
    """:func:`cadet3d.evaluation.evaluate_scenes` as it ran before it scored
    scene by scene and each scene in one pass: class in the outer loop, so
    it reads every scene's :class:`SceneDetections` once per class, as
    :func:`detections`, and matches each class with
    :func:`match_detections`."""
    result = EvalResult()
    for cls_id, iou_thresh in enumerate(IOU_THRESHOLDS, start=1):
        scored: list[tuple[float, int, int, bool]] = []
        n_gt = 0
        for si, (rows, scene) in enumerate(zip(dets_per_scene, scenes, strict=True)):
            gts = [b for b, c in zip(scene.gt_boxes, scene.gt_classes) if c == cls_id]
            n_gt += len(gts)
            sub = [d for d in detections(rows) if d.predicted_class == cls_id]
            flags, _ = match_detections(
                [d.box for d in sub],
                [d.confidence for d in sub],
                gts,
                iou_thresh,
            )
            confs = sorted((d.confidence for d in sub), reverse=True)
            for di, (conf, flag) in enumerate(zip(confs, flags)):
                scored.append((conf, si, di, flag))
        scored.sort(key=lambda t: (-t[0], t[1], t[2]))
        result.ap[cls_id] = ap40([t[3] for t in scored], n_gt)
    return result


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


def unique_three_partition(values) -> np.ndarray | None:
    """:func:`cadet3d.selftrain.optimal_three_partition` as it counted
    distinct values before, with ``np.unique``."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    if n < 3 or len(np.unique(xs)) < 3:
        return None
    s1 = np.concatenate([[0.0], np.cumsum(xs)])
    s2 = np.concatenate([[0.0], np.cumsum(xs * xs)])

    def seg_sse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        cnt = b - a
        tot = s1[b] - s1[a]
        return (s2[b] - s2[a]) - tot * tot / cnt

    best = (math.inf, -1, -1)
    for i in range(1, n - 1):
        j = np.arange(i + 1, n)
        left = float(seg_sse(np.array([0]), np.array([i]))[0])
        mid = seg_sse(np.full_like(j, i), j)
        right = seg_sse(j, np.full_like(j, n))
        total = left + mid + right
        k = int(np.argmin(total))
        if total[k] < best[0] - 1e-15:
            best = (float(total[k]), i, int(j[k]))
    _, i, j = best
    return np.array([xs[:i].mean(), xs[i:j].mean(), xs[j:].mean()])


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
    nx, ny = base.shape
    xs = base.origin_xy[0] + (np.arange(nx) + 0.5) * base.voxel_size
    ys = base.origin_xy[1] + (np.arange(ny) + 0.5) * base.voxel_size
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    centers = np.stack([gx.ravel(), gy.ravel()], axis=1)
    t1_inv = invert(transforms[0])
    fused = base.features.reshape(-1, base.features.shape[2])
    for grid, t in zip(grids[1:], transforms[1:]):
        xy = transform_xy(compose(t, t1_inv), centers)
        fused = np.maximum(fused, dense_bilinear(grid.features, grid.origin_xy, grid.voxel_size, xy))
    return fused.reshape(base.features.shape)


def flood_fill_components(occ: np.ndarray) -> list[np.ndarray]:
    """8-connected components of a boolean grid by a depth-first flood fill
    from each unseen cell in row-major order; cells sorted in each."""
    seen = np.zeros_like(occ, dtype=bool)
    comps = []
    cells = np.argwhere(occ)
    occ_set = set(map(tuple, cells))
    for i, j in cells:
        if seen[i, j]:
            continue
        stack = [(int(i), int(j))]
        seen[i, j] = True
        comp = []
        while stack:
            ci, cj = stack.pop()
            comp.append((ci, cj))
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    ni, nj = ci + di, cj + dj
                    if (ni, nj) in occ_set and not seen[ni, nj]:
                        seen[ni, nj] = True
                        stack.append((ni, nj))
        comps.append(np.array(sorted(comp)))
    return comps


def dense_roi_features(box: Box3D, grid) -> np.ndarray:
    """RoI features with every voxel tested against the enlarged box and the
    occupied columns counted by ``np.unique``."""
    enlarged = Box3D(box.cx, box.cy, box.cz, box.w * ROI_ENLARGE,
                     box.h * ROI_ENLARGE, box.l * ROI_ENLARGE, box.r)
    phi = np.zeros(N_FEATURES)
    phi[11] = 1.0
    centers = grid.centers
    mask = points_in_box(enlarged, centers, strict=False)
    if not mask.any():
        return phi
    counts = grid.counts[mask]
    zs = centers[mask, 2]
    npts = float(counts.sum())
    n_cells = int(mask.sum())
    n_cols = len(np.unique(grid.coords[mask][:, 0] * grid.cfg.ny + grid.coords[mask][:, 1]))
    cell_z = grid.mean_z[mask]
    mean_h = float(counts @ cell_z) / npts
    var_h = float(counts @ (cell_z - mean_h) ** 2) / npts
    xy = centers[mask, :2]
    major, minor = _pca_axes(xy, counts)
    mu = (counts @ xy) / npts
    voxel = grid.cfg.voxel_size
    phi[0] = math.log1p(npts)
    phi[1] = min(1.0, n_cols * voxel * voxel / (enlarged.w * enlarged.l))
    phi[2] = mean_h
    phi[3] = math.sqrt(var_h)
    phi[4] = float(np.ptp((xy - mu) @ major)) + voxel
    phi[5] = float(np.ptp((xy - mu) @ minor)) + voxel
    phi[6] = float(np.ptp(zs)) + voxel
    phi[7] = float(counts @ grid.mean_intensity[mask]) / npts
    phi[8] = math.hypot(box.cx, box.cy) / 100.0
    phi[9] = min(box.w, box.l) / max(box.w, box.l)
    phi[10] = npts / n_cells
    return phi


def dense_propose(fused) -> np.ndarray:
    """Proposals as ``detector.propose`` returns them: the occupied cells from
    a scan of the dense features, components by :func:`flood_fill_components`,
    and one box and feature fit per component."""
    features = fused.features
    voxel = fused.voxel_size
    rows = []
    for comp in flood_fill_components(features[:, :, BEV_MAX_OCC] >= MIN_OCC):
        if len(comp) < MIN_CELLS:
            continue
        xy = np.asarray(fused.origin_xy) + (comp + 0.5) * voxel
        feats = features[comp[:, 0], comp[:, 1]]
        major, minor = _pca_axes(xy)
        mu = xy.mean(axis=0)
        pu = (xy - mu) @ major
        pv = (xy - mu) @ minor
        length = float(np.ptp(pu)) + voxel + PADDING
        width = float(np.ptp(pv)) + voxel + PADDING
        z_top = float(feats[:, BEV_MAX_HEIGHT].max())
        h = max(z_top + 0.5 * voxel - fused.z_origin, voxel)
        box = Box3D(float(mu[0]), float(mu[1]), fused.z_origin + 0.5 * h, width, h, length,
                    math.atan2(major[1], major[0]))
        count = float(feats[:, BEV_MAX_OCC].sum())
        phi = np.zeros(N_FEATURES)
        phi[0] = math.log1p(count)
        phi[1] = min(1.0, len(comp) * voxel * voxel / (box.w * box.l))
        phi[2] = float(feats[:, BEV_MAX_HEIGHT].mean())
        phi[3] = float(feats[:, BEV_MAX_HEIGHT].std())
        phi[4] = float(np.ptp(pu)) + voxel
        phi[5] = float(np.ptp(pv)) + voxel
        phi[6] = box.h
        phi[8] = math.hypot(box.cx, box.cy) / 100.0
        phi[9] = min(box.w, box.l) / max(box.w, box.l)
        phi[10] = count / len(comp)
        phi[11] = 1.0
        rows.append(np.concatenate([box.as_array(), phi]))
    return np.array(rows).reshape(-1, BOX_DIM + N_FEATURES)


def stacked_segment_pca(centered: np.ndarray, weights, start: np.ndarray, sizes: np.ndarray,
                        total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``detector._segment_pca`` on stacked rows: the covariance sums as one
    ``reduceat`` over a (N, 3) stack, and the projections as a length-2 axis
    sum of (N, 2, 2) products against the eigenvectors repeated per point.
    ``centered`` holds the (N, 2) offsets."""
    wx, wy = weights * centered[:, 0], weights * centered[:, 1]
    sums = np.add.reduceat(np.column_stack([wx * centered[:, 0], wx * centered[:, 1],
                                            wy * centered[:, 1]]), start) / total[:, None]
    _, vecs = np.linalg.eigh(sums[:, [0, 1, 1, 2]].reshape(-1, 2, 2))
    axes = np.repeat(vecs[:, :, ::-1], sizes, axis=0)
    proj = (centered[:, :, None] * axes).sum(axis=1).T  # (2, N): major, minor
    return vecs, np.maximum.reduceat(proj, start, axis=1) - np.minimum.reduceat(proj, start, axis=1)


def stacked_propose(fused: BevGrid) -> Proposals:
    """``detector.propose`` with its segment sums taken as one ``reduceat``
    over stacked (N, 4) columns and its fit by :func:`stacked_segment_pca`."""
    occupied = fused.values[:, BEV_MAX_OCC] >= MIN_OCC
    flat, values = fused.cells[occupied], fused.values[occupied]
    ny = fused.shape[1]
    order, start = _connected_components(flat + flat // fused.plane_size * ny, ny)
    sizes = np.diff(start, append=len(flat))
    big = sizes >= MIN_CELLS
    raw = np.zeros((int(big.sum()), BOX_DIM + N_FEATURES))
    if not len(raw):
        return Proposals(raw, np.zeros(0, dtype=np.int64))
    idx = order[np.repeat(big, sizes)]
    n_cells = sizes[big]
    start = np.cumsum(n_cells) - n_cells
    xy, z = fused.cell_xy(flat[idx]), values[idx, BEV_MAX_HEIGHT]
    sums = np.add.reduceat(np.column_stack([xy, values[idx]]), start)  # x, y, BEV features
    mean = sums[:, :2] / n_cells[:, None]
    count = sums[:, 2 + BEV_MAX_OCC]
    height = sums[:, 2 + BEV_MAX_HEIGHT] / n_cells
    spread = np.sqrt(np.add.reduceat((z - np.repeat(height, n_cells)) ** 2, start) / n_cells)
    centered = xy - np.repeat(mean, n_cells, axis=0)
    vecs, extent = stacked_segment_pca(centered, 1.0, start, n_cells, n_cells)
    voxel = fused.voxel_size
    length = extent[0] + voxel + PADDING
    width = extent[1] + voxel + PADDING
    z_top = np.maximum.reduceat(z, start)
    h = np.maximum(z_top + 0.5 * voxel - fused.z_origin, voxel)
    raw[:, :BOX_DIM] = np.column_stack([
        mean, fused.z_origin + 0.5 * h, width, h, length,
        wrap_angles(np.arctan2(vecs[:, 1, 1], vecs[:, 0, 1]))])
    phi = raw[:, BOX_DIM:]
    phi[:, 0] = np.log1p(count)
    phi[:, 1] = np.minimum(1.0, n_cells * voxel * voxel / (width * length))
    phi[:, 2] = height
    phi[:, 3] = spread
    phi[:, 4] = extent[0] + voxel
    phi[:, 5] = extent[1] + voxel
    phi[:, 6] = h
    phi[:, 8] = np.hypot(mean[:, 0], mean[:, 1]) / 100.0
    phi[:, 9] = np.minimum(width, length) / np.maximum(width, length)
    phi[:, 10] = count / n_cells
    phi[:, 11] = 1.0
    return Proposals(raw, flat[idx[start]] // fused.plane_size)


def stacked_roi_features(anchors: np.ndarray, grid, slot=None) -> np.ndarray:
    """``detector.roi_features`` with each candidate voxel's offset from its
    RoI center taken as (P, 3) row gathers, the weighted sums as one
    ``reduceat`` over stacked (P, 5) columns, and the extents by
    :func:`stacked_segment_pca`."""
    phi = np.zeros((len(anchors), N_FEATURES))
    phi[:, 11] = 1.0
    cx, cy, _, w, h, l, r = anchors.T
    w_e, h_e, l_e = w * ROI_ENLARGE, h * ROI_ENLARGE, l * ROI_ENLARGE
    cfg = grid.cfg
    centers = grid.centers
    x_centers = cfg.origin[0] + (np.arange(cfg.nx) + 0.5) * cfg.voxel_size
    reach = 0.5 * np.hypot(w_e, l_e) + 1e-6
    key = grid.slot * cfg.nx + grid.coords[:, 0]
    first = 0 if slot is None else slot * cfg.nx
    lo = np.searchsorted(key, first + np.searchsorted(x_centers, cx - reach))
    n_cand = np.searchsorted(key, first + np.searchsorted(x_centers, cx + reach)) - lo
    roi = np.repeat(np.arange(len(anchors)), n_cand)
    vox = np.arange(len(roi)) + np.repeat(lo - np.cumsum(n_cand) + n_cand, n_cand)
    near = np.flatnonzero(np.abs(centers[vox, 1] - cy[roi]) <= reach[roi])
    roi, vox = roi[near], vox[near]
    cos, sin = np.cos(r)[roi], np.sin(r)[roi]
    d = centers[vox] - anchors[roi, :3]
    u = cos * d[:, 0] + sin * d[:, 1]
    v = -sin * d[:, 0] + cos * d[:, 1]
    keep = np.flatnonzero((np.abs(u) <= 0.5 * l_e[roi]) & (np.abs(v) <= 0.5 * w_e[roi])
                          & (np.abs(d[:, 2]) <= 0.5 * h_e[roi]))
    roi, idx = roi[keep], vox[keep]
    if not len(roi):
        return phi
    n_cells = np.bincount(roi, minlength=len(anchors))
    hit = np.flatnonzero(n_cells)
    n_cells = n_cells[hit]
    start = np.cumsum(n_cells) - n_cells
    counts = grid.counts[idx]
    col = grid.coords[idx, 0] * cfg.ny + grid.coords[idx, 1]
    new_col = np.ones(len(idx), dtype=bool)
    new_col[1:] = col[1:] != col[:-1]
    new_col[start] = True
    n_cols = np.add.reduceat(new_col, start)
    zs, cell_z, xy = centers[idx, 2], grid.mean_z[idx], centers[idx, :2]
    sums = np.add.reduceat(np.column_stack(
        [counts, counts * cell_z, counts * grid.mean_intensity[idx], counts[:, None] * xy]), start)
    npts = sums[:, 0]
    mean_h = sums[:, 1] / npts
    var_h = np.add.reduceat(counts * (cell_z - np.repeat(mean_h, n_cells)) ** 2, start) / npts
    centered = xy - np.repeat(sums[:, 3:] / npts[:, None], n_cells, axis=0)
    _, extent = stacked_segment_pca(centered, counts, start, n_cells, npts)
    voxel = cfg.voxel_size
    phi[hit, 0] = np.log1p(npts)
    phi[hit, 1] = np.minimum(1.0, n_cols * voxel * voxel / (w_e[hit] * l_e[hit]))
    phi[hit, 2] = mean_h
    phi[hit, 3] = np.sqrt(var_h)
    phi[hit, 4] = extent[0] + voxel
    phi[hit, 5] = extent[1] + voxel
    phi[hit, 6] = np.maximum.reduceat(zs, start) - np.minimum.reduceat(zs, start) + voxel
    phi[hit, 7] = sums[:, 2] / npts
    phi[hit, 8] = np.hypot(cx[hit], cy[hit]) / 100.0
    phi[hit, 9] = np.minimum(w[hit], l[hit]) / np.maximum(w[hit], l[hit])
    phi[hit, 10] = npts / n_cells
    return phi


def scalar_best_match(box: Box3D, candidates, skip=()) -> tuple[float, int]:
    """(3D IoU, index) of the candidate overlapping ``box`` most, by the exact
    IoU of every pair; ties to the earliest index, (0.0, -1) for no overlap."""
    best_iou, best_idx = 0.0, -1
    for idx, cand in enumerate(candidates):
        if idx in skip:
            continue
        iou = iou_3d(box, cand)
        if iou > best_iou:
            best_iou, best_idx = iou, idx
    return best_iou, best_idx


def scalar_channel_iou_consistency(boxes) -> float:
    """Mean ``iou_3d`` over the pairs of a detection's channel boxes, one pair
    at a time: channel i against each later channel j, summed in that order;
    1.0 for fewer than two channels."""
    if len(boxes) < 2:
        return 1.0
    total, pairs = 0.0, 0
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            total += iou_3d(boxes[i], boxes[j])
            pairs += 1
    return total / pairs


def scalar_stratify(pseudo_boxes, thr):
    """``stratify`` one pseudo-box at a time: low when any criterion is below
    its low boundary, else high when every criterion reaches its high
    boundary, else ambiguous with weight p_hat * o_hat."""
    out = []
    for pb in pseudo_boxes:
        t = thr[pb.cls] if isinstance(thr, dict) else thr
        scores = {name: getattr(pb, name) for name in CRITERIA}
        if any(scores[name] < getattr(t, name)[0] for name in CRITERIA):
            level, weight = LEVEL_LOW, 0.0
        elif all(scores[name] >= getattr(t, name)[1] for name in CRITERIA):
            level, weight = LEVEL_HIGH, 1.0
        else:
            level, weight = LEVEL_AMBIGUOUS, pb.p_hat * pb.o_hat
        out.append(replace(pb, level=level, weight=weight))
    return out


def classwise_threshold_bank(pseudo_boxes, num_classes, previous=None, *, min_score):
    """``fit_threshold_bank`` as ``fit_dual_thresholds`` of each class's
    pseudo-boxes."""
    previous = previous or {}
    return {cls_id: fit_dual_thresholds([pb for pb in pseudo_boxes if pb.cls == cls_id],
                                        previous.get(cls_id), min_score=min_score)
            for cls_id in range(1, num_classes + 1)}


def scalar_pseudo_quality(pseudo_boxes, gt_boxes, gt_classes) -> tuple[int, int]:
    """One scene's ``(prefilter, postfilter)`` incorrect pseudo-box counts,
    each pseudo-box matched by :func:`scalar_best_match`."""
    prefilter = postfilter = 0
    for pb in pseudo_boxes:
        iou, gi = scalar_best_match(pb.box, gt_boxes)
        if gi < 0 or gt_classes[gi] != pb.cls or iou < IOU_THRESHOLDS[pb.cls - 1]:
            prefilter += 1
            if pb.level in (LEVEL_HIGH, LEVEL_AMBIGUOUS):
                postfilter += 1
    return prefilter, postfilter


def scalar_nms(dets, iou_thresh: float) -> list[int]:
    """Greedy suppression of (box, score) pairs by the exact BEV IoU of every
    pair; kept indices in descending score, ties to the earlier index."""
    for _, score in dets:
        if not math.isfinite(score):
            raise ValueError("nms scores must be finite")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    kept: list[int] = []
    for i in order:
        if all(iou_bev(dets[i][0], dets[j][0]) < iou_thresh for j in kept):
            kept.append(i)
    return kept


def scalar_average_boxes(boxes) -> Box3D:
    """Mean center and sizes, circular mean yaw, from a stacked (C, 7) array."""
    arr = np.stack([b.as_array() for b in boxes])
    mean = arr[:, :6].mean(axis=0)
    r = math.atan2(np.sin(arr[:, 6]).sum(), np.cos(arr[:, 6]).sum())
    return Box3D(mean[0], mean[1], mean[2], mean[3], mean[4], mean[5], wrap_angle(r))


def scalar_softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def scalar_sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def scalar_encode_residual(target: Box3D, anchor: Box3D) -> np.ndarray:
    d = math.hypot(anchor.w, anchor.l)
    return np.array([(target.cx - anchor.cx) / d, (target.cy - anchor.cy) / d,
                     (target.cz - anchor.cz) / anchor.h, math.log(target.w / anchor.w),
                     math.log(target.h / anchor.h), math.log(target.l / anchor.l),
                     wrap_angle(target.r - anchor.r)])


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def scalar_decode_residual(res: np.ndarray, anchor: Box3D) -> Box3D:
    d = math.hypot(anchor.w, anchor.l)
    return Box3D(anchor.cx + float(res[0]) * d, anchor.cy + float(res[1]) * d,
                 anchor.cz + float(res[2]) * anchor.h, anchor.w * _exp(float(res[3])),
                 anchor.h * _exp(float(res[4])), anchor.l * _exp(float(res[5])),
                 wrap_angle(anchor.r + float(res[6])))


@dataclass
class ScalarProposal:
    box: Box3D
    class_scores: np.ndarray
    feature: np.ndarray
    anchors: list
    channel_features: np.ndarray


def _box_list(rows) -> list:
    return [Box3D(*(float(v) for v in row)) for row in rows]


def scalar_score_proposals(enc, params) -> list:
    """Proposal NMS survivors, each proposal scored and boxed on its own."""
    boxes = _box_list(enc.boxes)
    scores = [scalar_softmax(params.w_cls @ (phi / FEATURE_SCALE)) for phi in enc.features]
    keep = scalar_nms([(b, float(sc[1:].max())) for b, sc in zip(boxes, scores)],
                      PROPOSAL_NMS_IOU)
    return [ScalarProposal(boxes[i], scores[i], enc.features[i], _box_list(enc.anchors[i]),
                           enc.channel_features[i]) for i in keep]


def scalar_refine(proposals, transforms, params) -> list:
    """Detections decoded, back-transformed and averaged one box at a time."""
    inv_backs = [invert(t) for t in transforms]
    dets = []
    for prop in proposals:
        k = int(prop.class_scores[1:].argmax())
        channel_boxes, obj_scores = [], []
        for anchor, feature, back in zip(prop.anchors, prop.channel_features, inv_backs):
            phi = feature / FEATURE_SCALE
            decoded = scalar_decode_residual(params.w_reg[k] @ phi, anchor)
            channel_boxes.append(scalar_apply_box(back, decoded))
            obj_scores.append(scalar_sigmoid(float(params.w_obj[k] @ phi)))
        dets.append(Detection(scalar_average_boxes(channel_boxes), channel_boxes,
                              prop.class_scores.copy(), float(np.mean(obj_scores))))
    return dets


def scalar_detect(enc, params) -> list:
    dets = scalar_refine(scalar_score_proposals(enc, params), enc.transforms, params)
    keep = scalar_nms([(d.box, d.confidence) for d in dets], FINAL_NMS_IOU)
    return [dets[i] for i in keep]


def scalar_build_training_examples(enc, target_boxes, target_classes, target_weights,
                                   params, background_weight=1.0) -> list:
    t1_inv = invert(enc.transforms[0])
    examples = []
    for prop in scalar_score_proposals(enc, params):
        iou, idx = scalar_best_match(scalar_apply_box(t1_inv, prop.box), target_boxes)
        if idx >= 0 and iou >= MATCH_IOU:
            targets = [align_yaw_to_anchor(scalar_apply_box(t, target_boxes[idx]), anchor)
                       for t, anchor in zip(enc.transforms, prop.anchors)]
            target_class, weight = target_classes[idx], float(target_weights[idx])
        else:
            targets, target_class, weight = None, 0, background_weight
        examples.append(TrainExample(prop.feature, list(prop.channel_features), prop.anchors,
                                     targets, target_class, weight))
    return examples


def scalar_loss_and_grads(params, batch):
    """Losses and gradients one example and channel at a time; anchors and
    targets may be :class:`Box3D` lists or (C, 7) rows."""
    g_cls = np.zeros_like(params.w_cls)
    g_obj = np.zeros_like(params.w_obj)
    g_reg = np.zeros_like(params.w_reg)
    l_cls = l_reg = l_obj = 0.0
    n = max(len(batch), 1)
    n_fg = max(sum(1 for ex in batch if ex.target_class > 0), 1)
    for ex in batch:
        w = ex.weight
        phi_c = ex.cls_feature / FEATURE_SCALE
        probs = scalar_softmax(params.w_cls @ phi_c)
        l_cls += -w * math.log(max(float(probs[ex.target_class]), 1e-300)) / n
        dlogits = probs.copy()
        dlogits[ex.target_class] -= 1.0
        g_cls += (w / n) * np.outer(dlogits, phi_c)
        if ex.target_class > 0:
            k = ex.target_class - 1
            scale = w / (n_fg * max(len(ex.channel_features), 1))
            for phi_raw, anchor, target in zip(ex.channel_features, _box_list(ex.anchors),
                                               _box_list(ex.targets)):
                phi = phi_raw / FEATURE_SCALE
                res_pred = params.w_reg[k] @ phi
                val, dval = _smooth_l1(res_pred - scalar_encode_residual(target, anchor))
                l_reg += scale * REG_LOSS_WEIGHT * float(val.sum())
                g_reg[k] += scale * REG_LOSS_WEIGHT * np.outer(dval, phi)
                iou_target = iou_3d(scalar_decode_residual(res_pred, anchor), target)
                o = scalar_sigmoid(float(params.w_obj[k] @ phi))
                l_obj += scale * (o - iou_target) ** 2
                g_obj[k] += scale * 2.0 * (o - iou_target) * o * (1.0 - o) * phi
    return TrainLosses(cls=l_cls, reg=l_reg, obj=l_obj), (g_cls, g_obj, g_reg)


def stepwise_ssl_epoch(
    state: SslState,
    labeled: list[Scene],
    unlabeled: list[tuple[Scene, SceneEncoding]],
    cfg: RunConfig,
    read_cloud: Callable[[str], PointCloud],
    val: Sequence[tuple[Scene, SceneEncoding]] = (),
) -> EpochMetrics:
    """:func:`cadet3d.selftrain.ssl_epoch` as it ran before its student steps
    were batched: each step draws its strong channels and encodes its target
    alone, right before it trains, so nothing of a later step is built first.
    """
    metrics = EpochMetrics(epoch=state.epoch)

    teacher_dets = [detections(detect(enc, state.teacher)) for _, enc in unlabeled]
    pseudo_sets = [[PseudoBox(d.box, d.predicted_class, d.p_hat, d.objectness,
                              channel_iou_consistency(d)) for d in dets]
                   for dets in teacher_dets]

    if state.epoch % cfg.threshold_period == 0 or state.thresholds is None:
        state.thresholds = classwise_threshold_bank(
            [pb for group in pseudo_sets for pb in group],
            num_classes=len(CLASS_NAMES),
            previous=state.thresholds,
            min_score=cfg.prefilter_min_score,
        )
    thr = state.thresholds

    # Unlabeled and labeled steps interleave 1:1 (the labeled set cycles, with
    # fresh strong channels per visit); the labeled anchor must stay in the
    # gradient mix or pseudo-label class noise can snowball through the EMA
    # teacher faster than a trailing supervised phase can undo.
    unsup = LossTotals()
    sup = LossTotals()

    def student_step(kind: str, target: Scene, weights: list[float], idx: int, tag: int,
                     background_weight: float) -> TrainLosses | None:
        """Strong-channel student step on ``target``'s boxes, then the EMA update."""
        transforms = strong_channels(cfg, scene_seed(cfg.seed, state.epoch, idx, tag))
        enc = encode(target.cloud, transforms)
        try:
            losses = train_on_scene(enc, target.gt_boxes, target.gt_classes, weights,
                                    state.student, background_weight)
        except NonFiniteLossError as exc:
            raise NonFiniteLossError(f"{kind} scene {target.id}: {exc}") from exc
        if losses is not None:
            ema_update(state.teacher, state.student, cfg.ema_momentum)
        return losses

    def labeled_step(scene: Scene, idx: int) -> None:
        target = Scene(scene.id, read_cloud(scene.id), scene.gt_boxes, scene.gt_classes)
        sup.add(student_step("labeled", target, [1.0] * len(scene.gt_boxes), idx, 2, 1.0))

    for idx, ((scene, _), pseudo) in enumerate(zip(unlabeled, pseudo_sets)):
        strat = scalar_stratify(pseudo, thr)
        metrics.n_pseudo += len(strat)
        metrics.n_high += sum(pb.level == LEVEL_HIGH for pb in strat)
        metrics.n_ambiguous += sum(pb.level == LEVEL_AMBIGUOUS for pb in strat)
        metrics.n_low += sum(pb.level == LEVEL_LOW for pb in strat)
        if scene.gt_boxes:
            prefilter, postfilter = scalar_pseudo_quality(strat, scene.gt_boxes, scene.gt_classes)
            metrics.incorrect_prefilter += prefilter
            metrics.incorrect_postfilter += postfilter
        low_boxes = [pb.box for pb in strat if pb.level == LEVEL_LOW]
        kept = [pb for pb in strat if pb.level != LEVEL_LOW]
        # the pseudo-labelled view: hidden ground truth stays on ``scene``
        target = Scene(
            scene.id,
            remove_low_level_points(read_cloud(scene.id), low_boxes),
            [pb.box for pb in kept],
            [pb.cls for pb in kept],
        )
        if cfg.shuffle_grid_cells >= 2:
            target = shuffle_augment(
                target, cfg.shuffle_grid_cells, scene_seed(cfg.seed, state.epoch, idx, 1)
            )
        unsup.add(student_step("unlabeled", target, [pb.weight for pb in kept], idx, 0,
                               cfg.unsup_background_weight))
        if labeled:
            labeled_step(labeled[idx % len(labeled)], idx)

    if not unlabeled:
        for idx, scene in enumerate(labeled):
            labeled_step(scene, idx)

    metrics.unsup_cls, metrics.unsup_reg, metrics.unsup_obj, metrics.unsup_total = unsup.means()
    metrics.sup_cls, metrics.sup_reg, metrics.sup_obj, metrics.sup_total = sup.means()
    # pairs the channel consistency evaluates: C(C, 2) per detection
    metrics.channel_pair_evals = sum(
        math.comb(len(d.per_channel_boxes), 2) for dets in teacher_dets for d in dets)
    # what the all-pairs baseline would evaluate: N^2 per scene
    metrics.pairing_pair_evals = sum(len(dets) ** 2 for dets in teacher_dets)
    # class-mean thresholds, as a compact diagnostic
    banks = list(thr.values())
    metrics.thr_p_low = float(np.mean([b.p_hat[0] for b in banks]))
    metrics.thr_p_high = float(np.mean([b.p_hat[1] for b in banks]))
    metrics.thr_o_low = float(np.mean([b.o_hat[0] for b in banks]))
    metrics.thr_o_high = float(np.mean([b.o_hat[1] for b in banks]))
    metrics.thr_iou_low = float(np.mean([b.iou_cons[0] for b in banks]))
    metrics.thr_iou_high = float(np.mean([b.iou_cons[1] for b in banks]))

    if val:
        result = detect_and_score(val, state.student, "val")
        # APs on the 100 scale in reports
        metrics.val_map = 100.0 * result.map
        metrics.val_ap_car = 100.0 * (result.ap.get(1) or 0.0)
        metrics.val_ap_pedestrian = 100.0 * (result.ap.get(2) or 0.0)
        metrics.val_ap_cyclist = 100.0 * (result.ap.get(3) or 0.0)

    state.epoch += 1
    return metrics
