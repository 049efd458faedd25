"""Independent reference implementations used as test oracles.

These deliberately avoid the library's computational paths: IoU by Monte
Carlo point sampling, average precision by direct prefix enumeration,
three-way partitioning by exhaustive search, BEV alignment by a dense
bilinear lookup that gathers and weights every query point, connected
components by a flood fill, RoI pooling by a test of every voxel,
proposals by a scan of every BEV cell and a box fit per component, NMS and
best-match by the exact IoU of every pair, and scoring and training one
proposal, channel, example and box at a time with ``math`` functions.
"""
from __future__ import annotations

import math

import numpy as np

from dataclasses import dataclass

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
    TrainExample,
    TrainLosses,
    _smooth_l1,
    align_yaw_to_anchor,
)
from cadet3d.geometry import (
    Box3D,
    apply_box,
    compose,
    invert,
    iou_3d,
    iou_bev,
    points_in_box,
    transform_xy,
    wrap_angle,
)
from cadet3d.voxels import BEV_MAX_HEIGHT, BEV_MAX_OCC


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
            channel_boxes.append(apply_box(back, decoded))
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
        iou, idx = scalar_best_match(apply_box(t1_inv, prop.box), target_boxes)
        if idx >= 0 and iou >= MATCH_IOU:
            targets = [align_yaw_to_anchor(apply_box(t, target_boxes[idx]), anchor)
                       for t, anchor in zip(enc.transforms, prop.anchors)]
            target_class, weight = target_classes[idx], float(target_weights[idx])
        else:
            targets, target_class, weight = None, 0, background_weight
        examples.append(TrainExample(prop.feature, list(prop.channel_features), prop.anchors,
                                     targets, target_class, weight))
    return examples


def scalar_loss_and_grads(params, batch):
    """Losses and gradients one example and channel at a time."""
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
            for phi_raw, anchor, target in zip(ex.channel_features, ex.anchors, ex.targets):
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
