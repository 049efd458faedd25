"""Lightweight multi-channel detector.

Structure: per-channel occupancy voxel grids, aligned/max-pooled BEV fusion,
a geometric proposer (connected components + PCA box fit, all components in
one batched pass) with a learned linear classifier, per-channel RoI pooling
(one batched pass over all proposals per channel grid) feeding linear
objectness and residual-regression heads, and back-transformed averaging into
detections.
The learned region-proposal stage of full-scale detectors is deliberately
replaced by the geometric proposer so every head stays a linear map over a
fixed 12-component feature vector.

Detection runs in two parts. :func:`encode` takes a cloud and its channel
transforms and does everything that reads no weights: channel clouds, voxel
grids, the fused BEV, the raw proposals and the RoI features pooled for every
raw proposal in every channel. It returns a read-only :class:`SceneEncoding`.
Scoring (:func:`detect`, :func:`build_training_examples`) reads the weights:
the proposal class scores, proposal NMS, the heads and the final NMS. The weak
channel transforms are fixed, so one encoding of a scene serves every pass
over it.

Scoring runs on the encoding's arrays. :func:`score_proposals` returns the
indices of the proposals that survive NMS, and :func:`refine` indexes their
(K, C, 7) anchors and (K, C, F) features; decoding, back-transforms and the
channel average run over all rows at once. The calls whose bits depend on
being made alone stay one per row or value: each head's matvec, and
``math.exp``, ``hypot`` and ``atan2``. ``nms`` and ``best_match`` test exact
IoU only on the pairs that pass an array circumradius pre-reject. So scores
and boxes keep the bits of scoring one proposal, channel and box at a time.
:class:`Box3D` objects are built only for the detections :func:`detect`
returns and for training examples.

The detector is fixed, as in the paper, where experiments vary the channel
transforms and the dual thresholds but never the detector. Its settings
(voxel grid, proposal and RoI geometry, NMS and match IoUs, learning rate,
pretraining background weight) are the module constants below, so detection
reads only a cloud, its channel transforms and the weights.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import atomic_open
from .geometry import (
    Box3D,
    PointCloud,
    Transform,
    apply_boxes,
    apply_points,
    average_box_rows,
    best_match,
    box_rows,
    check_boxes,
    decode_residual,
    decode_residuals,
    encode_residual,
    invert,
    iou_3d,
    nms,
    relative_transforms,
    wrap_angle,
)
from .voxels import (
    BEV_MAX_HEIGHT,
    BEV_MAX_OCC,
    BevGrid,
    VoxelConfig,
    VoxelGrid,
    bev_align,
    bev_from_voxels,
    voxelize,
)

N_FEATURES = 12
BOX_DIM = 7

# feature vector layout (index: meaning)
#  0 log1p(point count)        6 z extent
#  1 BEV fill ratio            7 mean intensity
#  2 mean height               8 center distance / 100 m
#  3 height std                9 footprint aspect ratio (min/max)
#  4 PCA major extent         10 point density (points per occupied voxel)
#  5 PCA minor extent         11 bias, always 1


# Box-term loss weight; keeps the quadratic regression objective inside the
# stable step-size region for the shared learning rate.
REG_LOSS_WEIGHT = 0.2

# Fixed per-slot scale applied to features before every linear head (a
# preconditioner: heads learn W over phi/scale). Values are round numbers near
# each slot's typical spread so that SGD sees comparably sized coordinates.
FEATURE_SCALE = np.array([4.0, 0.5, 1.0, 0.3, 2.0, 1.0, 1.5, 0.5, 0.1, 0.5, 2.0, 1.0])

# The detector's fixed settings, tuned together with the two above.
VOXEL = VoxelConfig()  # every channel's voxel grid
MIN_OCC = 1.0  # BEV cells with at least this many points are occupied
MIN_CELLS = 3  # smaller occupied components are no proposal
PADDING = 0.1  # metres added to a proposal's fitted footprint
ROI_ENLARGE = 1.2  # RoI pooling box scale over the anchor
PROPOSAL_NMS_IOU = 0.5
FINAL_NMS_IOU = 0.1
MATCH_IOU = 0.3  # proposal-to-target 3D IoU a training RoI needs to be foreground
LEARNING_RATE = 0.1
BACKGROUND_WEIGHT = 0.3  # background-RoI weight of supervised pretraining


class NonFiniteLossError(RuntimeError):
    """A training step produced a non-finite loss; no update was applied."""


class ParamsFormatError(ValueError):
    """Parameter file exists but is incompatible (magic/version/shape)."""


@dataclass
class DetectorParams:
    """Linear head weights; teacher and student share these shapes."""

    w_cls: np.ndarray  # (C+1, F) proposal classifier, row 0 = background
    w_obj: np.ndarray  # (C, F) per-class objectness
    w_reg: np.ndarray  # (C, 7, F) per-class residual regressor
    lr: float

    @staticmethod
    def zeros(num_classes: int = 3, lr: float = LEARNING_RATE) -> "DetectorParams":
        return DetectorParams(
            w_cls=np.zeros((num_classes + 1, N_FEATURES)),
            w_obj=np.zeros((num_classes, N_FEATURES)),
            w_reg=np.zeros((num_classes, BOX_DIM, N_FEATURES)),
            lr=lr,
        )

    @property
    def num_classes(self) -> int:
        return self.w_obj.shape[0]

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w_cls, self.w_obj, self.w_reg)

    def copy(self) -> "DetectorParams":
        return DetectorParams(self.w_cls.copy(), self.w_obj.copy(), self.w_reg.copy(), self.lr)

    def same_shapes(self, other: "DetectorParams") -> bool:
        return all(a.shape == b.shape for a, b in zip(self.arrays(), other.arrays()))


@dataclass(frozen=True)
class SceneEncoding:
    """The parameter-free part of detection for one scene.

    K raw proposals (before NMS) in the channel-1 frame, C channels. Row k of
    ``anchors`` is proposal k mapped into each channel frame, and row k of
    ``channel_features`` holds the RoI features pooled at those anchors. The
    arrays are read-only and the transforms are frozen.
    """

    transforms: tuple[Transform, ...]  # (C,) channel transforms
    boxes: np.ndarray  # (K, 7) raw proposal boxes
    features: np.ndarray  # (K, F) proposal-classifier features
    anchors: np.ndarray  # (K, C, 7)
    channel_features: np.ndarray  # (K, C, F)

    def __post_init__(self) -> None:
        for arr in (self.boxes, self.features, self.anchors, self.channel_features):
            arr.setflags(write=False)


@dataclass
class Detection:
    box: Box3D  # the average of ``per_channel_boxes``
    per_channel_boxes: list[Box3D]  # canonical frame
    class_scores: np.ndarray
    objectness: float

    @property
    def p_hat(self) -> float:
        return float(self.class_scores[1:].max())

    @property
    def predicted_class(self) -> int:
        return int(self.class_scores[1:].argmax()) + 1

    @property
    def confidence(self) -> float:
        return self.p_hat * self.objectness


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _connected_components(flat: np.ndarray, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """8-connected components of the cells with ascending row-major flat
    indices ``flat`` on a grid ``ny`` cells wide.

    Returns ``(order, start)``: ``flat[order]`` lists the components in
    row-major seed order, each in ascending order, and component k begins at
    position ``start[k]``.

    Every cell starts labelled with its own position in ``flat``. Each round
    lowers a cell's label to the least label among its neighbours and then
    jumps it to its label's label, until nothing changes; every label is then
    its component's first cell.
    """
    if not len(flat):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    col = flat % ny
    a, b = [], []  # occupied neighbour pairs (a[k], b[k]), each found once
    for di, dj in ((0, 1), (1, -1), (1, 0), (1, 1)):
        target = flat + di * ny + dj
        pos = np.minimum(np.searchsorted(flat, target), len(flat) - 1)
        found = np.flatnonzero((flat[pos] == target) & (col + dj >= 0) & (col + dj < ny))
        a.append(found)
        b.append(pos[found])
    a, b = np.concatenate(a), np.concatenate(b)
    label = np.arange(len(flat))
    while True:
        low = label.copy()
        np.minimum.at(low, a, label[b])
        np.minimum.at(low, b, label[a])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    order = np.argsort(label, kind="stable")
    return order, np.flatnonzero(np.diff(label[order], prepend=-1))


def propose(fused: BevGrid) -> np.ndarray:
    """Raw geometric proposals from the fused BEV grid, one row each: the box's
    7 parameters, then its F classifier features.

    The occupied cells are those of ``fused.cells`` with at least ``MIN_OCC``
    points. Their connected components are fitted with an oriented box (PCA
    yaw, projection extents plus padding, column statistics for the vertical
    span); components of fewer than ``MIN_CELLS`` cells are dropped. Intensity
    is not represented in BEV features, so that feature is zero. Scoring and
    NMS happen per params, in :func:`score_proposals`.

    All components are fitted in one array pass: one stacked ``eigh``, and
    segment extrema for the extents and the vertical span. The sums stay one
    call per component with the operand shapes of fitting it alone (the mean
    and covariance products, ``mean``, the two projections and the column
    ``sum``, ``mean`` and ``std``), so every row has the bits of a fit of its
    component alone.
    """
    occupied = fused.values[:, BEV_MAX_OCC] >= MIN_OCC
    flat, values = fused.cells[occupied], fused.values[occupied]
    order, start = _connected_components(flat, fused.shape[1])
    sizes = np.diff(start, append=len(flat))
    big = sizes >= MIN_CELLS
    raw = np.zeros((int(big.sum()), BOX_DIM + N_FEATURES))
    if not len(raw):
        return raw
    idx = order[np.repeat(big, sizes)]
    n_cells = sizes[big]
    end = np.cumsum(n_cells)
    start = end - n_cells
    bounds = list(zip(start.tolist(), end.tolist()))
    xy, feats = fused.cell_xy(flat[idx]), values[idx]
    ones = np.ones(len(idx))
    sum_xy, mean = np.empty((len(raw), 2)), np.empty((len(raw), 2))
    count, height, spread = np.empty(len(raw)), np.empty(len(raw)), np.empty(len(raw))
    add = np.add.reduce  # ndarray.mean and .std are add.reduce, then the division by n
    for k, (a, b) in enumerate(bounds):
        sum_xy[k] = ones[a:b] @ xy[a:b]
        mean[k] = add(xy[a:b], axis=0) / (b - a)
        count[k] = add(feats[a:b, BEV_MAX_OCC])
        z = feats[a:b, BEV_MAX_HEIGHT]
        height[k] = add(z) / (b - a)
        d = z - height[k]
        spread[k] = add(d * d) / (b - a)
    spread = np.sqrt(spread)
    centered = xy - np.repeat(sum_xy / n_cells[:, None], n_cells, axis=0)
    weighted = centered * ones[:, None]
    cov = np.empty((len(raw), 2, 2))
    for k, (a, b) in enumerate(bounds):
        cov[k] = weighted[a:b].T @ centered[a:b]
    _, vecs = np.linalg.eigh(cov / n_cells[:, None, None])  # ascending eigenvalues
    offset = xy - np.repeat(mean, n_cells, axis=0)
    proj = np.empty((2, len(idx)))  # onto the major and the minor axis
    for k, (a, b) in enumerate(bounds):
        proj[0, a:b] = offset[a:b] @ vecs[k, :, 1]
        proj[1, a:b] = offset[a:b] @ vecs[k, :, 0]
    extent = np.maximum.reduceat(proj, start, axis=1) - np.minimum.reduceat(proj, start, axis=1)
    voxel = fused.voxel_size
    length = extent[0] + voxel + PADDING
    width = extent[1] + voxel + PADDING
    # vertical span measured from the grid floor: columns sample objects
    # too sparsely for the occupied-fraction estimate to be reliable
    z_top = np.maximum.reduceat(feats[:, BEV_MAX_HEIGHT], start)
    h = np.maximum(z_top + 0.5 * voxel - fused.z_origin, voxel)
    raw[:, :BOX_DIM] = np.column_stack([
        mean, fused.z_origin + 0.5 * h, width, h, length,
        [wrap_angle(math.atan2(y, x)) for x, y in vecs[:, :, 1].tolist()]])
    phi = raw[:, BOX_DIM:]
    phi[:, 0] = [math.log1p(n) for n in count.tolist()]
    phi[:, 1] = np.minimum(1.0, n_cells * voxel * voxel / (width * length))
    phi[:, 2] = height
    phi[:, 3] = spread
    phi[:, 4] = extent[0] + voxel
    phi[:, 5] = extent[1] + voxel
    phi[:, 6] = h
    phi[:, 8] = [math.hypot(x, y) / 100.0 for x, y in mean.tolist()]
    phi[:, 9] = np.minimum(width, length) / np.maximum(width, length)
    phi[:, 10] = count / n_cells
    phi[:, 11] = 1.0
    return raw


def roi_features(anchors: np.ndarray, grid: VoxelGrid) -> np.ndarray:
    """Pool voxel statistics inside each enlarged channel-frame anchor box.

    ``anchors`` holds one channel's (K, 7) RoIs; the result is (K, F). An
    empty RoI yields the zero feature with bias 1.

    A channel's RoIs are pooled in one array pass. The candidates of an RoI
    are the voxels whose centers lie within its enlarged box's circumradius of
    its center in x, plus a slack that covers rounding; ``grid.coords``
    ascends in x, so they are one ``searchsorted`` window. All (RoI, voxel)
    candidate pairs are tested with the arithmetic of
    ``points_in_box(strict=False)``. Counts, column runs and the z extent are
    segment sums and extrema. The dot and covariance products stay one call
    per RoI, with the operand shapes of a single-RoI pool, and the
    covariances go through one stacked ``eigh``, so every feature has the
    bits of pooling each RoI alone.
    """
    phi = np.zeros((len(anchors), N_FEATURES))
    phi[:, 11] = 1.0
    cx, cy, _, w, h, l, r = anchors.T
    w_e, h_e, l_e = w * ROI_ENLARGE, h * ROI_ENLARGE, l * ROI_ENLARGE
    centers = grid.centers
    reach = 0.5 * np.hypot(w_e, l_e) + 1e-6
    lo = np.searchsorted(centers[:, 0], cx - reach)
    n_cand = np.searchsorted(centers[:, 0], cx + reach) - lo
    roi = np.repeat(np.arange(len(anchors)), n_cand)
    vox = np.arange(len(roi)) + np.repeat(lo - np.cumsum(n_cand) + n_cand, n_cand)
    cos = np.array([math.cos(t) for t in r.tolist()])[roi]
    sin = np.array([math.sin(t) for t in r.tolist()])[roi]
    d = centers[vox] - anchors[roi, :3]
    u = cos * d[:, 0] + sin * d[:, 1]
    v = -sin * d[:, 0] + cos * d[:, 1]
    keep = np.flatnonzero((np.abs(u) <= 0.5 * l_e[roi]) & (np.abs(v) <= 0.5 * w_e[roi])
                          & (np.abs(d[:, 2]) <= 0.5 * h_e[roi]))
    if not len(keep):
        return phi
    roi, idx = roi[keep], vox[keep]  # grouped by RoI, voxels ascending
    n_cells = np.bincount(roi, minlength=len(anchors))
    hit = np.flatnonzero(n_cells)
    n_cells = n_cells[hit]
    end = np.cumsum(n_cells)
    start = end - n_cells
    bounds = list(zip(start.tolist(), end.tolist()))
    counts = grid.counts[idx]
    npts = np.add.reduceat(counts, start)  # whole numbers: exact in any order
    col = grid.coords[idx, 0] * grid.cfg.ny + grid.coords[idx, 1]
    new_col = np.ones(len(idx), dtype=bool)
    new_col[1:] = col[1:] != col[:-1]
    new_col[start] = True
    n_cols = np.add.reduceat(new_col, start)
    zs = centers[idx, 2]
    cell_z, intensity, xy = grid.mean_z[idx], grid.mean_intensity[idx], centers[idx, :2]
    z_dot, i_dot, xy_dot = np.empty(len(hit)), np.empty(len(hit)), np.empty((len(hit), 2))
    for j, (a, b) in enumerate(bounds):
        z_dot[j] = counts[a:b] @ cell_z[a:b]
        i_dot[j] = counts[a:b] @ intensity[a:b]
        xy_dot[j] = counts[a:b] @ xy[a:b]
    mean_h = z_dot / npts
    sq = (cell_z - np.repeat(mean_h, n_cells)) ** 2
    centered = xy - np.repeat(xy_dot / npts[:, None], n_cells, axis=0)
    weighted = centered * counts[:, None]
    var_dot, cov = np.empty(len(hit)), np.empty((len(hit), 2, 2))
    for j, (a, b) in enumerate(bounds):
        var_dot[j] = counts[a:b] @ sq[a:b]
        cov[j] = weighted[a:b].T @ centered[a:b]
    _, vecs = np.linalg.eigh(cov / npts[:, None, None])  # ascending eigenvalues
    proj = np.empty((2, len(idx)))  # onto the major and the minor axis
    for j, (a, b) in enumerate(bounds):
        proj[0, a:b] = centered[a:b] @ vecs[j, :, 1]
        proj[1, a:b] = centered[a:b] @ vecs[j, :, 0]
    extent = np.maximum.reduceat(proj, start, axis=1) - np.minimum.reduceat(proj, start, axis=1)
    voxel = grid.cfg.voxel_size
    phi[hit, 0] = [math.log1p(n) for n in npts.tolist()]
    phi[hit, 1] = np.minimum(1.0, n_cols * voxel * voxel / (w_e[hit] * l_e[hit]))
    phi[hit, 2] = mean_h
    phi[hit, 3] = np.sqrt(var_dot / npts)
    phi[hit, 4] = extent[0] + voxel
    phi[hit, 5] = extent[1] + voxel
    phi[hit, 6] = np.maximum.reduceat(zs, start) - np.minimum.reduceat(zs, start) + voxel
    phi[hit, 7] = i_dot / npts
    phi[hit, 8] = [math.hypot(x, y) / 100.0 for x, y in zip(cx[hit].tolist(), cy[hit].tolist())]
    phi[hit, 9] = np.minimum(w[hit], l[hit]) / np.maximum(w[hit], l[hit])
    phi[hit, 10] = npts / n_cells
    return phi


def align_yaw_to_anchor(target: Box3D, anchor: Box3D) -> Box3D:
    """Equivalent box whose yaw residual against the anchor lies in (-pi/2, pi/2].

    A footprint is invariant under a half-turn of its heading, so regression
    targets can always use the flip closest to the anchor; this keeps yaw
    residuals unimodal."""
    d = wrap_angle(target.r - anchor.r)
    if d > math.pi / 2:
        r = target.r - math.pi
    elif d <= -math.pi / 2:
        r = target.r + math.pi
    else:
        return target
    return Box3D(target.cx, target.cy, target.cz, target.w, target.h, target.l, r)


def encode(pc: PointCloud, transforms: tuple[Transform, ...]) -> SceneEncoding:
    """Everything of detection that reads no weights; see :class:`SceneEncoding`.

    Channel c is ``pc`` under ``transforms[c]``; each channel cloud is dropped
    once voxelized. All raw proposals are mapped into each channel by its
    relative transform in one :func:`apply_boxes` call, and each channel grid
    pools all its anchors in one :func:`roi_features` call. The voxel grids
    are dropped on return.
    """
    grids = [voxelize(apply_points(t, pc), VOXEL) for t in transforms]
    raw = propose(bev_align([bev_from_voxels(g) for g in grids], transforms))
    boxes = np.ascontiguousarray(raw[:, :BOX_DIM])
    anchors = np.stack([apply_boxes(rel, boxes) for rel in relative_transforms(transforms)],
                       axis=1)
    return SceneEncoding(
        transforms=tuple(transforms),
        boxes=boxes,
        features=np.ascontiguousarray(raw[:, BOX_DIM:]),
        anchors=anchors,
        channel_features=np.stack(
            [roi_features(anchors[:, i], grid) for i, grid in enumerate(grids)], axis=1),
    )


def score_proposals(enc: SceneEncoding, params: DetectorParams) -> tuple[list[int], np.ndarray]:
    """The encoding's raw proposals scored by the linear classifier: the
    indices of the survivors of greedy proposal NMS, in NMS order, and their
    (C+1,) class score rows."""
    scores = [softmax(params.w_cls @ phi) for phi in enc.features / FEATURE_SCALE]
    keep = nms(enc.boxes, [float(sc[1:].max()) for sc in scores], PROPOSAL_NMS_IOU)
    return keep, np.array([scores[i] for i in keep]).reshape(len(keep), len(params.w_cls))


def refine(
    enc: SceneEncoding,
    keep: list[int],
    class_scores: np.ndarray,
    params: DetectorParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel RoI refinement and back-transformed averaging of the
    proposals ``keep`` of ``enc``, whose class scores are ``class_scores``.

    Proposals live in the channel-1 frame; refined boxes come back to the
    canonical (untransformed) frame through each channel's inverse transform.
    Returns the (M, 7) averaged boxes, the (M, C, 7) channel boxes and the
    (M,) objectness. Each head's matvec is one call per proposal and channel;
    decoding, back-transforms and averaging run over all rows at once with
    the bits of the scalar :func:`decode_residual`, :func:`apply_box` and
    :func:`average_boxes`. A non-finite or non-positive decoded,
    back-transformed or averaged box raises ValueError.
    """
    n_ch = len(enc.transforms)
    anchors = enc.anchors[keep].reshape(-1, BOX_DIM)
    phis = (enc.channel_features[keep] / FEATURE_SCALE).reshape(-1, N_FEATURES)
    heads = np.repeat(class_scores[:, 1:].argmax(axis=1), n_ch).tolist()
    res = np.array([params.w_reg[k] @ phi for k, phi in zip(heads, phis)]).reshape(-1, BOX_DIM)
    obj = np.array([sigmoid(float(params.w_obj[k] @ phi)) for k, phi in zip(heads, phis)])
    decoded = check_boxes(decode_residuals(res, anchors)).reshape(-1, n_ch, BOX_DIM)
    channel_boxes = check_boxes(np.stack(
        [apply_boxes(invert(t), decoded[:, c]) for c, t in enumerate(enc.transforms)], axis=1))
    boxes = check_boxes(average_box_rows(channel_boxes))
    return boxes, channel_boxes, obj.reshape(-1, n_ch).mean(axis=1)


def detect(enc: SceneEncoding, params: DetectorParams) -> list[Detection]:
    """Score an encoded scene; detections are canonical-frame and NMS-deduplicated."""
    keep, class_scores = score_proposals(enc, params)
    boxes, channel_boxes, objectness = refine(enc, keep, class_scores, params)
    confidence = class_scores[:, 1:].max(axis=1) * objectness
    return [Detection(Box3D(*boxes[i].tolist()), [Box3D(*b) for b in channel_boxes[i].tolist()],
                      class_scores[i], float(objectness[i]))
            for i in nms(boxes, confidence.tolist(), FINAL_NMS_IOU)]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainExample:
    """One RoI with per-channel pooled features and (optionally) box targets.

    ``anchors``/``targets`` are channel-frame boxes; ``targets`` is None for
    background RoIs. ``cls_feature`` is the proposal-classifier input.
    """

    cls_feature: np.ndarray
    channel_features: list[np.ndarray]
    anchors: list[Box3D]
    targets: list[Box3D] | None
    target_class: int  # 0 = background
    weight: float


@dataclass
class TrainLosses:
    cls: float
    reg: float
    obj: float

    @property
    def total(self) -> float:
        return self.cls + self.reg + self.obj


@dataclass
class LossTotals:
    """Step losses summed over an epoch; ``means`` divides by the step count."""

    cls: float = 0.0
    reg: float = 0.0
    obj: float = 0.0
    total: float = 0.0
    steps: int = 0

    def add(self, losses: TrainLosses | None) -> None:
        """Count one step; ``None`` (a scene without RoIs) is no step."""
        if losses is None:
            return
        self.cls += losses.cls
        self.reg += losses.reg
        self.obj += losses.obj
        self.total += losses.total
        self.steps += 1

    def means(self) -> tuple[float, float, float, float]:
        """(cls, reg, obj, total) per step; zeros when no step ran."""
        if not self.steps:
            return 0.0, 0.0, 0.0, 0.0
        n = self.steps
        return self.cls / n, self.reg / n, self.obj / n, self.total / n


def _smooth_l1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, derivative) elementwise."""
    ax = np.abs(x)
    small = ax < 1.0
    val = np.where(small, 0.5 * x * x, ax - 0.5)
    grad = np.where(small, x, np.sign(x))
    return val, grad


def loss_and_grads(
    params: DetectorParams, batch: list[TrainExample]
) -> tuple[TrainLosses, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Weighted losses and analytic gradients.

    Classification runs on every RoI and is averaged over the batch; the box
    terms exist only where a target box exists and are averaged over those
    RoIs. Objectness regresses toward the 3D IoU of the currently decoded box
    with its target; that target is treated as a constant within the step, so
    the objectness gradient flows only through the objectness head.
    """
    g_cls = np.zeros_like(params.w_cls)
    g_obj = np.zeros_like(params.w_obj)
    g_reg = np.zeros_like(params.w_reg)
    l_cls = l_reg = l_obj = 0.0
    n = max(len(batch), 1)
    n_fg = max(sum(1 for ex in batch if ex.target_class > 0), 1)
    for ex in batch:
        w = ex.weight
        phi_c = ex.cls_feature / FEATURE_SCALE
        probs = softmax(params.w_cls @ phi_c)
        l_cls += -w * math.log(max(float(probs[ex.target_class]), 1e-300)) / n
        dlogits = probs.copy()
        dlogits[ex.target_class] -= 1.0
        g_cls += (w / n) * np.outer(dlogits, phi_c)
        if ex.target_class > 0:
            k = ex.target_class - 1
            n_ch = max(len(ex.channel_features), 1)
            scale = w / (n_fg * n_ch)
            for phi_raw, anchor, target in zip(ex.channel_features, ex.anchors, ex.targets):
                phi = phi_raw / FEATURE_SCALE
                res_pred = params.w_reg[k] @ phi
                diff = res_pred - encode_residual(target, anchor)
                val, dval = _smooth_l1(diff)
                l_reg += scale * REG_LOSS_WEIGHT * float(val.sum())
                g_reg[k] += scale * REG_LOSS_WEIGHT * np.outer(dval, phi)
                iou_target = iou_3d(decode_residual(res_pred, anchor), target)
                o = sigmoid(float(params.w_obj[k] @ phi))
                l_obj += scale * (o - iou_target) ** 2
                g_obj[k] += scale * 2.0 * (o - iou_target) * o * (1.0 - o) * phi
    return TrainLosses(cls=l_cls, reg=l_reg, obj=l_obj), (g_cls, g_obj, g_reg)


def train_step(params: DetectorParams, batch: list[TrainExample]) -> TrainLosses:
    """One SGD step over the batch; mutates ``params`` in place.

    A non-finite total loss raises :class:`NonFiniteLossError` before any
    update is applied.
    """
    losses, (g_cls, g_obj, g_reg) = loss_and_grads(params, batch)
    if not math.isfinite(losses.total):
        raise NonFiniteLossError(f"non-finite loss: cls={losses.cls} reg={losses.reg} obj={losses.obj}")
    params.w_cls -= params.lr * g_cls
    params.w_obj -= params.lr * g_obj
    params.w_reg -= params.lr * g_reg
    return losses


def build_training_examples(
    enc: SceneEncoding,
    target_boxes: list[Box3D],
    target_classes: list[int],
    target_weights: list[float],
    params: DetectorParams,
    background_weight: float = 1.0,
) -> list[TrainExample]:
    """Match an encoded scene's proposals to canonical-frame targets.

    Proposals matched by 3D IoU inherit the target's class, box, and weight;
    the rest become background RoIs with ``background_weight``. Channel-frame
    box targets are produced by pushing the matched target through each
    channel transform.
    """
    keep, _ = score_proposals(enc, params)
    gts = box_rows(target_boxes)
    canonical = apply_boxes(invert(enc.transforms[0]), enc.boxes[keep])
    channel_gts = [apply_boxes(t, gts).tolist() for t in enc.transforms]
    examples = []
    for i, (iou, idx) in zip(keep, best_match(canonical, gts)):
        anchors = [Box3D(*a) for a in enc.anchors[i].tolist()]
        if idx >= 0 and iou >= MATCH_IOU:
            targets = [align_yaw_to_anchor(Box3D(*gt[idx]), anchor)
                       for gt, anchor in zip(channel_gts, anchors)]
            target_class, weight = target_classes[idx], float(target_weights[idx])
        else:
            targets, target_class, weight = None, 0, background_weight
        examples.append(TrainExample(enc.features[i], list(enc.channel_features[i]), anchors,
                                     targets, target_class, weight))
    return examples


def train_on_scene(
    enc: SceneEncoding,
    target_boxes: list[Box3D],
    target_classes: list[int],
    target_weights: list[float],
    params: DetectorParams,
    background_weight: float,
) -> TrainLosses | None:
    """Build the encoded scene's training examples and take one SGD step on them.

    Returns None, with ``params`` untouched, when the scene yields no RoI.
    """
    batch = build_training_examples(enc, target_boxes, target_classes, target_weights,
                                    params, background_weight)
    return train_step(params, batch) if batch else None


# ---------------------------------------------------------------------------
# parameter file format: 16-byte header (8-byte magic, u32 version, u32
# reserved), dimension table (u32 num_classes, u32 feat_dim, u32 box_dim,
# u32 reserved), then little-endian float64: lr, w_cls, w_obj, w_reg.
# ---------------------------------------------------------------------------

PARAMS_MAGIC = b"CADET3DP"
PARAMS_VERSION = 1


def save_params(params: DetectorParams, path) -> None:
    c = params.num_classes
    head = PARAMS_MAGIC + struct.pack("<II", PARAMS_VERSION, 0)
    dims = struct.pack("<IIII", c, N_FEATURES, BOX_DIM, 0)
    body = np.concatenate(
        [np.array([params.lr]), params.w_cls.ravel(), params.w_obj.ravel(), params.w_reg.ravel()]
    ).astype("<f8").tobytes()
    with atomic_open(path, "wb") as fh:
        fh.write(head + dims + body)


def load_params(path) -> DetectorParams:
    raw = Path(path).read_bytes()
    if len(raw) < 32:
        raise ParamsFormatError(f"{path}: file too short for header")
    if raw[:8] != PARAMS_MAGIC:
        raise ParamsFormatError(f"{path}: bad magic {raw[:8]!r}")
    version, _ = struct.unpack("<II", raw[8:16])
    if version != PARAMS_VERSION:
        raise ParamsFormatError(f"{path}: unsupported version {version}")
    c, f, b, _ = struct.unpack("<IIII", raw[16:32])
    if f != N_FEATURES or b != BOX_DIM:
        raise ParamsFormatError(f"{path}: dimension table mismatch (F={f}, box={b})")
    n_vals = 1 + (c + 1) * f + c * f + c * b * f
    if len(raw) - 32 != 8 * n_vals:
        raise ParamsFormatError(
            f"{path}: expected {n_vals} values ({8 * n_vals} bytes), found {len(raw) - 32} bytes")
    body = np.frombuffer(raw[32:], dtype="<f8")
    if not np.isfinite(body).all():
        raise ParamsFormatError(f"{path}: non-finite value in learning rate or weights")
    lr = float(body[0])
    if lr <= 0:
        raise ParamsFormatError(f"{path}: learning rate must be positive, got {lr}")
    off = 1
    w_cls = body[off : off + (c + 1) * f].reshape(c + 1, f).copy()
    off += (c + 1) * f
    w_obj = body[off : off + c * f].reshape(c, f).copy()
    off += c * f
    w_reg = body[off:].reshape(c, b, f).copy()
    return DetectorParams(w_cls=w_cls, w_obj=w_obj, w_reg=w_reg, lr=lr)
