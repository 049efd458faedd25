"""Lightweight multi-channel detector.

Structure: per-channel occupancy voxel grids, aligned/max-pooled BEV fusion,
a geometric proposer (connected components + PCA box fit) with a learned
linear classifier, per-channel RoI pooling feeding linear objectness and
residual-regression heads, and back-transformed averaging into detections.
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
    apply_box,
    apply_points,
    average_boxes,
    best_match,
    decode_residual,
    encode_residual,
    invert,
    iou_3d,
    nms,
    points_in_box,
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


def _boxes(rows: np.ndarray) -> list[Box3D]:
    return [Box3D(*(float(v) for v in row)) for row in rows]


@dataclass
class Proposal:
    """A raw proposal that survived proposal NMS, with its encoded channel RoIs."""

    box: Box3D
    class_scores: np.ndarray  # (C+1,), sums to 1
    feature: np.ndarray  # (F,) classifier input, kept for training parity
    anchors: list[Box3D]  # ``box`` in each channel frame
    channel_features: np.ndarray  # (C, F) RoI features pooled at ``anchors``

    @property
    def predicted_class(self) -> int:
        """Most likely foreground class id (1-based)."""
        return int(self.class_scores[1:].argmax()) + 1


@dataclass
class Detection:
    box: Box3D
    per_channel_boxes: list[Box3D]
    class_scores: np.ndarray
    objectness: float

    @classmethod
    def from_channels(cls, per_channel_boxes: list[Box3D], class_scores: np.ndarray,
                      objectness: float) -> "Detection":
        """Detection whose box is the average of its canonical-frame channel boxes."""
        return cls(average_boxes(per_channel_boxes), per_channel_boxes, class_scores, objectness)

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


def _component_feature(
    cell_xy: np.ndarray, feats: np.ndarray, box: Box3D, proj_major: np.ndarray,
    proj_minor: np.ndarray, voxel: float
) -> np.ndarray:
    """Classifier feature for a BEV component. Intensity is not represented in
    BEV features, so that slot is zero at proposal time."""
    count = float(feats[:, BEV_MAX_OCC].sum())
    n_cells = len(cell_xy)
    phi = np.zeros(N_FEATURES)
    phi[0] = math.log1p(count)
    phi[1] = min(1.0, n_cells * voxel * voxel / (box.w * box.l))
    phi[2] = float(feats[:, BEV_MAX_HEIGHT].mean())
    phi[3] = float(feats[:, BEV_MAX_HEIGHT].std())
    phi[4] = float(np.ptp(proj_major)) + voxel
    phi[5] = float(np.ptp(proj_minor)) + voxel
    phi[6] = box.h
    phi[8] = math.hypot(box.cx, box.cy) / 100.0
    phi[9] = min(box.w, box.l) / max(box.w, box.l)
    phi[10] = count / n_cells
    phi[11] = 1.0
    return phi


def _connected_components(occ: np.ndarray) -> list[np.ndarray]:
    """8-connected components of a boolean grid, in row-major seed order,
    each an (n, 2) array of its cells in row-major order.

    Every occupied cell starts labelled with its own position in the
    row-major cell list. Each round lowers a cell's label to the least label
    among its neighbours and then jumps it to its label's label, until nothing
    changes; every label is then its component's first cell.
    """
    ny = occ.shape[1]
    cells = np.argwhere(occ)
    if not len(cells):
        return []
    flat = cells[:, 0] * ny + cells[:, 1]
    a, b = [], []  # occupied neighbour pairs (a[k], b[k]), each found once
    for di, dj in ((0, 1), (1, -1), (1, 0), (1, 1)):
        target = flat + di * ny + dj
        pos = np.minimum(np.searchsorted(flat, target), len(flat) - 1)
        col = cells[:, 1] + dj
        found = np.flatnonzero((flat[pos] == target) & (col >= 0) & (col < ny))
        a.append(found)
        b.append(pos[found])
    a, b = np.concatenate(a), np.concatenate(b)
    label = np.arange(len(cells))
    while True:
        low = label.copy()
        np.minimum.at(low, a, label[b])
        np.minimum.at(low, b, label[a])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    order = np.argsort(label, kind="stable")
    return np.split(cells[order], np.flatnonzero(np.diff(label[order])) + 1)


def propose(fused: BevGrid) -> list[tuple[Box3D, np.ndarray]]:
    """Raw geometric proposals from the fused BEV grid: (box, classifier feature).

    Connected occupied components are fitted with an oriented box (PCA yaw,
    projection extents plus padding, column statistics for the vertical span);
    small components are dropped. Scoring and NMS happen per params, in
    :func:`score_proposals`.
    """
    occ = fused.features[:, :, BEV_MAX_OCC] >= MIN_OCC
    voxel = fused.voxel_size
    raw = []
    for comp in _connected_components(occ):
        if len(comp) < MIN_CELLS:
            continue
        xy = np.asarray(fused.origin_xy) + (comp + 0.5) * voxel
        feats = fused.features[comp[:, 0], comp[:, 1]]
        major, minor = _pca_axes(xy)
        mu = xy.mean(axis=0)
        pu = (xy - mu) @ major
        pv = (xy - mu) @ minor
        length = float(np.ptp(pu)) + voxel + PADDING
        width = float(np.ptp(pv)) + voxel + PADDING
        # vertical span measured from the grid floor: columns sample objects
        # too sparsely for the occupied-fraction estimate to be reliable
        z_top = float(feats[:, BEV_MAX_HEIGHT].max())
        h = max(z_top + 0.5 * voxel - fused.z_origin, voxel)
        box = Box3D(float(mu[0]), float(mu[1]), fused.z_origin + 0.5 * h, width, h, length,
                    math.atan2(major[1], major[0]))
        raw.append((box, _component_feature(xy, feats, box, pu, pv, voxel)))
    return raw


def roi_features(box: Box3D, grid: VoxelGrid) -> np.ndarray:
    """Pool voxel statistics inside the enlarged channel-frame ``box``. An
    empty RoI yields the zero feature with bias 1.

    Only voxels whose centers lie within the enlarged box's circumradius of
    its center in x, plus a slack that covers rounding, are tested against
    the box; ``grid.coords`` ascends in x, so they are a slice.
    """
    enlarged = Box3D(box.cx, box.cy, box.cz, box.w * ROI_ENLARGE,
                     box.h * ROI_ENLARGE, box.l * ROI_ENLARGE, box.r)
    phi = np.zeros(N_FEATURES)
    phi[11] = 1.0
    centers = grid.centers
    reach = 0.5 * math.hypot(enlarged.w, enlarged.l) + 1e-6
    lo, hi = np.searchsorted(centers[:, 0], [box.cx - reach, box.cx + reach])
    idx = lo + np.flatnonzero(points_in_box(enlarged, centers[lo:hi], strict=False))
    if not len(idx):
        return phi
    counts = grid.counts[idx]
    zs = centers[idx, 2]
    npts = float(counts.sum())
    n_cells = len(idx)
    col = grid.coords[idx, 0] * grid.cfg.ny + grid.coords[idx, 1]  # ascending
    n_cols = 1 + int(np.count_nonzero(np.diff(col)))
    cell_z = grid.mean_z[idx]
    mean_h = float(counts @ cell_z) / npts
    var_h = float(counts @ (cell_z - mean_h) ** 2) / npts
    xy = centers[idx, :2]
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
    phi[7] = float(counts @ grid.mean_intensity[idx]) / npts
    phi[8] = math.hypot(box.cx, box.cy) / 100.0
    phi[9] = min(box.w, box.l) / max(box.w, box.l)
    phi[10] = npts / n_cells
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
    once voxelized. Each raw proposal is mapped into each channel by its
    relative transform and pooled there. The voxel grids are dropped on return.
    """
    grids = [voxelize(apply_points(t, pc), VOXEL) for t in transforms]
    fused = bev_align([bev_from_voxels(g) for g in grids], transforms)
    raw = propose(fused)
    rels = relative_transforms(transforms)
    anchors = [[apply_box(rel, box) for rel in rels] for box, _ in raw]
    n, c = len(raw), len(transforms)
    return SceneEncoding(
        transforms=tuple(transforms),
        boxes=np.array([box.as_array() for box, _ in raw]).reshape(n, BOX_DIM),
        features=np.array([phi for _, phi in raw]).reshape(n, N_FEATURES),
        anchors=np.array([[a.as_array() for a in row] for row in anchors]).reshape(n, c, BOX_DIM),
        channel_features=np.array(
            [[roi_features(a, grid) for a, grid in zip(row, grids)] for row in anchors]
        ).reshape(n, c, N_FEATURES),
    )


def score_proposals(enc: SceneEncoding, params: DetectorParams) -> list[Proposal]:
    """The encoding's raw proposals scored by the linear classifier; the
    survivors of greedy proposal NMS, in NMS order."""
    boxes = _boxes(enc.boxes)
    scores = [softmax(params.w_cls @ (phi / FEATURE_SCALE)) for phi in enc.features]
    keep = nms([(b, float(sc[1:].max())) for b, sc in zip(boxes, scores)], PROPOSAL_NMS_IOU)
    return [Proposal(boxes[i], scores[i], enc.features[i], _boxes(enc.anchors[i]),
                     enc.channel_features[i]) for i in keep]


def refine(
    proposals: list[Proposal],
    transforms: tuple[Transform, ...],
    params: DetectorParams,
) -> list[Detection]:
    """Per-channel RoI refinement and back-transformed averaging.

    Proposals live in the channel-1 frame; refined boxes come back to the
    canonical (untransformed) frame through each channel's inverse transform.
    """
    inv_backs = [invert(t) for t in transforms]
    dets = []
    for prop in proposals:
        k = prop.predicted_class - 1
        channel_boxes = []
        obj_scores = []
        for anchor, feature, back in zip(prop.anchors, prop.channel_features, inv_backs):
            phi = feature / FEATURE_SCALE
            decoded = decode_residual(params.w_reg[k] @ phi, anchor)
            channel_boxes.append(apply_box(back, decoded))
            obj_scores.append(sigmoid(float(params.w_obj[k] @ phi)))
        dets.append(Detection.from_channels(
            channel_boxes, prop.class_scores.copy(), float(np.mean(obj_scores))
        ))
    return dets


def detect(enc: SceneEncoding, params: DetectorParams) -> list[Detection]:
    """Score an encoded scene; detections are canonical-frame and NMS-deduplicated."""
    dets = refine(score_proposals(enc, params), enc.transforms, params)
    keep = nms([(d.box, d.confidence) for d in dets], FINAL_NMS_IOU)
    return [dets[i] for i in keep]


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
    t1_inv = invert(enc.transforms[0])
    examples = []
    for prop in score_proposals(enc, params):
        iou, idx = best_match(apply_box(t1_inv, prop.box), target_boxes)
        if idx >= 0 and iou >= MATCH_IOU:
            targets = [
                align_yaw_to_anchor(apply_box(t, target_boxes[idx]), anchor)
                for t, anchor in zip(enc.transforms, prop.anchors)
            ]
            target_class, weight = target_classes[idx], float(target_weights[idx])
        else:
            targets, target_class, weight = None, 0, background_weight
        examples.append(TrainExample(prop.feature, list(prop.channel_features), prop.anchors,
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
