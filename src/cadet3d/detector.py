"""Lightweight multi-channel detector.

Structure: per-channel occupancy voxel grids, aligned/max-pooled BEV fusion,
a geometric proposer (connected components + PCA box fit, all components in
one array pass) with a learned linear classifier, per-channel RoI pooling
(one array pass over all proposals and channels) feeding linear
objectness and residual-regression heads, and back-transformed averaging into
detections.
The learned region-proposal stage of full-scale detectors is deliberately
replaced by the geometric proposer so every head stays a linear map over a
fixed 12-component feature vector.

Detection runs in two parts. :func:`encode_batch` takes a batch of clouds,
each with its own channel transforms, and does everything that reads no
weights: channel clouds, voxel grids, the fused BEV, the raw proposals and
the RoI features pooled for every raw proposal in every channel. Each stage
is one array pass over every (scene, channel) slot of the batch: voxel, BEV
cell and RoI keys carry a leading slot or scene index, and per-slot transform
parameters are broadcast per point and repeated per cell or row, so each
scene's result has the bits of encoding it alone. :func:`encode` is the
batch of one. Each scene gets a read-only :class:`SceneEncoding`. Scoring
(:func:`detect`, :func:`build_training_examples`) reads the weights: the
proposal class scores, proposal NMS, the heads and the final NMS. The weak
channel transforms are fixed, so one encoding of a scene serves every pass
over it; the CLI encodes weak-policy scenes ``ENCODE_BATCH`` at a time.

Scoring runs on the encoding's arrays, "shared proposals x channels".
:func:`score_proposals` takes one row-wise softmax over all proposals and
returns the indices of the proposals that survive NMS; :func:`refine` indexes
their (K, C, 7) anchors and (K, C, F) features and evaluates each head as one
``einsum``, and decoding, back-transforms and the channel average run over all
rows at once. :func:`loss_and_grads` stacks its examples the same way.
``nms`` and ``best_match`` test exact IoU only on the pairs that pass an array
circumradius pre-reject. :class:`Box3D` objects are built only for the
detections :func:`detect` returns and for training examples. Scoring and
training run with numpy's overflow and invalid-value warnings off: the
finiteness checks on scores, boxes and losses decide what a non-finite value
means.

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
from typing import Sequence

import numpy as np

from .data import atomic_open
from .geometry import (
    Box3D,
    BoxRow,
    PointCloud,
    Transform,
    apply_boxes,
    average_box_rows,
    best_match,
    box_rows,
    check_boxes,
    decode_residuals,
    encode_residuals,
    invert,
    iou_3d,
    map_boxes,
    map_xy,
    nms,
    relative_transforms,
    transform_params,
    wrap_angle,
    wrap_angles,
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
# Scenes per encode_batch call of the CLI commands. A batch holds about
# 0.5 MB of transients per scene. At 4 scenes the benchmark's peak RSS stays
# at or below that of encoding one scene at a time; at 8 it rose 3-5 % and
# encoding got no faster.
ENCODE_BATCH = 4


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
    """Softmax along the last axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function elementwise, without overflow for large ``|x|``."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _connected_components(flat: np.ndarray, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """8-connected components of the cells with ascending row-major flat
    indices ``flat`` on a grid ``ny`` cells wide.

    Returns ``(order, start)``: ``flat[order]`` lists the components in
    row-major seed order, each in ascending order, and component k begins at
    position ``start[k]``.

    Neighbours are found in a dense int32 map of the grid bordered by an
    empty column, so no neighbour wraps from one row's end to the next row.
    Every cell starts labelled with its own position in ``flat``. Each round
    lowers a cell's label to the least label among its neighbours and then
    jumps it to its label's label, until nothing changes; every label is then
    its component's first cell.
    """
    if not len(flat):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    width = ny + 1
    key = flat // ny * width + flat % ny
    where = np.full(int(key[-1]) + width + 2, -1, dtype=np.int32)
    where[key] = np.arange(len(flat), dtype=np.int32)
    a, b = [], []  # occupied neighbour pairs (a[k], b[k]), each found once
    for step in (1, width - 1, width, width + 1):  # (0, 1), (1, -1), (1, 0), (1, 1)
        nb = where[key + step]
        found = np.flatnonzero(nb >= 0)
        a.append(found)
        b.append(nb[found])
    a, b = np.concatenate(a), np.concatenate(b).astype(np.int64)
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


def _segment_pca(centered: np.ndarray, weights: np.ndarray | float, start: np.ndarray,
                 sizes: np.ndarray, total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal axes and extents of point segments.

    ``centered`` holds (N, 2) offsets from each segment's weighted mean; the
    segments begin at the ascending positions ``start`` and hold ``sizes``
    points and ``total`` weight. Returns the (n, 2, 2) eigenvectors of the
    weighted covariances (columns, ascending eigenvalues) and the (2, n)
    extents of the segments projected onto the major and the minor axis.
    """
    wx, wy = weights * centered[:, 0], weights * centered[:, 1]
    sums = np.add.reduceat(np.column_stack([wx * centered[:, 0], wx * centered[:, 1],
                                            wy * centered[:, 1]]), start) / total[:, None]
    _, vecs = np.linalg.eigh(sums[:, [0, 1, 1, 2]].reshape(-1, 2, 2))
    axes = np.repeat(vecs[:, :, ::-1], sizes, axis=0)
    proj = (centered[:, :, None] * axes).sum(axis=1).T  # (2, N): major, minor
    return vecs, np.maximum.reduceat(proj, start, axis=1) - np.minimum.reduceat(proj, start, axis=1)


@dataclass(frozen=True)
class Proposals:
    """Raw proposals of a fused grid, grouped by plane in ascending order."""

    rows: np.ndarray  # (K, 7 + F): the box's 7 parameters, then its classifier features
    plane: np.ndarray  # (K,) plane (scene) of each row

    def __len__(self) -> int:
        return len(self.rows)


def propose(fused: BevGrid) -> Proposals:
    """Raw geometric proposals from every plane of the fused BEV grid.

    The occupied cells are those of ``fused.cells`` with at least ``MIN_OCC``
    points. Their connected components are fitted with an oriented box (PCA
    yaw, projection extents plus padding, column statistics for the vertical
    span); components of fewer than ``MIN_CELLS`` cells are dropped. Intensity
    is not represented in BEV features, so that feature is zero. Scoring and
    NMS happen per params, in :func:`score_proposals`.

    The planes are labelled as one tall grid with an empty row between
    planes, so no component crosses planes. All components are fitted in one
    array pass: segment sums (``np.add.reduceat``) for the means and
    covariances, one stacked ``eigh``, projections onto the repeated
    eigenvectors, and segment extrema for the extents and the vertical span.
    """
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
    vecs, extent = _segment_pca(centered, 1.0, start, n_cells, n_cells)
    voxel = fused.voxel_size
    length = extent[0] + voxel + PADDING
    width = extent[1] + voxel + PADDING
    # vertical span measured from the grid floor: columns sample objects
    # too sparsely for the occupied-fraction estimate to be reliable
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


def _roi_voxels(anchors: np.ndarray, grid: VoxelGrid, slot: np.ndarray | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """(RoI, voxel) index pairs of the voxels inside each enlarged anchor box,
    grouped by RoI with the voxels ascending.

    The candidates of an RoI are the voxels of its slot whose centers lie
    within its enlarged box's circumradius of its center, plus a slack that
    covers rounding. ``grid.coords`` ascends in (slot, x), so the x bound is
    one window, found by ``searchsorted`` on the column x centers, and the
    y bound thins it. The candidates are tested with the arithmetic of
    ``points_in_box(strict=False)``.
    """
    cx, cy, _, w, h, l, r = anchors.T
    w_e, h_e, l_e = w * ROI_ENLARGE, h * ROI_ENLARGE, l * ROI_ENLARGE
    cfg = grid.cfg
    centers = grid.centers
    x_centers = cfg.origin[0] + (np.arange(cfg.nx) + 0.5) * cfg.voxel_size  # bits of centers[:, 0]
    reach = 0.5 * np.hypot(w_e, l_e) + 1e-6
    key = grid.slot * cfg.nx + grid.coords[:, 0]  # ascending
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
    return roi[keep], vox[keep]


def roi_features(anchors: np.ndarray, grid: VoxelGrid, slot: np.ndarray | None = None
                 ) -> np.ndarray:
    """Pool voxel statistics inside each enlarged channel-frame anchor box.

    ``anchors`` holds (K, 7) RoIs, RoI k pooled over the voxels of slot
    ``slot[k]`` of ``grid`` (default: slot 0); the result is (K, F). An empty
    RoI yields the zero feature with bias 1.

    All RoIs are pooled in one array pass over the voxels of
    :func:`_roi_voxels`. Counts, column runs, the weighted sums and the
    extents are segment reductions over the RoIs' voxels, and the
    covariances go through one stacked ``eigh``.
    """
    phi = np.zeros((len(anchors), N_FEATURES))
    phi[:, 11] = 1.0
    roi, idx = _roi_voxels(anchors, grid, slot)
    if not len(roi):
        return phi
    cx, cy, _, w, _, l, _ = anchors.T
    w_e, l_e = w * ROI_ENLARGE, l * ROI_ENLARGE
    cfg = grid.cfg
    centers = grid.centers
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
    npts = sums[:, 0]  # whole numbers: exact in any order
    mean_h = sums[:, 1] / npts
    var_h = np.add.reduceat(counts * (cell_z - np.repeat(mean_h, n_cells)) ** 2, start) / npts
    centered = xy - np.repeat(sums[:, 3:] / npts[:, None], n_cells, axis=0)
    _, extent = _segment_pca(centered, counts, start, n_cells, npts)
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


def _channel_clouds(clouds: Sequence[PointCloud], transforms: list[tuple[Transform, ...]]
                    ) -> tuple[PointCloud, list[int]]:
    """Every cloud under each of its channel transforms, one (scene, channel)
    slot after another, and the points per slot. A cloud's channels are
    mapped in one pass, its transforms' parameters broadcast against its
    points, with the bits of mapping each alone."""
    xyz, intensity, sizes = [], [], []
    for pc, ts in zip(clouds, transforms):
        params = transform_params(ts)[:, None]  # (C, 1, 5)
        xyz.append(np.concatenate([map_xy(params, pc.xyz[:, :2]),
                                   (params[..., 3] * pc.xyz[:, 2])[..., None]], axis=-1))
        intensity.append(np.tile(pc.intensity, len(ts)))
        sizes += [len(pc)] * len(ts)
    return PointCloud(np.concatenate([a.reshape(-1, 3) for a in xyz] or [np.empty((0, 3))]),
                      np.concatenate(intensity or [np.empty(0)])), sizes


def encode_batch(clouds: Sequence[PointCloud],
                 transforms_per_scene: Sequence[Sequence[Transform]]) -> list[SceneEncoding]:
    """:func:`encode` of every cloud under its own channel transforms; see
    :class:`SceneEncoding`. Each encoding has the bits of encoding its scene
    alone.

    A slot is one (scene, channel) pair, scene-major. The slots' clouds are
    voxelized, compressed to BEV, aligned and fused (one plane per scene),
    proposed from and pooled in one call each, and every proposal's anchors
    in every channel are mapped in one pass, its slot's relative transform
    parameters repeated per row.
    """
    transforms = [tuple(t) for t in transforms_per_scene]
    if len(clouds) != len(transforms):
        raise ValueError("need one transform list per cloud")
    channels = np.array([len(t) for t in transforms], dtype=np.int64)
    pc, sizes = _channel_clouds(clouds, transforms)
    grid = voxelize(pc, VOXEL, sizes)
    del pc  # each channel cloud is dropped once voxelized
    props = propose(bev_align(bev_from_voxels(grid), [t for ts in transforms for t in ts],
                              channels))
    # anchor rows: scene-major, then proposal, then channel
    n_ch = channels[props.plane]
    first = np.cumsum(channels) - channels
    row_slot = (np.repeat(first[props.plane] - (np.cumsum(n_ch) - n_ch), n_ch)
                + np.arange(n_ch.sum()))
    rels = [r for ts in transforms for r in relative_transforms(ts)]
    anchors = np.repeat(props.rows[:, :BOX_DIM], n_ch, axis=0)
    moved = np.flatnonzero(~np.array([r.is_identity for r in rels])[row_slot])
    anchors[moved] = map_boxes(transform_params(rels)[row_slot[moved]], anchors[moved])
    phi = roi_features(anchors, grid, row_slot)
    out, k0, r0 = [], 0, 0
    for ts, k in zip(transforms, np.bincount(props.plane, minlength=len(clouds)).tolist()):
        r1 = r0 + k * len(ts)
        out.append(SceneEncoding(
            transforms=ts,
            boxes=np.ascontiguousarray(props.rows[k0:k0 + k, :BOX_DIM]),
            features=np.ascontiguousarray(props.rows[k0:k0 + k, BOX_DIM:]),
            anchors=anchors[r0:r1].reshape(k, len(ts), BOX_DIM),
            channel_features=phi[r0:r1].reshape(k, len(ts), N_FEATURES)))
        k0, r0 = k0 + k, r1
    return out


def encode(pc: PointCloud, transforms: Sequence[Transform]) -> SceneEncoding:
    """Everything of detection that reads no weights; see :class:`SceneEncoding`.

    Channel c is ``pc`` under ``transforms[c]``. This is :func:`encode_batch`
    of one scene.
    """
    return encode_batch([pc], [transforms])[0]


@np.errstate(over="ignore", invalid="ignore")
def score_proposals(enc: SceneEncoding, params: DetectorParams) -> tuple[list[int], np.ndarray]:
    """The encoding's raw proposals scored by the linear classifier: the
    indices of the survivors of greedy proposal NMS, in NMS order, and their
    (C+1,) class score rows."""
    scores = softmax(np.einsum("kf,cf->kc", enc.features / FEATURE_SCALE, params.w_cls))
    keep = nms(enc.boxes, scores[:, 1:].max(axis=1).tolist(), PROPOSAL_NMS_IOU)
    return keep, scores[keep]


@np.errstate(over="ignore", invalid="ignore")
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
    (M,) objectness. Each head is one ``einsum`` of the proposals' class rows
    with their (M, C, F) features; decoding, back-transforms and averaging run
    over all rows at once. A non-finite or non-positive decoded,
    back-transformed or averaged box raises ValueError.
    """
    n_ch = len(enc.transforms)
    phis = enc.channel_features[keep] / FEATURE_SCALE
    heads = class_scores[:, 1:].argmax(axis=1)
    res = np.einsum("mrf,mcf->mcr", params.w_reg[heads], phis)
    obj = sigmoid(np.einsum("mf,mcf->mc", params.w_obj[heads], phis))
    decoded = decode_residuals(res.reshape(-1, BOX_DIM), enc.anchors[keep].reshape(-1, BOX_DIM))
    decoded = check_boxes(decoded).reshape(-1, n_ch, BOX_DIM)
    channel_boxes = check_boxes(np.stack(
        [apply_boxes(invert(t), decoded[:, c]) for c, t in enumerate(enc.transforms)], axis=1))
    boxes = check_boxes(average_box_rows(channel_boxes))
    return boxes, channel_boxes, obj.mean(axis=1)


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


@np.errstate(over="ignore", invalid="ignore")
def loss_and_grads(
    params: DetectorParams, batch: list[TrainExample]
) -> tuple[TrainLosses, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Weighted losses and analytic gradients.

    Classification runs on every RoI and is averaged over the batch; the box
    terms exist only where a target box exists and are averaged over those
    RoIs. Objectness regresses toward the 3D IoU of the currently decoded box
    with its target; that target is treated as a constant within the step, so
    the objectness gradient flows only through the objectness head.

    The batch is stacked into arrays: (B, F) classifier features and, for the
    G foreground RoIs, (G, C, F) channel features and (G, C, 7) anchors and
    targets. Every example must have the same channel count C (ValueError
    otherwise). A non-finite or non-positive decoded box raises ValueError.
    """
    if len({len(ex.channel_features) for ex in batch}) > 1:
        raise ValueError("training examples differ in channel count")
    g_obj = np.zeros_like(params.w_obj)
    g_reg = np.zeros_like(params.w_reg)
    if not batch:
        return TrainLosses(cls=0.0, reg=0.0, obj=0.0), (np.zeros_like(params.w_cls), g_obj, g_reg)
    n, n_ch = len(batch), len(batch[0].channel_features)
    weight = np.array([ex.weight for ex in batch], dtype=np.float64)
    target = np.array([ex.target_class for ex in batch])
    phi_c = np.stack([ex.cls_feature for ex in batch]) / FEATURE_SCALE
    probs = softmax(np.einsum("bf,cf->bc", phi_c, params.w_cls))
    rows = np.arange(n)
    l_cls = -(weight * np.log(np.maximum(probs[rows, target], 1e-300))).sum() / n
    dlogits = probs  # cross-entropy gradient: probabilities minus the one-hot target
    dlogits[rows, target] -= 1.0
    g_cls = np.einsum("b,bc,bf->cf", weight / n, dlogits, phi_c)
    fg = [ex for ex in batch if ex.target_class > 0]
    if not fg or not n_ch:
        return TrainLosses(cls=float(l_cls), reg=0.0, obj=0.0), (g_cls, g_obj, g_reg)
    k = target[target > 0] - 1
    scale = weight[target > 0] / (len(fg) * n_ch)
    phi = np.array([ex.channel_features for ex in fg]) / FEATURE_SCALE
    anchors = box_rows([a for ex in fg for a in ex.anchors])
    targets = box_rows([t for ex in fg for t in ex.targets])
    res_pred = np.einsum("grf,gcf->gcr", params.w_reg[k], phi)
    val, dval = _smooth_l1(res_pred - encode_residuals(targets, anchors).reshape(res_pred.shape))
    l_reg = REG_LOSS_WEIGHT * (scale * val.sum(axis=(1, 2))).sum()
    np.add.at(g_reg, k, np.einsum("g,gcr,gcf->grf", REG_LOSS_WEIGHT * scale, dval, phi))
    decoded = check_boxes(decode_residuals(res_pred.reshape(-1, BOX_DIM), anchors))
    iou_target = np.array([iou_3d(BoxRow(*d), BoxRow(*t))
                           for d, t in zip(decoded.tolist(), targets.tolist())]).reshape(-1, n_ch)
    o = sigmoid(np.einsum("gf,gcf->gc", params.w_obj[k], phi))
    l_obj = (scale * ((o - iou_target) ** 2).sum(axis=1)).sum()
    np.add.at(g_obj, k, np.einsum("gc,gcf->gf",
                                  scale[:, None] * 2.0 * (o - iou_target) * o * (1.0 - o), phi))
    return (TrainLosses(cls=float(l_cls), reg=float(l_reg), obj=float(l_obj)),
            (g_cls, g_obj, g_reg))


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
