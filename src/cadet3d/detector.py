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
each with C channel transforms of its own, and does everything that reads no
weights: channel clouds, voxel grids, the fused BEV, the raw proposals and
the RoI features pooled for every raw proposal in every channel. Each stage
is one array pass over every (scene, channel) slot of the batch: voxel, BEV
cell and RoI keys carry a leading slot or scene index, and per-slot transform
parameters are broadcast per point and repeated per cell or row, so each
scene's result has the bits of encoding it alone, in a batch of one
included. The channel clouds are written in place, scene by scene, into
one array of the batch's points. Each scene gets a read-only
:class:`SceneEncoding`. Scoring
(:func:`detect_batch`, :func:`build_training_examples`) reads the weights:
the proposal class scores, proposal NMS, the heads and the final NMS. The
weak channel transforms are fixed, so one encoding of a scene serves every
pass over it. :func:`encode_batches` encodes ``ENCODE_BATCH`` scenes per
call: the CLI's weak-policy scenes and the student's strong-channel steps
alike; every weak pass detects as many per :func:`detect_batch` call.

Scoring runs on the encodings' arrays, "shared proposals x channels".
:func:`score_proposals` takes one row-wise softmax over the stacked proposals
of a batch of encodings and returns, per encoding, the indices of the
proposals that survive NMS; :func:`refine` indexes their (K, C, 7) anchors
and (K, C, F) features, stacks them over the batch and evaluates each head as
one ``einsum``, and decoding, back-transforms and the channel average run
over all rows at once. Each row is computed as in a batch of one, so the
batching keeps every bit. :func:`loss_and_grads` stacks its examples the same
way. ``nms`` and ``best_match`` test exact IoU only on the pairs that pass an
array circumradius pre-reject. Boxes travel as (N, 7) rows:
:func:`detect_batch` returns each scene's detections as the read-only rows of
a :class:`SceneDetections`, and training examples hold their (C, 7) anchor
and target rows; no :class:`Box3D` is built. Scoring
and training run with numpy's overflow and invalid-value warnings off: the
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
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .data import atomic_open
from .geometry import (
    Box3D,
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
    nms,
    relative_transforms,
    transform_params,
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
# Scenes per encode_batch call of encode_batches. A batch holds about
# 0.5 MB of transients per scene. At 4 scenes the benchmark's peak RSS stays
# at or below that of encoding one scene at a time; at 8 it rose 3-5 % and
# encoding got no faster.
ENCODE_BATCH = 4

T = TypeVar("T")


def encode_batches(items: Iterable[T],
                   inputs: Callable[[T], tuple[PointCloud, Sequence[Transform]]]
                   ) -> Iterator[tuple[T, SceneEncoding]]:
    """Each of ``items`` with the encoding of ``inputs(item)``, a cloud and its
    channel transforms, ``ENCODE_BATCH`` items per :func:`encode_batch` call.
    Each batch of ``items`` is drawn, and its inputs built, just before it is
    encoded, once the previous batch has been yielded."""
    it = iter(items)
    while batch := list(islice(it, ENCODE_BATCH)):
        yield from zip(batch, encode_batch(*zip(*map(inputs, batch))))
        del batch  # the next batch is drawn without this one held


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


class _Scored:
    """``p_hat``, ``predicted_class`` and ``confidence`` of the last axis of
    ``class_scores`` (column 0 the background) and of ``objectness``: numpy
    scalars for one detection, (D,) arrays for D."""

    @property
    def p_hat(self):
        return self.class_scores[..., 1:].max(axis=-1)

    @property
    def predicted_class(self):
        return self.class_scores[..., 1:].argmax(axis=-1) + 1

    @property
    def confidence(self):
        return self.p_hat * self.objectness


@dataclass
class Detection(_Scored):
    """One detection as objects, for one-detection callers."""

    box: Box3D  # the average of ``per_channel_boxes``
    per_channel_boxes: Sequence[Sequence[float]]  # (C, 7) rows, canonical frame
    class_scores: np.ndarray
    objectness: float


@dataclass(frozen=True)
class SceneDetections(_Scored):
    """One scene's D detections, in final-NMS order, as read-only float64
    rows: row i of each array is detection i."""

    boxes: np.ndarray  # (D, 7) the averages of ``channel_boxes``
    channel_boxes: np.ndarray  # (D, C, 7) canonical frame
    class_scores: np.ndarray  # (D, K+1)
    objectness: np.ndarray  # (D,)

    def __post_init__(self) -> None:
        for arr in (self.boxes, self.channel_boxes, self.class_scores, self.objectness):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.boxes)


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


def _segment_pca(x: np.ndarray, y: np.ndarray, weights: np.ndarray | float, start: np.ndarray,
                 sizes: np.ndarray, total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal axes and extents of point segments, on 1-D columns.

    ``x`` and ``y`` hold the (N,) offsets from each segment's weighted mean;
    the segments begin at the ascending positions ``start`` and hold
    ``sizes`` points and ``total`` weight. Returns the (n, 2, 2) eigenvectors
    of the weighted covariances (columns, ascending eigenvalues) and the
    (2, n) extents along the major and the minor axis: the ranges of the
    projections ``x * e0 + y * e1``, the axis ``e`` repeated per point.
    """
    wx, wy = weights * x, weights * y
    sxx, sxy, syy = (np.add.reduceat(p, start) / total for p in (wx * x, wx * y, wy * y))
    _, vecs = np.linalg.eigh(np.stack([sxx, sxy, sxy, syy], axis=1).reshape(-1, 2, 2))
    extent = np.empty((2, len(start)))
    for row, k in enumerate((1, 0)):  # the major axis, then the minor
        proj = x * np.repeat(vecs[:, 0, k], sizes) + y * np.repeat(vecs[:, 1, k], sizes)
        extent[row] = np.maximum.reduceat(proj, start) - np.minimum.reduceat(proj, start)
    return vecs, extent


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
    array pass over 1-D columns: segment sums (``np.add.reduceat``) for the
    means and covariances, one stacked ``eigh``, projections onto the repeated
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
    (x, y), z = fused.cell_xy(flat[idx]).T, values[idx, BEV_MAX_HEIGHT]
    sum_x, sum_y, count, sum_h = (np.add.reduceat(c, start)
                                  for c in (x, y, values[idx, BEV_MAX_OCC], z))
    mean_x, mean_y, height = sum_x / n_cells, sum_y / n_cells, sum_h / n_cells
    spread = np.sqrt(np.add.reduceat((z - np.repeat(height, n_cells)) ** 2, start) / n_cells)
    vecs, extent = _segment_pca(x - np.repeat(mean_x, n_cells), y - np.repeat(mean_y, n_cells),
                                1.0, start, n_cells, n_cells)
    voxel = fused.voxel_size
    length = extent[0] + voxel + PADDING
    width = extent[1] + voxel + PADDING
    # vertical span measured from the grid floor: columns sample objects
    # too sparsely for the occupied-fraction estimate to be reliable
    z_top = np.maximum.reduceat(z, start)
    h = np.maximum(z_top + 0.5 * voxel - fused.z_origin, voxel)
    raw[:, :BOX_DIM] = np.column_stack([
        mean_x, mean_y, fused.z_origin + 0.5 * h, width, h, length,
        wrap_angles(np.arctan2(vecs[:, 1, 1], vecs[:, 0, 1]))])
    phi = raw[:, BOX_DIM:]
    phi[:, 0] = np.log1p(count)
    phi[:, 1] = np.minimum(1.0, n_cells * voxel * voxel / (width * length))
    phi[:, 2] = height
    phi[:, 3] = spread
    phi[:, 4] = extent[0] + voxel
    phi[:, 5] = extent[1] + voxel
    phi[:, 6] = h
    phi[:, 8] = np.hypot(mean_x, mean_y) / 100.0
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
    cx, cy, cz, w, h, l, r = anchors.T
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
    dy = centers[vox, 1] - cy[roi]
    near = np.flatnonzero(np.abs(dy) <= reach[roi])
    roi, vox, dy = roi[near], vox[near], dy[near]
    cos, sin = np.cos(r)[roi], np.sin(r)[roi]
    dx, dz = centers[vox, 0] - cx[roi], centers[vox, 2] - cz[roi]
    u = cos * dx + sin * dy
    v = -sin * dx + cos * dy
    keep = np.flatnonzero((np.abs(u) <= 0.5 * l_e[roi]) & (np.abs(v) <= 0.5 * w_e[roi])
                          & (np.abs(dz) <= 0.5 * h_e[roi]))
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
    x, y, zs = centers[idx].T
    cell_z, intensity = grid.mean_z[idx], grid.mean_intensity[idx]
    npts, sum_h, sum_int, sum_x, sum_y = (  # npts: whole numbers, exact in any order
        np.add.reduceat(c, start)
        for c in (counts, counts * cell_z, counts * intensity, counts * x, counts * y))
    mean_h = sum_h / npts
    var_h = np.add.reduceat(counts * (cell_z - np.repeat(mean_h, n_cells)) ** 2, start) / npts
    _, extent = _segment_pca(x - np.repeat(sum_x / npts, n_cells),
                             y - np.repeat(sum_y / npts, n_cells), counts, start, n_cells, npts)
    voxel = cfg.voxel_size
    phi[hit, 0] = np.log1p(npts)
    phi[hit, 1] = np.minimum(1.0, n_cols * voxel * voxel / (w_e[hit] * l_e[hit]))
    phi[hit, 2] = mean_h
    phi[hit, 3] = np.sqrt(var_h)
    phi[hit, 4] = extent[0] + voxel
    phi[hit, 5] = extent[1] + voxel
    phi[hit, 6] = np.maximum.reduceat(zs, start) - np.minimum.reduceat(zs, start) + voxel
    phi[hit, 7] = sum_int / npts
    phi[hit, 8] = np.hypot(cx[hit], cy[hit]) / 100.0
    phi[hit, 9] = np.minimum(w[hit], l[hit]) / np.maximum(w[hit], l[hit])
    phi[hit, 10] = npts / n_cells
    return phi


def _channel_clouds(clouds: Sequence[PointCloud], transforms: list[tuple[Transform, ...]]
                    ) -> tuple[PointCloud, list[int]]:
    """Every cloud under each of its channel transforms, one (scene, channel)
    slot after another, and the points per slot. A cloud's C channels are
    written in place as one (C, n) block per coordinate, its transforms'
    parameters broadcast against its points, with the bits of mapping each
    alone."""
    sizes = [len(pc) for pc, ts in zip(clouds, transforms) for _ in ts]
    xyz, intensity = np.empty((sum(sizes), 3)), np.empty(sum(sizes))
    at = 0
    for pc, ts in zip(clouds, transforms):
        n = len(ts) * len(pc)
        block = xyz[at:at + n].reshape(len(ts), len(pc), 3)
        f, c, s, k, _ = transform_params(ts).T[:, :, None]  # (C, 1) each
        x, y = pc.xyz[:, 0], f * pc.xyz[:, 1]
        block[..., 0] = k * (c * x - s * y)
        block[..., 1] = k * (s * x + c * y)
        block[..., 2] = k * pc.xyz[:, 2]
        intensity[at:at + n].reshape(len(ts), len(pc))[:] = pc.intensity
        at += n
    return PointCloud(xyz, intensity), sizes


def encode_batch(clouds: Sequence[PointCloud],
                 transforms_per_scene: Sequence[Sequence[Transform]]) -> list[SceneEncoding]:
    """The encoding of every cloud under its own channel transforms, C of
    them for every scene (ValueError otherwise, before any work); see
    :class:`SceneEncoding`. Each encoding has the bits of encoding it alone.

    A slot is one (scene, channel) pair, scene-major. The slots' clouds are
    voxelized, compressed to BEV, aligned and fused (one plane per scene),
    proposed from and pooled in one call each, and every proposal's anchors
    in every channel are mapped in one pass, its slot's relative transform
    parameters repeated per row.
    """
    transforms = [tuple(t) for t in transforms_per_scene]
    n_ch = len(transforms[0]) if transforms else 0
    if len(clouds) != len(transforms) or any(len(ts) != n_ch for ts in transforms):
        raise ValueError(f"need one transform list per cloud, each of {n_ch} channels")
    pc, sizes = _channel_clouds(clouds, transforms)
    grid = voxelize(pc, VOXEL, sizes)
    del pc  # each channel cloud is dropped once voxelized
    props = propose(bev_align(bev_from_voxels(grid), [t for ts in transforms for t in ts], n_ch))
    # anchor rows: scene-major, then proposal, then channel
    row_slot = (props.plane[:, None] * n_ch + np.arange(n_ch)).ravel()
    rels = [r for ts in transforms for r in relative_transforms(ts)]
    anchors = np.repeat(props.rows[:, :BOX_DIM], n_ch, axis=0)
    moved = np.flatnonzero(~np.array([r.is_identity for r in rels])[row_slot])
    anchors[moved] = map_boxes(transform_params(rels)[row_slot[moved]], anchors[moved])
    phi = roi_features(anchors, grid, row_slot).reshape(-1, n_ch, N_FEATURES)
    anchors = anchors.reshape(-1, n_ch, BOX_DIM)
    out, k0 = [], 0
    for ts, k in zip(transforms, np.bincount(props.plane, minlength=len(clouds)).tolist()):
        out.append(SceneEncoding(
            transforms=ts,
            boxes=np.ascontiguousarray(props.rows[k0:k0 + k, :BOX_DIM]),
            features=np.ascontiguousarray(props.rows[k0:k0 + k, BOX_DIM:]),
            anchors=anchors[k0:k0 + k],
            channel_features=phi[k0:k0 + k]))
        k0 += k
    return out


@np.errstate(over="ignore", invalid="ignore")
def score_proposals(encs: Sequence[SceneEncoding], params: DetectorParams
                    ) -> list[tuple[list[int], np.ndarray]]:
    """Each encoding's raw proposals scored by the linear classifier: per
    encoding, the indices of the survivors of greedy proposal NMS, in NMS
    order, and their (C+1,) class score rows. One ``einsum`` and one softmax
    run over the stacked proposals of all ``encs``; NMS runs per encoding."""
    if not encs:
        return []
    features = np.concatenate([enc.features for enc in encs])
    scores = softmax(np.einsum("kf,cf->kc", features / FEATURE_SCALE, params.w_cls))
    out, k0 = [], 0
    for enc in encs:
        rows = scores[k0:k0 + len(enc.boxes)]
        k0 += len(enc.boxes)
        keep = nms(enc.boxes, rows[:, 1:].max(axis=1).tolist(), PROPOSAL_NMS_IOU)
        out.append((keep, rows[keep]))
    return out


@np.errstate(over="ignore", invalid="ignore")
def refine(
    encs: Sequence[SceneEncoding],
    keeps: Sequence[list[int]],
    class_scores: np.ndarray,
    params: DetectorParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel RoI refinement and back-transformed averaging of the
    proposals ``keeps[i]`` of each of ``encs``, stacked encoding after
    encoding; ``class_scores`` holds their class score rows in that order.
    The encodings must have one channel count C.

    Proposals live in the channel-1 frame; refined boxes come back to the
    canonical (untransformed) frame through each channel's inverse transform.
    Returns the (M, 7) averaged boxes, the (M, C, 7) channel boxes and the
    (M,) objectness. Each head is one ``einsum`` of the proposals' class rows
    with their (M, C, F) features; decoding, back-transforms and averaging run
    over all rows at once, each row back-transformed by its own encoding's
    :func:`transform_params` row, so the encodings may differ in transforms.
    A non-finite or non-positive decoded, back-transformed or averaged box
    raises ValueError.
    """
    n_ch = len(encs[0].transforms)
    phis = np.concatenate([enc.channel_features[keep] for enc, keep in zip(encs, keeps)])
    phis = phis / FEATURE_SCALE
    anchors = np.concatenate([enc.anchors[keep] for enc, keep in zip(encs, keeps)])
    heads = class_scores[:, 1:].argmax(axis=1)
    res = np.einsum("mrf,mcf->mcr", params.w_reg[heads], phis)
    obj = sigmoid(np.einsum("mf,mcf->mc", params.w_obj[heads], phis))
    decoded = check_boxes(decode_residuals(res.reshape(-1, BOX_DIM), anchors.reshape(-1, BOX_DIM)))
    # row (m, c) goes back by the inverse of channel c of its encoding
    backs = [invert(t) for enc in encs for t in enc.transforms]
    first = np.repeat(np.arange(len(encs)) * n_ch, [len(keep) for keep in keeps])
    row_back = (first[:, None] + np.arange(n_ch)).ravel()
    moved = np.flatnonzero(~np.array([t.is_identity for t in backs], dtype=bool)[row_back])
    decoded[moved] = map_boxes(transform_params(backs)[row_back[moved]], decoded[moved])
    channel_boxes = check_boxes(decoded).reshape(-1, n_ch, BOX_DIM)
    boxes = check_boxes(average_box_rows(channel_boxes))
    return boxes, channel_boxes, obj.mean(axis=1)


def detect_batch(encs: Sequence[SceneEncoding], params: DetectorParams
                 ) -> list[SceneDetections]:
    """Score encoded scenes of one channel count: per encoding, its
    canonical-frame, NMS-deduplicated detections as rows.

    The batch is scored in one :func:`score_proposals` call and refined in
    one :func:`refine` call over the kept rows of every encoding; the
    proposal NMS and the final NMS run per encoding. Every row is computed
    as in a batch of one, so each scene's detections have the bits of
    detecting it alone.
    """
    scored = score_proposals(encs, params)
    if not scored:
        return []
    keeps = [keep for keep, _ in scored]
    class_scores = np.concatenate([rows for _, rows in scored])
    boxes, channel_boxes, objectness = refine(encs, keeps, class_scores, params)
    confidence = (class_scores[:, 1:].max(axis=1) * objectness).tolist()
    out, m0 = [], 0
    for keep in keeps:
        m1 = m0 + len(keep)
        rows = m0 + np.array(nms(boxes[m0:m1], confidence[m0:m1], FINAL_NMS_IOU), dtype=np.int64)
        out.append(SceneDetections(boxes[rows], channel_boxes[rows], class_scores[rows],
                                   objectness[rows]))
        m0 = m1
    return out


def detect(enc: SceneEncoding, params: DetectorParams) -> SceneDetections:
    """Score an encoded scene: :func:`detect_batch` of one encoding."""
    return detect_batch([enc], params)[0]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainExample:
    """One RoI with per-channel pooled features and (optionally) box targets.

    ``anchors``/``targets`` are channel-frame boxes, one per channel: (C, 7)
    rows or :class:`Box3D` lists alike. ``targets`` is None for background
    RoIs. ``cls_feature`` is the proposal-classifier input.
    """

    cls_feature: np.ndarray
    channel_features: list[np.ndarray]
    anchors: Sequence[Sequence[float]]
    targets: Sequence[Sequence[float]] | None
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
    anchors = box_rows([ex.anchors for ex in fg])
    targets = box_rows([ex.targets for ex in fg])
    res_pred = np.einsum("grf,gcf->gcr", params.w_reg[k], phi)
    val, dval = _smooth_l1(res_pred - encode_residuals(targets, anchors).reshape(res_pred.shape))
    l_reg = REG_LOSS_WEIGHT * (scale * val.sum(axis=(1, 2))).sum()
    np.add.at(g_reg, k, np.einsum("g,gcr,gcf->grf", REG_LOSS_WEIGHT * scale, dval, phi))
    decoded = check_boxes(decode_residuals(res_pred.reshape(-1, BOX_DIM), anchors))
    iou_target = np.array([iou_3d(d, t) for d, t in zip(decoded.tolist(), targets.tolist())]
                          ).reshape(-1, n_ch)
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


@np.errstate(over="ignore", invalid="ignore")
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
    the rest become background RoIs with ``background_weight``. Each example
    holds its proposal's (C, 7) channel-frame anchor rows. A foreground RoI's
    (C, 7) target rows are the matched target pushed through each channel
    transform, each turned by a half-turn where that brings its yaw residual
    against the anchor into (-pi/2, pi/2]: a footprint is invariant under a
    half-turn of its heading, and this keeps yaw residuals unimodal. The kept
    anchors and the matched targets must be finite with positive sizes
    (ValueError otherwise).
    """
    keep, _ = score_proposals([enc], params)[0]
    gts = box_rows(target_boxes)
    canonical = apply_boxes(invert(enc.transforms[0]), enc.boxes[keep])
    matches = [idx if idx >= 0 and iou >= MATCH_IOU else -1
               for iou, idx in best_match(canonical, gts)]
    anchors = check_boxes(enc.anchors[keep])  # (K, C, 7)
    fg = [k for k, idx in enumerate(matches) if idx >= 0]
    channel_gts = np.stack([apply_boxes(t, gts) for t in enc.transforms], axis=1)  # (G, C, 7)
    targets = check_boxes(channel_gts[[matches[k] for k in fg]])  # (len(fg), C, 7)
    yaw = targets[..., 6]
    d = wrap_angles(yaw - anchors[fg, :, 6])
    yaw[:] = wrap_angles(np.where(d > math.pi / 2, yaw - math.pi,
                                  np.where(d <= -math.pi / 2, yaw + math.pi, yaw)))
    fg_targets = iter(targets)
    examples = []
    for i, row_anchors, idx in zip(keep, anchors, matches):
        if idx >= 0:
            row_targets = next(fg_targets)
            target_class, weight = target_classes[idx], float(target_weights[idx])
        else:
            row_targets, target_class, weight = None, 0, background_weight
        examples.append(TrainExample(enc.features[i], list(enc.channel_features[i]), row_anchors,
                                     row_targets, target_class, weight))
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
