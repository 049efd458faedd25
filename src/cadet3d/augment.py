"""Channel augmentation: the fixed (weak) channel transforms, randomly drawn
(strong) ones, and a grid-patch shuffle augmentation.

A channel policy is just its transforms, identity first for the weak set;
:func:`detector.encode_batch` builds the channel clouds from them.

The patch shuffle is a simplified stand-in for the shuffle augmentation used
by hierarchical-supervision pipelines, NOT a reimplementation of it; it can be
disabled via configuration.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Scene
from .geometry import Box3D, PointCloud, Transform


@dataclass(frozen=True)
class StrongRanges:
    """Sampling ranges for one randomly drawn channel transform; the run
    configuration's ``strong_*`` keys set them."""

    rot_min: float
    rot_max: float
    scale_min: float
    scale_max: float
    flip_prob: float

    def __post_init__(self) -> None:
        if not (self.rot_min <= self.rot_max and 0.0 < self.scale_min <= self.scale_max
                and 0.0 <= self.flip_prob <= 1.0):
            raise ValueError(f"need rot_min <= rot_max, 0 < scale_min <= scale_max and "
                             f"0 <= flip_prob <= 1, got {self}")


def weak_default_policy(n_channels: int, rot: float, scale_low: float,
                        scale_high: float) -> tuple[Transform, ...]:
    """The fixed (weak) channel transforms: the identity, then two mirrored,
    counter-rotated, re-scaled channels; the run configuration's ``n_channels``
    and ``weak_*`` keys set them."""
    if n_channels == 1:
        return (Transform.identity(),)
    if n_channels == 3:
        return (
            Transform.identity(),
            Transform(flip_y=True, theta=-rot, s=scale_low),
            Transform(flip_y=True, theta=rot, s=scale_high),
        )
    raise ValueError("weak default policy is defined for 1 or 3 channels")


def strong_channels(ranges: StrongRanges, n_channels: int, rng_seed) -> tuple[Transform, ...]:
    """Independently drawn flip/rotation/scale per channel from a seeded stream.

    Draw order per channel is flip, rotation, scale; the same seed reproduces
    the same transforms bit for bit.
    """
    rng = np.random.default_rng(rng_seed)
    transforms = []
    for _ in range(n_channels):
        flip = bool(rng.random() < ranges.flip_prob)
        theta = float(rng.uniform(ranges.rot_min, ranges.rot_max))
        s = float(rng.uniform(ranges.scale_min, ranges.scale_max))
        transforms.append(Transform(flip_y=flip, theta=theta, s=s))
    return tuple(transforms)


def shuffle_augment(scene: Scene, grid_cells: int, rng_seed) -> Scene:
    """Permute equal-occupancy BEV patches of the scene footprint.

    The footprint AABB of the points is split into ``grid_cells`` x
    ``grid_cells`` patches, indexed ``i * grid_cells + j`` (``i`` along x). A
    patch may move only when every box touching it lies entirely inside it and
    it holds at most one box; the movable patches holding no box, then those
    holding one, are permuted among themselves, carrying their points and
    contained boxes along. Box order is kept; an unmoved box is the same object.
    """
    if grid_cells < 1:
        raise ValueError("grid_cells must be >= 1")
    g, pts = grid_cells, scene.cloud
    if len(pts):
        lo = pts.xyz[:, :2].min(axis=0)
        size = (pts.xyz[:, :2].max(axis=0) - lo) / g
    if g == 1 or len(pts) == 0 or (size < 1e-9).any():
        return Scene(scene.id, pts.copy(), list(scene.gt_boxes), list(scene.gt_classes))

    def patch(xy: np.ndarray) -> np.ndarray:  # (N, 2) -> nearest patch index
        i, j = np.clip(np.floor((xy - lo) / size), 0, g - 1).astype(np.intp).T
        return i * g + j

    # each box spans the patches from its corners' min (x, y) to their max
    corners = np.array([box.corners_bev() for box in scene.gt_boxes]).reshape(-1, 4, 2)
    first, last = patch(corners.min(axis=1)), patch(corners.max(axis=1))
    occupancy = np.zeros((g, g), dtype=int)
    blocked = np.zeros((g, g), dtype=bool)
    for a, b in zip(first, last):
        (i0, j0), (i1, j1) = divmod(a, g), divmod(b, g)
        occupancy[i0 : i1 + 1, j0 : j1 + 1] += 1
        blocked[i0 : i1 + 1, j0 : j1 + 1] |= a != b

    rng = np.random.default_rng(rng_seed)
    dest = np.arange(g * g)
    for level in (0, 1):  # a patch shared by two boxes never moves
        group = np.flatnonzero(~blocked & (occupancy == level))
        dest[group] = group[rng.permutation(len(group))]
    # the (dx, dy) that carries each patch onto its destination
    shift = (np.stack(divmod(dest, g)) - np.stack(divmod(np.arange(g * g), g))).T * size

    xyz = pts.xyz.copy()
    xyz[:, :2] += shift[patch(xyz[:, :2])]
    boxes = list(scene.gt_boxes)
    for k in np.flatnonzero((first == last) & (dest[first] != first)):
        box, (dx, dy) = boxes[k], shift[first[k]]
        boxes[k] = Box3D(box.cx + dx, box.cy + dy, *box[2:])
    return Scene(scene.id, PointCloud(xyz, pts.intensity.copy()), boxes, list(scene.gt_classes))
