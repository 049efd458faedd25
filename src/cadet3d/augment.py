"""Channel augmentation: the fixed (weak) channel transforms, randomly drawn
(strong) ones, and a grid-patch shuffle augmentation.

A channel policy is just its transforms, identity first for the weak set;
:func:`detector.encode` builds the channel clouds from them.

The patch shuffle is a simplified stand-in for the shuffle augmentation used
by hierarchical-supervision pipelines, NOT a reimplementation of it; it can be
disabled via configuration.
"""
from __future__ import annotations

import math
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
    ``grid_cells`` patches. A patch may move only when every box touching it
    lies entirely inside it and it holds at most one box; movable patches are
    permuted among patches of equal box count, carrying their points and
    contained boxes along. Box order is preserved.
    """
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
