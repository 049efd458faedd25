"""Channel augmentation: randomly drawn (strong) channel transforms and a
grid-patch shuffle augmentation.

A channel policy is just its transforms: the fixed (weak) set, identity
first, is :meth:`RunConfig.weak_policy`, the strong set is drawn by
:func:`strong_channels`, and :func:`detector.encode_batch` builds the channel
clouds from either.

The patch shuffle is a simplified stand-in for the shuffle augmentation used
by hierarchical-supervision pipelines, NOT a reimplementation of it; it can be
disabled via configuration.
"""
from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .data import Scene
from .geometry import Box3D, PointCloud, Transform


def strong_channels(cfg: RunConfig, rng_seed) -> tuple[Transform, ...]:
    """``cfg.n_channels`` independently drawn transforms from a seeded stream:
    a flip with probability ``strong_flip_prob``, a rotation uniform in
    ±``strong_rot_deg`` (in radians) and a scale uniform in
    [``strong_scale_low``, ``strong_scale_high``].

    Draw order per channel is flip, rotation, scale; the same seed reproduces
    the same transforms bit for bit.
    """
    rng = np.random.default_rng(rng_seed)
    rot = math.radians(cfg.strong_rot_deg)
    transforms = []
    for _ in range(cfg.n_channels):
        flip = bool(rng.random() < cfg.strong_flip_prob)
        theta = float(rng.uniform(-rot, rot))
        s = float(rng.uniform(cfg.strong_scale_low, cfg.strong_scale_high))
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
