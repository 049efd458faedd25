"""Occupancy voxelization and BEV feature grids with cross-channel alignment.

Every stage runs on a batch of planes in one array pass. A voxel or BEV cell
key carries a leading plane index: voxels and channel grids have one plane per
(scene, channel) slot, a fused grid one per scene. A single cloud or grid is
the batch of one plane, with the same code and the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import PointCloud, Transform, invert, map_xy, relative_transforms, transform_params

# BEV feature layout per cell
BEV_MAX_OCC = 0   # max point count over the vertical column
BEV_MAX_HEIGHT = 1  # highest per-voxel mean height in the column


@dataclass(frozen=True)
class VoxelConfig:
    # default z origin sits above the ground plane so ground returns never
    # enter the grid; objects of interest all rise past it
    origin: tuple[float, float, float] = (-20.0, -20.0, 0.15)
    voxel_size: float = 0.25
    nx: int = 160
    ny: int = 160
    nz: int = 12

    def __post_init__(self) -> None:
        if self.voxel_size <= 0:
            raise ValueError("voxel_size must be positive")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("nx and ny must be >= 1")


@dataclass
class VoxelGrid:
    """Sparse occupancy statistics: one row per non-empty cell of each slot.

    Rows ascend in (slot, x, y, z) cell order, so the voxels of one vertical
    column are adjacent and x ascends within a slot; RoI pooling relies on
    both.
    """

    cfg: VoxelConfig
    coords: np.ndarray  # (M, 3) int64 cell indices
    counts: np.ndarray  # (M,) points per cell
    mean_z: np.ndarray  # (M,) mean point height per cell
    mean_intensity: np.ndarray  # (M,)
    slot: np.ndarray  # (M,) int64 slot of each voxel

    @cached_property
    def centers(self) -> np.ndarray:
        return np.asarray(self.cfg.origin) + (self.coords + 0.5) * self.cfg.voxel_size


def voxelize(pc: PointCloud, cfg: VoxelConfig, sizes: Sequence[int] | None = None) -> VoxelGrid:
    """Deterministic binning; points outside the configured extent are dropped.

    ``pc`` holds the clouds of the slots one after another, ``sizes[s]``
    points for slot s (default: one slot); points of different slots never
    share a voxel. The voxel keys are built one axis at a time, so the
    transients stay a few arrays of one integer per point.
    """
    key = np.zeros(len(pc), dtype=np.int64) if sizes is None else np.repeat(
        np.arange(len(sizes)), sizes)
    inside = np.ones(len(pc), dtype=bool)
    for axis, n in enumerate((cfg.nx, cfg.ny, cfg.nz)):
        i = np.floor((pc.xyz[:, axis] - cfg.origin[axis]) / cfg.voxel_size).astype(np.int64)
        inside &= (i >= 0) & (i < n)
        key = key * n + i
    uniq, inverse, counts = np.unique(key[inside], return_inverse=True, return_counts=True)
    cell, z = np.divmod(uniq, cfg.nz)
    col, y = np.divmod(cell, cfg.ny)
    slot, x = np.divmod(col, cfg.nx)
    counts = counts.astype(np.float64)
    mean_z = np.bincount(inverse, weights=pc.xyz[inside, 2], minlength=len(uniq)) / counts
    mean_int = np.bincount(inverse, weights=pc.intensity[inside], minlength=len(uniq)) / counts
    return VoxelGrid(cfg, np.stack([x, y, z], axis=1), counts, mean_z, mean_int, slot)


class BevGrid:
    """2D feature grids derived from voxel grids by vertical compression, held
    as their occupied cells.

    The grid holds planes of ``shape`` cells. ``cells`` are the ascending keys
    ``plane * nx * ny + i * ny + j`` of the held cells and ``values`` their
    (n, F) features (``BEV_MAX_OCC``, ``BEV_MAX_HEIGHT`` for grids of
    :func:`bev_from_voxels`); every other cell is zero. About 1 % of a scene's
    cells are occupied. ``BevGrid(origin_xy, voxel_size, features)`` takes a
    dense (nx, ny, F) array and holds the nonzero cells of its one plane;
    :meth:`from_cells` takes the held cells, which a fused grid's lookups may
    leave zero. :attr:`features` is the dense array of a one-plane grid,
    built when first read.
    """

    def __init__(self, origin_xy: tuple[float, float], voxel_size: float,
                 features: np.ndarray, z_origin: float = 0.0) -> None:
        nx, ny, n_feat = features.shape
        flat = features.reshape(nx * ny, n_feat)
        cells = np.flatnonzero((flat != 0).any(axis=1))
        self.origin_xy, self.voxel_size, self.z_origin = origin_xy, voxel_size, z_origin
        self.shape, self.cells, self.values = (nx, ny), cells, flat[cells]

    @classmethod
    def from_cells(cls, origin_xy: tuple[float, float], voxel_size: float,
                   shape: tuple[int, int], cells: np.ndarray, values: np.ndarray,
                   z_origin: float = 0.0) -> "BevGrid":
        """Grid of planes of ``shape`` that holds ``cells`` (ascending keys)
        with features ``values``."""
        grid = cls.__new__(cls)
        grid.origin_xy, grid.voxel_size, grid.z_origin = origin_xy, voxel_size, z_origin
        grid.shape, grid.cells, grid.values = shape, cells, values
        return grid

    @property
    def plane_size(self) -> int:
        return self.shape[0] * self.shape[1]

    @cached_property
    def features(self) -> np.ndarray:
        """Dense (nx, ny, F) features of a one-plane grid."""
        dense = np.zeros((self.plane_size, self.values.shape[1]))
        dense[self.cells] = self.values
        return dense.reshape(*self.shape, -1)

    def cell_xy(self, cells: np.ndarray) -> np.ndarray:
        """(N, 2) planar centers of the cells with keys ``cells``."""
        ij = np.stack([cells // self.shape[1] % self.shape[0], cells % self.shape[1]], axis=1)
        return np.asarray(self.origin_xy) + (ij + 0.5) * self.voxel_size

    def interpolate(self, xy: np.ndarray) -> np.ndarray:
        """(N, F) bilinear feature lookup at planar points, zero outside the extent."""
        hit, rows = self.lookup(xy)
        out = np.zeros((len(xy), self.values.shape[1]))
        out[hit] = rows
        return out

    def lookup(self, xy: np.ndarray, plane: np.ndarray | int = 0) -> tuple[np.ndarray, np.ndarray]:
        """(hit, rows): the indices of the points of ``xy`` that have a held
        bilinear corner in their ``plane``, and their interpolated features;
        every other point reads exactly zero.

        Corners outside the grid read zero; see :meth:`_corner_rows`.
        """
        u = (xy[:, 0] - self.origin_xy[0]) / self.voxel_size - 0.5
        v = (xy[:, 1] - self.origin_xy[1]) / self.voxel_size - 0.5
        i0 = np.floor(u).astype(np.int64)
        j0 = np.floor(v).astype(np.int64)
        pos = self._corner_rows(i0, j0, plane)
        hit = np.flatnonzero((pos < len(self.cells)).any(axis=1))
        pos, fu, fv = pos[hit], u[hit] - i0[hit], v[hit] - j0[hit]
        padded = np.vstack([self.values, np.zeros(self.values.shape[1])])
        rows = ((1 - fu) * (1 - fv))[:, None] * padded[pos[:, 0]]  # corners 00, 01, 10, 11
        rows += ((1 - fu) * fv)[:, None] * padded[pos[:, 1]]
        rows += (fu * (1 - fv))[:, None] * padded[pos[:, 2]]
        rows += (fu * fv)[:, None] * padded[pos[:, 3]]
        return hit, rows

    def _corner_rows(self, i0: np.ndarray, j0: np.ndarray, plane: np.ndarray | int) -> np.ndarray:
        """(N, 4) int32 rows of ``values`` at the corners 00, 01, 10, 11 of the
        cells (i0, j0) of ``plane``; ``len(cells)`` where no cell is held.

        Each corner is found in a dense map from cell key to the row's offset
        in its plane, uint16 where a plane has fewer than 65535 cells.
        """
        nx, ny = self.shape
        size, n = self.plane_size, len(self.cells)
        cell_plane = self.cells // size
        first = np.searchsorted(cell_plane, np.arange(cell_plane.max(initial=0) + 1))
        dtype = np.uint16 if size < 65535 else np.int32
        none = np.iinfo(dtype).max
        offset = np.full(int(self.cells[-1]) + 1 if n else 0, none, dtype=dtype)
        offset[self.cells] = np.arange(n) - first[cell_plane]
        pos = np.full((len(i0), 4), n, dtype=np.int32)
        for c, (i, j) in enumerate(((i0, j0), (i0, j0 + 1), (i0 + 1, j0), (i0 + 1, j0 + 1))):
            key = plane * size + i * ny + j
            inside = np.flatnonzero((i >= 0) & (i < nx) & (j >= 0) & (j < ny) & (key < len(offset)))
            off = offset[key[inside]]
            held = off != none
            at = inside[held]
            pos[at, c] = first[np.broadcast_to(plane, key.shape)[at]] + off[held]
        return pos


def bev_from_voxels(grid: VoxelGrid) -> BevGrid:
    """Compress each vertical column into (max point count, max mean height),
    one plane per slot.

    The voxels of a column are one run of ``grid.coords``, so the occupied
    cells are the runs and their features are maxima over each run.
    """
    cfg = grid.cfg
    col = (grid.slot * cfg.nx + grid.coords[:, 0]) * cfg.ny + grid.coords[:, 1]
    start = np.flatnonzero(np.diff(col, prepend=-1))
    values = np.stack([np.maximum.reduceat(grid.counts, start),
                       np.maximum.reduceat(grid.mean_z, start)], axis=1)
    return BevGrid.from_cells((cfg.origin[0], cfg.origin[1]), cfg.voxel_size, (cfg.nx, cfg.ny),
                              col[start], values, cfg.origin[2])


def _footprints(grid: BevGrid, rels: list[Transform]) -> np.ndarray:
    """Ascending keys ``p * nx * ny + cell``: for each plane p of ``grid``,
    the base cells whose centers ``rels[p]`` may map into the bilinear
    footprint of an occupied cell of plane p.

    A lookup reads a filled corner only within one cell of it per axis, so
    within sqrt(2) cells; ``rel`` scales distances by ``rel.s``. Each occupied
    cell center is mapped back through ``rel``'s inverse and dilated by that
    radius in cells, plus a slack that covers rounding. The result is a
    superset of the cells whose lookup is nonzero. Where dilating costs more
    than a lookup of every cell, every cell is taken.
    """
    nx, ny = grid.shape
    size = grid.plane_size
    q = grid.cells // size
    back = map_xy(transform_params([invert(r) for r in rels])[q], grid.cell_xy(grid.cells))
    back = (back - np.asarray(grid.origin_xy)) / grid.voxel_size - 0.5  # base cell coordinates
    radius = np.array([math.sqrt(2.0) * grid.voxel_size / (r.s * grid.voxel_size) + 1e-6
                       for r in rels])
    n_span = (2 * radius).astype(np.int64) + 1  # integers in [x - radius, x + radius]
    dense = np.bincount(q, minlength=len(rels)) * n_span ** 2 >= size
    n_span[dense] = 0  # those planes take every cell
    lo = np.ceil(back - radius[q][:, None]).astype(np.int64)
    span = np.arange(n_span.max(initial=0))
    j = lo[:, 1, None] + span
    j_ok = (j >= 0) & (j < ny) & (span < n_span[q][:, None])
    mark = np.zeros((len(rels), size), dtype=bool)
    for di in span:  # one row of each dilation square at a time
        i = lo[:, 0] + di
        ok = j_ok & ((i >= 0) & (i < nx) & (di < n_span[q]))[:, None]
        mark.reshape(-1)[((q * size + i * ny)[:, None] + j)[ok]] = True
    mark[dense] = True
    return np.flatnonzero(mark)


def bev_align(grids: BevGrid | Sequence[BevGrid], transforms: Sequence[Transform],
              channels: Sequence[int] | None = None) -> BevGrid:
    """Fuse per-channel BEV grids into channel-1 space, one fused plane per scene.

    ``grids`` is one grid whose planes are the channels of every scene in
    turn, or a list of one-plane grids; ``transforms`` holds each plane's
    channel transform and ``channels`` each scene's channel count (default:
    one scene of every plane). All planes share one origin, voxel size and
    shape (ValueError otherwise).

    Grid points are the channel-1 cell centers; each is mapped through
    T_i o T_1^{-1} into channel i, features are bilinearly interpolated there
    (zero outside the channel extent), and the fusion is the component-wise
    maximum over channels. Only the cells of :func:`_footprints` are looked
    up, for every non-identity channel of the batch at once; every other cell
    is exactly zero. Identity mappings skip interpolation so a single channel,
    or all-identity transforms, reproduce inputs exactly. The maxima run over
    the union of the channels' cells, a frame that holds zero wherever a
    channel has no cell, in channel order.
    """
    if not isinstance(grids, BevGrid):
        if len(grids) != len(transforms):
            raise ValueError("need one transform per grid")
        grids = _stack_planes(grids)
    grid, size = grids, grids.plane_size
    channels = [len(transforms)] if channels is None else list(channels)
    cell_plane = grid.cells // size
    if (sum(channels) != len(transforms) or not transforms or min(channels) < 1
            or cell_plane.max(initial=0) >= len(transforms)):
        raise ValueError("need one transform per grid")
    first = np.cumsum(channels) - channels
    scene = np.repeat(np.arange(len(channels)), channels)  # of each plane
    chan = np.arange(len(transforms)) - first[scene]
    rels = [r for b, n in zip(first, channels) for r in relative_transforms(transforms[b:b + n])]
    moved = np.array([not r.is_identity for r in rels], dtype=bool)
    kept = ~moved[cell_plane]  # cells of identity planes are fused as they are
    keys = [scene[cell_plane[kept]] * size + grid.cells[kept] % size]
    chans, values = [chan[cell_plane[kept]]], [grid.values[kept]]
    looked = np.flatnonzero(moved)
    if len(looked):  # the non-identity planes, renumbered q = 0, 1, ...
        moving = BevGrid.from_cells(
            grid.origin_xy, grid.voxel_size, grid.shape,
            (np.cumsum(moved) - 1)[cell_plane[~kept]] * size + grid.cells[~kept] % size,
            grid.values[~kept])
        rels = [rels[p] for p in looked]
        q, cells = np.divmod(_footprints(moving, rels), size)
        hit, rows = moving.lookup(map_xy(transform_params(rels)[q], grid.cell_xy(cells)), q)
        plane = looked[q]
        keys.append(scene[plane[hit]] * size + cells[hit])
        chans.append(chan[plane[hit]])
        values.append(rows)
    keys, chans, values = np.concatenate(keys), np.concatenate(chans), np.concatenate(values)
    union = np.zeros(len(channels) * size, dtype=bool)
    union[keys] = True
    union = np.flatnonzero(union)
    pos = np.empty(len(channels) * size, dtype=np.int32)
    pos[union] = np.arange(len(union), dtype=np.int32)
    pos = pos[keys]
    fused = np.zeros((len(union), grid.values.shape[1]))
    at = chans == 0
    fused[pos[at]] = values[at]
    frame = np.zeros_like(fused)
    n_channels = np.asarray(channels)[union // size]  # of each fused cell's scene
    for c in range(1, max(channels)):
        at = chans == c
        frame[pos[at]] = values[at]
        np.maximum(fused, frame, out=fused, where=(n_channels > c)[:, None])
        frame[pos[at]] = 0.0
    return BevGrid.from_cells(grid.origin_xy, grid.voxel_size, grid.shape, union, fused,
                              grid.z_origin)


def _stack_planes(grids: Sequence[BevGrid]) -> BevGrid:
    """One grid whose plane p is the one-plane grid ``grids[p]``; all share
    one geometry (ValueError otherwise)."""
    if not grids:
        raise ValueError("need one transform per grid")
    base = grids[0]
    if any((g.origin_xy, g.voxel_size, g.shape) != (base.origin_xy, base.voxel_size, base.shape)
           for g in grids):
        raise ValueError("grids differ in origin, voxel size or shape")
    return BevGrid.from_cells(
        base.origin_xy, base.voxel_size, base.shape,
        np.concatenate([g.cells + p * base.plane_size for p, g in enumerate(grids)]),
        np.concatenate([g.values for g in grids]), base.z_origin)
