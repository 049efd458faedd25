"""Occupancy voxelization and BEV feature grids with cross-channel alignment.

Every stage runs on a batch of planes in one array pass. A voxel or BEV cell
key carries a leading plane index: voxels and channel grids have one plane per
(scene, channel) slot, a fused grid one per scene. A single cloud or grid is
the batch of one plane, with the same code and the same bits; the alignment
interpolates every non-identity plane of a batch in one pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .geometry import PointCloud, Transform, invert, relative_transforms, transform_params

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
    :meth:`from_cells` takes the held cells, which a fused grid's
    interpolation may leave zero. :attr:`features` is the dense array of a
    one-plane grid, built when first read.
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


def _interpolated(grid: BevGrid, rels: list[Transform], moved: np.ndarray, scene: np.ndarray,
                  chan: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keys, chans, rows): fused key, channel and bilinear features of each
    cell of a plane p with ``moved[p]`` whose center, mapped by ``rels[p]``,
    has a held corner in plane p.

    A corner is read only within one cell per axis, so sqrt(2) cells, and
    ``rel`` scales distances by ``rel.s``: each held cell center is mapped
    back through ``rel``'s inverse and dilated by that radius in cells, plus a
    slack for rounding, in one boolean (planes, nx, ny) frame. A window row or
    column is marked only inside the grid and within the cell's own span; the
    window starts are clipped into [-pad, n], pad the widest span, only to
    bound the integer keys. The marks are read back flat, in (plane, i, j)
    order. The marked cells are mapped forward and read their corners 00, 01,
    10, 11 from a zero-filled frame of row offsets + 1 padded by two cells
    (uint16 where a plane has fewer than 65535 cells), 0 meaning no row, the
    lower corner clipped into [-2, n].
    """
    nx, ny = grid.shape
    size, vs, (ox, oy) = grid.plane_size, grid.voxel_size, grid.origin_xy
    looked = np.flatnonzero(moved)
    rels = [rels[p] for p in looked]
    cell_plane = grid.cells // size
    row = np.flatnonzero(moved[cell_plane])  # held rows of the moved planes
    held_q = (np.cumsum(moved) - 1)[cell_plane[row]]  # their planes, renumbered 0, 1, ...
    held_i, held_j = grid.cells[row] // ny % nx, grid.cells[row] % ny

    def cell_uv(params, q, i, j):
        """Centers of the cells (i, j) mapped by ``params[q]``, in cell coordinates."""
        f, c, s, k = (params[:, m][q] for m in range(4))
        x, y = ox + (i + 0.5) * vs, f * (oy + (j + 0.5) * vs)
        return (k * (c * x - s * y) - ox) / vs - 0.5, (k * (s * x + c * y) - oy) / vs - 0.5

    radius = np.array([math.sqrt(2.0) * vs / (r.s * vs) + 1e-6 for r in rels])
    n_span = (2 * radius).astype(np.int64)[held_q] + 1  # integers in [x - radius, x + radius]
    pad = int(n_span.max(initial=1))
    u, v = cell_uv(transform_params([invert(r) for r in rels]), held_q, held_i, held_j)
    lo_i = np.clip(np.ceil(u - radius[held_q]).astype(np.int64), -pad, nx)
    lo_j = np.clip(np.ceil(v - radius[held_q]).astype(np.int64), -pad, ny)
    steps = np.arange(pad)  # window row or column d is lo + d, kept in [0, n) and the span
    row_ok = (steps >= -lo_i[:, None]) & (steps < np.minimum(n_span, nx - lo_i)[:, None])
    col_ok = (steps >= -lo_j[:, None]) & (steps < np.minimum(n_span, ny - lo_j)[:, None])
    start = ((held_q * nx + lo_i) * ny + lo_j)[:, None] + steps
    mark = np.zeros(len(rels) * size, dtype=bool)
    for di in steps:  # one row of each dilation square at a time
        mark[(start + di * ny)[col_ok & row_ok[:, di, None]]] = True
    del row_ok, col_ok, start  # before the scan
    q, ij = np.divmod(np.flatnonzero(mark), size)
    i, j = np.divmod(ij, ny)
    del mark, ij  # before the mapped centers
    u, v = cell_uv(transform_params(rels), q, i, j)
    i0, j0 = np.floor(u).astype(np.int64), np.floor(v).astype(np.int64)
    fu, fv = u - i0, v - j0
    h, w = nx + 4, ny + 4
    at = (q * h + np.clip(i0, -2, nx) + 2) * w + np.clip(j0, -2, ny) + 2
    del u, v, i0, j0  # before the frame of row offsets
    off = np.zeros(len(rels) * h * w, dtype=np.uint16 if size < 65535 else np.int32)
    first = np.searchsorted(cell_plane, looked)  # first row of each moved plane
    off[(held_q * h + held_i + 2) * w + held_j + 2] = row - first[held_q] + 1
    corners = off[at], off[at + 1], off[at + w], off[at + w + 1]
    del off, at  # before the rows of the hit cells
    hit = np.flatnonzero(corners[0] | corners[1] | corners[2] | corners[3])
    q, i, j, fu, fv = q[hit], i[hit], j[hit], fu[hit], fv[hit]
    base = first[q] - 1
    corners = [c[hit] for c in corners]
    pos = [np.where(c != 0, base + c, len(grid.cells)) for c in corners]
    del corners, base  # before the interpolated rows
    weights = ((1 - fu) * (1 - fv), (1 - fu) * fv, fu * (1 - fv), fu * fv)
    padded = np.vstack([grid.values, np.zeros(grid.values.shape[1])])
    rows = np.empty((len(hit), padded.shape[1]))
    for f, column in enumerate(padded.T):
        acc = weights[0] * column[pos[0]]
        for c in range(1, 4):
            acc += weights[c] * column[pos[c]]
        rows[:, f] = acc
    return scene[looked[q]] * size + i * ny + j, chan[looked[q]], rows


def bev_align(grids: BevGrid | Sequence[BevGrid], transforms: Sequence[Transform],
              channels: int | None = None) -> BevGrid:
    """Fuse per-channel BEV grids into channel-1 space, one fused plane per scene.

    ``grids`` is one grid whose planes are the channels of every scene in
    turn, or a list of one-plane grids; ``transforms`` holds each plane's
    channel transform. Plane p is channel ``p % channels`` of scene ``p //
    channels`` (default: one scene of every plane). All planes share one
    origin, voxel size and shape (ValueError otherwise).

    Grid points are the channel-1 cell centers; each is mapped through
    T_i o T_1^{-1} into channel i, features are bilinearly interpolated there
    (zero outside the channel extent), and the fusion is the component-wise
    maximum over channels. :func:`_interpolated` reads only the cells near
    a held cell's back-mapped center, for every non-identity plane of the
    batch in one pass; every other cell is exactly zero. Identity mappings
    skip interpolation so a single channel, or all-identity transforms,
    reproduce inputs exactly. The maxima run over the union of the channels'
    cells, one feature column at a time: each channel's rows, found once, are
    scattered into a column that holds zero wherever that channel has no
    cell, in channel order.
    """
    if not isinstance(grids, BevGrid):
        if len(grids) != len(transforms):
            raise ValueError("need one transform per grid")
        grids = _stack_planes(grids)
    grid, size = grids, grids.plane_size
    channels = len(transforms) if channels is None else channels
    cell_plane = grid.cells // size
    if (not transforms or channels < 1 or len(transforms) % channels
            or cell_plane.max(initial=0) >= len(transforms)):
        raise ValueError("need one transform per grid")
    scene, chan = np.divmod(np.arange(len(transforms)), channels)  # of each plane
    rels = [r for b in range(0, len(transforms), channels)
            for r in relative_transforms(transforms[b:b + channels])]
    moved = np.array([not r.is_identity for r in rels], dtype=bool)
    kept = ~moved[cell_plane]  # cells of identity planes are fused as they are
    parts = [(scene[cell_plane[kept]] * size + grid.cells[kept] % size, chan[cell_plane[kept]],
              grid.values[kept])]
    if moved.any():
        parts.append(_interpolated(grid, rels, moved, scene, chan))
    keys, chans, values = (np.concatenate(part) for part in zip(*parts))
    union = np.zeros(len(transforms) // channels * size, dtype=bool)
    union[keys] = True
    pos = np.empty(len(union), dtype=np.int32)
    union = np.flatnonzero(union)
    pos[union] = np.arange(len(union), dtype=np.int32)
    pos = pos[keys]
    rows = [np.flatnonzero(chans == c) for c in range(channels)]
    dest = [pos[r] for r in rows]
    fused = np.empty((len(union), values.shape[1]))
    frame = np.zeros(len(union))
    for f in range(values.shape[1]):  # one feature column at a time
        acc = np.zeros(len(union))
        acc[dest[0]] = values[rows[0], f]
        for r, d in zip(rows[1:], dest[1:]):
            frame[d] = values[r, f]
            np.maximum(acc, frame, out=acc)
            frame[d] = 0.0
        fused[:, f] = acc
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
