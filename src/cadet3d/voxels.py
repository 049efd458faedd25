"""Occupancy voxelization and BEV feature grids with cross-channel alignment."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import PointCloud, Transform, invert, relative_transforms, transform_xy

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
    """Sparse occupancy statistics: one row per non-empty cell.

    Rows ascend in (x, y, z) cell order, so the voxels of one vertical column
    are adjacent and x ascends along ``coords``; RoI pooling relies on both.
    """

    cfg: VoxelConfig
    coords: np.ndarray  # (M, 3) int64 cell indices
    counts: np.ndarray  # (M,) points per cell
    mean_z: np.ndarray  # (M,) mean point height per cell
    mean_intensity: np.ndarray  # (M,)

    @cached_property
    def centers(self) -> np.ndarray:
        return np.asarray(self.cfg.origin) + (self.coords + 0.5) * self.cfg.voxel_size


def voxelize(pc: PointCloud, cfg: VoxelConfig) -> VoxelGrid:
    """Deterministic binning; points outside the configured extent are dropped."""
    idx = np.floor((pc.xyz - np.asarray(cfg.origin)) / cfg.voxel_size).astype(np.int64)
    inside = (
        (idx[:, 0] >= 0) & (idx[:, 0] < cfg.nx)
        & (idx[:, 1] >= 0) & (idx[:, 1] < cfg.ny)
        & (idx[:, 2] >= 0) & (idx[:, 2] < cfg.nz)
    )
    idx = idx[inside]
    if not len(idx):
        empty = np.empty((0,))
        return VoxelGrid(cfg, np.empty((0, 3), dtype=np.int64), empty, empty.copy(), empty.copy())
    z = pc.xyz[inside, 2]
    inten = pc.intensity[inside]
    linear = (idx[:, 0] * cfg.ny + idx[:, 1]) * cfg.nz + idx[:, 2]
    uniq, inverse, counts = np.unique(linear, return_inverse=True, return_counts=True)
    coords = np.stack(
        [uniq // (cfg.ny * cfg.nz), (uniq // cfg.nz) % cfg.ny, uniq % cfg.nz], axis=1
    )
    counts = counts.astype(np.float64)
    mean_z = np.bincount(inverse, weights=z, minlength=len(uniq)) / counts
    mean_int = np.bincount(inverse, weights=inten, minlength=len(uniq)) / counts
    return VoxelGrid(cfg, coords, counts, mean_z, mean_int)


class BevGrid:
    """2D feature grid derived from a voxel grid by vertical compression,
    held as its occupied cells.

    ``cells`` are the ascending row-major flat indices of the held cells and
    ``values`` their (n, F) features (``BEV_MAX_OCC``, ``BEV_MAX_HEIGHT`` for
    grids of :func:`bev_from_voxels`); every other cell is zero. About 1 % of
    a scene's cells are occupied. ``BevGrid(origin_xy, voxel_size, features)``
    takes a dense (nx, ny, F) array and holds its nonzero cells;
    :meth:`from_cells` takes the held cells, which a fused grid's lookups may
    leave zero. :attr:`features` is the dense array, built when first read.
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
        """Grid of ``shape`` that holds ``cells`` (ascending flat indices) with
        features ``values``."""
        grid = cls.__new__(cls)
        grid.origin_xy, grid.voxel_size, grid.z_origin = origin_xy, voxel_size, z_origin
        grid.shape, grid.cells, grid.values = shape, cells, values
        return grid

    @cached_property
    def features(self) -> np.ndarray:
        """Dense (nx, ny, F) features."""
        nx, ny = self.shape
        dense = np.zeros((nx * ny, self.values.shape[1]))
        dense[self.cells] = self.values
        return dense.reshape(nx, ny, -1)

    def cell_xy(self, cells: np.ndarray) -> np.ndarray:
        """(N, 2) planar centers of the cells with row-major flat indices ``cells``."""
        ij = np.stack([cells // self.shape[1], cells % self.shape[1]], axis=1)
        return np.asarray(self.origin_xy) + (ij + 0.5) * self.voxel_size

    def interpolate(self, xy: np.ndarray) -> np.ndarray:
        """(N, F) bilinear feature lookup at planar points, zero outside the extent."""
        hit, rows = self.lookup(xy)
        out = np.zeros((len(xy), self.values.shape[1]))
        out[hit] = rows
        return out

    def lookup(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(hit, rows): the indices of the points of ``xy`` that have a held
        bilinear corner, and their interpolated features; every other point
        reads exactly zero.

        Corners outside the grid read zero, and each corner inside it is found
        by ``searchsorted`` on ``cells``.
        """
        nx, ny = self.shape
        u = (xy[:, 0] - self.origin_xy[0]) / self.voxel_size - 0.5
        v = (xy[:, 1] - self.origin_xy[1]) / self.voxel_size - 0.5
        i0 = np.floor(u).astype(np.int64)
        j0 = np.floor(v).astype(np.int64)
        i = i0[:, None] + np.array([0, 0, 1, 1])  # corners 00, 01, 10, 11
        j = j0[:, None] + np.array([0, 1, 0, 1])
        flat = i * ny + j
        n = len(self.cells)
        pos = np.searchsorted(self.cells, flat)
        found = (np.append(self.cells, -1)[pos] == flat) & (i >= 0) & (i < nx) & (j >= 0) & (j < ny)
        hit = np.flatnonzero(found.any(axis=1))
        pos = np.where(found[hit], pos[hit], n)  # row n of the padded values is zero
        corner = np.take(np.vstack([self.values, np.zeros(self.values.shape[1])]), pos, axis=0)
        fu = u[hit] - i0[hit]
        fv = v[hit] - j0[hit]
        f00, f01, f10, f11 = corner.transpose(1, 0, 2)
        return hit, (
            ((1 - fu) * (1 - fv))[:, None] * f00
            + ((1 - fu) * fv)[:, None] * f01
            + (fu * (1 - fv))[:, None] * f10
            + (fu * fv)[:, None] * f11
        )


def bev_from_voxels(grid: VoxelGrid) -> BevGrid:
    """Compress each vertical column into (max point count, max mean height).

    The voxels of a column are one run of ``grid.coords``, so the occupied
    cells are the runs and their features are maxima over each run.
    """
    cfg = grid.cfg
    col = grid.coords[:, 0] * cfg.ny + grid.coords[:, 1]
    start = np.flatnonzero(np.diff(col, prepend=-1))
    values = np.stack([np.maximum.reduceat(grid.counts, start),
                       np.maximum.reduceat(grid.mean_z, start)], axis=1)
    return BevGrid.from_cells((cfg.origin[0], cfg.origin[1]), cfg.voxel_size, (cfg.nx, cfg.ny),
                              col[start], values, cfg.origin[2])


def _footprint_cells(base: BevGrid, grid: BevGrid, rel: Transform) -> np.ndarray:
    """Ascending flat indices of the base cells whose centers ``rel`` may map
    into the bilinear footprint of an occupied cell of ``grid``.

    A lookup reads a filled corner only within one ``grid`` cell of it per
    axis, so within sqrt(2) cells; ``rel`` scales distances by ``rel.s``. Each
    occupied cell center is mapped back through ``rel``'s inverse and dilated
    by that radius in base cells, plus a slack that covers rounding. The result
    is a superset of the cells whose lookup is nonzero.
    """
    back = transform_xy(invert(rel), grid.cell_xy(grid.cells))
    back = (back - np.asarray(base.origin_xy)) / base.voxel_size - 0.5  # base cell coordinates
    radius = math.sqrt(2.0) * grid.voxel_size / (rel.s * base.voxel_size) + 1e-6
    span = np.arange(int(2 * radius) + 1)  # integers in [x - radius, x + radius]
    nx, ny = base.shape
    if len(grid.cells) * len(span) ** 2 >= nx * ny:  # dilating costs more than every lookup
        return np.arange(nx * ny)
    lo = np.ceil(back - radius).astype(np.int64)
    i = (lo[:, 0, None] + span)[:, :, None]
    j = (lo[:, 1, None] + span)[:, None, :]
    inside = (i >= 0) & (i < nx) & (j >= 0) & (j < ny)
    cells = np.zeros(nx * ny, dtype=bool)
    cells[np.broadcast_to(i * ny + j, inside.shape)[inside]] = True
    return np.flatnonzero(cells)


def bev_align(grids: list[BevGrid], transforms: list[Transform]) -> BevGrid:
    """Fuse per-channel BEV grids into channel-1 space.

    Grid points are the channel-1 cell centers; each is mapped through
    T_i o T_1^{-1} into channel i, features are bilinearly interpolated there
    (zero outside the channel extent), and the fusion is the component-wise
    maximum over channels. Only the cells of :func:`_footprint_cells` are
    looked up; every other cell is exactly zero. Identity mappings skip
    interpolation so a single channel, or all-identity transforms, reproduce
    inputs exactly. The maxima run over the union of the channels' cells, a
    frame that holds zero wherever a channel has no cell, in channel order.
    """
    if len(grids) != len(transforms) or not grids:
        raise ValueError("need one transform per grid")
    base = grids[0]
    nx, ny = base.shape
    channels = []  # (cells, values) of each further channel in channel 1
    for grid, rel in zip(grids[1:], relative_transforms(transforms)[1:]):
        if rel.is_identity and grid.shape == base.shape:
            channels.append((grid.cells, grid.values))
            continue
        cells = _footprint_cells(base, grid, rel)
        hit, rows = grid.lookup(transform_xy(rel, base.cell_xy(cells)))
        channels.append((cells[hit], rows))
    union = np.zeros(nx * ny, dtype=bool)
    union[base.cells] = True
    for cells, _ in channels:
        union[cells] = True
    union = np.flatnonzero(union)
    fused = np.zeros((len(union), base.values.shape[1]))
    fused[np.searchsorted(union, base.cells)] = base.values
    frame = np.zeros_like(fused)
    for cells, values in channels:
        pos = np.searchsorted(union, cells)
        frame[pos] = values
        np.maximum(fused, frame, out=fused)
        frame[pos] = 0.0
    return BevGrid.from_cells(base.origin_xy, base.voxel_size, base.shape, union, fused,
                              base.z_origin)
