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


def _filled(rows: np.ndarray) -> np.ndarray:
    """Rows of an (N, F) feature array with any nonzero entry; one pass per
    column, which numpy runs faster than ``rows.any(axis=1)``."""
    filled = rows[:, 0] != 0
    for k in range(1, rows.shape[1]):
        filled |= rows[:, k] != 0
    return filled


@dataclass
class BevGrid:
    """Dense 2D feature grid derived from a voxel grid by vertical compression."""

    origin_xy: tuple[float, float]
    voxel_size: float
    features: np.ndarray  # (nx, ny, 2): BEV_MAX_OCC, BEV_MAX_HEIGHT
    z_origin: float = 0.0

    @property
    def shape(self) -> tuple[int, int]:
        return self.features.shape[0], self.features.shape[1]

    def cell_xy(self, cells: np.ndarray) -> np.ndarray:
        """(N, 2) planar centers of the cells with row-major flat indices ``cells``."""
        ij = np.stack([cells // self.shape[1], cells % self.shape[1]], axis=1)
        return np.asarray(self.origin_xy) + (ij + 0.5) * self.voxel_size

    def interpolate(self, xy: np.ndarray) -> np.ndarray:
        """Bilinear feature lookup at planar points, zero outside the extent.

        Corners outside the grid read zero. Points whose four corners are all
        empty are exactly zero; only the rest, few on sparse grids, are
        weighted.
        """
        nx, ny = self.shape
        flat = self.features.reshape(nx * ny, -1)
        u = (xy[:, 0] - self.origin_xy[0]) / self.voxel_size - 0.5
        v = (xy[:, 1] - self.origin_xy[1]) / self.voxel_size - 0.5
        i0 = np.floor(u).astype(np.int64)
        j0 = np.floor(v).astype(np.int64)
        i = i0[:, None] + np.array([0, 0, 1, 1])  # corners 00, 01, 10, 11
        j = j0[:, None] + np.array([0, 1, 0, 1])
        inside = (i >= 0) & (i < nx) & (j >= 0) & (j < ny)
        corner = np.where(inside[:, :, None], flat[np.where(inside, i * ny + j, 0)], 0.0)
        hit = np.flatnonzero(_filled(corner.reshape(len(xy), 4 * flat.shape[1])))
        fu = u[hit] - i0[hit]
        fv = v[hit] - j0[hit]
        f00, f01, f10, f11 = corner[hit].transpose(1, 0, 2)
        out = np.zeros((len(xy), flat.shape[1]))
        out[hit] = (
            ((1 - fu) * (1 - fv))[:, None] * f00
            + ((1 - fu) * fv)[:, None] * f01
            + (fu * (1 - fv))[:, None] * f10
            + (fu * fv)[:, None] * f11
        )
        return out


def bev_from_voxels(grid: VoxelGrid) -> BevGrid:
    """Compress each vertical column into (max point count, max mean height);
    empty columns are zero in both features."""
    cfg = grid.cfg
    n = cfg.nx * cfg.ny
    col = grid.coords[:, 0] * cfg.ny + grid.coords[:, 1]
    occ = np.zeros(n)
    top = np.full(n, -np.inf)
    np.maximum.at(occ, col, grid.counts)
    np.maximum.at(top, col, grid.mean_z)
    top[~np.isfinite(top)] = 0.0
    features = np.stack([occ, top], axis=1).reshape(cfg.nx, cfg.ny, 2)
    return BevGrid((cfg.origin[0], cfg.origin[1]), cfg.voxel_size, features, cfg.origin[2])


def _footprint_cells(base: BevGrid, grid: BevGrid, rel: Transform) -> np.ndarray:
    """Ascending flat indices of the base cells whose centers ``rel`` may map
    into the bilinear footprint of an occupied cell of ``grid``.

    A lookup reads a filled corner only within one ``grid`` cell of it per
    axis, so within sqrt(2) cells; ``rel`` scales distances by ``rel.s``. Each
    occupied cell center is mapped back through ``rel``'s inverse and dilated
    by that radius in base cells, plus a slack that covers rounding. The result
    is a superset of the cells whose lookup is nonzero.
    """
    gx, gy = grid.shape
    occ = np.flatnonzero(_filled(grid.features.reshape(gx * gy, -1)))
    back = transform_xy(invert(rel), grid.cell_xy(occ))
    back = (back - np.asarray(base.origin_xy)) / base.voxel_size - 0.5  # base cell coordinates
    radius = math.sqrt(2.0) * grid.voxel_size / (rel.s * base.voxel_size) + 1e-6
    span = np.arange(int(2 * radius) + 1)  # integers in [x - radius, x + radius]
    nx, ny = base.shape
    if len(occ) * len(span) ** 2 >= nx * ny:  # dilating costs more than looking up every cell
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
    inputs exactly.
    """
    if len(grids) != len(transforms) or not grids:
        raise ValueError("need one transform per grid")
    base = grids[0]
    nx, ny = base.shape
    fused = base.features.reshape(nx * ny, -1).copy()
    frame = np.zeros_like(fused)  # one channel's lookups, zero off its cells
    for grid, rel in zip(grids[1:], relative_transforms(transforms)[1:]):
        if rel.is_identity and grid.shape == base.shape:
            np.maximum(fused, grid.features.reshape(nx * ny, -1), out=fused)
            continue
        cells = _footprint_cells(base, grid, rel)
        frame[cells] = grid.interpolate(transform_xy(rel, base.cell_xy(cells)))
        np.maximum(fused, frame, out=fused)
        frame[cells] = 0.0
    return BevGrid(base.origin_xy, base.voxel_size, fused.reshape(nx, ny, -1), base.z_origin)
