"""Occupancy voxelization and BEV feature grids with cross-channel alignment."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import PointCloud, Transform, relative_transforms, transform_xy

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
    """Sparse occupancy statistics: one row per non-empty cell."""

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

    def cell_centers(self) -> np.ndarray:
        """(nx*ny, 2) planar centers in row-major cell order."""
        nx, ny = self.shape
        xs = self.origin_xy[0] + (np.arange(nx) + 0.5) * self.voxel_size
        ys = self.origin_xy[1] + (np.arange(ny) + 0.5) * self.voxel_size
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel()], axis=1)

    def interpolate(self, xy: np.ndarray) -> np.ndarray:
        """Bilinear feature lookup at planar points, zero outside the extent.

        Corners are clipped into a zero-padded frame, so out-of-range corners
        read zero. Points whose four corners are all empty are exactly zero;
        only the rest, few on sparse grids, are gathered and weighted.
        """
        nx, ny = self.shape
        u = (xy[:, 0] - self.origin_xy[0]) / self.voxel_size - 0.5
        v = (xy[:, 1] - self.origin_xy[1]) / self.voxel_size - 0.5
        i0 = np.floor(u).astype(np.int64)
        j0 = np.floor(v).astype(np.int64)
        ii0 = np.clip(i0 + 1, 0, nx + 1)
        ii1 = np.clip(i0 + 2, 0, nx + 1)
        jj0 = np.clip(j0 + 1, 0, ny + 1)
        jj1 = np.clip(j0 + 2, 0, ny + 1)
        flat00 = ii0 * (ny + 2) + jj0
        flat01 = ii0 * (ny + 2) + jj1
        flat10 = ii1 * (ny + 2) + jj0
        flat11 = ii1 * (ny + 2) + jj1
        padded = np.zeros((nx + 2, ny + 2, self.features.shape[2]))
        padded[1 : nx + 1, 1 : ny + 1] = self.features
        flat = padded.reshape(-1, self.features.shape[2])
        filled = flat.any(axis=1)
        hit = np.flatnonzero(filled[flat00] | filled[flat01] | filled[flat10] | filled[flat11])
        fu = u[hit] - i0[hit]
        fv = v[hit] - j0[hit]
        out = np.zeros((len(xy), flat.shape[1]))
        out[hit] = (
            ((1 - fu) * (1 - fv))[:, None] * flat[flat00[hit]]
            + ((1 - fu) * fv)[:, None] * flat[flat01[hit]]
            + (fu * (1 - fv))[:, None] * flat[flat10[hit]]
            + (fu * fv)[:, None] * flat[flat11[hit]]
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


def bev_align(grids: list[BevGrid], transforms: list[Transform]) -> BevGrid:
    """Fuse per-channel BEV grids into channel-1 space.

    Grid points are the channel-1 cell centers; each is mapped through
    T_i o T_1^{-1} into channel i, features are bilinearly interpolated there
    (zero outside the channel extent), and the fusion is the component-wise
    maximum over channels. Identity mappings skip interpolation so a single
    channel, or all-identity transforms, reproduce inputs exactly.
    """
    if len(grids) != len(transforms) or not grids:
        raise ValueError("need one transform per grid")
    base = grids[0]
    centers = base.cell_centers() if len(grids) > 1 else None  # one channel maps nothing
    fused: np.ndarray | None = None
    for grid, rel in zip(grids, relative_transforms(transforms)):
        if rel.is_identity and grid.shape == base.shape:
            vals = grid.features.reshape(-1, grid.features.shape[2])
        else:
            vals = grid.interpolate(transform_xy(rel, centers))
        fused = vals.copy() if fused is None else np.maximum(fused, vals)
    nx, ny = base.shape
    return BevGrid(base.origin_xy, base.voxel_size, fused.reshape(nx, ny, -1), base.z_origin)
