import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadet3d.augment import strong_channels
from cadet3d.data import SynthConfig, synth_scene
from cadet3d.geometry import PointCloud, Transform
from cadet3d.voxels import (
    BEV_MAX_HEIGHT,
    BEV_MAX_OCC,
    BevGrid,
    VoxelConfig,
    bev_align,
    bev_from_voxels,
    voxelize,
)
from conftest import default_config, transforms as transform_draws
from reference import apply_points, dense_bev_align, dense_bilinear


def cloud(*points):
    xyz = np.array([p[:3] for p in points], dtype=float)
    inten = np.array([p[3] if len(p) > 3 else 0.0 for p in points])
    return PointCloud(xyz, inten)


class TestVoxelize:
    cfg = VoxelConfig(origin=(0.0, 0.0, 0.0), voxel_size=0.1, nx=8, ny=8, nz=8)

    def test_single_point_cell(self):
        grid = voxelize(cloud((0.05, 0.05, 0.1)), self.cfg)
        assert grid.coords.tolist() == [[0, 0, 1]]
        assert grid.counts.tolist() == [1.0]

    def test_empty_cloud(self):
        grid = voxelize(PointCloud.empty(), self.cfg)
        assert len(grid.coords) == 0

    def test_two_points_same_cell(self):
        grid = voxelize(cloud((0.01, 0.01, 0.02), (0.09, 0.04, 0.08)), self.cfg)
        assert grid.counts.tolist() == [2.0]
        assert grid.mean_z[0] == pytest.approx(0.05)

    def test_outside_points_dropped(self):
        grid = voxelize(cloud((5.0, 0.0, 0.0), (-0.1, 0.0, 0.0), (0.3, 0.3, 0.3)), self.cfg)
        assert len(grid.coords) == 1

    def test_mean_intensity(self):
        grid = voxelize(cloud((0.05, 0.05, 0.05, 0.2), (0.06, 0.04, 0.01, 0.8)), self.cfg)
        assert grid.mean_intensity[0] == pytest.approx(0.5)

    def test_coords_ascend_in_x_y_z(self, rng):
        cfg = VoxelConfig(origin=(-1.0, -1.0, 0.0), voxel_size=0.1, nx=20, ny=15, nz=6)
        pts = rng.uniform([-1.2, -1.2, -0.1], [1.2, 0.6, 0.7], (3000, 3))
        grid = voxelize(PointCloud(pts, rng.random(3000)), cfg)
        assert len(grid.coords) > 100
        key = (grid.coords[:, 0] * cfg.ny + grid.coords[:, 1]) * cfg.nz + grid.coords[:, 2]
        assert np.all(np.diff(key) > 0)
        np.testing.assert_array_equal(grid.coords, np.unique(grid.coords, axis=0))

    def test_positive_voxel_required(self):
        with pytest.raises(ValueError):
            VoxelConfig(voxel_size=0.0)


class TestBevFeatures:
    cfg = VoxelConfig(origin=(0.0, 0.0, 0.0), voxel_size=0.5, nx=4, ny=4, nz=4)

    def test_column_compression(self):
        pc = cloud(
            (0.25, 0.25, 0.25), (0.25, 0.25, 0.30),  # two points in z-cell 0
            (0.25, 0.25, 1.75),                        # one point in z-cell 3
        )
        bev = bev_from_voxels(voxelize(pc, self.cfg))
        f = bev.features[0, 0]
        assert f[BEV_MAX_OCC] == 2.0
        assert f[BEV_MAX_HEIGHT] == pytest.approx(1.75)
        assert bev.z_origin == 0.0

    def test_empty_column_zero(self):
        bev = bev_from_voxels(voxelize(PointCloud.empty(), self.cfg))
        assert bev.features.sum() == 0.0


class TestInterpolation:
    """Hand values of ``dense_bilinear``, the oracle of ``TestAlignOracle``."""

    def make_bev(self):
        feats = np.zeros((4, 4, 3))
        feats[1, 1] = (4.0, 0.5, 2.0)
        feats[2, 1] = (8.0, 0.25, 1.0)
        return BevGrid((0.0, 0.0), 1.0, feats)

    @staticmethod
    def interpolate(bev, xy):
        return dense_bilinear(bev.features, bev.origin_xy, bev.voxel_size, xy)

    def test_exact_center(self):
        bev = self.make_bev()
        out = self.interpolate(bev, np.array([[1.5, 1.5]]))
        np.testing.assert_allclose(out[0], [4.0, 0.5, 2.0])

    def test_midpoint_between_cells(self):
        bev = self.make_bev()
        out = self.interpolate(bev, np.array([[2.0, 1.5]]))
        np.testing.assert_allclose(out[0], [6.0, 0.375, 1.5])

    def test_outside_is_zero(self):
        bev = self.make_bev()
        out = self.interpolate(bev, np.array([[-3.0, 0.0], [40.0, 40.0]]))
        np.testing.assert_allclose(out, 0.0)

    def test_boundary_fade(self):
        # halfway past the last cell center only half the mass remains
        feats = np.ones((2, 2, 1))
        bev = BevGrid((0.0, 0.0), 1.0, feats)
        out = self.interpolate(bev, np.array([[1.5, 2.0]]))
        assert out[0, 0] == pytest.approx(0.5)


class TestBevAlign:
    def test_identity_transforms_give_componentwise_max(self, rng):
        cfg = VoxelConfig(origin=(-2.0, -2.0, 0.0), voxel_size=0.5, nx=8, ny=8, nz=4)
        grids = []
        for _ in range(3):
            pc = PointCloud(rng.uniform(-2, 2, (200, 3)) * [1, 1, 0.4], rng.random(200))
            grids.append(bev_from_voxels(voxelize(pc, cfg)))
        fused = bev_align(grids, [Transform.identity()] * 3)
        expected = np.maximum.reduce([g.features for g in grids])
        np.testing.assert_array_equal(fused.features, expected)

    def test_single_channel_is_itself(self, rng):
        cfg = VoxelConfig(origin=(-2.0, -2.0, 0.0), voxel_size=0.5, nx=8, ny=8, nz=4)
        pc = PointCloud(rng.uniform(-2, 2, (100, 3)) * [1, 1, 0.4], rng.random(100))
        bev = bev_from_voxels(voxelize(pc, cfg))
        fused = bev_align([bev], [Transform.identity()])
        np.testing.assert_array_equal(fused.features, bev.features)

    def test_rotated_channel_recovers_base(self, rng):
        # channel 2 holds the same features rotated a quarter turn; mapping
        # through the recorded transform must land exactly on cell centers
        n = 10
        cfg_kw = dict(voxel_size=0.5, nx=n, ny=n, nz=4)
        origin = (-n / 2 * 0.5, -n / 2 * 0.5)
        base = np.zeros((n, n, 3))
        interior = rng.random((n - 2, n - 2, 3))
        base[1:-1, 1:-1] = interior
        rotated = np.rot90(base, k=1, axes=(0, 1)).copy()
        g1 = BevGrid(origin, 0.5, base)
        g2 = BevGrid(origin, 0.5, rotated)
        fused = bev_align([g1, g2], [Transform.identity(), Transform(theta=math.pi / 2)])
        np.testing.assert_allclose(fused.features[1:-1, 1:-1], base[1:-1, 1:-1], atol=1e-6)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            bev_align([], [])


class TestAlignOracle:
    """bev_align is bit-identical to a dense lookup of every query point."""

    @staticmethod
    def channel_bevs(pc, transforms, cfg=VoxelConfig()):
        return [bev_from_voxels(voxelize(apply_points(t, pc), cfg)) for t in transforms]

    def test_strong_channels(self):
        drawn = []
        for seed in range(4):
            transforms = strong_channels(default_config(), seed)
            drawn += transforms
            bevs = self.channel_bevs(synth_scene(seed, SynthConfig()).cloud, transforms)
            np.testing.assert_array_equal(
                bev_align(bevs, transforms).features, dense_bev_align(bevs, transforms)
            )
        # the draws cover flips, rotations and scales away from 1
        assert any(t.flip_y for t in drawn) and not all(t.flip_y for t in drawn)
        assert all(t.theta != 0.0 and t.s != 1.0 for t in drawn)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_default_weak_channels(self, seed):
        transforms = default_config().weak_policy()
        bevs = self.channel_bevs(synth_scene(seed, SynthConfig()).cloud, transforms)
        np.testing.assert_array_equal(
            bev_align(bevs, transforms).features, dense_bev_align(bevs, transforms)
        )

    @given(transforms=st.lists(transform_draws(), min_size=2, max_size=3),
           seed=st.integers(0, 3))
    @settings(max_examples=30)
    def test_any_scale_between_half_and_two(self, transforms, seed):
        # the looked-up cells reach 1/s cells around each occupied one
        bevs = self.channel_bevs(synth_scene(seed, SynthConfig()).cloud, transforms)
        np.testing.assert_array_equal(
            bev_align(bevs, transforms).features, dense_bev_align(bevs, transforms)
        )

    def test_occupied_border_cells(self, rng):
        # every border cell occupied: footprints straddle the extent; on the
        # small grid every cell is looked up, on the large one only footprints
        transforms = [Transform(flip_y=True, theta=0.1, s=1.02), Transform(theta=-0.3, s=0.97),
                      Transform(flip_y=True, theta=0.7, s=1.05)]
        for n in (12, 160):
            grids = []
            for _ in range(3):
                feats = np.zeros((n, n, 2))
                feats[[0, -1], :] = rng.uniform(1.0, 5.0, (2, n, 2))
                feats[:, [0, -1]] = rng.uniform(1.0, 5.0, (n, 2, 2))
                grids.append(BevGrid((-0.25 * n, -0.25 * n), 0.5, feats))
            fused = bev_align(grids, transforms)
            np.testing.assert_array_equal(fused.features, dense_bev_align(grids, transforms))

    def test_small_scale_looks_up_every_cell(self):
        # at s = 0.2 each held cell dilates over a 15-cell span
        transforms = (Transform.identity(), Transform(flip_y=True, theta=0.3, s=0.2))
        bevs = self.channel_bevs(synth_scene(0, SynthConfig()).cloud, transforms)
        np.testing.assert_array_equal(
            bev_align(bevs, transforms).features, dense_bev_align(bevs, transforms)
        )

    def test_empty_footprint_is_exact_positive_zero(self):
        # the flip maps cell centers onto cell centers, so the cells next to
        # the held one read it with weight exactly zero
        base, feats = np.zeros((8, 8, 2)), np.zeros((8, 8, 2))
        base[6, 6] = (1.0, 0.5)
        feats[2, 2] = (3.0, 1.5)
        grids = [BevGrid((-4.0, -4.0), 1.0, base), BevGrid((-4.0, -4.0), 1.0, feats)]
        for moving in (Transform(flip_y=True), Transform(flip_y=True, theta=0.4, s=1.3)):
            transforms = [Transform.identity(), moving]
            fused = bev_align(grids, transforms)
            np.testing.assert_array_equal(fused.features, dense_bev_align(grids, transforms))
            assert np.any(fused.values[fused.cells != 6 * 8 + 6] > 0)
            assert not np.signbit(fused.features).any()
            if moving.s == 1.0:  # a held fused cell that read its corner at weight zero
                assert (fused.values == 0).all(axis=1).any()

    def test_stacked_scenes_of_different_spans(self, rng):
        # one call over 3 scenes whose moving channels scale by 2, 1.02 and
        # 0.5, so their planes dilate over 2, 3 and 6 cells; every border cell
        # of the last plane, which has the widest span, is held
        n, transforms, planes = 24, [], []
        for rel in (2.0, 1.02, 0.5):
            transforms += [Transform(theta=0.3), Transform(flip_y=True, theta=-0.2, s=rel),
                           Transform(theta=1.1, s=rel)]
            for _ in range(3):
                feats = np.zeros((n, n, 2))
                at = rng.integers(0, n, (30, 2))
                feats[at[:, 0], at[:, 1]] = rng.uniform(1.0, 5.0, (30, 2))
                planes.append(feats)
        planes[-1][[0, -1], :] = rng.uniform(1.0, 5.0, (2, n, 2))
        planes[-1][:, [0, -1]] = rng.uniform(1.0, 5.0, (n, 2, 2))
        self.check_stacked(planes, transforms, (-6.0, -6.0))

    @staticmethod
    def check_stacked(planes, transforms, origin):
        """One ``bev_align`` call over the (n, n, 2) ``planes``, three channels
        a scene, fuses each scene as ``dense_bev_align`` of its three grids."""
        n = len(planes[0])
        grids = [BevGrid(origin, 0.5, feats) for feats in planes]
        cells = np.concatenate([g.cells + p * n * n for p, g in enumerate(grids)])
        stacked = BevGrid.from_cells(origin, 0.5, (n, n), cells,
                                     np.concatenate([g.values for g in grids]))
        fused = bev_align(stacked, transforms, channels=3)
        dense = np.zeros((len(planes) * n * n, 2))
        dense[fused.cells] = fused.values
        for b in range(len(planes) // 3):
            np.testing.assert_array_equal(
                dense[b * n * n:(b + 1) * n * n].reshape(n, n, 2),
                dense_bev_align(grids[3 * b:3 * b + 3], transforms[3 * b:3 * b + 3]))

    def test_stacked_spans_from_fifteen_to_one_with_held_borders(self, rng):
        # one call over 5 scenes whose moving channels scale by 0.2, 0.5,
        # 1.02, 2 and 3, so their planes dilate over 15, 6, 3, 2 and 1 cells;
        # every plane holds cells on all four borders and in all four corners,
        # so dilation windows cross every edge of the grid
        n, transforms, planes = 20, [], []
        for rel in (0.2, 0.5, 1.02, 2.0, 3.0):
            transforms += [Transform(theta=0.3), Transform(flip_y=True, theta=-0.2, s=rel),
                           Transform(theta=1.1, s=rel)]
            for _ in range(3):
                feats = np.zeros((n, n, 2))
                at = rng.integers(0, n, (20, 2))
                feats[at[:, 0], at[:, 1]] = rng.uniform(1.0, 5.0, (20, 2))
                for edge in (0, n - 1):
                    side = rng.integers(1, n - 1, 3)
                    feats[edge, side] = rng.uniform(1.0, 5.0, (3, 2))
                    feats[side, edge] = rng.uniform(1.0, 5.0, (3, 2))
                feats[[0, 0, -1, -1], [0, -1, 0, -1]] = rng.uniform(1.0, 5.0, (4, 2))
                planes.append(feats)
        spans = [int(2 * (math.sqrt(2.0) / rel + 1e-6)) + 1 for rel in (0.2, 0.5, 1.02, 2.0, 3.0)]
        assert spans == [15, 6, 3, 2, 1]
        self.check_stacked(planes, transforms, (-5.0, -5.0))
