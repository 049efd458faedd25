import math
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadet3d import detector
from cadet3d.augment import StrongRanges, strong_channels, weak_default_policy
from cadet3d.data import SynthConfig, synth_scene
from cadet3d.detector import (
    BOX_DIM,
    ENCODE_BATCH,
    FEATURE_SCALE,
    N_FEATURES,
    PARAMS_MAGIC,
    PARAMS_VERSION,
    ROI_ENLARGE,
    VOXEL,
    Detection,
    DetectorParams,
    NonFiniteLossError,
    ParamsFormatError,
    TrainExample,
    TrainLosses,
    _connected_components,
    align_yaw_to_anchor,
    build_training_examples,
    detect,
    encode,
    encode_batch,
    load_params,
    loss_and_grads,
    propose,
    refine,
    roi_features,
    save_params,
    score_proposals,
    softmax,
    train_step,
)
from cadet3d.geometry import (
    Box3D,
    PointCloud,
    Transform,
    apply_box,
    apply_points,
    average_boxes,
    box_rows,
    compose,
    invert,
    iou_3d,
    relative_transforms,
)
from cadet3d.voxels import BevGrid, VoxelConfig, bev_align, bev_from_voxels, voxelize
from conftest import assert_boxes_close, assert_close, random_box
from reference import (
    dense_bev_align,
    dense_propose,
    dense_roi_features,
    flood_fill_components,
    scalar_build_training_examples,
    scalar_detect,
    scalar_loss_and_grads,
    scalar_score_proposals,
    scalar_sigmoid,
)


def box_surface_points(rng, box, n=150, inset=0.06):
    """Points strictly inside a box, concentrated near its faces."""
    u = rng.uniform(-0.5 * box.l + inset, 0.5 * box.l - inset, n)
    v = rng.uniform(-0.5 * box.w + inset, 0.5 * box.w - inset, n)
    z = rng.uniform(-0.5 * box.h + inset, 0.5 * box.h - inset, n)
    c, s = math.cos(box.r), math.sin(box.r)
    return np.stack([box.cx + c * u - s * v, box.cy + s * u + c * v, box.cz + z], axis=1)


def grid_with_cluster(rng, box, n=200):
    pts = box_surface_points(rng, box, n)
    pc = PointCloud(pts, rng.random(n))
    return voxelize(pc, VOXEL), pc


class TestPropose:
    def test_single_cluster_one_proposal(self, rng):
        box = Box3D(2.0, 1.0, 0.9, 1.8, 1.5, 4.0, 0.5)
        grid, _ = grid_with_cluster(rng, box)
        fused = bev_align([bev_from_voxels(grid)], [Transform.identity()])
        props = propose(fused).rows
        assert len(props) == 1
        assert iou_3d(Box3D(*props[0, :BOX_DIM]), box) > 0.3

    def test_two_distant_clusters(self, rng):
        b1 = Box3D(5.0, 5.0, 0.9, 1.8, 1.5, 4.0, 0.3)
        b2 = Box3D(-5.0, -5.0, 0.9, 1.8, 1.5, 4.0, -0.7)
        pts = np.vstack([box_surface_points(rng, b1), box_surface_points(rng, b2)])
        grid = voxelize(PointCloud(pts, np.zeros(len(pts))), VOXEL)
        fused = bev_align([bev_from_voxels(grid)], [Transform.identity()])
        assert len(propose(fused)) == 2

    def test_yaw_from_pca(self, rng):
        yaw = math.radians(30)
        box = Box3D(0.0, 0.0, 0.75, 1.6, 1.5, 4.2, yaw)
        grid, _ = grid_with_cluster(rng, box, n=500)
        fused = bev_align([bev_from_voxels(grid)], [Transform.identity()])
        props = propose(fused).rows
        assert len(props) == 1
        err = abs(math.degrees(props[0, BOX_DIM - 1] - yaw)) % 180
        assert min(err, 180 - err) < 10

    def test_small_components_dropped(self, rng):
        pts = np.array([[0.0, 0.0, 0.5]])
        grid = voxelize(PointCloud(pts, np.zeros(1)), VOXEL)
        fused = bev_align([bev_from_voxels(grid)], [Transform.identity()])
        assert propose(fused).rows.shape == (0, BOX_DIM + N_FEATURES)

    def test_class_scores_sum_to_one(self, rng):
        box = Box3D(1.0, -2.0, 0.9, 1.8, 1.5, 4.0, 1.0)
        _, pc = grid_with_cluster(rng, box)
        params = DetectorParams.zeros()
        params.w_cls[:] = np.linspace(-1, 1, params.w_cls.size).reshape(params.w_cls.shape)
        keep, scores = score_proposals(encode(pc, weak_default_policy(1)), params)
        assert len(keep) == len(scores) > 0
        for row in scores:
            assert row.sum() == pytest.approx(1.0, abs=1e-6)


class TestRoiFeatures:
    def test_empty_region(self):
        grid = voxelize(PointCloud.empty(), VOXEL)
        phi = roi_features(Box3D(0, 0, 1, 1, 1, 1, 0).as_array()[None], grid)[0]
        expected = np.zeros(N_FEATURES)
        expected[11] = 1.0
        np.testing.assert_array_equal(phi, expected)

    def test_identity_transform_canonical(self, rng):
        box = Box3D(3.0, 0.0, 0.9, 1.8, 1.5, 4.0, 0.2)
        grid, pc = grid_with_cluster(rng, box)
        phi = roi_features(box.as_array()[None], grid)[0]
        assert phi[11] == 1.0
        assert math.expm1(phi[0]) == pytest.approx(len(pc), rel=0.02)

    def test_rigid_equivariant_point_count(self, rng):
        # points kept a full voxel inside the box: rebinned cells stay inside
        # the 20%-enlarged pooled region in both frames
        box = Box3D(2.0, 1.0, 1.0, 2.2, 1.8, 4.0, 0.4)
        pts = box_surface_points(rng, box, n=300, inset=0.5)
        pc = PointCloud(pts, rng.random(300))
        t = Transform(flip_y=True, theta=math.radians(22.5), s=1.0)
        grid1 = voxelize(pc, VOXEL)
        from cadet3d.geometry import apply_points

        grid2 = voxelize(apply_points(t, pc), VOXEL)
        phi1 = roi_features(box.as_array()[None], grid1)[0]
        phi2 = roi_features(apply_box(t, box).as_array()[None], grid2)[0]
        assert phi1[0] == phi2[0]  # log1p(point count) identical

    def test_voxelized_tolerance_under_scale(self, rng):
        box = Box3D(2.0, 1.0, 1.0, 2.2, 1.8, 4.0, 0.4)
        pts = box_surface_points(rng, box, n=300, inset=0.15)
        pc = PointCloud(pts, rng.random(300))
        t = Transform(flip_y=True, theta=math.radians(-22.5), s=0.98)
        from cadet3d.geometry import apply_points

        grid1 = voxelize(pc, VOXEL)
        grid2 = voxelize(apply_points(t, pc), VOXEL)
        n1 = math.expm1(roi_features(box.as_array()[None], grid1)[0, 0])
        n2 = math.expm1(roi_features(apply_box(t, box).as_array()[None], grid2)[0, 0])
        assert min(n1, n2) / max(n1, n2) >= 0.9


class TestComponentsOracle:
    """Connected components equal a flood fill's, list for list."""

    @staticmethod
    def assert_flood_fill(occ):
        order, start = _connected_components(np.flatnonzero(occ), occ.shape[1])
        got = np.split(np.argwhere(occ)[order], start[1:]) if len(start) else []
        want = flood_fill_components(occ)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        return got

    def test_random_grids(self, rng):
        for density in (0.02, 0.1, 0.3, 0.5, 0.8):
            for _ in range(10):
                shape = tuple(rng.integers(1, 30, 2))
                self.assert_flood_fill(rng.random(shape) < density)

    def test_empty_grid(self):
        assert self.assert_flood_fill(np.zeros((6, 5), dtype=bool)) == []

    def test_one_cell(self):
        occ = np.zeros((6, 5), dtype=bool)
        occ[4, 2] = True
        (comp,) = self.assert_flood_fill(occ)
        assert comp.tolist() == [[4, 2]]

    def test_diagonal_only_chains(self):
        occ = np.zeros((9, 9), dtype=bool)
        idx = np.arange(9)
        occ[idx, idx] = True        # main diagonal
        occ[idx[:5], 8 - idx[:5]] = True  # anti-diagonal, meets it at (4, 4)
        assert len(self.assert_flood_fill(occ)) == 1
        zigzag = np.zeros((6, 4), dtype=bool)
        zigzag[np.arange(6), [0, 1, 0, 1, 0, 1]] = True
        assert len(self.assert_flood_fill(zigzag)) == 1

    def test_occupied_border_cells(self):
        ring = np.zeros((6, 7), dtype=bool)
        ring[[0, -1], :] = True
        ring[:, [0, -1]] = True
        assert len(self.assert_flood_fill(ring)) == 1
        corners = np.zeros((6, 7), dtype=bool)
        corners[[0, 0, -1, -1], [0, -1, 0, -1]] = True
        assert len(self.assert_flood_fill(corners)) == 4
        # the end of one row and the start of the next are no neighbours
        wrap = np.zeros((4, 5), dtype=bool)
        wrap[1, 4] = wrap[2, 0] = True
        assert len(self.assert_flood_fill(wrap)) == 2


def assert_proposals_close(got, want):
    """Proposal rows (box, then features) of the same components: the
    vertical span and the constant slots exactly, the sums and fits at the
    tolerance, the yaw modulo a half turn."""
    assert got.shape == want.shape and got.shape[1] == BOX_DIM + N_FEATURES
    exact = [2, 4, BOX_DIM + 6, BOX_DIM + 7, BOX_DIM + 11]  # cz, h, z extent, 0, bias
    np.testing.assert_array_equal(got[:, exact], want[:, exact])
    assert_boxes_close(got[:, :BOX_DIM], want[:, :BOX_DIM], period=math.pi)
    assert_close(got[:, BOX_DIM:], want[:, BOX_DIM:])


class TestProposeOracle:
    """propose equals a scan of every dense cell, a flood fill and one box
    and feature fit per component, row for row: component for component
    exactly, the fits at the tolerance."""

    @staticmethod
    def assert_dense(fused):
        got = propose(fused).rows
        assert_proposals_close(got, dense_propose(fused))
        return got

    @pytest.mark.parametrize("seed", range(4))
    def test_synth_scenes_weak_and_strong(self, seed):
        cloud = synth_scene(seed, SynthConfig()).cloud
        for transforms in (weak_default_policy(), strong_channels(StrongRanges(), 3, seed)):
            bevs = [bev_from_voxels(voxelize(apply_points(t, cloud), VOXEL)) for t in transforms]
            assert len(self.assert_dense(bev_align(bevs, transforms))) > 0

    def test_random_grids(self, rng):
        # occupancies on both sides of MIN_OCC, so some cells are held but not occupied
        for density in (0.05, 0.2, 0.5):
            for _ in range(10):
                shape = tuple(rng.integers(3, 30, 2)) + (2,)
                feats = rng.uniform(0.2, 4.0, shape) * (rng.random(shape[:2]) < density)[..., None]
                self.assert_dense(BevGrid((-1.5, 2.0), 0.25, feats, z_origin=0.15))

    def test_empty_grid_and_single_cell(self):
        feats = np.zeros((6, 5, 2))
        assert len(self.assert_dense(BevGrid((0.0, 0.0), 0.25, feats))) == 0
        feats[3, 2] = (4.0, 1.2)
        assert len(self.assert_dense(BevGrid((0.0, 0.0), 0.25, feats))) == 0

    def test_components_below_min_cells(self):
        feats = np.zeros((12, 12, 2))
        feats[1, 1:3] = (2.0, 0.9)  # two cells: dropped
        feats[5, 5], feats[6, 6] = (1.0, 0.4), (3.0, 1.1)  # diagonal pair: dropped
        feats[9, 2:5] = (1.0, 0.5)  # three cells: kept
        feats[9:11, 8] = (2.0, 0.7)  # two occupied cells and one below MIN_OCC: dropped
        feats[11, 8] = (0.5, 0.7)
        got = self.assert_dense(BevGrid((0.0, 0.0), 0.25, feats, z_origin=0.15))
        assert len(got) == 1

    def test_components_touching_the_border(self, rng):
        n = 10
        feats = np.zeros((n, n, 2))
        feats[0, :] = rng.uniform(1.0, 3.0, (n, 2))  # first row
        feats[3:7, -1] = rng.uniform(1.0, 3.0, (4, 2))  # last column
        feats[4:8, 0] = rng.uniform(1.0, 3.0, (4, 2))  # first column: no neighbour of the last
        feats[-1, -3:] = rng.uniform(1.0, 3.0, (3, 2))  # last row, corner
        got = self.assert_dense(BevGrid((-1.25, -1.25), 0.25, feats))
        assert len(got) == 4

    def test_encode_equals_the_dense_path(self):
        strong = strong_channels(StrongRanges(), 3, 7)
        for seed, transforms in ((2, weak_default_policy()), (3, strong)):
            cloud = synth_scene(seed, SynthConfig()).cloud
            enc = encode(cloud, transforms)
            bevs = [bev_from_voxels(voxelize(apply_points(t, cloud), VOXEL)) for t in transforms]
            fused = BevGrid(bevs[0].origin_xy, bevs[0].voxel_size,
                            dense_bev_align(bevs, transforms), bevs[0].z_origin)
            raw = dense_propose(fused)
            assert len(raw) > 0
            assert_proposals_close(np.hstack([enc.boxes, enc.features]), raw)
            for box, anchors in zip(enc.boxes, enc.anchors):
                for rel, anchor in zip(relative_transforms(transforms), anchors):
                    np.testing.assert_array_equal(
                        anchor, apply_box(rel, Box3D(*box.tolist())).as_array())


def assert_roi_close(phi, want):
    """RoI feature rows: which RoIs hold voxels, and the slots computed from
    counts, the z extent and the box sizes exactly; the weighted sums and fits
    at the tolerance."""
    assert phi.shape == want.shape
    np.testing.assert_array_equal(phi[:, 0] > 0, want[:, 0] > 0)
    np.testing.assert_array_equal(phi[:, [1, 6, 9, 10, 11]], want[:, [1, 6, 9, 10, 11]])
    assert_close(phi, want)


class TestRoiOracle:
    """A channel's RoIs pooled in one call equal, row for row, each box tested
    alone against every voxel."""

    CHANNELS = [Transform.identity(), Transform(flip_y=True, theta=0.7, s=1.05),
                Transform(theta=-2.0, s=0.9), Transform(flip_y=True, theta=-2.9, s=1.6)]

    @staticmethod
    def pooled(boxes, grid):
        phi = roi_features(np.array([b.as_array() for b in boxes]).reshape(-1, BOX_DIM), grid)
        assert phi.shape == (len(boxes), N_FEATURES)
        assert_roi_close(phi, np.array([dense_roi_features(box, grid) for box in boxes]
                                       ).reshape(-1, N_FEATURES))
        return phi

    def test_scene_boxes_in_channel_frames(self, rng):
        # four jittered copies of every object overlap, so RoIs share voxels
        scene = synth_scene(3, SynthConfig())
        tried = pooled = 0
        for t in self.CHANNELS:
            grid = voxelize(apply_points(t, scene.cloud), VOXEL)
            boxes = []
            for gt in scene.gt_boxes:
                for _ in range(4):
                    shift = rng.normal(0.0, 0.3, 4)
                    boxes.append(apply_box(t, Box3D(gt.cx + shift[0], gt.cy + shift[1], gt.cz, gt.w,
                                                    gt.h, gt.l * math.exp(shift[2]), gt.r + shift[3])))
            tried += len(boxes)
            pooled += int((self.pooled(boxes, grid)[:, 0] > 0).sum())
        assert pooled > tried // 2

    def test_rois_sharing_voxels(self, rng):
        box = Box3D(3.0, 0.0, 0.9, 1.8, 1.5, 4.0, 0.2)
        grid, _ = grid_with_cluster(rng, box)
        shifted = [Box3D(3.0 + dx, 0.1, 0.9, 1.8, 1.5, 3.0, 0.2 + dx) for dx in (-0.5, 0.0, 0.4)]
        phi = self.pooled([box, *shifted, box], grid)
        assert (phi[:, 0] > 0).all()
        np.testing.assert_array_equal(phi[0], phi[-1])

    def test_random_boxes_past_the_grid_edge(self, rng):
        pc = PointCloud(rng.uniform([-22, -22, 0.2], [22, 22, 2.5], (4000, 3)), rng.random(4000))
        edge = VOXEL.origin[0] + VOXEL.nx * VOXEL.voxel_size
        empty = straddling = 0
        for t in self.CHANNELS:
            grid = voxelize(apply_points(t, pc), VOXEL)
            boxes = [apply_box(t, random_box(rng, spread=edge + 3.0)) for _ in range(80)]
            empty += int((self.pooled(boxes, grid)[:, 0] == 0).sum())
            for box in boxes:
                reach = 0.5 * ROI_ENLARGE * max(box.w, box.l)
                straddling += any(abs(c) < edge < abs(c) + reach for c in (box.cx, box.cy))
        assert 0 < empty < 320 and straddling > 0

    def test_empty_rois(self, rng):
        # empty RoIs between non-empty ones
        box = Box3D(3.0, 0.0, 0.9, 1.8, 1.5, 4.0, 0.2)
        grid, _ = grid_with_cluster(rng, box)
        boxes = [Box3D(3.0, 0.0, 6.0, 1.8, 1.5, 4.0, 0.2),    # above the cluster
                 box,
                 Box3D(-10.0, 5.0, 0.9, 1.8, 1.5, 4.0, 1.0),  # beside it
                 Box3D(45.0, 0.0, 0.9, 1.8, 1.5, 4.0, 0.0),   # off the grid
                 Box3D(2.5, 0.3, 1.0, 1.2, 1.0, 2.0, -0.4),
                 Box3D(3.0, 0.0, -4.0, 1.8, 1.5, 4.0, 0.2)]   # below it
        phi = self.pooled(boxes, grid)
        assert (phi[[0, 2, 3, 5], 0] == 0).all() and (phi[[1, 4], 0] > 0).all()
        assert (phi[:, 11] == 1).all()

    def test_no_rois_and_empty_grid(self, rng):
        grid, _ = grid_with_cluster(rng, Box3D(3.0, 0.0, 0.9, 1.8, 1.5, 4.0, 0.2))
        empty_grid = voxelize(PointCloud.empty(), VOXEL)
        for g in (grid, empty_grid):
            assert roi_features(np.empty((0, BOX_DIM)), g).shape == (0, N_FEATURES)
        phi = self.pooled([random_box(rng) for _ in range(5)], empty_grid)
        expected = np.zeros(N_FEATURES)
        expected[11] = 1.0
        np.testing.assert_array_equal(phi, np.tile(expected, (5, 1)))

    def test_single_voxel_roi(self):
        # one occupied voxel: zero covariance, and every extent is one voxel
        pc = PointCloud(np.array([[1.3, -2.2, 0.7], [1.31, -2.21, 0.71], [8.0, 8.0, 1.0]]),
                        np.array([0.2, 0.4, 0.9]))
        grid = voxelize(pc, VOXEL)
        boxes = [Box3D(1.3, -2.2, 0.7, 0.3, 0.3, 0.3, r) for r in (0.0, 0.9, -2.4)]
        phi = self.pooled(boxes, grid)
        voxel = VOXEL.voxel_size
        assert (phi[:, 10] == 2.0).all() and (phi[:, [4, 5, 6]] == voxel).all()
        assert (phi[:, 3] == 0.0).all()


class TestEncodeRois:
    def test_channel_features_equal_oracle_one_pool_per_grid(self, monkeypatch):
        scene = synth_scene(5, SynthConfig())
        transforms = strong_channels(StrongRanges(), 3, 11)
        calls = []
        original = detector.roi_features

        def counted(anchors, grid, slot=None):
            calls.append(len(anchors))
            return original(anchors, grid, slot)

        monkeypatch.setattr(detector, "roi_features", counted)
        enc = encode(scene.cloud, transforms)
        k = len(enc.boxes)
        assert k > 0 and calls == [k * len(transforms)]  # every channel's anchors in one call
        for c, t in enumerate(transforms):
            grid = voxelize(apply_points(t, scene.cloud), VOXEL)
            assert_roi_close(enc.channel_features[:, c], np.array(
                [dense_roi_features(Box3D(*anchor), grid) for anchor in enc.anchors[:, c].tolist()]))


class TestEncodeBatch:
    """A batch of scenes encodes, field for field and byte for byte, as each
    scene alone; no component, fused cell or pooled voxel crosses scenes."""

    POLICIES = [weak_default_policy(), strong_channels(StrongRanges(), 3, 21),
                strong_channels(StrongRanges(), 4, 22), weak_default_policy(1)]

    @staticmethod
    def check(clouds, transforms):
        encs = encode_batch(clouds, transforms)
        assert len(encs) == len(clouds)
        for got, pc, ts in zip(encs, clouds, transforms, strict=True):
            want = encode(pc, ts)
            assert got.transforms == want.transforms == tuple(ts)
            for field in ("boxes", "features", "anchors", "channel_features"):
                a, b = getattr(got, field), getattr(want, field)
                assert (a.shape, a.dtype) == (b.shape, b.dtype), field
                assert a.tobytes() == b.tobytes(), field
                assert not a.flags.writeable
        return encs

    @pytest.mark.parametrize("size", [1, 2, ENCODE_BATCH, ENCODE_BATCH + 1])
    def test_sizes_and_mixed_policies(self, size):
        clouds = [synth_scene(seed, SynthConfig()).cloud for seed in range(size)]
        for shift in range(len(self.POLICIES)):  # every policy at every position
            encs = self.check(clouds, [self.POLICIES[(i + shift) % len(self.POLICIES)]
                                       for i in range(size)])
            assert all(len(enc.boxes) > 0 for enc in encs)

    def test_empty_outside_and_proposal_free_scenes(self, rng):
        # far in x and y, or below the grid floor, under any channel transform
        far = rng.uniform([25.0, 25.0, 0.5], [30.0, 30.0, 2.0], (200, 3))
        low = rng.uniform([-5.0, -5.0, -1.0], [5.0, 5.0, 0.05], (200, 3))
        outside = PointCloud(np.vstack([far, low]), rng.random(400))
        lonely = PointCloud(np.array([[0.0, 0.0, 0.5], [8.0, 8.0, 0.5], [8.0, -8.0, 1.0]]),
                            np.array([0.3, 0.6, 0.9]))  # occupied cells, no component of MIN_CELLS
        real = synth_scene(1, SynthConfig()).cloud
        clouds = [PointCloud.empty(), real, outside, lonely, real, PointCloud.empty()]
        for shift in range(len(self.POLICIES)):
            transforms = [self.POLICIES[(i + shift) % len(self.POLICIES)]
                          for i in range(len(clouds))]
            encs = self.check(clouds, transforms)
            assert [len(enc.boxes) > 0 for enc in encs] == [False, True, False, False, True, False]
            for enc, ts in zip(encs, transforms):
                assert enc.anchors.shape[1:] == (len(ts), BOX_DIM)
                assert enc.channel_features.shape[1:] == (len(ts), N_FEATURES)

    def test_only_empty_scenes(self):
        for enc, ts in zip(self.check([PointCloud.empty()] * 2, self.POLICIES[:2]),
                           self.POLICIES[:2]):
            assert enc.anchors.shape == (0, len(ts), BOX_DIM)

    def test_scenes_never_mix(self, rng):
        # scene b fills the last grid row and column, scene b + 1 the first:
        # stacked planes would join them. Every scene also holds the same
        # cluster at the same (x, y, z), with its own intensities.
        cluster = box_surface_points(rng, Box3D(5.0, 5.0, 0.9, 1.8, 1.5, 4.0, 0.3), 300)
        far = VOXEL.origin[0] + VOXEL.nx * VOXEL.voxel_size - 0.1

        def edge_cloud(edge):
            t = rng.uniform(-18.0, 18.0, 400)
            xy = np.vstack([np.column_stack([np.full(400, edge), t]),
                            np.column_stack([t, np.full(400, edge)])])
            xyz = np.vstack([np.column_stack([xy, rng.uniform(0.3, 1.5, len(xy))]), cluster])
            return PointCloud(xyz, rng.random(len(xyz)))

        clouds = [edge_cloud(far), edge_cloud(-far), edge_cloud(far), edge_cloud(-far)]
        first_row = far - VOXEL.nx * VOXEL.voxel_size + 0.2
        assert first_row < VOXEL.origin[0] + VOXEL.voxel_size  # -far lies in row 0
        identity = (Transform.identity(),)
        for transforms in ([identity] * 4, [weak_default_policy()] * 4, self.POLICIES):
            encs = self.check(clouds, transforms)
            assert all(len(enc.boxes) >= 3 for enc in encs)


class TestEncodeMemory:
    # tracemalloc peak of encode_batch over ENCODE_BATCH weak-policy synth
    # scenes (0 to 3, ENCODE_BATCH = 4, numpy 2.4): 2.2 MB measured, about
    # 0.55 MB a scene. The bound is about twice that, so a change that
    # densifies per-batch arrays (or raises ENCODE_BATCH) fails here before
    # it moves the benchmark's peak RSS.
    PEAK_BOUND_MB = 4.5

    def test_batch_peak_traced_memory(self):
        clouds = [synth_scene(seed, SynthConfig()).cloud for seed in range(ENCODE_BATCH)]
        transforms = [weak_default_policy()] * len(clouds)
        encode_batch(clouds, transforms)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            encode_batch(clouds, transforms)
            peak_mb = (tracemalloc.get_traced_memory()[1] - before) / 1e6
        finally:
            if not tracing:
                tracemalloc.stop()
        assert 0 < peak_mb < self.PEAK_BOUND_MB


class TestStackedEigh:
    """One ``eigh`` over stacked (K, 2, 2) covariances equals one call per
    matrix, bit for bit; RoI pooling relies on it."""

    def test_stacked_equals_per_matrix(self, rng):
        covs = [np.zeros((2, 2)), np.outer([0.6, -0.8], [0.6, -0.8]), np.diag([2.0, 0.5]),
                np.eye(2) * 0.25, np.outer([1.0, 0.0], [1.0, 0.0]) * 3.0]
        for _ in range(200):
            xy = rng.normal(size=(int(rng.integers(1, 40)), 2)) * rng.uniform(0.1, 5.0, 2)
            w = rng.integers(1, 9, len(xy)).astype(float)
            centered = xy - (w @ xy) / w.sum()
            covs.append((centered * w[:, None]).T @ centered / w.sum())
        vals, vecs = np.linalg.eigh(np.stack(covs))
        for cov, v_stacked, u_stacked in zip(covs, vals, vecs):
            v, u = np.linalg.eigh(cov)
            np.testing.assert_array_equal(v_stacked, v)
            np.testing.assert_array_equal(u_stacked, u)


def random_params(rng, reg_scale=0.05):
    p = DetectorParams.zeros()
    p.w_cls[:] = rng.normal(size=p.w_cls.shape) * 0.5
    p.w_obj[:] = rng.normal(size=p.w_obj.shape) * 0.5
    p.w_reg[:] = rng.normal(size=p.w_reg.shape) * reg_scale
    return p


def field_bits(box):
    return box.as_array().tobytes()


class TestRefine:
    def setup_scene(self, rng):
        box = Box3D(2.0, 1.0, 0.9, 1.8, 1.5, 4.0, 0.5)
        pts = box_surface_points(rng, box, n=300)
        pc = PointCloud(pts, rng.random(300))
        enc = encode(pc, weak_default_policy(3))
        keep, scores = score_proposals(enc, DetectorParams.zeros())
        return box, enc, keep, scores

    def test_zero_regression_passes_proposal_through(self, rng):
        box, enc, keep, scores = self.setup_scene(rng)
        boxes, channel_boxes, _ = refine(enc, keep, scores, DetectorParams.zeros())
        assert len(boxes) == len(channel_boxes) == len(keep) > 0
        for row, chans, i in zip(boxes, channel_boxes, keep):
            for chan in chans:
                np.testing.assert_allclose(chan, enc.boxes[i], atol=1e-9)
            np.testing.assert_allclose(row, enc.boxes[i], atol=1e-9)

    def test_aggregation_invariants(self, rng):
        box, enc, keep, scores = self.setup_scene(rng)
        params = DetectorParams.zeros()
        params.w_reg[:] = 0.01
        params.w_obj[:] = 0.1
        boxes, channel_boxes, objectness = refine(enc, keep, scores, params)
        assert channel_boxes.shape == (len(keep), len(enc.transforms), BOX_DIM)
        for row, chans, obj in zip(boxes, channel_boxes, objectness):
            agg = average_boxes([Box3D(*c) for c in chans.tolist()])
            np.testing.assert_allclose(row, agg.as_array(), atol=1e-9)
            assert 0.0 <= obj <= 1.0

    def test_detection_box_averages_channel_boxes(self, rng):
        enc = encode(synth_scene(3, SynthConfig()).cloud, weak_default_policy(3))
        dets = detect(enc, random_params(rng))
        assert dets
        for det in dets:
            assert len(det.per_channel_boxes) == 3
            assert field_bits(det.box) == field_bits(average_boxes(det.per_channel_boxes))

    def test_identical_channel_boxes_consistency_one(self):
        from cadet3d.selftrain import channel_iou_consistency

        b = Box3D(1, 1, 1, 1, 1, 2, 0.2)
        det = Detection(box=b, per_channel_boxes=[b, b, b],
                        class_scores=np.array([0.1, 0.6, 0.2, 0.1]), objectness=0.7)
        assert channel_iou_consistency(det) == 1.0

    def test_empty_encoding(self):
        enc = encode(PointCloud.empty(), weak_default_policy(3))
        keep, scores = score_proposals(enc, DetectorParams.zeros())
        assert keep == [] and scores.shape == (0, 4)
        boxes, channel_boxes, objectness = refine(enc, keep, scores, DetectorParams.zeros())
        assert boxes.shape == (0, 7) and channel_boxes.shape == (0, 3, 7)
        assert objectness.shape == (0,)
        assert detect(enc, DetectorParams.zeros()) == []


def scoring_cases():
    for seed in range(4):
        yield pytest.param(seed, "weak", id=f"weak-{seed}")
        yield pytest.param(seed, "strong", id=f"strong-{seed}")


class TestScoringOracle:
    """Array scoring equals the scalar scoring of ``reference``: the same
    proposals and detections in the same NMS order, scores and boxes at the
    tolerance, training examples exactly."""

    @staticmethod
    def encoded(seed, policy):
        scene = synth_scene(seed, SynthConfig())
        if policy == "weak":
            transforms = weak_default_policy(3)
        else:
            transforms = strong_channels(StrongRanges(), 4, 100 + seed)
        return scene, encode(scene.cloud, transforms)

    @pytest.mark.parametrize("seed,policy", scoring_cases())
    def test_detect(self, seed, policy):
        _, enc = self.encoded(seed, policy)
        rng = np.random.default_rng(seed)
        for reg_scale in (0.0, 0.05, 0.3):
            params = random_params(rng, reg_scale)
            got, want = detect(enc, params), scalar_detect(enc, params)
            assert len(got) == len(want) > 0
            for g, w in zip(got, want):
                assert_boxes_close(g.box.as_array(), w.box.as_array())
                assert_boxes_close(box_rows(g.per_channel_boxes), box_rows(w.per_channel_boxes))
                assert_close(g.class_scores, w.class_scores)
                assert_close(g.objectness, w.objectness)
                assert type(g.objectness) is float

    @pytest.mark.parametrize("seed,policy", scoring_cases())
    def test_score_proposals(self, seed, policy):
        _, enc = self.encoded(seed, policy)
        params = random_params(np.random.default_rng(seed))
        keep, scores = score_proposals(enc, params)
        want = scalar_score_proposals(enc, params)
        assert [enc.boxes[i].tobytes() for i in keep] == [field_bits(p.box) for p in want]
        assert scores.shape == (len(want), len(params.w_cls))
        assert_close(scores, [p.class_scores for p in want])

    @pytest.mark.parametrize("seed,policy", scoring_cases())
    def test_build_training_examples(self, seed, policy):
        scene, enc = self.encoded(seed, policy)
        rng = np.random.default_rng(seed)
        params = random_params(rng)
        pseudo = [d.box for d in detect(enc, params)]
        for targets in (scene.gt_boxes, pseudo, []):
            classes = [int(c) for c in rng.integers(1, 4, len(targets))]
            weights = rng.random(len(targets)).tolist()
            got = build_training_examples(enc, targets, classes, weights, params, 0.3)
            want = scalar_build_training_examples(enc, targets, classes, weights, params, 0.3)
            assert len(got) == len(want) > 0
            if targets:
                assert any(ex.targets is not None for ex in got)
            for g, w in zip(got, want):
                assert g.cls_feature.tobytes() == w.cls_feature.tobytes()
                assert [f.tobytes() for f in g.channel_features] == [
                    f.tobytes() for f in w.channel_features]
                assert [field_bits(a) for a in g.anchors] == [field_bits(a) for a in w.anchors]
                assert g.anchors == w.anchors
                if w.targets is None:
                    assert g.targets is None
                else:
                    assert [field_bits(t) for t in g.targets] == [
                        field_bits(t) for t in w.targets]
                assert (g.target_class, g.weight) == (w.target_class, w.weight)

    def test_boxes_hold_python_floats(self):
        scene, enc = self.encoded(2, "strong")
        params = random_params(np.random.default_rng(2))
        dets = detect(enc, params)
        batch = build_training_examples(enc, [d.box for d in dets], [1] * len(dets),
                                        [1.0] * len(dets), params)
        boxes = [d.box for d in dets] + [b for d in dets for b in d.per_channel_boxes]
        boxes += [b for ex in batch for b in ex.anchors + (ex.targets or [])]
        assert dets and any(ex.targets for ex in batch)
        fields = ("cx", "cy", "cz", "w", "h", "l", "r")
        assert all(type(getattr(b, f)) is float for b in boxes for f in fields)


def runtime_warnings(fn, *args):
    """``fn(*args)``'s result, or the ValueError or NonFiniteLossError it
    raises, and the RuntimeWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except (ValueError, NonFiniteLossError) as exc:
            out = exc
    return out, [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestNumericFailure:
    """Weights that overflow inside scoring raise ValueError (exit 1 in the
    CLI), never OverflowError, emit no RuntimeWarning, and no NaN reaches a
    detection."""

    @pytest.mark.parametrize("head,value", [("w_cls", 1e308), ("w_obj", 1e308),
                                            ("w_reg", 1e308), ("w_reg", 800.0)])
    def test_huge_weights(self, head, value):
        enc = encode(synth_scene(0, SynthConfig()).cloud, weak_default_policy(3))
        params = DetectorParams.zeros()
        getattr(params, head)[:] = value
        dets, caught = runtime_warnings(detect, enc, params)
        assert caught == []
        if head == "w_obj":
            with np.errstate(all="ignore"):
                want = scalar_detect(enc, params)
            assert dets and [d.objectness for d in dets] == [d.objectness for d in want]
            for d in dets:
                assert np.isfinite(d.class_scores).all() and math.isfinite(d.objectness)
        else:
            assert type(dets) is ValueError

    @pytest.mark.parametrize("head,outcome", [("w_cls", NonFiniteLossError),
                                              ("w_reg", ValueError), ("w_obj", TrainLosses)])
    def test_training_overflow(self, rng, head, outcome):
        # a saturated objectness head is no failure: its sigmoid is 1.0
        ex = TestTrainStep().make_example(rng, target_class=2)
        params = DetectorParams.zeros()
        getattr(params, head)[:] = 1e308
        out, caught = runtime_warnings(train_step, params, [ex])
        assert caught == [] and type(out) is outcome


class TestTrainStep:
    def make_example(self, rng, target_class=1, weight=1.0, n_channels=3):
        anchors = [random_box(rng) for _ in range(n_channels)]
        targets = None
        if target_class > 0:
            targets = []
            for a in anchors:
                t = Box3D(a.cx + rng.uniform(-0.2, 0.2), a.cy + rng.uniform(-0.2, 0.2),
                          a.cz, a.w * 1.1, a.h, a.l * 0.95, a.r + 0.1)
                targets.append(t)
        return TrainExample(
            cls_feature=rng.uniform(0, 2, N_FEATURES),
            channel_features=[rng.uniform(0, 2, N_FEATURES) for _ in range(n_channels)],
            anchors=anchors,
            targets=targets,
            target_class=target_class,
            weight=weight,
        )

    def test_zero_weights_leave_params_unchanged(self, rng):
        params = DetectorParams.zeros(lr=0.1)
        params.w_cls[:] = rng.normal(size=params.w_cls.shape)
        before = params.copy()
        batch = [self.make_example(rng, target_class=c, weight=0.0) for c in (0, 1, 2, 3)]
        train_step(params, batch)
        for a, b in zip(params.arrays(), before.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_gradient_check_all_heads(self, rng):
        eps = 1e-5
        for trial in range(100):
            params = DetectorParams.zeros(lr=0.1)
            params.w_cls[:] = rng.normal(size=params.w_cls.shape) * 0.3
            params.w_obj[:] = rng.normal(size=params.w_obj.shape) * 0.3
            params.w_reg[:] = rng.normal(size=params.w_reg.shape) * 0.05
            batch = [
                self.make_example(rng, target_class=int(rng.integers(0, 4)),
                                  weight=float(rng.uniform(0.2, 1.0)))
                for _ in range(3)
            ]
            losses, (g_cls, g_obj, g_reg) = loss_and_grads(params, batch)
            for name, w, grad in (("cls", params.w_cls, g_cls),
                                  ("obj", params.w_obj, g_obj),
                                  ("reg", params.w_reg, g_reg)):
                flat_w = w.ravel()
                idxs = rng.choice(flat_w.size, size=4, replace=False)
                fd = np.zeros(len(idxs))
                an = grad.ravel()[idxs]
                for k, i in enumerate(idxs):
                    orig = flat_w[i]
                    flat_w[i] = orig + eps
                    lp = loss_and_grads(params, batch)[0]
                    flat_w[i] = orig - eps
                    lm = loss_and_grads(params, batch)[0]
                    flat_w[i] = orig
                    fd[k] = (getattr(lp, name) - getattr(lm, name)) / (2 * eps)
                denom = max(np.linalg.norm(an), np.linalg.norm(fd), 1e-8)
                assert np.linalg.norm(an - fd) / denom < 1e-4, f"{name} head, trial {trial}"

    def test_logistic_fit_monotone(self, rng):
        params = DetectorParams.zeros(lr=0.01)
        ex = self.make_example(rng, target_class=2, weight=1.0)
        losses = [train_step(params, [ex]).cls for _ in range(500)]
        tail = losses[10:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))

    def test_nonfinite_loss_aborts_without_update(self, rng):
        params = DetectorParams.zeros(lr=0.1)
        ex = self.make_example(rng, target_class=1, weight=1.0)
        ex.cls_feature = np.full(N_FEATURES, np.nan)
        before = params.copy()
        with pytest.raises(NonFiniteLossError):
            train_step(params, [ex])
        for a, b in zip(params.arrays(), before.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_objectness_trained_toward_iou(self, rng):
        params = DetectorParams.zeros(lr=0.1)
        ex = self.make_example(rng, target_class=1, weight=1.0)
        for _ in range(300):
            train_step(params, [ex])
        k = ex.target_class - 1
        from cadet3d.geometry import decode_residual

        phi = ex.channel_features[0] / FEATURE_SCALE
        pred = scalar_sigmoid(float(params.w_obj[k] @ phi))
        decoded = decode_residual(params.w_reg[k] @ phi, ex.anchors[0])
        assert pred == pytest.approx(iou_3d(decoded, ex.targets[0]), abs=0.1)


class TestLossOracle:
    """The stacked losses and gradients equal the per-example, per-channel
    loop of ``reference`` at the tolerance."""

    @staticmethod
    def assert_oracle(params, batch):
        losses, grads = loss_and_grads(params, batch)
        want_losses, want_grads = scalar_loss_and_grads(params, batch)
        for name in ("cls", "reg", "obj"):
            got = getattr(losses, name)
            assert type(got) is float
            assert_close(got, getattr(want_losses, name))
        for g, w in zip(grads, want_grads):
            assert g.shape == w.shape
            assert_close(g, w)
        return losses

    @pytest.mark.parametrize("n_channels", [1, 3, 4])
    def test_mixed_batches(self, rng, n_channels):
        make = TestTrainStep().make_example
        for _ in range(20):
            params = random_params(rng, reg_scale=0.1)
            batch = [make(rng, target_class=int(rng.integers(0, 4)),
                          weight=float(rng.uniform(0.0, 1.0)), n_channels=n_channels)
                     for _ in range(int(rng.integers(1, 9)))]
            self.assert_oracle(params, batch)
        for classes in ([0, 0, 0], [1, 1, 3], [2]):  # all background, all foreground
            batch = [make(rng, target_class=c, n_channels=n_channels) for c in classes]
            losses = self.assert_oracle(random_params(rng), batch)
            assert (losses.reg == 0.0) == (classes[0] == 0)

    def test_scene_examples(self):
        scene, enc = TestScoringOracle.encoded(1, "strong")
        params = random_params(np.random.default_rng(1))
        batch = build_training_examples(enc, scene.gt_boxes, scene.gt_classes,
                                        [0.7] * len(scene.gt_boxes), params, 0.3)
        assert any(ex.target_class > 0 for ex in batch)
        self.assert_oracle(params, batch)

    def test_empty_batch(self):
        params = random_params(np.random.default_rng(0))
        losses, grads = loss_and_grads(params, [])
        assert (losses.cls, losses.reg, losses.obj) == (0.0, 0.0, 0.0)
        for g, w in zip(grads, params.arrays()):
            assert g.shape == w.shape and not g.any()

    def test_channel_counts_must_agree(self, rng):
        make = TestTrainStep().make_example
        for classes in ((1, 2), (0, 0), (0, 3)):
            batch = [make(rng, target_class=classes[0], n_channels=3),
                     make(rng, target_class=classes[1], n_channels=2)]
            with pytest.raises(ValueError, match="channel count"):
                loss_and_grads(random_params(rng), batch)


class TestAlignYaw:
    def test_near_anchor_unchanged(self):
        a = Box3D(0, 0, 0, 1, 1, 2, 0.3)
        t = Box3D(0, 0, 0, 1, 1, 2, 0.5)
        assert align_yaw_to_anchor(t, a) == t

    def test_half_turn_flipped(self):
        a = Box3D(0, 0, 0, 1, 1, 2, 0.0)
        t = Box3D(0, 0, 0, 1, 1, 2, math.pi - 0.1)
        out = align_yaw_to_anchor(t, a)
        assert abs(out.r - (-0.1)) < 1e-12
        assert iou_3d(out, t) == pytest.approx(1.0)

    def test_residual_bounded(self, rng):
        for _ in range(200):
            a, t = random_box(rng), random_box(rng)
            out = align_yaw_to_anchor(t, a)
            from cadet3d.geometry import wrap_angle

            assert abs(wrap_angle(out.r - a.r)) <= math.pi / 2 + 1e-12


class TestDetect:
    def test_empty_scene(self):
        enc = encode(PointCloud.empty(), weak_default_policy(3))
        dets = detect(enc, DetectorParams.zeros())
        assert dets == []

    def test_weak_policy_deterministic(self, rng):
        scene = synth_scene(5, SynthConfig())
        p = DetectorParams.zeros()
        a = detect(encode(scene.cloud, weak_default_policy(3)), p)
        b = detect(encode(scene.cloud, weak_default_policy(3)), p)
        assert len(a) == len(b)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.box.as_array(), db.box.as_array())

    def test_trained_detector_finds_car(self, rng):
        synth = SynthConfig()
        policy1 = weak_default_policy(1)
        scenes = [synth_scene(100 + i, synth) for i in range(8)]
        encodings = [encode(sc.cloud, policy1) for sc in scenes]
        params = DetectorParams.zeros(lr=0.1)
        for epoch in range(12):
            for sc, enc in zip(scenes, encodings):
                batch = build_training_examples(
                    enc, sc.gt_boxes, sc.gt_classes, [1.0] * len(sc.gt_boxes),
                    params, background_weight=0.3,
                )
                if batch:
                    train_step(params, batch)
        probe = synth_scene(999, synth)
        cars = [b for b, c in zip(probe.gt_boxes, probe.gt_classes) if c == 1]
        if not cars:  # fixed seed; guard only
            pytest.skip("probe scene drew no cars")
        dets = detect(encode(probe.cloud, weak_default_policy(3)), params)
        best = max((iou_3d(d.box, cars[0]), d.predicted_class) for d in dets)
        assert best[0] > 0.5
        assert best[1] == 1


class TestSceneEncoding:
    def scene_encoding(self):
        return encode(synth_scene(5, SynthConfig()).cloud, weak_default_policy(3))

    @staticmethod
    def scored(enc, params):
        return [(d.box.as_array().tobytes(), d.class_scores.tobytes(), d.objectness,
                 [b.as_array().tobytes() for b in d.per_channel_boxes])
                for d in detect(enc, params)]

    def test_scoring_leaves_the_encoding_unchanged(self, rng):
        params = []
        for _ in range(2):
            p = DetectorParams.zeros()
            p.w_cls[:] = rng.normal(size=p.w_cls.shape) * 0.3
            p.w_obj[:] = rng.normal(size=p.w_obj.shape) * 0.3
            p.w_reg[:] = rng.normal(size=p.w_reg.shape) * 0.05
            params.append(p)
        a, b = params
        enc = self.scene_encoding()
        first_a, under_b, again_a = (self.scored(enc, p) for p in (a, b, a))
        assert first_a and first_a != under_b
        assert again_a == first_a == self.scored(self.scene_encoding(), a)

    def test_arrays_are_read_only(self):
        enc = self.scene_encoding()
        assert len(enc.boxes) > 0
        for arr in (enc.boxes, enc.features, enc.anchors, enc.channel_features):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestBuildTrainingExamples:
    def test_matched_and_background(self, rng):
        scene = synth_scene(11, SynthConfig())
        params = DetectorParams.zeros()
        batch = build_training_examples(
            encode(scene.cloud, weak_default_policy(3)), scene.gt_boxes, scene.gt_classes,
            [1.0] * len(scene.gt_boxes), params, background_weight=0.4,
        )
        assert batch
        fg = [ex for ex in batch if ex.target_class > 0]
        bg = [ex for ex in batch if ex.target_class == 0]
        assert len(fg) >= min(len(scene.gt_boxes), 1)
        for ex in fg:
            assert ex.weight == 1.0
            assert len(ex.targets) == 3
        for ex in bg:
            assert ex.weight == 0.4
            assert ex.targets is None

    def test_channel_targets_in_channel_frames(self, rng):
        scene = synth_scene(12, SynthConfig())
        if not scene.gt_boxes:
            pytest.skip("no boxes drawn")
        params = DetectorParams.zeros()
        transforms = strong_channels(StrongRanges(), 3, 77)
        batch = build_training_examples(
            encode(scene.cloud, transforms), scene.gt_boxes, scene.gt_classes,
            [1.0] * len(scene.gt_boxes), params,
        )
        for ex in batch:
            if ex.target_class == 0:
                continue
            for i, (tgt, t) in enumerate(zip(ex.targets, transforms)):
                back = apply_box(invert(t), tgt)
                matches = [
                    g for g in scene.gt_boxes
                    if np.allclose(
                        np.abs(back.as_array()[:6] - g.as_array()[:6]).max(), 0, atol=1e-6
                    )
                ]
                assert matches, f"channel {i} target does not back-map to a GT box"


@st.composite
def params_bytes(draw):
    """Any short byte string, or a valid header for 0-2 classes and a body of
    about the length it declares, possibly cut anywhere."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    c = draw(st.integers(0, 2))
    n_vals = 1 + (c + 1) * N_FEATURES + c * N_FEATURES + c * BOX_DIM * N_FEATURES
    head = PARAMS_MAGIC + struct.pack("<IIIIII", PARAMS_VERSION, 0, c, N_FEATURES, BOX_DIM, 0)
    size = 8 * n_vals + draw(st.sampled_from([0, 0, 0, 1, 7, -1, -8]))
    raw = head + draw(st.binary(min_size=size, max_size=size))
    return raw[: draw(st.integers(0, len(raw)))] if draw(st.booleans()) else raw


class TestParamsIo:
    def test_roundtrip(self, tmp_path, rng):
        params = DetectorParams.zeros(lr=0.07)
        params.w_cls[:] = rng.normal(size=params.w_cls.shape)
        params.w_obj[:] = rng.normal(size=params.w_obj.shape)
        params.w_reg[:] = rng.normal(size=params.w_reg.shape)
        path = tmp_path / "p.params"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.lr == params.lr
        for a, b in zip(loaded.arrays(), params.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.params"
        path.write_bytes(b"NOTMAGIC" + bytes(64))
        with pytest.raises(ParamsFormatError):
            load_params(path)

    def test_truncated(self, tmp_path):
        params = DetectorParams.zeros()
        path = tmp_path / "t.params"
        save_params(params, path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ParamsFormatError):
            load_params(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_params(tmp_path / "absent.params")

    def test_body_not_whole_float64s(self, tmp_path):
        path = tmp_path / "ragged.params"
        save_params(DetectorParams.zeros(), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00")
        with pytest.raises(ParamsFormatError):
            load_params(path)

    @given(raw=params_bytes())
    @settings(max_examples=200)
    def test_any_bytes_load_or_raise_format_error(self, raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "any.params"
            path.write_bytes(raw)
            try:
                params = load_params(path)
            except ParamsFormatError:
                return
        assert params.lr > 0
        assert all(np.isfinite(a).all() for a in params.arrays())

    @pytest.mark.parametrize("array, value", [
        ("w_cls", math.nan), ("w_obj", math.inf), ("w_reg", -math.inf),
        ("lr", math.nan), ("lr", math.inf), ("lr", 0.0), ("lr", -0.1),
    ])
    def test_non_finite_or_non_positive_rejected(self, tmp_path, array, value):
        params = DetectorParams.zeros()
        if array == "lr":
            params.lr = value
        else:
            getattr(params, array).flat[3] = value
        path = tmp_path / "bad.params"
        save_params(params, path)
        with pytest.raises(ParamsFormatError):
            load_params(path)


def test_softmax_sums_to_one(rng):
    for _ in range(20):
        z = rng.normal(size=4) * 10
        assert softmax(z).sum() == pytest.approx(1.0, abs=1e-12)
