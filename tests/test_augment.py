import math

import numpy as np
import pytest

from cadet3d import detector
from cadet3d.augment import (
    StrongRanges,
    shuffle_augment,
    strong_channels,
    weak_default_policy,
)
from cadet3d.data import Scene
from cadet3d.geometry import Box3D, PointCloud, Transform, apply_box, apply_points, points_in_box


def make_cloud(rng, n=100, spread=8.0):
    return PointCloud(rng.uniform(-spread, spread, (n, 3)), rng.random(n))


class TestPolicyValidation:
    def test_weak_needs_identity_first(self):
        for n in (1, 3):
            transforms = weak_default_policy(n, rot=0.4, scale_low=0.9, scale_high=1.1)
            assert transforms[0].is_identity
            assert not any(t.is_identity for t in transforms[1:])

    def test_weak_needs_matching_length(self):
        assert [len(weak_default_policy(n)) for n in (1, 3)] == [1, 3]
        for n in (0, 2, 4):
            with pytest.raises(ValueError):
                weak_default_policy(n)

    def test_strong_needs_ranges(self):
        for bad in (dict(rot_min=0.2, rot_max=0.1), dict(scale_min=0.0),
                    dict(scale_min=1.1, scale_max=1.0), dict(flip_prob=1.5)):
            with pytest.raises(ValueError):
                StrongRanges(**bad)

    def test_default_weak_parameters(self):
        transforms = weak_default_policy()
        assert len(transforms) == 3
        t2, t3 = transforms[1], transforms[2]
        assert t2.flip_y and t3.flip_y
        assert t2.theta == pytest.approx(math.radians(-22.5))
        assert t3.theta == pytest.approx(math.radians(22.5))
        assert (t2.s, t3.s) == (0.98, 1.02)


class TestWeakChannels:
    @staticmethod
    def voxelized_clouds(monkeypatch, pc, transforms):
        """The channel clouds ``detector.encode`` voxelizes, in channel order:
        the slots of its one ``voxelize`` call."""
        clouds = []
        original = detector.voxelize

        def capture(cloud, cfg, sizes):
            ends = np.cumsum(sizes)
            clouds.extend(PointCloud(cloud.xyz[end - n:end], cloud.intensity[end - n:end])
                          for n, end in zip(sizes, ends))
            return original(cloud, cfg, sizes)

        monkeypatch.setattr(detector, "voxelize", capture)
        enc = detector.encode(pc, transforms)
        return enc, clouds

    def test_empty_cloud(self, monkeypatch):
        enc, clouds = self.voxelized_clouds(monkeypatch, PointCloud.empty(), weak_default_policy())
        assert len(clouds) == 3
        assert all(len(c) == 0 for c in clouds)
        assert enc.transforms[0].is_identity and len(enc.boxes) == 0

    def test_channel_one_bit_identical(self, rng, monkeypatch):
        pc = make_cloud(rng)
        _, clouds = self.voxelized_clouds(monkeypatch, pc, weak_default_policy())
        np.testing.assert_array_equal(clouds[0].xyz, pc.xyz)
        np.testing.assert_array_equal(clouds[0].intensity, pc.intensity)

    def test_construction_invariant(self, rng, monkeypatch):
        pc = make_cloud(rng)
        transforms = weak_default_policy()
        enc, clouds = self.voxelized_clouds(monkeypatch, pc, transforms)
        assert enc.transforms == transforms
        for cloud, t in zip(clouds, transforms, strict=True):
            np.testing.assert_array_equal(cloud.xyz, apply_points(t, pc).xyz)

    def test_deterministic(self):
        assert weak_default_policy() == weak_default_policy()


class TestStrongChannels:
    def test_same_seed_bit_identical(self):
        # Transform equality compares every parameter exactly
        assert strong_channels(StrongRanges(), 3, 99) == strong_channels(StrongRanges(), 3, 99)

    def test_different_seeds_differ(self):
        assert strong_channels(StrongRanges(), 3, 1) != strong_channels(StrongRanges(), 3, 2)

    def test_sampled_parameter_ranges(self):
        thetas, scales, flips = [], [], []
        for seed in range(3400):
            for t in strong_channels(StrongRanges(), 3, seed):
                thetas.append(t.theta)
                scales.append(t.s)
                flips.append(t.flip_y)
        thetas, scales = np.array(thetas), np.array(scales)
        assert len(thetas) >= 10_000
        assert thetas.min() >= -math.pi / 4 and thetas.max() <= math.pi / 4
        assert scales.min() >= 0.95 and scales.max() <= 1.05
        # distribution sanity over the pooled draws
        assert abs(np.degrees(thetas.mean())) < 1.0
        assert abs(np.mean(flips) - 0.5) < 0.02

    def test_degenerate_ranges_give_identity(self):
        transforms = strong_channels(StrongRanges(0.0, 0.0, 1.0, 1.0, 0.0), 3, 7)
        assert len(transforms) == 3
        assert all(t.is_identity for t in transforms)

    def test_channels_sample_independently(self):
        assert len(set(strong_channels(StrongRanges(), 3, 5))) == 3


def make_scene(rng, n_boxes=3, n_points=400):
    boxes, classes, pts = [], [], []
    for k in range(n_boxes):
        b = Box3D(rng.uniform(-10, 10), rng.uniform(-10, 10), 0.8,
                  rng.uniform(0.6, 1.5), 1.6, rng.uniform(1.0, 3.0), rng.uniform(-3, 3))
        boxes.append(b)
        classes.append(int(rng.integers(1, 4)))
        # points strictly inside
        local = rng.uniform(-0.4, 0.4, (30, 3)) * [b.l, b.w, b.h]
        c, s = math.cos(b.r), math.sin(b.r)
        world = np.stack([
            b.cx + c * local[:, 0] - s * local[:, 1],
            b.cy + s * local[:, 0] + c * local[:, 1],
            b.cz + local[:, 2],
        ], axis=1)
        pts.append(world)
    pts.append(rng.uniform(-12, 12, (n_points, 3)) * [1, 1, 0.02])
    xyz = np.vstack(pts)
    return Scene("t", PointCloud(xyz, rng.random(len(xyz))), boxes, classes)


class TestShuffleAugment:
    def test_single_cell_unchanged(self, rng):
        sc = make_scene(rng)
        out = shuffle_augment(sc, 1, 0)
        np.testing.assert_array_equal(out.cloud.xyz, sc.cloud.xyz)
        assert out.gt_boxes == sc.gt_boxes

    def test_empty_scene(self):
        sc = Scene("e", PointCloud.empty())
        out = shuffle_augment(sc, 4, 0)
        assert len(out.cloud) == 0 and not out.gt_boxes

    def test_rejects_bad_grid(self, rng):
        with pytest.raises(ValueError):
            shuffle_augment(make_scene(rng), 0, 0)

    def test_boxes_keep_their_points(self, rng):
        for seed in range(20):
            sc = make_scene(rng)
            before = [points_in_box(b, sc.cloud.xyz).sum() for b in sc.gt_boxes]
            out = shuffle_augment(sc, 4, seed)
            assert len(out.gt_boxes) == len(sc.gt_boxes)
            after = [points_in_box(b, out.cloud.xyz).sum() for b in out.gt_boxes]
            assert after == before

    def test_point_count_and_class_order_preserved(self, rng):
        sc = make_scene(rng)
        out = shuffle_augment(sc, 5, 11)
        assert len(out.cloud) == len(sc.cloud)
        assert out.gt_classes == sc.gt_classes

    def test_moves_something(self, rng):
        # across several seeds at least one permutation must differ
        sc = make_scene(rng, n_boxes=2, n_points=2000)
        moved = any(
            not np.array_equal(shuffle_augment(sc, 4, seed).cloud.xyz, sc.cloud.xyz)
            for seed in range(10)
        )
        assert moved


def test_labels_and_points_consistent_under_transforms(rng):
    # a scene transformed as a whole keeps every box around its own points
    from cadet3d.data import SynthConfig, synth_scene

    sc = synth_scene(31, SynthConfig())
    for seed in range(5):
        t_rng = np.random.default_rng(seed)
        t = Transform(flip_y=bool(t_rng.random() < 0.5),
                      theta=t_rng.uniform(-math.pi, math.pi),
                      s=t_rng.uniform(0.9, 1.1))
        cloud = apply_points(t, sc.cloud)
        for box in sc.gt_boxes:
            before = points_in_box(box, sc.cloud.xyz).sum()
            after = points_in_box(apply_box(t, box), cloud.xyz).sum()
            assert after == before
