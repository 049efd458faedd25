import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cadet3d import detector
from cadet3d.augment import shuffle_augment, strong_channels
from cadet3d.data import Scene, SynthConfig, synth_scene
from cadet3d.geometry import Box3D, PointCloud, Transform, apply_box, points_in_box
from conftest import boxes as box_draws, default_config
from reference import apply_points, encode, scalar_shuffle_augment


def make_cloud(rng, n=100, spread=8.0):
    return PointCloud(rng.uniform(-spread, spread, (n, 3)), rng.random(n))


class TestPolicyValidation:
    def test_weak_needs_identity_first(self):
        cfg = replace(default_config(), weak_rot_deg=23.0, weak_scale_low=0.9, weak_scale_high=1.1)
        for n in (1, 3):
            transforms = cfg.weak_policy(n)
            assert transforms[0].is_identity
            assert not any(t.is_identity for t in transforms[1:])

    def test_weak_needs_matching_length(self):
        assert [len(default_config().weak_policy(n)) for n in (1, 3)] == [1, 3]
        for n in (0, 2, 4):
            with pytest.raises(ValueError):
                default_config().weak_policy(n)

    def test_default_weak_parameters(self):
        transforms = default_config().weak_policy()
        assert len(transforms) == 3
        t2, t3 = transforms[1], transforms[2]
        assert t2.flip_y and t3.flip_y
        assert t2.theta == pytest.approx(math.radians(-22.5))
        assert t3.theta == pytest.approx(math.radians(22.5))
        assert (t2.s, t3.s) == (0.98, 1.02)


class TestWeakChannels:
    @staticmethod
    def voxelized_clouds(monkeypatch, pc, transforms):
        """The channel clouds ``reference.encode`` voxelizes, in channel order:
        the slots of its one ``voxelize`` call."""
        clouds = []
        original = detector.voxelize

        def capture(cloud, cfg, sizes):
            ends = np.cumsum(sizes)
            clouds.extend(PointCloud(cloud.xyz[end - n:end], cloud.intensity[end - n:end])
                          for n, end in zip(sizes, ends))
            return original(cloud, cfg, sizes)

        monkeypatch.setattr(detector, "voxelize", capture)
        enc = encode(pc, transforms)
        return enc, clouds

    def test_empty_cloud(self, monkeypatch):
        enc, clouds = self.voxelized_clouds(monkeypatch, PointCloud.empty(),
                                            default_config().weak_policy())
        assert len(clouds) == 3
        assert all(len(c) == 0 for c in clouds)
        assert enc.transforms[0].is_identity and len(enc.boxes) == 0

    def test_channel_one_bit_identical(self, rng, monkeypatch):
        pc = make_cloud(rng)
        _, clouds = self.voxelized_clouds(monkeypatch, pc, default_config().weak_policy())
        np.testing.assert_array_equal(clouds[0].xyz, pc.xyz)
        np.testing.assert_array_equal(clouds[0].intensity, pc.intensity)

    def test_construction_invariant(self, rng, monkeypatch):
        pc = make_cloud(rng)
        transforms = default_config().weak_policy()
        enc, clouds = self.voxelized_clouds(monkeypatch, pc, transforms)
        assert enc.transforms == transforms
        for cloud, t in zip(clouds, transforms, strict=True):
            np.testing.assert_array_equal(cloud.xyz, apply_points(t, pc).xyz)

    def test_deterministic(self):
        assert default_config().weak_policy() == default_config().weak_policy()


class TestStrongChannels:
    def test_same_seed_bit_identical(self):
        # Transform equality compares every parameter exactly
        cfg = default_config()
        assert strong_channels(cfg, 99) == strong_channels(cfg, 99)

    def test_different_seeds_differ(self):
        cfg = default_config()
        assert strong_channels(cfg, 1) != strong_channels(cfg, 2)

    @pytest.mark.parametrize("n_channels", [1, 3, 4])
    def test_pinned_draw(self, n_channels):
        # per channel: flip, then rotation in +-radians(strong_rot_deg), then scale
        cfg = replace(default_config(), n_channels=n_channels, strong_rot_deg=30.0,
                      strong_scale_low=0.9, strong_scale_high=1.2, strong_flip_prob=0.3)
        rot = math.radians(30.0)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            want = []
            for _ in range(n_channels):
                flip = bool(rng.random() < 0.3)
                theta = float(rng.uniform(-rot, rot))
                want.append(Transform(flip_y=flip, theta=theta, s=float(rng.uniform(0.9, 1.2))))
            assert strong_channels(cfg, seed) == tuple(want)

    def test_sampled_parameter_ranges(self):
        thetas, scales, flips = [], [], []
        cfg = default_config()
        for seed in range(3400):
            for t in strong_channels(cfg, seed):
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
        cfg = replace(default_config(), strong_rot_deg=0, strong_scale_low=1,
                      strong_scale_high=1, strong_flip_prob=0)
        transforms = strong_channels(cfg, 7)
        assert len(transforms) == 3
        assert all(t.is_identity for t in transforms)

    def test_channels_sample_independently(self):
        assert len(set(strong_channels(default_config(), 5))) == 3


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


def assert_same_shuffle(got: Scene, want: Scene, scene: Scene) -> None:
    """``got`` equals ``want`` bit for bit, and each returns the same boxes of
    ``scene`` as unmoved objects."""
    assert got.id == want.id and got.gt_classes == want.gt_classes
    assert got.cloud.xyz.tobytes() == want.cloud.xyz.tobytes()
    assert got.cloud.intensity.tobytes() == want.cloud.intensity.tobytes()
    assert len(got.gt_boxes) == len(want.gt_boxes) == len(scene.gt_boxes)
    for a, b, before in zip(got.gt_boxes, want.gt_boxes, scene.gt_boxes):
        assert np.array(a).tobytes() == np.array(b).tobytes()
        assert (a is before) == (b is before)


# coordinates on the integer lattice put points on patch boundaries
coords = st.one_of(st.integers(-4, 4).map(float), st.floats(-5.0, 5.0))


class TestShuffleMatchesScalar:
    @given(grid=st.integers(1, 8), xy=st.lists(st.tuples(coords, coords), max_size=60),
           gt=st.lists(box_draws(center_span=7.0), max_size=7),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300)
    @example(grid=4, xy=[], gt=[], seed=0)  # empty cloud
    @example(grid=4, xy=[(-4.0, -4.0), (4.0, 4.0), (0.0, 1.0)], gt=[], seed=3)  # no boxes
    @example(grid=3, xy=[(1.0, -4.0), (1.0, 4.0)], gt=[Box3D(1, 0, 0, 1, 1, 1, 0)], seed=1)  # flat
    @example(grid=2, xy=[(-4.0, -4.0), (4.0, 4.0), (-2.0, 2.0), (2.0, -2.0)],  # two in one patch
             gt=[Box3D(-2.5, -2.5, 0, 0.5, 1, 0.5, 0), Box3D(-1.5, -1.5, 0, 0.5, 1, 0.5, 0.3),
                 Box3D(2.5, 2.5, 0, 0.5, 1, 0.5, 0)], seed=5)
    @example(grid=2, xy=[(-4.0, -4.0), (4.0, 4.0), (2.0, -2.0)],  # a box far past the extent
             gt=[Box3D(1e6, -2.0, 0, 1, 1, 1, 0), Box3D(-2.5, 2.5, 0, 0.5, 1, 0.5, 0)], seed=2)
    def test_random_scenes(self, grid, xy, gt, seed):
        gen = np.random.default_rng(seed)
        xyz = np.column_stack([np.array(xy, dtype=float).reshape(-1, 2), gen.random(len(xy))])
        classes = [1 + k % 3 for k in range(len(gt))]
        scene = Scene("h", PointCloud(xyz, gen.random(len(xy))), gt, classes)
        assert_same_shuffle(shuffle_augment(scene, grid, seed),
                            scalar_shuffle_augment(scene, grid, seed), scene)

    @pytest.mark.parametrize("grid", [2, 3, 4, 6])
    def test_synth_scenes(self, grid):
        moved = 0
        for scene_seed in range(12):
            scene = synth_scene(scene_seed, SynthConfig())
            for seed in range(3):
                got = shuffle_augment(scene, grid, seed)
                assert_same_shuffle(got, scalar_shuffle_augment(scene, grid, seed), scene)
                moved += sum(a is not b for a, b in zip(got.gt_boxes, scene.gt_boxes))
        assert moved > 0


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
