import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadet3d.augment import StrongRanges, strong_channels, weak_default_policy
from cadet3d.data import SynthConfig, synth_scene
from cadet3d.detector import (
    BOX_DIM,
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
    _connected_components,
    align_yaw_to_anchor,
    build_training_examples,
    detect,
    encode,
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
    compose,
    invert,
    iou_3d,
)
from cadet3d.voxels import BevGrid, VoxelConfig, bev_align, bev_from_voxels, voxelize
from conftest import random_box
from reference import dense_roi_features, flood_fill_components


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
        props = propose(fused)
        assert len(props) == 1
        assert iou_3d(props[0][0], box) > 0.3

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
        props = propose(fused)
        assert len(props) == 1
        err = abs(math.degrees(props[0][0].r - yaw)) % 180
        assert min(err, 180 - err) < 10

    def test_small_components_dropped(self, rng):
        pts = np.array([[0.0, 0.0, 0.5]])
        grid = voxelize(PointCloud(pts, np.zeros(1)), VOXEL)
        fused = bev_align([bev_from_voxels(grid)], [Transform.identity()])
        assert propose(fused) == []

    def test_class_scores_sum_to_one(self, rng):
        box = Box3D(1.0, -2.0, 0.9, 1.8, 1.5, 4.0, 1.0)
        _, pc = grid_with_cluster(rng, box)
        params = DetectorParams.zeros()
        params.w_cls[:] = np.linspace(-1, 1, params.w_cls.size).reshape(params.w_cls.shape)
        for p in score_proposals(encode(pc, weak_default_policy(1)), params):
            assert p.class_scores.sum() == pytest.approx(1.0, abs=1e-6)


class TestRoiFeatures:
    def test_empty_region(self):
        grid = voxelize(PointCloud.empty(), VOXEL)
        phi = roi_features(Box3D(0, 0, 1, 1, 1, 1, 0), grid)
        expected = np.zeros(N_FEATURES)
        expected[11] = 1.0
        np.testing.assert_array_equal(phi, expected)

    def test_identity_transform_canonical(self, rng):
        box = Box3D(3.0, 0.0, 0.9, 1.8, 1.5, 4.0, 0.2)
        grid, pc = grid_with_cluster(rng, box)
        phi = roi_features(box, grid)
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
        phi1 = roi_features(box, grid1)
        phi2 = roi_features(apply_box(t, box), grid2)
        assert phi1[0] == phi2[0]  # log1p(point count) identical

    def test_voxelized_tolerance_under_scale(self, rng):
        box = Box3D(2.0, 1.0, 1.0, 2.2, 1.8, 4.0, 0.4)
        pts = box_surface_points(rng, box, n=300, inset=0.15)
        pc = PointCloud(pts, rng.random(300))
        t = Transform(flip_y=True, theta=math.radians(-22.5), s=0.98)
        from cadet3d.geometry import apply_points

        grid1 = voxelize(pc, VOXEL)
        grid2 = voxelize(apply_points(t, pc), VOXEL)
        n1 = math.expm1(roi_features(box, grid1)[0])
        n2 = math.expm1(roi_features(apply_box(t, box), grid2)[0])
        assert min(n1, n2) / max(n1, n2) >= 0.9


class TestComponentsOracle:
    """Connected components equal a flood fill's, list for list."""

    @staticmethod
    def assert_flood_fill(occ):
        got = _connected_components(occ)
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


class TestRoiOracle:
    """RoI features equal a test of every voxel against the box, bit for bit."""

    CHANNELS = [Transform.identity(), Transform(flip_y=True, theta=0.7, s=1.05),
                Transform(theta=-2.0, s=0.9)]

    @staticmethod
    def pooled(box, grid):
        phi = roi_features(box, grid)
        np.testing.assert_array_equal(phi, dense_roi_features(box, grid))
        return phi

    def test_scene_boxes_in_channel_frames(self, rng):
        scene = synth_scene(3, SynthConfig())
        tried = pooled = 0
        for t in self.CHANNELS:
            grid = voxelize(apply_points(t, scene.cloud), VOXEL)
            for gt in scene.gt_boxes:
                for _ in range(4):
                    shift = rng.normal(0.0, 0.3, 4)
                    box = Box3D(gt.cx + shift[0], gt.cy + shift[1], gt.cz, gt.w, gt.h,
                                gt.l * math.exp(shift[2]), gt.r + shift[3])
                    tried += 1
                    pooled += self.pooled(apply_box(t, box), grid)[0] > 0
        assert pooled > tried // 2

    def test_random_boxes_past_the_grid_edge(self, rng):
        pc = PointCloud(rng.uniform([-22, -22, 0.2], [22, 22, 2.5], (4000, 3)), rng.random(4000))
        edge = VOXEL.origin[0] + VOXEL.nx * VOXEL.voxel_size
        empty = straddling = 0
        for t in self.CHANNELS:
            grid = voxelize(apply_points(t, pc), VOXEL)
            for _ in range(80):
                box = apply_box(t, random_box(rng, spread=edge + 3.0))
                empty += self.pooled(box, grid)[0] == 0
                reach = 0.5 * ROI_ENLARGE * max(box.w, box.l)
                straddling += any(abs(c) < edge < abs(c) + reach for c in (box.cx, box.cy))
        assert 0 < empty < 240 and straddling > 0

    def test_empty_rois(self, rng):
        grid, _ = grid_with_cluster(rng, Box3D(3.0, 0.0, 0.9, 1.8, 1.5, 4.0, 0.2))
        for box in (Box3D(3.0, 0.0, 6.0, 1.8, 1.5, 4.0, 0.2),   # above the cluster
                    Box3D(-10.0, 5.0, 0.9, 1.8, 1.5, 4.0, 1.0),  # beside it
                    Box3D(45.0, 0.0, 0.9, 1.8, 1.5, 4.0, 0.0)):  # off the grid
            phi = self.pooled(box, grid)
            assert phi[0] == 0 and phi[11] == 1
        self.pooled(Box3D(3.0, 0.0, 0.9, 1.8, 1.5, 4.0, 0.2), voxelize(PointCloud.empty(), VOXEL))


class TestRefine:
    def setup_scene(self, rng):
        box = Box3D(2.0, 1.0, 0.9, 1.8, 1.5, 4.0, 0.5)
        pts = box_surface_points(rng, box, n=300)
        pc = PointCloud(pts, rng.random(300))
        enc = encode(pc, weak_default_policy(3))
        props = score_proposals(enc, DetectorParams.zeros())
        return box, enc, props

    def test_zero_regression_passes_proposal_through(self, rng):
        box, enc, props = self.setup_scene(rng)
        dets = refine(props, enc.transforms, DetectorParams.zeros())
        assert len(dets) == len(props)
        for det, prop in zip(dets, props):
            for chan_box in det.per_channel_boxes:
                np.testing.assert_allclose(
                    chan_box.as_array(), prop.box.as_array(), atol=1e-9
                )
            np.testing.assert_allclose(det.box.as_array(), prop.box.as_array(), atol=1e-9)

    def test_aggregation_invariants(self, rng):
        box, enc, props = self.setup_scene(rng)
        params = DetectorParams.zeros()
        params.w_reg[:] = 0.01
        params.w_obj[:] = 0.1
        dets = refine(props, enc.transforms, params)
        for det in dets:
            agg = average_boxes(det.per_channel_boxes)
            np.testing.assert_allclose(det.box.as_array(), agg.as_array(), atol=1e-9)
            assert 0.0 <= det.objectness <= 1.0

    def test_from_channels_averages_channel_boxes(self, rng):
        boxes = [random_box(rng) for _ in range(3)]
        scores = np.array([0.1, 0.6, 0.2, 0.1])
        det = Detection.from_channels(boxes, scores, 0.7)
        assert det.box == average_boxes(boxes)
        assert det.per_channel_boxes == boxes
        assert det.objectness == 0.7
        assert det.class_scores is scores

    def test_identical_channel_boxes_consistency_one(self):
        from cadet3d.selftrain import channel_iou_consistency

        b = Box3D(1, 1, 1, 1, 1, 2, 0.2)
        det = Detection(box=b, per_channel_boxes=[b, b, b],
                        class_scores=np.array([0.1, 0.6, 0.2, 0.1]), objectness=0.7)
        assert channel_iou_consistency(det) == 1.0


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
        from cadet3d.detector import decode_residual, sigmoid

        phi = ex.channel_features[0] / FEATURE_SCALE
        pred = sigmoid(float(params.w_obj[k] @ phi))
        decoded = decode_residual(params.w_reg[k] @ phi, ex.anchors[0])
        assert pred == pytest.approx(iou_3d(decoded, ex.targets[0]), abs=0.1)


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
