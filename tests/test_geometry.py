import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadet3d.geometry import (
    Box3D,
    PointCloud,
    Transform,
    apply_box,
    apply_boxes,
    apply_points,
    average_boxes,
    best_match,
    compose,
    decode_residual,
    encode_residual,
    invert,
    iou_3d,
    iou_bev,
    nms,
    points_in_box,
    wrap_angle,
)
from conftest import boxes, random_box, transforms
from reference import mc_iou_3d, mc_iou_bev


class TestBox3D:
    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 0.0, 1, 1, 0)
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 1, -1, 1, 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Box3D(math.nan, 0, 0, 1, 1, 1, 0)

    def test_yaw_normalized_on_construction(self):
        assert Box3D(0, 0, 0, 1, 1, 1, 3 * math.pi).r == pytest.approx(math.pi)
        assert Box3D(0, 0, 0, 1, 1, 1, -math.pi).r == pytest.approx(math.pi)

    def test_corners_are_ccw_and_sized(self):
        b = Box3D(1, 2, 0, 1.6, 1.5, 3.9, 0.7)
        c = b.corners_bev()
        area = 0.0
        for k in range(4):
            x0, y0 = c[k]
            x1, y1 = c[(k + 1) % 4]
            area += x0 * y1 - x1 * y0
        assert area / 2 == pytest.approx(b.w * b.l)


class TestTransforms:
    def test_identity_points(self, rng):
        pc = PointCloud(rng.normal(size=(50, 3)), rng.random(50))
        out = apply_points(Transform.identity(), pc)
        np.testing.assert_array_equal(out.xyz, pc.xyz)
        np.testing.assert_array_equal(out.intensity, pc.intensity)

    def test_quarter_turn(self):
        pc = PointCloud(np.array([[1.0, 0.0, 0.0]]), np.array([0.3]))
        out = apply_points(Transform(theta=math.pi / 2), pc)
        np.testing.assert_allclose(out.xyz[0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_flip_then_scale(self):
        pc = PointCloud(np.array([[1.0, 3.0, 1.0]]), np.array([0.0]))
        out = apply_points(Transform(flip_y=True, s=2.0), pc)
        np.testing.assert_allclose(out.xyz[0], [2.0, -6.0, 2.0])

    def test_intensity_and_length_preserved(self, rng):
        pc = PointCloud(rng.normal(size=(33, 3)), rng.random(33))
        out = apply_points(Transform(flip_y=True, theta=0.4, s=1.2), pc)
        assert len(out) == 33
        np.testing.assert_array_equal(out.intensity, pc.intensity)

    def test_box_identity(self):
        b = Box3D(1, 2, 3, 1, 1, 2, 0.3)
        assert apply_box(Transform.identity(), b) == b

    def test_box_flip(self):
        b = apply_box(Transform(flip_y=True), Box3D(1, 2, 0, 1, 1, 2, 0.3))
        assert (b.cx, b.cy, b.cz) == (1, -2, 0)
        assert b.r == pytest.approx(-0.3)

    def test_box_rotation_covariance(self):
        b = apply_box(Transform(theta=math.pi / 2), Box3D(1, 0, 0, 1, 1, 2, 0.0))
        np.testing.assert_allclose([b.cx, b.cy], [0.0, 1.0], atol=1e-12)
        assert b.r == pytest.approx(math.pi / 2)

    def test_box_array_equals_scalar(self, rng):
        # yaws at and beside +-pi, where the wrap steps by 2 pi, and zero
        near_pi = [math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
                   -math.pi + 1e-9, 0.0, -0.0]
        rows = [Box3D(1.5, -2.0, 0.3, 1.0, 1.2, 2.0, r) for r in near_pi]
        rows += [random_box(rng) for _ in range(300)]
        arr = np.array([b.as_array() for b in rows])
        cases = [Transform.identity(), Transform(flip_y=True), Transform(theta=math.pi),
                 Transform(theta=-math.pi, s=1.3), Transform(flip_y=True, theta=math.pi, s=0.7),
                 Transform(flip_y=True, theta=math.nextafter(-math.pi, 0.0), s=1.02)]
        cases += [Transform(flip_y=bool(rng.random() < 0.5), theta=rng.uniform(-math.pi, math.pi),
                            s=rng.uniform(0.5, 2.0)) for _ in range(40)]
        for t in cases:
            got = apply_boxes(t, arr)
            want = np.array([apply_box(t, b).as_array() for b in rows])
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        assert apply_boxes(Transform(theta=0.3), np.empty((0, 7))).shape == (0, 7)

    def test_invert_identity(self):
        assert invert(Transform.identity()) == Transform.identity()

    def test_invert_paper_parameters(self, rng):
        t = Transform(flip_y=True, theta=math.radians(22.5), s=1.02)
        pc = PointCloud(rng.normal(size=(200, 3)) * 5, rng.random(200))
        back = apply_points(invert(t), apply_points(t, pc))
        np.testing.assert_allclose(back.xyz, pc.xyz, atol=1e-12)

    def test_box_roundtrip_many(self, rng):
        worst = 0.0
        for _ in range(1000):
            t = Transform(flip_y=bool(rng.random() < 0.5),
                          theta=rng.uniform(-math.pi, math.pi),
                          s=rng.uniform(0.5, 2.0))
            b = random_box(rng)
            back = apply_box(invert(t), apply_box(t, b))
            worst = max(worst, np.abs(back.as_array() - b.as_array()).max())
        assert worst < 1e-9

    @given(transforms())
    def test_double_invert_is_identity(self, t):
        tt = invert(invert(t))
        assert tt.flip_y == t.flip_y
        assert tt.theta == pytest.approx(t.theta, abs=1e-12)
        assert tt.s == pytest.approx(t.s, rel=1e-12)

    @given(transforms(), transforms())
    def test_compose_matches_sequential_application(self, t1, t2):
        pc = PointCloud(np.array([[1.0, 2.0, 3.0], [-0.5, 0.25, 1.0]]), np.zeros(2))
        seq = apply_points(t2, apply_points(t1, pc))
        joint = apply_points(compose(t2, t1), pc)
        np.testing.assert_allclose(joint.xyz, seq.xyz, atol=1e-9)

    @given(transforms())
    def test_compose_with_inverse_is_identity(self, t):
        ident = compose(invert(t), t)
        assert not ident.flip_y
        assert ident.theta == pytest.approx(0.0, abs=1e-12)
        assert ident.s == pytest.approx(1.0, rel=1e-12)


class TestIou:
    def test_identical_boxes_exactly_one(self):
        b = Box3D(1, 2, 0.5, 1.6, 1.5, 3.9, 0.3)
        assert iou_bev(b, b) == 1.0
        assert iou_3d(b, b) == 1.0

    def test_disjoint(self):
        a = Box3D(0, 0, 0, 2, 2, 2, 0.2)
        b = Box3D(100, 0, 0, 2, 2, 2, 1.0)
        assert iou_bev(a, b) == 0.0
        assert iou_3d(a, b) == 0.0

    def test_square_rotated_45(self):
        a = Box3D(0, 0, 0, 2, 1, 2, 0.0)
        b = Box3D(0, 0, 0, 2, 1, 2, math.pi / 4)
        assert iou_bev(a, b) == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_half_vertical_overlap(self):
        a = Box3D(0, 0, 0.0, 2, 2, 2, 0.0)
        b = Box3D(0, 0, 1.0, 2, 2, 2, 0.0)
        assert iou_3d(a, b) == pytest.approx(1 / 3)

    def test_no_vertical_overlap(self):
        a = Box3D(0, 0, 0.0, 2, 1, 2, 0.0)
        b = Box3D(0, 0, 2.0, 2, 1, 2, 0.0)
        assert iou_3d(a, b) == 0.0

    def test_monte_carlo_agreement(self, rng):
        for _ in range(60):
            a = random_box(rng, spread=1.5)
            b = random_box(rng, spread=1.5)
            assert iou_bev(a, b) == pytest.approx(mc_iou_bev(a, b, 100_000, rng), abs=0.01)
            assert iou_3d(a, b) == pytest.approx(mc_iou_3d(a, b, 100_000, rng), abs=0.01)

    @given(boxes(), boxes())
    @settings(max_examples=60)
    def test_symmetric_and_bounded(self, a, b):
        v1, v2 = iou_bev(a, b), iou_bev(b, a)
        assert 0.0 <= v1 <= 1.0
        assert v1 == pytest.approx(v2, abs=1e-9)
        w1, w2 = iou_3d(a, b), iou_3d(b, a)
        assert 0.0 <= w1 <= 1.0
        assert w1 == pytest.approx(w2, abs=1e-9)

    def test_one_iff_identical_for_nonsquare(self, rng):
        a = Box3D(0, 0, 0, 1.0, 1.0, 2.0, 0.4)
        for _ in range(50):
            b = random_box(rng)
            if iou_3d(a, b) == 1.0:
                np.testing.assert_allclose(b.as_array(), a.as_array(), atol=1e-12)
        shifted = Box3D(0.01, 0, 0, 1.0, 1.0, 2.0, 0.4)
        assert iou_3d(a, shifted) < 1.0

    def test_rigid_invariance(self, rng):
        for _ in range(40):
            a, b = random_box(rng, 1.5), random_box(rng, 1.5)
            t = Transform(flip_y=bool(rng.random() < 0.5), theta=rng.uniform(-3, 3), s=1.0)
            assert iou_3d(apply_box(t, a), apply_box(t, b)) == pytest.approx(
                iou_3d(a, b), abs=1e-9
            )

    def test_scale_invariance(self, rng):
        for _ in range(40):
            a, b = random_box(rng, 1.5), random_box(rng, 1.5)
            t = Transform(s=rng.uniform(0.5, 2.0))
            assert iou_bev(apply_box(t, a), apply_box(t, b)) == pytest.approx(
                iou_bev(a, b), abs=1e-9
            )


class TestNms:
    def test_single_box_kept(self):
        b = Box3D(0, 0, 0, 1, 1, 2, 0)
        assert nms([(b, 0.5)], 0.5) == [0]

    def test_duplicate_suppressed(self):
        b = Box3D(0, 0, 0, 1, 1, 2, 0)
        assert nms([(b, 0.9), (b, 0.8)], 0.5) == [0]
        assert nms([(b, 0.8), (b, 0.9)], 0.5) == [1]

    def test_constructed_triple(self):
        a = Box3D(0, 0, 0, 2, 1, 4, 0)
        b = Box3D(0.3, 0, 0, 2, 1, 4, 0)  # heavy overlap with a
        c = Box3D(50, 0, 0, 2, 1, 4, 0)
        assert iou_bev(a, b) > 0.5
        kept = nms([(a, 0.9), (b, 0.7), (c, 0.8)], 0.5)
        assert kept == [0, 2]

    def test_order_independence_distinct_scores(self, rng):
        dets = [(random_box(rng, 2.0), float(s)) for s in rng.permutation(10) / 10]
        kept_a = {dets[i][1] for i in nms(dets, 0.4)}
        shuffled = [dets[i] for i in rng.permutation(len(dets))]
        kept_b = {shuffled[i][1] for i in nms(shuffled, 0.4)}
        assert kept_a == kept_b

    def test_nonfinite_score_rejected(self):
        b = Box3D(0, 0, 0, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            nms([(b, math.nan)], 0.5)


class TestBestMatch:
    def test_highest_iou_over_candidates(self, rng):
        for _ in range(30):
            box = random_box(rng, 1.0)
            cands = [random_box(rng, 1.0) for _ in range(6)]
            ious = [iou_3d(box, c) for c in cands]
            iou, idx = best_match(box, cands)
            assert iou == max(ious + [0.0])
            assert idx == (ious.index(iou) if iou > 0 else -1)

    def test_no_overlap(self):
        box = Box3D(0, 0, 0, 1, 1, 1, 0)
        assert best_match(box, []) == (0.0, -1)
        assert best_match(box, [Box3D(10, 0, 0, 1, 1, 1, 0)]) == (0.0, -1)

    def test_tie_goes_to_earliest_and_skip(self):
        box = Box3D(0, 0, 0, 1, 1, 2, 0)
        far = Box3D(50, 0, 0, 1, 1, 2, 0)
        assert best_match(box, [far, box, box]) == (1.0, 1)
        assert best_match(box, [far, box, box], skip={1}) == (1.0, 2)
        assert best_match(box, [far, box, box], skip={1, 2}) == (0.0, -1)


class TestResiduals:
    def test_zero_for_equal_boxes(self):
        b = Box3D(1, 2, 3, 1, 1, 2, 0.4)
        np.testing.assert_allclose(encode_residual(b, b), np.zeros(7), atol=1e-15)

    def test_diagonal_normalization(self):
        anchor = Box3D(0, 0, 0, 1, 1, 1, 0)
        target = Box3D(math.sqrt(2), 0, 0, 1, 1, 1, 0)
        res = encode_residual(target, anchor)
        np.testing.assert_allclose(res, [1, 0, 0, 0, 0, 0, 0], atol=1e-12)

    def test_roundtrip_many(self, rng):
        worst = 0.0
        for _ in range(1000):
            anchor, target = random_box(rng), random_box(rng)
            back = decode_residual(encode_residual(target, anchor), anchor)
            worst = max(worst, np.abs(back.as_array() - target.as_array()).max())
        assert worst < 1e-9


class TestAverageBoxes:
    def test_single(self):
        b = Box3D(1, 2, 3, 1, 1, 2, 0.4)
        assert average_boxes([b]) == b

    def test_circular_mean_yaw(self):
        a = Box3D(0, 0, 0, 1, 1, 2, math.radians(170))
        b = Box3D(0, 0, 0, 1, 1, 2, math.radians(-170))
        assert abs(average_boxes([a, b]).r) == pytest.approx(math.pi, abs=1e-9)

    def test_three_identical(self):
        b = Box3D(1, 2, 3, 1, 1, 2, -2.0)
        avg = average_boxes([b, b, b])
        np.testing.assert_allclose(avg.as_array(), b.as_array(), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_boxes([])


class TestWrapAngle:
    @given(st.floats(-50, 50, allow_nan=False))
    def test_range_and_equivalence(self, r):
        w = wrap_angle(r)
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(r), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(r), abs=1e-9)


def test_points_in_box_boundary():
    b = Box3D(0, 0, 0, 2, 2, 2, 0)
    on_face = np.array([[1.0, 0.0, 0.0]])
    inside = np.array([[0.99, 0.0, 0.0]])
    assert not points_in_box(b, on_face, strict=True)[0]
    assert points_in_box(b, on_face, strict=False)[0]
    assert points_in_box(b, inside, strict=True)[0]
