import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unittest import mock

from cadet3d import geometry
from cadet3d.geometry import (
    Box3D,
    PointCloud,
    Transform,
    _bev_overlap,
    apply_box,
    apply_boxes,
    apply_points,
    average_box_rows,
    average_boxes,
    best_match,
    box_rows,
    check_boxes,
    compose,
    decode_residual,
    decode_residuals,
    encode_residual,
    encode_residuals,
    invert,
    iou_3d,
    iou_bev,
    nms,
    overlap_candidates,
    points_in_box,
    wrap_angle,
    wrap_angles,
)
from conftest import assert_boxes_close, assert_close, boxes, random_box, transforms
from reference import (
    mc_iou_3d,
    mc_iou_bev,
    scalar_average_boxes,
    scalar_best_match,
    scalar_decode_residual,
    scalar_encode_residual,
    scalar_nms,
)


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

    def test_union_rounding_to_zero(self):
        # clipping keeps the whole 1e-6 x 1e-4 box (the inside test has an
        # absolute tolerance) while the 1e-9 box's area rounds to 0.0, so the
        # union is 0.0: the IoU is 0.0, not a ZeroDivisionError
        a = Box3D(1, 1, 0, 1e-6, 1, 1e-4, 0)
        b = Box3D(1, 1, 0, 1e-9, 1, 1e-9, 0)
        for x, y in ((a, b), (b, a)):
            assert iou_bev(x, y) == 0.0
            assert iou_3d(x, y) == 0.0

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


def first_match(box, cands, skip=()):
    return next(best_match(box_rows([box]), box_rows(cands), skip))


class TestNms:
    def test_single_box_kept(self):
        b = Box3D(0, 0, 0, 1, 1, 2, 0)
        assert nms(box_rows([b]), [0.5], 0.5) == [0]

    def test_duplicate_suppressed(self):
        b = Box3D(0, 0, 0, 1, 1, 2, 0)
        assert nms(box_rows([b, b]), [0.9, 0.8], 0.5) == [0]
        assert nms(box_rows([b, b]), [0.8, 0.9], 0.5) == [1]

    def test_constructed_triple(self):
        a = Box3D(0, 0, 0, 2, 1, 4, 0)
        b = Box3D(0.3, 0, 0, 2, 1, 4, 0)  # heavy overlap with a
        c = Box3D(50, 0, 0, 2, 1, 4, 0)
        assert iou_bev(a, b) > 0.5
        kept = nms(box_rows([a, b, c]), [0.9, 0.7, 0.8], 0.5)
        assert kept == [0, 2]

    def test_order_independence_distinct_scores(self, rng):
        dets = [(random_box(rng, 2.0), float(s)) for s in rng.permutation(10) / 10]

        def kept_scores(ds):
            return {ds[i][1] for i in nms(box_rows([d[0] for d in ds]), [d[1] for d in ds], 0.4)}

        assert kept_scores(dets) == kept_scores([dets[i] for i in rng.permutation(len(dets))])

    def test_nonfinite_score_rejected(self):
        b = Box3D(0, 0, 0, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            nms(box_rows([b]), [math.nan], 0.5)

    def test_invalid_rows_rejected(self):
        for bad in ([0, 0, 0, 1, 1, math.nan, 0], [0, 0, 0, 1, 0.0, 1, 0], [math.inf] * 7):
            rows = np.array([[0, 0, 0, 1, 1, 1, 0], bad], dtype=float)
            with pytest.raises(ValueError):
                nms(rows, [0.5, 0.4], 0.5)
            with pytest.raises(ValueError):
                list(best_match(rows[:1], rows))

    def test_empty(self):
        assert nms(np.empty((0, 7)), [], 0.5) == []


class TestBestMatch:
    def test_highest_iou_over_candidates(self, rng):
        for _ in range(30):
            box = random_box(rng, 1.0)
            cands = [random_box(rng, 1.0) for _ in range(6)]
            ious = [iou_3d(box, c) for c in cands]
            iou, idx = first_match(box, cands)
            assert iou == max(ious + [0.0])
            assert idx == (ious.index(iou) if iou > 0 else -1)

    def test_no_overlap(self):
        box = Box3D(0, 0, 0, 1, 1, 1, 0)
        assert first_match(box, []) == (0.0, -1)
        assert first_match(box, [Box3D(10, 0, 0, 1, 1, 1, 0)]) == (0.0, -1)

    def test_tie_goes_to_earliest_and_skip(self):
        box = Box3D(0, 0, 0, 1, 1, 2, 0)
        far = Box3D(50, 0, 0, 1, 1, 2, 0)
        assert first_match(box, [far, box, box]) == (1.0, 1)
        assert first_match(box, [far, box, box], skip={1}) == (1.0, 2)
        assert first_match(box, [far, box, box], skip={1, 2}) == (0.0, -1)

    def test_skip_read_per_row(self):
        box = Box3D(0, 0, 0, 1, 1, 2, 0)
        taken = set()
        got = []
        for iou, idx in best_match(box_rows([box] * 3), box_rows([box, box]), skip=taken):
            got.append((iou, idx))
            taken.add(idx)
        assert got == [(1.0, 0), (1.0, 1), (0.0, -1)]


@st.composite
def box_sets(draw, max_boxes=8):
    """Lists of boxes built to stress the overlap tests: random, duplicate,
    nested, edge-touching, corner-touching, stacked (touching in z), rotated,
    degenerate (near-zero sizes) and far-away boxes, each derived from an
    earlier one."""
    out = [draw(boxes())]
    for _ in range(draw(st.integers(0, max_boxes - 1))):
        src = out[draw(st.integers(0, len(out) - 1))]
        kind = draw(st.sampled_from(["random", "duplicate", "nested", "touching", "corner",
                                     "stacked", "rotated", "degenerate", "far"]))
        cx, cy, cz, w, h, l, r = src.cx, src.cy, src.cz, src.w, src.h, src.l, src.r
        if kind == "random":
            out.append(draw(boxes()))
            continue
        if kind == "nested":
            f = draw(st.floats(0.05, 1.0))
            w, h, l = w * f, h * f, l * f
        elif kind == "touching":  # shares the front face, or overlaps it by a hair
            l2 = draw(st.floats(0.2, 4.0))
            d = 0.5 * (l + l2) + draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-9]))
            cx, cy, l = cx + d * math.cos(r), cy + d * math.sin(r), l2
        elif kind == "corner":  # a twin meeting it corner to corner: circumcircles touch
            c, s = math.cos(r), math.sin(r)
            cx, cy = cx + c * l - s * w, cy + s * l + c * w
        elif kind == "stacked":
            cz += 0.5 * h + 0.5 * draw(st.floats(0.2, 4.0))
        elif kind == "rotated":
            r += draw(st.sampled_from([math.pi / 2, math.pi, -math.pi / 2, math.pi / 4])
                      | st.floats(-math.pi, math.pi))
        elif kind == "degenerate":
            w = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
            l = draw(st.sampled_from([l, 1e-9, 1e-4]))
        elif kind == "far":
            cx += draw(st.sampled_from([-1, 1])) * draw(st.floats(5.0, 1e4))
        out.append(Box3D(cx, cy, cz, w, h, l, r))
    return out


THRESHOLDS = [0.0, 0.1, 0.5, 1.0]


def outcome(fn, *args):
    """``fn(*args)``, or the type of the exception it raises: the exact IoU
    divides by zero for some near-zero boxes, on both paths alike."""
    try:
        return fn(*args)
    except ZeroDivisionError as exc:
        return type(exc)


class TestOverlapOracle:
    """``nms`` and ``best_match`` equal the exact all-pairs loops of
    ``reference``, indices and IoUs alike."""

    @pytest.mark.parametrize("thresh", THRESHOLDS)
    @given(box_sets(), st.data())
    @settings(max_examples=60)
    def test_nms(self, thresh, bs, data):
        scores = data.draw(st.lists(st.sampled_from([0.1, 0.5, 0.9]) | st.floats(0, 1),
                                    min_size=len(bs), max_size=len(bs)))
        got = outcome(nms, box_rows(bs), scores, thresh)
        assert got == outcome(scalar_nms, list(zip(bs, scores)), thresh)

    @given(box_sets(), box_sets(), st.sets(st.integers(0, 7)))
    @settings(max_examples=100)
    def test_best_match(self, queries, cands, skip):
        got = outcome(lambda: list(best_match(box_rows(queries), box_rows(cands), skip)))
        assert got == outcome(lambda: [scalar_best_match(q, cands, skip) for q in queries])

    @pytest.mark.parametrize("thresh", THRESHOLDS)
    @given(box_sets(), box_sets())
    @settings(max_examples=40)
    def test_best_match_claiming(self, thresh, queries, cands):
        """The greedy claiming of ``evaluation.match_detections``."""
        def claim(matches):
            taken, out = set(), []
            for match in matches(taken):
                out.append(match)
                if match[1] >= 0 and match[0] >= thresh:
                    taken.add(match[1])
            return out

        got = outcome(claim, lambda taken: best_match(box_rows(queries), box_rows(cands), taken))
        want = outcome(claim, lambda taken: (scalar_best_match(q, cands, taken) for q in queries))
        assert got == want

    @given(box_sets(), box_sets())
    @settings(max_examples=150)
    def test_pre_reject_never_drops_an_overlap(self, a, b):
        """A pair the mask rejects is one that ``_bev_overlap`` rejects before
        clipping, so its area is 0.0 and the clipped pairs are the same."""
        assert overlap_candidates(box_rows(a), box_rows(b)).shape == (len(a), len(b))
        bs = a + b
        near = overlap_candidates(box_rows(bs), box_rows(bs))
        with mock.patch.object(geometry, "_clip_convex", side_effect=AssertionError):
            for i, j in zip(*np.nonzero(~near)):
                assert _bev_overlap(bs[i], bs[j])[0] == 0.0

    def test_non_finite_rows_stay_candidates(self):
        rows = np.array([[0, 0, 0, 1, 1, 1, 0], [math.nan, 0, 0, 1, 1, 1, 0],
                         [1e308, 1e308, 0, 1e308, 1, 1e308, 0]])
        assert overlap_candidates(rows, rows)[:, 1:].all()


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


class TestArrayForms:
    """The (N, 7) forms equal their scalar counterparts: ``wrap_angles``,
    ``check_boxes`` and ``box_rows`` exactly, the others, which call
    ``np.*`` where the scalar forms of ``reference`` call ``math.*``, at the
    tolerance; ``decode_residual`` and ``encode_residual`` are rows of them."""

    @given(st.lists(st.floats(-50, 50, allow_nan=False)
                    | st.sampled_from([math.pi, -math.pi, 3 * math.pi, 0.0, -0.0]), max_size=20))
    def test_wrap_angles(self, rs):
        got = wrap_angles(np.array(rs, dtype=float))
        np.testing.assert_array_equal(got, [wrap_angle(r) for r in rs])

    def test_wrap_angles_non_finite(self):
        with np.errstate(invalid="ignore"):
            assert np.isnan(wrap_angles(np.array([math.inf, -math.inf, math.nan]))).all()

    def test_decode_residuals(self, rng):
        anchors = [random_box(rng) for _ in range(200)]
        res = rng.normal(size=(200, 7)) * rng.choice([0.01, 0.3, 2.0], size=(200, 7))
        got = decode_residuals(res, box_rows(anchors))
        assert_boxes_close(got, box_rows([scalar_decode_residual(r, a)
                                          for r, a in zip(res, anchors)]))
        np.testing.assert_array_equal(box_rows([decode_residual(r, a) for r, a in zip(res, anchors)]),
                                      got)
        assert decode_residuals(np.empty((0, 7)), np.empty((0, 7))).shape == (0, 7)

    def test_encode_residuals(self, rng):
        anchors, targets = [random_box(rng) for _ in range(200)], [random_box(rng) for _ in range(200)]
        got = encode_residuals(box_rows(targets), box_rows(anchors))
        assert_close(got, [scalar_encode_residual(t, a) for t, a in zip(targets, anchors)])
        np.testing.assert_array_equal([encode_residual(t, a) for t, a in zip(targets, anchors)], got)
        assert encode_residuals(np.empty((0, 7)), np.empty((0, 7))).shape == (0, 7)

    def test_decode_overflow_is_a_value_error(self):
        anchor = Box3D(0, 0, 0, 1, 1, 1, 0)
        res = np.array([0, 0, 0, 800.0, 0, 0, 0])
        out = decode_residuals(res[None], box_rows([anchor]))
        assert out[0, 3] == math.inf
        with pytest.raises(ValueError):
            check_boxes(out)
        with pytest.raises(ValueError):
            decode_residual(res, anchor)

    @pytest.mark.parametrize("n_ch", [1, 2, 3, 4, 8, 9])
    def test_average_box_rows(self, rng, n_ch):
        blocks = [[random_box(rng) for _ in range(n_ch)] for _ in range(30)]
        got = average_box_rows(np.stack([box_rows(b) for b in blocks]))
        assert_boxes_close(got, box_rows([scalar_average_boxes(b) for b in blocks]))

    def test_check_boxes(self):
        good = np.array([[0, 0, 0, 1, 1, 1, 0]], dtype=float)
        assert check_boxes(good) is good
        for col, bad in [(0, math.nan), (6, math.inf), (3, 0.0), (4, -1.0), (5, 0.0)]:
            rows = good.copy()
            rows[0, col] = bad
            with pytest.raises(ValueError):
                check_boxes(rows)

    def test_box_rows(self, rng):
        bs = [random_box(rng) for _ in range(5)]
        np.testing.assert_array_equal(box_rows(bs), np.stack([b.as_array() for b in bs]))
        assert box_rows([]).shape == (0, 7)


class TestAverageBoxes:
    def test_fields_are_python_floats(self, rng):
        avg = average_boxes([random_box(rng) for _ in range(3)])
        assert all(type(getattr(avg, f)) is float for f in ("cx", "cy", "cz", "w", "h", "l", "r"))

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
