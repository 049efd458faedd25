import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadet3d import selftrain
from cadet3d.config import RunConfig
from cadet3d.data import Scene, SynthConfig, synth_scene
from cadet3d.detector import (
    ENCODE_BATCH,
    Detection,
    DetectorParams,
    NonFiniteLossError,
)
from cadet3d.geometry import Box3D, PointCloud, box_rows, iou_3d, points_in_box
from cadet3d.selftrain import (
    CRITERIA,
    DualThresholds,
    PairCounter,
    PseudoBox,
    SslState,
    channel_consistencies,
    channel_iou_consistency,
    detect_and_score,
    ema_update,
    fit_dual_thresholds,
    fit_threshold_bank,
    levels,
    pairing_iou_consistency,
    optimal_three_partition,
    remove_low_level_points,
    scene_seed,
    ssl_epoch,
    stratify,
)
from conftest import random_box
from reference import (
    brute_force_three_partition,
    classwise_threshold_bank,
    encode,
    scalar_channel_iou_consistency,
    scalar_stratify,
    stepwise_ssl_epoch,
    unique_three_partition,
)


def det_with_boxes(boxes, scores=(0.1, 0.6, 0.2, 0.1), obj=0.8):
    from cadet3d.geometry import average_boxes

    return Detection(
        box=average_boxes(boxes),
        per_channel_boxes=list(boxes),
        class_scores=np.array(scores),
        objectness=obj,
    )


class TestChannelConsistency:
    def test_identical_boxes(self):
        b = Box3D(0, 0, 0, 1, 1, 2, 0.1)
        assert channel_iou_consistency(det_with_boxes([b, b, b])) == 1.0

    def test_single_channel_convention(self):
        b = Box3D(0, 0, 0, 1, 1, 2, 0.1)
        assert channel_iou_consistency(det_with_boxes([b])) == 1.0

    def test_mean_of_pairwise(self):
        b1 = Box3D(0, 0, 0, 1.0, 1.0, 2.0, 0.0)
        b2 = Box3D(0.1, 0, 0, 1.0, 1.0, 2.0, 0.0)
        b3 = Box3D(0.0, 0.1, 0, 1.0, 1.0, 2.0, 0.0)
        expected = (iou_3d(b1, b2) + iou_3d(b1, b3) + iou_3d(b2, b3)) / 3
        assert channel_iou_consistency(det_with_boxes([b1, b2, b3])) == pytest.approx(expected)

    def test_counter_counts_pairs(self):
        b = Box3D(0, 0, 0, 1, 1, 2, 0.1)
        counter = PairCounter()
        channel_iou_consistency(det_with_boxes([b, b, b]), counter)
        assert counter.count == 3

    def test_rows_and_boxes_bit_identical(self, rng):
        # a detection holding Box3Ds, and the same boxes as lists of floats
        # or as an array
        for n_ch in (1, 2, 3, 4):
            for _ in range(20):
                base = random_box(rng, spread=1.0)
                boxes = [base] + [random_box(rng, spread=1.0) for _ in range(n_ch - 1)]
                det = det_with_boxes(boxes)
                counter = PairCounter()
                want = channel_iou_consistency(det, counter)
                for rows in (box_rows(boxes).tolist(), box_rows(boxes)):
                    got_counter = PairCounter()
                    got = channel_iou_consistency(replace(det, per_channel_boxes=rows), got_counter)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()
                    assert got_counter.count == counter.count == math.comb(n_ch, 2)

    def test_pass_equals_pair_by_pair(self, rng):
        # one call over a pass's (D, C, 7) rows: near and far channel boxes,
        # identical ones and boxes far apart in z, against the scalar loop
        for n_ch in (1, 2, 3, 4):
            dets = []
            for _ in range(60):
                base = random_box(rng, spread=1.0)
                chans = [base]
                for _ in range(n_ch - 1):
                    kind = rng.integers(0, 4)
                    if kind == 0:
                        chans.append(base)
                    elif kind == 1:
                        jitter = rng.normal(0.0, 0.05, 7)
                        jitter[3:6] = np.abs(jitter[3:6])
                        chans.append(Box3D(*(box_rows([base])[0] + jitter)))
                    elif kind == 2:
                        chans.append(Box3D(base.cx, base.cy, base.cz + 10.0, *base[3:]))
                    else:
                        chans.append(random_box(rng, spread=1.0))
                dets.append(chans)
            counter = PairCounter()
            got = channel_consistencies(box_rows(dets).reshape(len(dets), n_ch, 7), counter)
            want = np.array([scalar_channel_iou_consistency(chans) for chans in dets])
            assert got.tobytes() == want.tobytes()
            assert counter.count == len(dets) * math.comb(n_ch, 2)
        assert channel_consistencies(np.zeros((0, 3, 7))).shape == (0,)

    def test_linear_scaling_in_detections(self, rng):
        for n_dets in (10, 100):
            counter = PairCounter()
            for _ in range(n_dets):
                b = random_box(rng)
                channel_iou_consistency(det_with_boxes([b, b, b]), counter)
            assert counter.count == 3 * n_dets


class TestPairingBaseline:
    def test_self_comparison_all_ones(self, rng):
        boxes = [random_box(rng) for _ in range(8)]
        scores = pairing_iou_consistency(boxes, boxes)
        np.testing.assert_allclose(scores, 1.0)

    def test_empty_counterpart(self, rng):
        boxes = [random_box(rng) for _ in range(5)]
        np.testing.assert_allclose(pairing_iou_consistency(boxes, []), 0.0)

    def test_quadratic_count(self, rng):
        a = [random_box(rng) for _ in range(7)]
        b = [random_box(rng) for _ in range(11)]
        counter = PairCounter()
        pairing_iou_consistency(a, b, counter)
        assert counter.count == 7 * 11

    def test_agrees_with_channel_method_on_matched_pairs(self, rng):
        # two-channel detections whose channel boxes are (box, counterpart):
        # the pairwise mean equals the max-overlap score when detections are
        # far apart from each other
        boxes_a, boxes_b, dets = [], [], []
        for k in range(6):
            base = Box3D(10.0 * k, 0, 0, 1.0, 1.0, 2.0, 0.2)
            twin = Box3D(10.0 * k + 0.15, 0, 0, 1.0, 1.0, 2.0, 0.2)
            boxes_a.append(base)
            boxes_b.append(twin)
            dets.append(det_with_boxes([base, twin]))
        pairing = pairing_iou_consistency(boxes_a, boxes_b)
        channel = np.array([channel_iou_consistency(d) for d in dets])
        np.testing.assert_allclose(channel, pairing, atol=1e-9)


class TestOptimalPartition:
    def test_worked_example(self):
        centers = optimal_three_partition(np.array([0.1, 0.12, 0.5, 0.52, 0.9, 0.92]))
        np.testing.assert_allclose(centers, [0.11, 0.51, 0.91], atol=1e-12)

    def test_fewer_than_three_distinct(self):
        assert optimal_three_partition(np.array([0.5, 0.5, 0.5, 0.5])) is None
        assert optimal_three_partition(np.array([0.2, 0.8])) is None

    def test_matches_brute_force(self, rng):
        for trial in range(50):
            n = int(rng.integers(3, 31))
            vals = rng.random(n)
            if len(np.unique(vals)) < 3:
                continue
            centers = optimal_three_partition(vals)
            sse_brute, centers_brute = brute_force_three_partition(vals)
            xs = np.sort(vals)
            # recompute SSE of our partition from its centers via boundaries
            lo, hi = (centers[0] + centers[1]) / 2, (centers[1] + centers[2]) / 2
            parts = [xs[xs < lo], xs[(xs >= lo) & (xs < hi)], xs[xs >= hi]]
            sse = sum(((p - p.mean()) ** 2).sum() for p in parts if len(p))
            assert sse <= sse_brute + 1e-9
            np.testing.assert_allclose(centers, centers_brute, atol=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_distinct_count_matches_np_unique(self, data):
        # ties, signed zeros and values one ulp apart; the criteria are IoUs
        # and probabilities, so every value is finite
        base = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
        pool = [0.0, -0.0, *base, *np.nextafter(base, 2.0), *np.nextafter(base, -1.0)]
        vals = np.array(data.draw(st.lists(st.sampled_from(pool), max_size=12)), dtype=np.float64)
        got, want = optimal_three_partition(vals), unique_three_partition(vals)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.tobytes() == want.tobytes()


def pseudo(p=0.8, o=0.7, iou=0.9, cls=1):
    return PseudoBox(box=Box3D(0, 0, 0, 1, 1, 2, 0), cls=cls, p_hat=p, o_hat=o, iou_cons=iou)


def table(pseudo_boxes):
    """The (P,) classes and (P, 3) ``CRITERIA`` values of ``pseudo_boxes``."""
    return (np.array([pb.cls for pb in pseudo_boxes], dtype=np.int64),
            np.array([[getattr(pb, name) for name in CRITERIA] for pb in pseudo_boxes],
                     dtype=np.float64).reshape(-1, len(CRITERIA)))


# a pseudo-box criterion value: one of a few low and high boundaries, a value
# one ulp either side of one, or any value in [0, 1]
BOUNDS = (0.0, 0.25, 0.5, 0.75, 1.0)
criterion_values = st.one_of(
    st.sampled_from(BOUNDS),
    st.sampled_from(BOUNDS).map(lambda v: float(np.nextafter(v, 2.0))),
    st.sampled_from(BOUNDS).map(lambda v: float(np.nextafter(v, -1.0))),
    st.floats(0.0, 1.0),
)
pseudo_boxes = st.lists(st.builds(pseudo, criterion_values, criterion_values, criterion_values,
                                  st.integers(1, 3)), max_size=12)
dual_thresholds = st.builds(
    lambda p, o, i: DualThresholds(p_hat=p, o_hat=o, iou_cons=i),
    *[st.lists(st.sampled_from(BOUNDS), min_size=2, max_size=2).map(lambda b: tuple(sorted(b)))
      for _ in CRITERIA])


class TestFitThresholds:
    def test_worked_example_thresholds(self):
        boxes = [pseudo(p=v, o=1.0, iou=1.0) for v in (0.1, 0.12, 0.5, 0.52, 0.9, 0.92)]
        # ensure the prefilter keeps everything
        thr = fit_dual_thresholds(boxes, min_score=0.0)
        assert thr.p_hat == pytest.approx((0.31, 0.71), abs=1e-12)

    def test_prefilter_drops_low_score(self):
        boxes = [pseudo(p=0.05, o=0.5) for _ in range(10)]
        thr = fit_dual_thresholds(boxes, min_score=0.1)
        assert thr == DualThresholds()  # neutral defaults retained

    def test_previous_retained_when_sparse(self):
        prev = DualThresholds(p_hat=(0.2, 0.8), o_hat=(0.3, 0.7), iou_cons=(0.4, 0.6))
        thr = fit_dual_thresholds([pseudo()], previous=prev, min_score=0.1)
        assert thr == prev

    def test_degenerate_criterion_uses_median(self):
        boxes = [pseudo(p=v, o=0.5, iou=0.5) for v in (0.2, 0.5, 0.8, 0.3, 0.9)]
        thr = fit_dual_thresholds(boxes, min_score=0.0)
        assert thr.o_hat == (0.5, 0.5)
        assert thr.iou_cons == (0.5, 0.5)
        assert thr.p_hat[0] < thr.p_hat[1]

    def test_duplicate_point_stays_optimal(self, rng):
        vals = rng.random(12)
        boxes = [pseudo(p=float(v), o=1.0, iou=1.0) for v in vals] + [
            pseudo(p=float(vals[3]), o=1.0, iou=1.0)
        ]
        thr = fit_dual_thresholds(boxes, min_score=0.0)
        _, centers = brute_force_three_partition(np.append(vals, vals[3]))
        np.testing.assert_allclose(
            thr.p_hat, [(centers[0] + centers[1]) / 2, (centers[1] + centers[2]) / 2],
            atol=1e-9,
        )

    def test_bank_fits_per_class(self):
        boxes = [pseudo(p=v, cls=1) for v in (0.2, 0.5, 0.9)] + [
            pseudo(p=v, cls=2) for v in (0.3, 0.6, 0.95)
        ]
        bank = fit_threshold_bank(*table(boxes), num_classes=3, min_score=0.0)
        assert bank[1] != bank[2]
        assert bank[3] == DualThresholds()  # no boxes -> neutral

    @given(pseudo_boxes, st.dictionaries(st.integers(1, 3), dual_thresholds),
           st.sampled_from([0.0, 0.1, 0.3]))
    @settings(max_examples=60)
    def test_bank_equals_classwise_fits(self, boxes, previous, min_score):
        # each class's rows, in their order, fit as that class's pseudo-boxes
        assert (fit_threshold_bank(*table(boxes), num_classes=3, previous=previous,
                                   min_score=min_score)
                == classwise_threshold_bank(boxes, 3, previous, min_score=min_score))


class TestStratify:
    THR = DualThresholds(p_hat=(0.3, 0.7), o_hat=(0.3, 0.7), iou_cons=(0.3, 0.7))

    def test_perfect_scores_high(self):
        out = stratify([pseudo(1.0, 1.0, 1.0)], self.THR)
        assert out[0].level == "high" and out[0].weight == 1.0

    def test_all_below_low(self):
        out = stratify([pseudo(0.1, 0.1, 0.1)], self.THR)
        assert out[0].level == "low" and out[0].weight == 0.0

    def test_ambiguous_weight_product(self):
        out = stratify([pseudo(0.8, 0.7, 0.5)], self.THR)
        assert out[0].level == "ambiguous"
        assert out[0].weight == pytest.approx(0.56)

    def test_any_low_criterion_demotes(self):
        out = stratify([pseudo(0.9, 0.9, 0.2)], self.THR)
        assert out[0].level == "low"

    def test_exhaustive_mapping_and_monotonicity(self):
        grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        rank = {"low": 0, "ambiguous": 1, "high": 2}
        for p in grid:
            for o in grid:
                for i in grid:
                    pb = pseudo(p, o, i)
                    out = stratify([pb], self.THR)[0]
                    scores = dict(p_hat=p, o_hat=o, iou_cons=i)
                    if any(scores[c] < getattr(self.THR, c)[0] for c in CRITERIA):
                        assert out.level == "low" and out.weight == 0.0
                    elif all(scores[c] >= getattr(self.THR, c)[1] for c in CRITERIA):
                        assert out.level == "high" and out.weight == 1.0
                    else:
                        assert out.level == "ambiguous"
                        assert out.weight == pytest.approx(p * o)
                    # raising any one score never demotes
                    for field in ("p_hat", "o_hat", "iou_cons"):
                        raised = stratify([replace(pb, **{field: 1.0})], self.THR)[0]
                        assert rank[raised.level] >= rank[out.level]

    def test_uses_class_bank(self):
        bank = {
            1: DualThresholds(p_hat=(0.9, 0.95), o_hat=(0.0, 0.0), iou_cons=(0.0, 0.0)),
            2: DualThresholds(p_hat=(0.1, 0.2), o_hat=(0.0, 0.0), iou_cons=(0.0, 0.0)),
        }
        same_scores = [pseudo(p=0.5, cls=1), pseudo(p=0.5, cls=2)]
        out = stratify(same_scores, bank)
        assert out[0].level == "low"
        assert out[1].level == "high"


    @given(pseudo_boxes, st.one_of(dual_thresholds,
                                   st.fixed_dictionaries({c: dual_thresholds for c in (1, 2, 3)})))
    @settings(max_examples=200)
    def test_matches_scalar_oracle(self, boxes, thr):
        got, want = stratify(boxes, thr), scalar_stratify(boxes, thr)
        assert [pb.level for pb in got] == [pb.level for pb in want]
        assert ([np.float64(pb.weight).tobytes() for pb in got]
                == [np.float64(pb.weight).tobytes() for pb in want])

    def test_levels_of_no_rows(self):
        codes, weights = levels(*table([]), self.THR)
        assert codes.shape == weights.shape == (0,)
        assert stratify([], self.THR) == stratify([], {1: self.THR}) == []


class TestRemoveLowLevelPoints:
    def test_no_boxes_noop(self, rng):
        sc = synth_scene(5, SynthConfig())
        out = remove_low_level_points(sc.cloud, [])
        np.testing.assert_array_equal(out.xyz, sc.cloud.xyz)

    def test_all_inside_removed(self, rng):
        pts = rng.uniform(-0.4, 0.4, (50, 3))
        sc = Scene("s", PointCloud(pts, np.zeros(50)))
        out = remove_low_level_points(sc.cloud, [Box3D(0, 0, 0, 1, 1, 1, 0)])
        assert len(out) == 0

    def test_boundary_point_survives(self):
        sc = Scene("s", PointCloud(np.array([[0.5, 0.0, 0.0]]), np.zeros(1)))
        out = remove_low_level_points(sc.cloud, [Box3D(0, 0, 0, 1, 1, 1, 0)])
        assert len(out) == 1

    def test_outside_points_untouched(self, rng):
        inside = rng.uniform(-0.3, 0.3, (20, 3))
        outside = rng.uniform(5, 6, (30, 3))
        sc = Scene("s", PointCloud(np.vstack([inside, outside]), np.zeros(50)))
        out = remove_low_level_points(sc.cloud, [Box3D(0, 0, 0, 1, 1, 1, 0)])
        assert len(out) == 30


class TestEma:
    def test_momentum_one_freezes_teacher(self, rng):
        student = DetectorParams.zeros()
        student.w_cls[:] = 1.0
        teacher = DetectorParams.zeros()
        ema_update(teacher, student, 1.0)
        assert teacher.w_cls.sum() == 0.0

    def test_momentum_zero_copies_student(self, rng):
        student = DetectorParams.zeros()
        student.w_reg[:] = rng.normal(size=student.w_reg.shape)
        teacher = DetectorParams.zeros()
        ema_update(teacher, student, 0.0)
        np.testing.assert_array_equal(teacher.w_reg, student.w_reg)

    def test_standard_momentum_arithmetic(self):
        student = DetectorParams.zeros()
        teacher = DetectorParams.zeros()
        teacher.w_obj[:] = 1.0
        ema_update(teacher, student, 0.999)
        np.testing.assert_allclose(teacher.w_obj, 0.999)

    def test_closed_form_after_k_steps(self, rng):
        m = 0.97
        teacher = DetectorParams.zeros()
        theta0 = rng.normal()
        teacher.w_cls[0, 0] = theta0
        history = []
        for _ in range(40):
            student = DetectorParams.zeros()
            student.w_cls[0, 0] = rng.normal()
            history.append(student.w_cls[0, 0])
            ema_update(teacher, student, m)
        k = len(history)
        expected = (m ** k) * theta0 + (1 - m) * sum(
            (m ** (k - i - 1)) * h for i, h in enumerate(history)
        )
        assert teacher.w_cls[0, 0] == pytest.approx(expected, abs=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ema_update(DetectorParams.zeros(num_classes=3), DetectorParams.zeros(num_classes=2),
                       0.999)


def tiny_ssl_setup(n_labeled=3, n_unlabeled=5, n_val=2, shuffle_grid_cells=4, momentum=0.999):
    synth = SynthConfig()
    labeled = [synth_scene(scene_seed(9, 0, i, 10), synth, f"{i:06d}") for i in range(n_labeled)]
    unlabeled = [
        synth_scene(scene_seed(9, 0, 100 + i, 10), synth, f"u{i:06d}") for i in range(n_unlabeled)
    ]
    val = [synth_scene(scene_seed(9, 0, 200 + i, 11), synth, f"v{i:06d}") for i in range(n_val)]
    cfg = RunConfig(seed=9, n_channels=3, threshold_period=5,
                    shuffle_grid_cells=shuffle_grid_cells, ema_momentum=momentum)
    params = DetectorParams.zeros(lr=0.1)
    state = SslState(student=params.copy(), teacher=params.copy())
    return labeled, unlabeled, val, cfg, state


def in_memory(*splits):
    """``ssl_epoch``'s cloud reader for scenes built in memory: the cloud of
    each scene of ``splits`` by its id."""
    return {sc.id: sc.cloud for split in splits for sc in split}.__getitem__


def weak_pairs(scenes, cfg):
    """Each scene with its encoding under the weak channels."""
    return [(sc, encode(sc.cloud, cfg.weak_policy())) for sc in scenes]


class TestSslEpoch:
    def test_no_unlabeled_reduces_to_supervised(self):
        labeled, _, _, cfg, state = tiny_ssl_setup(n_unlabeled=0)
        m = ssl_epoch(state, labeled, [], cfg, in_memory(labeled))
        assert m.n_pseudo == 0
        assert math.isfinite(m.sup_total)
        assert m.unsup_total == 0.0
        assert state.epoch == 1

    def test_deterministic_under_fixed_seed(self):
        metrics = []
        for _ in range(2):
            labeled, unlabeled, val, cfg, state = tiny_ssl_setup()
            read = in_memory(labeled, unlabeled)
            unlabeled, val = weak_pairs(unlabeled, cfg), weak_pairs(val, cfg)
            rows = []
            for _ in range(2):
                m = ssl_epoch(state, labeled, unlabeled, cfg, read, val)
                rows.append((m.sup_total, m.unsup_total, m.n_high, m.n_ambiguous, m.n_low,
                             m.val_map, m.incorrect_postfilter))
            metrics.append(rows)
        assert metrics[0] == metrics[1]

    def test_counters_recorded(self):
        labeled, unlabeled, _, cfg, state = tiny_ssl_setup()
        m = ssl_epoch(state, labeled, weak_pairs(unlabeled, cfg), cfg,
                      in_memory(labeled, unlabeled))
        assert m.channel_pair_evals == 3 * m.n_pseudo
        assert m.pairing_pair_evals >= m.n_pseudo  # sum over scenes of N^2

    def test_hidden_labels_never_supervise(self):
        # dropping the unlabeled scenes' hidden labels changes the quality
        # counts they feed, and nothing that training produces
        runs = []
        for drop in (False, True):
            labeled, unlabeled, _, cfg, state = tiny_ssl_setup()
            if drop:
                unlabeled = [Scene(sc.id, sc.cloud) for sc in unlabeled]
            m = ssl_epoch(state, labeled, weak_pairs(unlabeled, cfg), cfg,
                          in_memory(labeled, unlabeled))
            weights = [a.tobytes() for a in state.student.arrays() + state.teacher.arrays()]
            runs.append((weights, m.incorrect_prefilter))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] > 0 and runs[1][1] == 0

    def test_student_steps_receive_only_ids_and_teacher_rows(self, monkeypatch):
        # the unlabeled scenes carry labels, yet the student stage receives
        # per scene only its id and the teacher's rows, the same rows that
        # the scenes give with their labels dropped: no Scene and no Box3D
        # of the unlabeled split
        labeled, unlabeled, _, cfg, state = tiny_ssl_setup()
        assert all(sc.gt_boxes for sc in unlabeled)
        *_, blind_state = tiny_ssl_setup()
        blind = selftrain.pseudo_targets(
            blind_state, weak_pairs([Scene(sc.id, sc.cloud) for sc in unlabeled], cfg), cfg,
            selftrain.EpochMetrics(epoch=0))
        received = []
        original = selftrain.student_steps

        def recorded(*args):
            received.append(args)
            return original(*args)

        monkeypatch.setattr(selftrain, "student_steps", recorded)
        ssl_epoch(state, labeled, weak_pairs(unlabeled, cfg), cfg, in_memory(labeled, unlabeled))
        ((_, targets, labeled_arg, _, _),) = received
        assert [target[0] for target in targets] == [sc.id for sc in unlabeled]
        for target, expected in zip(targets, blind, strict=True):
            assert type(target) is tuple and len(target) == 5
            assert all(type(rows) is np.ndarray and rows.dtype != object for rows in target[1:])
            assert target[0] == expected[0]
            for rows, expected_rows in zip(target[1:], expected[1:], strict=True):
                np.testing.assert_array_equal(rows, expected_rows)
        assert labeled_arg is labeled  # the labeled split, and only it, brings labels

    def test_thresholds_fitted_on_first_epoch(self):
        labeled, unlabeled, _, cfg, state = tiny_ssl_setup()
        assert state.thresholds is None
        ssl_epoch(state, labeled, weak_pairs(unlabeled, cfg), cfg, in_memory(labeled, unlabeled))
        assert isinstance(state.thresholds, dict)
        assert sorted(state.thresholds) == [1, 2, 3]
        assert all(isinstance(t, DualThresholds) for t in state.thresholds.values())

    def test_levels_and_counts_settled_before_the_first_step(self, monkeypatch):
        # every scene's rows take their levels in one call, and all are
        # counted in one call, before any student step reads a cloud, so no
        # count is a side effect of drawing the steps
        calls = []

        def recorded(name):
            original = getattr(selftrain, name)
            return lambda *args: calls.append(name) or original(*args)

        for name in ("levels", "pseudo_quality"):
            monkeypatch.setattr(selftrain, name, recorded(name))
        labeled, unlabeled, _, cfg, state = tiny_ssl_setup()
        assert all(sc.gt_boxes for sc in unlabeled)  # each feeds the quality counts
        read = in_memory(labeled, unlabeled)
        ssl_epoch(state, labeled, weak_pairs(unlabeled, cfg), cfg,
                  lambda scene_id: calls.append("read_cloud") or read(scene_id))
        first_read = calls.index("read_cloud")
        assert calls[:first_read] == ["levels", "pseudo_quality"]
        assert set(calls[first_read:]) == {"read_cloud"}


class TestPairsNameTheirScene:
    """A detection that fails names the scene paired with the encoding it
    ran on: ``selftrain.detect_batch`` raises on any batch that holds the
    k-th encoding drawn, so the batch holding it fails first and then that
    encoding alone."""

    @pytest.fixture
    def fail_at(self, monkeypatch):
        def arm(k):
            drawn = []
            original = selftrain.detect_batch

            def detect_batch(encs, params):
                drawn.extend(enc for enc in encs if all(enc is not d for d in drawn))
                if len(drawn) > k and any(enc is drawn[k] for enc in encs):
                    raise ValueError("boom")
                return original(encs, params)

            monkeypatch.setattr(selftrain, "detect_batch", detect_batch)
        return arm

    @pytest.mark.parametrize("k", [0, 2])
    @pytest.mark.parametrize("as_generator", [False, True])
    def test_detect_and_score(self, fail_at, k, as_generator):
        _, _, val, cfg, state = tiny_ssl_setup(n_val=3)
        pairs = weak_pairs(val, cfg)
        fail_at(k)
        with pytest.raises(ValueError) as info:
            detect_and_score((p for p in pairs) if as_generator else pairs, state.student, "val")
        assert type(info.value) is ValueError
        assert str(info.value) == f"val scene {val[k].id}: boom"

    def test_teacher_pass(self, fail_at):
        labeled, unlabeled, _, cfg, state = tiny_ssl_setup()
        pairs = weak_pairs(unlabeled, cfg)
        fail_at(3)
        with pytest.raises(ValueError) as info:
            ssl_epoch(state, labeled, pairs, cfg, in_memory(labeled, unlabeled))
        assert type(info.value) is ValueError
        assert str(info.value) == f"teacher scene {unlabeled[3].id}: boom"
        assert state.epoch == 0


def params_bytes(state):
    return [a.tobytes() for a in state.student.arrays() + state.teacher.arrays()]


def cluster_scene(scene_id):
    """An unlabeled scene that is one compact cluster, well inside the box a
    detection fits to it, so removing that box's points leaves no point."""
    rng = np.random.default_rng(0)
    n = 400
    xyz = np.column_stack([rng.uniform(9.0, 13.0, n), rng.uniform(4.0, 5.8, n),
                           rng.uniform(0.4, 1.2, n)])
    return Scene(scene_id, PointCloud(xyz, rng.random(n)))


class TestBatchedEpochMatchesStepwise:
    """``ssl_epoch`` encodes its student steps ``ENCODE_BATCH`` at a time;
    the step-by-step loop of ``reference`` must leave the same bytes in both
    parameter sets and the same metrics, epoch after epoch."""

    def run_both(self, setup, epochs=2, prepare=None):
        results = []
        for epoch_fn in (ssl_epoch, stepwise_ssl_epoch):
            labeled, unlabeled, val, cfg, state = setup()
            if prepare is not None:
                labeled, unlabeled, state = prepare(labeled, unlabeled, state)
            read = in_memory(labeled, unlabeled)
            unlabeled, val = weak_pairs(unlabeled, cfg), weak_pairs(val, cfg)
            rows = []
            for _ in range(epochs):
                m = epoch_fn(state, labeled, unlabeled, cfg, read, val)
                rows.append((m, params_bytes(state)))
            results.append(rows)
        batched, stepwise = results
        for (m_b, p_b), (m_s, p_s) in zip(batched, stepwise, strict=True):
            assert m_b == m_s
            assert p_b == p_s
        return batched

    @pytest.mark.parametrize("n_labeled, n_unlabeled, steps", [
        (3, 3, 6),
        (2, 5, 10),  # the labeled set cycles
        (0, 5, 5),  # no labeled scene
        (3, 0, 3),  # the labeled-only loop
    ])
    def test_step_counts(self, n_labeled, n_unlabeled, steps):
        assert steps % ENCODE_BATCH  # the last batch is short
        rows = self.run_both(lambda: tiny_ssl_setup(n_labeled, n_unlabeled, momentum=0.5))
        assert rows[-1][1] != params_bytes(tiny_ssl_setup()[-1])  # training moved the weights

    @pytest.mark.parametrize("cells", [0, 1, 2, 4])
    def test_shuffle_grid_cells(self, cells):
        self.run_both(lambda: tiny_ssl_setup(2, 3, n_val=0, shuffle_grid_cells=cells,
                                             momentum=0.5))

    def test_target_emptied_by_low_level_removal(self, monkeypatch):
        # thresholds of 1 make every teacher detection low; from epoch 1 on,
        # threshold_period 5 refits them in neither epoch run
        never_high = DualThresholds((1.0, 1.0), (1.0, 1.0), (1.0, 1.0))

        def prepare(labeled, unlabeled, state):
            state.thresholds = {c: never_high for c in (1, 2, 3)}
            state.epoch = 1
            return labeled, [unlabeled[0], cluster_scene("u-cluster"), unlabeled[1]], state

        sizes = []
        original = selftrain.remove_low_level_points

        def sized(cloud, boxes):
            out = original(cloud, boxes)
            sizes.append((len(cloud), len(out)))
            return out

        monkeypatch.setattr(selftrain, "remove_low_level_points", sized)
        self.run_both(lambda: tiny_ssl_setup(2, 2, n_val=0, momentum=0.5), prepare=prepare)
        assert (400, 0) in sizes


class TestNonFiniteStepNamed:
    """A student step that fails names its kind and scene, keeping the
    error's type.

    The student's yaw residual has a bias of 1e308: every decoded box stays
    finite (yaws wrap), but the regression loss of any foreground RoI sums
    to inf, a NonFiniteLossError. An overflowing ``w_cls`` instead gives NaN
    proposal scores, which fail proposal NMS with a ValueError before any
    loss is formed.
    """

    def overflowing(self, n_labeled, n_unlabeled):
        labeled, unlabeled, _, cfg, state = tiny_ssl_setup(n_labeled, n_unlabeled)
        state.student.w_reg[:, 6, -1] = 1e308  # feature 11 is the bias, always 1
        # every teacher detection high (the teacher stays finite), and not
        # refitted at epoch 1, so the first unlabeled step has foreground RoIs
        always_high = DualThresholds((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        state.thresholds = {c: always_high for c in (1, 2, 3)}
        state.epoch = 1
        return labeled, unlabeled, cfg, state

    def test_unlabeled_step(self):
        labeled, unlabeled, cfg, state = self.overflowing(2, 3)
        with pytest.raises(NonFiniteLossError) as info:
            ssl_epoch(state, labeled, weak_pairs(unlabeled, cfg), cfg,
                      in_memory(labeled, unlabeled))
        assert str(info.value).startswith(f"unlabeled scene {unlabeled[0].id}: ")

    def test_value_error(self):
        labeled, unlabeled, _, cfg, state = tiny_ssl_setup(2, 3)
        state.student.w_cls[:] = 1e308
        with pytest.raises(ValueError) as info:
            ssl_epoch(state, labeled, weak_pairs(unlabeled, cfg), cfg,
                      in_memory(labeled, unlabeled))
        assert type(info.value) is ValueError
        assert str(info.value) == f"unlabeled scene {unlabeled[0].id}: nms scores must be finite"

    def test_labeled_only_epoch(self):
        labeled, _, cfg, state = self.overflowing(2, 0)
        with pytest.raises(NonFiniteLossError) as info:
            ssl_epoch(state, labeled, [], cfg, in_memory(labeled))
        assert str(info.value).startswith(f"labeled scene {labeled[0].id}: ")


class TestSceneSeed:
    def test_stable_and_distinct(self):
        assert scene_seed(1, 2, 3, 0) == scene_seed(1, 2, 3, 0)
        seeds = {scene_seed(1, e, i, t) for e in range(3) for i in range(5) for t in range(3)}
        assert len(seeds) == 45
