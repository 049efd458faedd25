import numpy as np
import pytest

from cadet3d.data import Scene, SynthConfig, synth_scene
from cadet3d.detector import Detection
from cadet3d.evaluation import (
    IOU_THRESHOLDS,
    RECALL_POSITIONS,
    ap40,
    evaluate_scenes,
    match_detections,
    pseudo_quality,
)
from cadet3d.geometry import Box3D, PointCloud
from cadet3d.selftrain import PseudoBox
from conftest import random_box
from reference import brute_force_ap


class TestMatchDetections:
    def test_exact_match_all_tp(self, rng):
        gts = [random_box(rng) for _ in range(4)]
        flags, pairs = match_detections(gts, [0.9, 0.8, 0.7, 0.6], gts, 0.5)
        assert flags == [True] * 4
        assert sorted(p[1] for p in pairs) == [0, 1, 2, 3]

    def test_no_gts_all_fp(self, rng):
        dets = [random_box(rng) for _ in range(3)]
        flags, pairs = match_detections(dets, [0.5, 0.4, 0.3], [], 0.5)
        assert flags == [False] * 3 and pairs == []

    def test_double_detection_one_tp(self):
        gt = Box3D(0, 0, 0, 1, 1, 2, 0)
        near = Box3D(0.05, 0, 0, 1, 1, 2, 0)
        flags, pairs = match_detections([gt, near], [0.9, 0.8], [gt], 0.5)
        assert flags == [True, False]
        assert pairs == [(0, 0)]

    def test_confidence_order_decides_winner(self):
        gt = Box3D(0, 0, 0, 1, 1, 2, 0)
        near = Box3D(0.05, 0, 0, 1, 1, 2, 0)
        flags, pairs = match_detections([near, gt], [0.5, 0.9], [gt], 0.5)
        # the higher-confidence det (index 1) is visited first and wins
        assert flags == [True, False]
        assert pairs == [(1, 0)]


class TestAp40:
    def test_single_tp_full_ap(self):
        assert ap40([True], 1) == 1.0

    def test_no_detections_zero(self):
        assert ap40([], 1) == 0.0

    def test_two_gts_one_tp_half(self):
        assert ap40([True], 2) == pytest.approx(0.5)

    def test_undefined_without_gt(self):
        assert ap40([True, False], 0) is None

    def test_negative_gt_rejected(self):
        with pytest.raises(ValueError):
            ap40([True], -1)

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            n = int(rng.integers(0, 21))
            flags = [bool(rng.random() < 0.6) for _ in range(n)]
            n_gt = int(rng.integers(max(1, sum(flags)), sum(flags) + 5))
            assert ap40(flags, n_gt) == pytest.approx(
                brute_force_ap(flags, n_gt), abs=1e-12
            )

    def test_monotone_in_tp_and_fp(self, rng):
        flags = [True, False, True, False]
        base = ap40(flags, 5)
        assert ap40(flags + [True], 5) >= base
        assert ap40(flags + [False], 5) <= base


def gt_echo_detections(scene):
    """Oracle detector: detections exactly equal to ground truth."""
    dets = []
    for box, cls in zip(scene.gt_boxes, scene.gt_classes):
        scores = np.full(4, 0.01)
        scores[cls] = 0.97
        scores[0] = 1.0 - scores[1:].sum()
        dets.append(Detection(box=box, per_channel_boxes=[box], class_scores=scores,
                              objectness=0.99))
    return dets


class TestEvaluateScenes:
    def test_oracle_detector_perfect(self):
        scenes = [synth_scene(s, SynthConfig()) for s in range(6)]
        dets = [gt_echo_detections(s) for s in scenes]
        result = evaluate_scenes(dets, scenes)
        for cls_id, ap in result.ap.items():
            if ap is not None:
                assert ap == pytest.approx(1.0)
        assert result.map == pytest.approx(1.0)

    def test_empty_detector_zero(self):
        scenes = [synth_scene(s, SynthConfig()) for s in range(4)]
        result = evaluate_scenes([[] for _ in scenes], scenes)
        assert result.map == 0.0

    def test_absent_class_excluded_from_map(self):
        scene = Scene("s", PointCloud.empty(), [Box3D(0, 0, 1, 1, 2, 2, 0)], [1])
        result = evaluate_scenes([gt_echo_detections(scene)], [scene])
        assert result.ap[2] is None and result.ap[3] is None
        assert result.map == pytest.approx(result.ap[1])

    @pytest.mark.parametrize("n_dets", [2, 4])
    def test_count_mismatch_rejected(self, n_dets):
        # a bare zip dropped the unpaired tail and scored the rest
        scenes = [synth_scene(s, SynthConfig()) for s in range(3)]
        dets = [gt_echo_detections(s) for s in scenes] + [[]]
        with pytest.raises(ValueError):
            evaluate_scenes(dets[:n_dets], scenes)


class TestEvalConstants:
    def test_default_thresholds(self):
        assert IOU_THRESHOLDS[0] == 0.7  # Car
        assert IOU_THRESHOLDS[1] == 0.5  # Pedestrian
        assert IOU_THRESHOLDS[2] == 0.5  # Cyclist
        assert RECALL_POSITIONS == 40


def pseudo_at(box, cls=1, level="ambiguous"):
    return PseudoBox(box=box, cls=cls, p_hat=0.8, o_hat=0.8, iou_cons=0.9, level=level,
                     weight=0.5)


class TestPseudoQuality:
    def test_exact_pseudo_no_incorrect(self):
        gt = Box3D(0, 0, 1, 1.6, 1.5, 3.9, 0.4)
        counts = pseudo_quality([pseudo_at(gt, 1, "high")], [gt], [1])
        assert counts.prefilter == 0 and counts.postfilter == 0

    def test_box_in_empty_space_incorrect(self):
        pb = pseudo_at(Box3D(50, 50, 1, 1, 1, 2, 0), 1, "high")
        counts = pseudo_quality([pb], [], [])
        assert counts.prefilter == 1 and counts.postfilter == 1

    def test_class_mismatch_incorrect(self):
        gt = Box3D(0, 0, 1, 1.6, 1.5, 3.9, 0.4)
        counts = pseudo_quality([pseudo_at(gt, 2, "high")], [gt], [1])
        assert counts.prefilter == 1

    def test_low_iou_incorrect(self):
        gt = Box3D(0, 0, 1, 1.6, 1.5, 3.9, 0.0)
        off = Box3D(1.5, 0.8, 1, 1.6, 1.5, 3.9, 0.0)
        counts = pseudo_quality([pseudo_at(off, 1, "ambiguous")], [gt], [1])
        assert counts.prefilter == 1 and counts.postfilter == 1

    def test_postfilter_excludes_low(self):
        bad_low = pseudo_at(Box3D(50, 50, 1, 1, 1, 2, 0), 1, "low")
        bad_high = pseudo_at(Box3D(-50, 50, 1, 1, 1, 2, 0), 1, "high")
        counts = pseudo_quality([bad_low, bad_high], [], [])
        assert counts.prefilter == 2
        assert counts.postfilter == 1

    def test_unknown_level_counts_as_low(self):
        pbs = [pseudo_at(Box3D(50, 50, 1, 1, 1, 2, 0), 1, level) for level in (None, "other")]
        counts = pseudo_quality(pbs, [], [])
        assert (counts.prefilter, counts.postfilter) == (2, 0)

    def test_postfilter_never_exceeds_prefilter(self, rng):
        gts = [random_box(rng) for _ in range(3)]
        pbs = [
            pseudo_at(random_box(rng), int(rng.integers(1, 4)),
                      ("high", "ambiguous", "low")[int(rng.integers(0, 3))])
            for _ in range(20)
        ]
        counts = pseudo_quality(pbs, gts, [1, 2, 3])
        assert counts.postfilter <= counts.prefilter
