import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadet3d import evaluation
from cadet3d.data import Scene, SynthConfig, synth_scene
from cadet3d.detector import Detection
from cadet3d.evaluation import (
    IOU_THRESHOLDS,
    RECALL_POSITIONS,
    ap40,
    evaluate_scenes,
    pseudo_quality,
)
from cadet3d.geometry import Box3D, PointCloud, box_rows
from cadet3d.selftrain import PseudoBox
from conftest import boxes, random_box
from reference import (
    brute_force_ap,
    classwise_evaluate_scenes,
    match_detections,
    scalar_pseudo_quality,
    scene_detections,
)


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
    return scene_detections(dets)


class TestEvaluateScenes:
    def test_oracle_detector_perfect(self):
        scenes = [synth_scene(s, SynthConfig()) for s in range(6)]
        dets = [gt_echo_detections(s) for s in scenes]
        result = evaluate_scenes(zip(scenes, dets))
        for cls_id, ap in result.ap.items():
            if ap is not None:
                assert ap == pytest.approx(1.0)
        assert result.map == pytest.approx(1.0)

    def test_empty_detector_zero(self):
        scenes = [synth_scene(s, SynthConfig()) for s in range(4)]
        result = evaluate_scenes((scene, scene_detections([])) for scene in scenes)
        assert result.map == 0.0

    def test_absent_class_excluded_from_map(self):
        scene = Scene("s", PointCloud.empty(), [Box3D(0, 0, 1, 1, 2, 2, 0)], [1])
        result = evaluate_scenes([(scene, gt_echo_detections(scene))])
        assert result.ap[2] is None and result.ap[3] is None
        assert result.map == pytest.approx(result.ap[1])


CLASSES = st.integers(1, 3)
# few distinct values, so confidences p_hat * objectness tie within and across scenes
LEVELS = st.sampled_from([0.5, 0.75, 1.0])


def detection(box, cls, p_hat, objectness):
    """A detection of class ``cls`` with confidence ``p_hat * objectness``."""
    scores = np.full(4, (1.0 - p_hat) / 3)
    scores[cls] = p_hat
    return Detection(box=box, per_channel_boxes=[box], class_scores=scores,
                     objectness=objectness)


@st.composite
def scored_scenes(draw):
    """Scenes and their detection lists: perturbed ``gt_echo_detections`` (each
    ground-truth box kept or dropped, shifted, maybe relabelled) shuffled in
    with free boxes of any class. Scenes and classes may be empty."""
    scenes, dets = [], []
    for si in range(draw(st.integers(0, 5))):
        gts = draw(st.lists(st.tuples(boxes(), CLASSES), max_size=4))
        scenes.append(Scene(f"{si:06d}", PointCloud.empty(), [b for b, _ in gts],
                            [c for _, c in gts]))
        shift = st.floats(-0.6, 0.6)
        echoes = [
            detection(Box3D(box.cx + draw(shift), box.cy + draw(shift), *box[2:]),
                      draw(st.sampled_from([cls, cls % 3 + 1])), draw(LEVELS), draw(LEVELS))
            for box, cls in gts if draw(st.booleans())
        ]
        free = draw(st.lists(st.builds(detection, boxes(), CLASSES, LEVELS, LEVELS), max_size=3))
        dets.append(scene_detections(draw(st.permutations(echoes + free))))
    return scenes, dets


@st.composite
def cross_class_scenes(draw):
    """Scenes in which every detection lies exactly on a label of another
    class, its best overlap, and maybe beside a shifted label of its own
    class (or on it, when the shift is 0); else its class has no label in
    the scene. All detections share one confidence, so confidences tie
    across classes and scenes, and some scenes keep their labels but lose
    their detections."""
    conf = draw(LEVELS)
    scenes, dets = [], []
    for si in range(draw(st.integers(1, 4))):
        gts, found = [], []
        for box in draw(st.lists(boxes(), max_size=3)):
            cls = draw(CLASSES)
            gts.append((box, draw(st.sampled_from([c for c in (1, 2, 3) if c != cls]))))
            if draw(st.booleans()):
                gts.append((Box3D(box.cx + draw(st.floats(0.0, 0.8)), *box[1:]), cls))
            found.append(detection(box, cls, conf, 1.0))
        if draw(st.booleans()):
            found = []
        scenes.append(Scene(f"{si:06d}", PointCloud.empty(), [b for b, _ in gts],
                            [c for _, c in gts]))
        dets.append(scene_detections(draw(st.permutations(found))))
    return scenes, dets


class TestScoresMatchClasswise:
    """Scene-by-scene scoring equals the class-by-class oracle exactly."""

    @given(scored_scenes())
    @settings(max_examples=200)
    def test_equals_oracle(self, case):
        scenes, dets = case
        want = classwise_evaluate_scenes(dets, scenes).ap
        assert evaluate_scenes(list(zip(scenes, dets))).ap == want
        assert evaluate_scenes(zip(scenes, dets)).ap == want

    @given(cross_class_scenes())
    @settings(max_examples=200)
    def test_cross_class_labels_equal_oracle(self, case):
        scenes, dets = case
        assert evaluate_scenes(zip(scenes, dets)).ap == classwise_evaluate_scenes(dets, scenes).ap

    @pytest.mark.parametrize("shift, want", [(0.3, 1.0), (1.2, 0.0)])
    def test_best_overlap_of_another_class_is_not_claimed(self, shift, want):
        # a Pedestrian detection lies exactly on a Car label, beside a
        # Pedestrian label shifted along both axes: it is a true positive
        # only if the Pedestrian label overlaps it enough on its own
        box = Box3D(0, 0, 1, 1.6, 1.5, 3.9, 0.0)
        pedestrian = Box3D(shift, shift, *box[2:])
        scene = Scene("s", PointCloud.empty(), [box, pedestrian], [1, 2])
        dets = [scene_detections([detection(box, 2, 0.75, 1.0)])]
        got = evaluate_scenes(zip([scene], dets)).ap
        assert got == classwise_evaluate_scenes(dets, [scene]).ap
        assert got == {1: 0.0, 2: want, 3: None}

    @pytest.mark.parametrize("first_true", [False, True])
    def test_confidence_ties_rank_by_scene(self, first_true):
        # one GT box per scene and one detection each, of equal confidence; the
        # earlier scene ranks first, so only its flag decides the precision at
        # recall 1/2
        gt = Box3D(0, 0, 1, 1.6, 1.5, 3.9, 0.4)
        miss = Box3D(20, 20, 1, 1.6, 1.5, 3.9, 0.4)
        scenes = [Scene(f"{i}", PointCloud.empty(), [gt], [1]) for i in range(2)]
        dets = [scene_detections([detection(gt if first_true else miss, 1, 0.75, 1.0)]),
                scene_detections([detection(miss if first_true else gt, 1, 0.75, 1.0)])]
        got = evaluate_scenes(zip(scenes, dets)).ap
        assert got == classwise_evaluate_scenes(dets, scenes).ap
        assert got[1] == (0.5 if first_true else 0.25)

    def test_empty_inputs(self):
        assert evaluate_scenes([]).ap == {1: None, 2: None, 3: None}
        blank = [Scene(f"{i}", PointCloud.empty()) for i in range(3)]
        assert evaluate_scenes((b, scene_detections([])) for b in blank).ap == {
            1: None, 2: None, 3: None}

    def test_draws_each_scene_after_the_previous_is_matched(self, monkeypatch):
        scenes = [synth_scene(s, SynthConfig()) for s in range(4)]
        assert all(scene.gt_boxes for scene in scenes)
        matched = []  # one overlap table per scene with detections
        original = evaluation.overlap_candidates
        monkeypatch.setattr(evaluation, "overlap_candidates",
                            lambda *a: matched.append(1) or original(*a))
        drawn_at = []  # overlap tables built when scene k's detections are drawn

        def lists():
            for scene in scenes:
                drawn_at.append(len(matched))
                yield scene, gt_echo_detections(scene)

        assert evaluate_scenes(lists()).map == pytest.approx(1.0)
        assert drawn_at == list(range(len(scenes)))


class TestEvalConstants:
    def test_default_thresholds(self):
        assert IOU_THRESHOLDS[0] == 0.7  # Car
        assert IOU_THRESHOLDS[1] == 0.5  # Pedestrian
        assert IOU_THRESHOLDS[2] == 0.5  # Cyclist
        assert RECALL_POSITIONS == 40


def pseudo_at(box, cls=1, level="ambiguous"):
    return PseudoBox(box=box, cls=cls, p_hat=0.8, o_hat=0.8, iou_cons=0.9, level=level,
                     weight=0.5)


def quality_rows(pbs, gts, gt_classes):
    """A scene's ``pseudo_quality`` entry: the rows, classes and kept flags
    (level high or ambiguous) of its pseudo-boxes, then its labels."""
    return (box_rows([pb.box for pb in pbs]), np.array([pb.cls for pb in pbs], dtype=np.int64),
            np.array([pb.level in ("high", "ambiguous") for pb in pbs], dtype=bool),
            gts, gt_classes)


def quality(*scenes):
    """``pseudo_quality`` of scenes given as ``(pseudo_boxes, gts, gt_classes)``."""
    return pseudo_quality([quality_rows(*scene) for scene in scenes])


class TestPseudoQuality:
    def test_exact_pseudo_no_incorrect(self):
        gt = Box3D(0, 0, 1, 1.6, 1.5, 3.9, 0.4)
        assert quality(([pseudo_at(gt, 1, "high")], [gt], [1])) == (0, 0)

    def test_box_in_empty_space_incorrect(self):
        pb = pseudo_at(Box3D(50, 50, 1, 1, 1, 2, 0), 1, "high")
        assert quality(([pb], [], [])) == (1, 1)

    def test_class_mismatch_incorrect(self):
        gt = Box3D(0, 0, 1, 1.6, 1.5, 3.9, 0.4)
        prefilter, _ = quality(([pseudo_at(gt, 2, "high")], [gt], [1]))
        assert prefilter == 1

    def test_low_iou_incorrect(self):
        gt = Box3D(0, 0, 1, 1.6, 1.5, 3.9, 0.0)
        off = Box3D(1.5, 0.8, 1, 1.6, 1.5, 3.9, 0.0)
        assert quality(([pseudo_at(off, 1, "ambiguous")], [gt], [1])) == (1, 1)

    def test_postfilter_excludes_low(self):
        bad_low = pseudo_at(Box3D(50, 50, 1, 1, 1, 2, 0), 1, "low")
        bad_high = pseudo_at(Box3D(-50, 50, 1, 1, 1, 2, 0), 1, "high")
        assert quality(([bad_low, bad_high], [], [])) == (2, 1)

    def test_unknown_level_counts_as_low(self):
        pbs = [pseudo_at(Box3D(50, 50, 1, 1, 1, 2, 0), 1, level) for level in (None, "other")]
        assert quality((pbs, [], [])) == (2, 0)

    def test_postfilter_never_exceeds_prefilter(self, rng):
        gts = [random_box(rng) for _ in range(3)]
        pbs = [
            pseudo_at(random_box(rng), int(rng.integers(1, 4)),
                      ("high", "ambiguous", "low")[int(rng.integers(0, 3))])
            for _ in range(20)
        ]
        prefilter, postfilter = quality((pbs, gts, [1, 2, 3]))
        assert postfilter <= prefilter

    def test_ties_go_to_the_earliest_truth(self):
        # two equal truths of different classes: the first one is the match
        gt = Box3D(0, 0, 1, 1.6, 1.5, 3.9, 0.4)
        for cls, want in ((1, (0, 0)), (2, (1, 1))):
            assert quality(([pseudo_at(gt, cls, "high")], [gt, gt], [1, 2])) == want

    @given(st.lists(st.tuples(st.lists(boxes(), max_size=4), st.data()), max_size=5))
    @settings(max_examples=60)
    def test_one_call_equals_scene_by_scene(self, scenes):
        """Every scene's pairs in one call give the counts of matching each
        scene's pseudo-boxes one at a time by the exact scalar IoU."""
        groups = []
        for gts, data in scenes:
            classes = [data.draw(st.integers(1, 3)) for _ in gts]
            pbs = []
            for _ in range(data.draw(st.integers(0, 5))):
                if gts and data.draw(st.booleans()):  # on, or near, a truth
                    src = gts[data.draw(st.integers(0, len(gts) - 1))]
                    shift = data.draw(st.sampled_from([0.0, 0.1, 0.5, 2.0]))
                    box = Box3D(src.cx + shift, *src[1:])
                else:
                    box = data.draw(boxes())
                level = data.draw(st.sampled_from(["high", "ambiguous", "low", None]))
                pbs.append(pseudo_at(box, data.draw(st.integers(1, 3)), level))
            groups.append((pbs, gts + gts[:1], classes + [4 - c for c in classes[:1]]))
        want = [scalar_pseudo_quality(*group) for group in groups]
        assert quality(*groups) == (sum(w[0] for w in want), sum(w[1] for w in want))
