"""Teacher-student self-training: channel IoU consistency, dual-threshold
stratification, hierarchical weighting, EMA teacher updates, and the epoch loop.
"""
from __future__ import annotations

import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from .augment import shuffle_augment, strong_channels
from .config import RunConfig
from .data import CLASS_NAMES, Scene
from .detector import (
    Detection,
    DetectorParams,
    LossTotals,
    NonFiniteLossError,
    SceneEncoding,
    TrainLosses,
    detect,
    encode,
    train_on_scene,
)
from .evaluation import EvalResult, evaluate_scenes, pseudo_quality
from .geometry import Box3D, PointCloud, best_match, box_rows, iou_3d, points_in_box

log = logging.getLogger(__name__)

LEVEL_HIGH = "high"
LEVEL_AMBIGUOUS = "ambiguous"
LEVEL_LOW = "low"

CRITERIA = ("p_hat", "o_hat", "iou_cons")


@dataclass
class PairCounter:
    """Instrumentation: number of box-pair IoU evaluations performed."""

    count: int = 0

    def add(self, n: int) -> None:
        self.count += n


@dataclass
class PseudoBox:
    """Teacher detection promoted to a (to-be-stratified) training target."""

    box: Box3D
    cls: int
    p_hat: float
    o_hat: float
    iou_cons: float
    level: str | None = None
    weight: float = 0.0

    @property
    def score(self) -> float:
        return self.p_hat * self.o_hat


@dataclass(frozen=True)
class DualThresholds:
    """Per-criterion (low, high) boundaries separating the three levels."""

    p_hat: tuple[float, float] = (0.5, 0.5)
    o_hat: tuple[float, float] = (0.5, 0.5)
    iou_cons: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self) -> None:
        for name in CRITERIA:
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError(f"{name}: need 0 <= low <= high <= 1, got ({lo}, {hi})")


@dataclass
class ThresholdBank:
    """Dual thresholds fitted separately per object class.

    Score scales differ by class (small objects localize worse, so their
    objectness and consistency run lower); clustering them jointly lets the
    strong classes squeeze every weak-class box into the low level.
    """

    per_class: dict[int, DualThresholds] = field(default_factory=dict)

    def for_class(self, cls_id: int) -> DualThresholds:
        return self.per_class.get(cls_id, DualThresholds())


def channel_iou_consistency(det: Detection, counter: PairCounter | None = None) -> float:
    """Mean pairwise 3D IoU over the detection's back-transformed channel boxes.

    Uses only the boxes already attached to the detection, so a scene with N
    detections and C channels costs exactly N * C(C, 2) pair evaluations. A
    single-channel detection is trivially self-consistent (1.0).
    """
    boxes = det.per_channel_boxes
    n = len(boxes)
    if n < 2:
        return 1.0
    total = 0.0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += iou_3d(boxes[i], boxes[j])
            pairs += 1
    if counter is not None:
        counter.add(pairs)
    return total / pairs


def pairing_iou_consistency(
    boxes_a: list[Box3D], boxes_b: list[Box3D], counter: PairCounter | None = None
) -> np.ndarray:
    """Baseline comparator: per box in ``a``, the best IoU over all of ``b``.

    Considers every (a, b) pair, i.e. O(N1 * N2) work, which is what the
    channel method avoids; the exact IoU runs on the pairs that pass
    ``best_match``'s pre-reject.
    """
    scores = np.array([iou for iou, _ in best_match(box_rows(boxes_a), box_rows(boxes_b))],
                      dtype=np.float64)
    if counter is not None:
        counter.add(len(boxes_a) * len(boxes_b))
    return scores


def optimal_three_partition(values: np.ndarray) -> np.ndarray | None:
    """Sorted means of the SSE-optimal contiguous 3-partition, or None when
    fewer than three distinct values exist.

    Exhaustive search over contiguous boundaries with prefix sums; ties break
    toward the earliest boundaries so the result is deterministic.
    """
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    if n < 3 or len(np.unique(xs)) < 3:
        return None
    s1 = np.concatenate([[0.0], np.cumsum(xs)])
    s2 = np.concatenate([[0.0], np.cumsum(xs * xs)])

    def seg_sse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        cnt = b - a
        tot = s1[b] - s1[a]
        return (s2[b] - s2[a]) - tot * tot / cnt

    best = (math.inf, -1, -1)
    for i in range(1, n - 1):
        j = np.arange(i + 1, n)
        left = float(seg_sse(np.array([0]), np.array([i]))[0])
        mid = seg_sse(np.full_like(j, i), j)
        right = seg_sse(j, np.full_like(j, n))
        total = left + mid + right
        k = int(np.argmin(total))
        if total[k] < best[0] - 1e-15:
            best = (float(total[k]), i, int(j[k]))
    _, i, j = best
    return np.array([xs[:i].mean(), xs[i:j].mean(), xs[j:].mean()])


def _criterion_thresholds(values: np.ndarray) -> tuple[float, float]:
    centers = optimal_three_partition(values)
    if centers is None:
        med = float(np.median(values))
        log.warning("degenerate threshold fit (fewer than 3 distinct scores); using median %.4f", med)
        return med, med
    return float(0.5 * (centers[0] + centers[1])), float(0.5 * (centers[1] + centers[2]))


def fit_dual_thresholds(
    pseudo_boxes: list[PseudoBox],
    previous: DualThresholds | None = None,
    min_score: float = 0.1,
) -> DualThresholds:
    """Three-group clustering of each quality criterion over confident boxes.

    Boxes with p_hat * o_hat below ``min_score`` are excluded; with fewer than
    three boxes left the previous thresholds are retained (neutral defaults
    when none exist yet).
    """
    confident = [pb for pb in pseudo_boxes if pb.score >= min_score]
    if len(confident) < 3:
        log.warning("threshold fit skipped: only %d confident pseudo-boxes", len(confident))
        return previous if previous is not None else DualThresholds()
    fitted = {}
    for name in CRITERIA:
        vals = np.array([getattr(pb, name) for pb in confident])
        lo, hi = _criterion_thresholds(vals)
        fitted[name] = (min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0))
    return DualThresholds(**fitted)


def fit_threshold_bank(
    pseudo_boxes: list[PseudoBox],
    num_classes: int,
    previous: ThresholdBank | None = None,
    min_score: float = 0.1,
) -> ThresholdBank:
    """Per-class dual thresholds; classes without enough boxes retain their
    previous thresholds."""
    bank = ThresholdBank()
    for cls_id in range(1, num_classes + 1):
        prev = previous.per_class.get(cls_id) if previous is not None else None
        group = [pb for pb in pseudo_boxes if pb.cls == cls_id]
        bank.per_class[cls_id] = fit_dual_thresholds(group, previous=prev, min_score=min_score)
    return bank


def stratify(
    pseudo_boxes: list[PseudoBox], thr: DualThresholds | ThresholdBank
) -> list[PseudoBox]:
    """Assign levels and supervision weights.

    High requires every criterion at or above its high boundary; low is any
    criterion below its low boundary; everything else is ambiguous. Weights:
    1 for high, p_hat * o_hat for ambiguous, 0 for low.
    """
    out = []
    for pb in pseudo_boxes:
        t = thr.for_class(pb.cls) if isinstance(thr, ThresholdBank) else thr
        scores = {name: getattr(pb, name) for name in CRITERIA}
        if any(scores[name] < getattr(t, name)[0] for name in CRITERIA):
            level, weight = LEVEL_LOW, 0.0
        elif all(scores[name] >= getattr(t, name)[1] for name in CRITERIA):
            level, weight = LEVEL_HIGH, 1.0
        else:
            level, weight = LEVEL_AMBIGUOUS, pb.p_hat * pb.o_hat
        out.append(replace(pb, level=level, weight=weight))
    return out


def remove_low_level_points(cloud: PointCloud, low_boxes: list[Box3D]) -> PointCloud:
    """Drop points strictly inside any low-level box; boundary points survive.

    Takes and returns a bare cloud, so no scene labels can pass through."""
    if not low_boxes or len(cloud) == 0:
        return cloud.copy()
    drop = np.zeros(len(cloud), dtype=bool)
    for box in low_boxes:
        drop |= points_in_box(box, cloud.xyz, strict=True)
    return PointCloud(cloud.xyz[~drop], cloud.intensity[~drop])


@dataclass
class EmaTeacher:
    params: DetectorParams
    momentum: float = 0.999


def ema_update(teacher: EmaTeacher, student_params: DetectorParams) -> None:
    """theta_t <- m * theta_t + (1 - m) * theta_s, elementwise, in place."""
    if not teacher.params.same_shapes(student_params):
        raise ValueError("teacher/student parameter shapes differ")
    m = teacher.momentum
    for t_arr, s_arr in zip(teacher.params.arrays(), student_params.arrays()):
        t_arr *= m
        t_arr += (1.0 - m) * s_arr


def pseudo_from_detection(det: Detection) -> PseudoBox:
    return PseudoBox(
        box=det.box,
        cls=det.predicted_class,
        p_hat=det.p_hat,
        o_hat=det.objectness,
        iou_cons=channel_iou_consistency(det),
    )


# ---------------------------------------------------------------------------
# epoch loop
# ---------------------------------------------------------------------------

@dataclass
class SslState:
    student: DetectorParams
    teacher: EmaTeacher
    thresholds: ThresholdBank | None = None
    epoch: int = 0
    seed: int = 0


@dataclass
class EpochMetrics:
    epoch: int
    sup_cls: float = 0.0
    sup_reg: float = 0.0
    sup_obj: float = 0.0
    sup_total: float = 0.0
    unsup_cls: float = 0.0
    unsup_reg: float = 0.0
    unsup_obj: float = 0.0
    unsup_total: float = 0.0
    n_pseudo: int = 0
    n_high: int = 0
    n_ambiguous: int = 0
    n_low: int = 0
    incorrect_prefilter: int = 0
    incorrect_postfilter: int = 0
    channel_pair_evals: int = 0
    pairing_pair_evals: int = 0
    thr_p_low: float = 0.0
    thr_p_high: float = 0.0
    thr_o_low: float = 0.0
    thr_o_high: float = 0.0
    thr_iou_low: float = 0.0
    thr_iou_high: float = 0.0
    val_map: float = 0.0
    val_ap_car: float = 0.0
    val_ap_pedestrian: float = 0.0
    val_ap_cyclist: float = 0.0


def scene_seed(master: int, epoch: int, index: int, tag: int) -> int:
    """Stable per-scene stream seed, independent of the order scenes are visited in."""
    ss = np.random.SeedSequence((master, epoch, index, tag))
    return int(ss.generate_state(1)[0])


def _check_encoded(scenes: list[Scene], encoded: list | None, what: str) -> None:
    """Fail unless ``encoded`` holds one entry per scene."""
    n = 0 if encoded is None else len(encoded)
    if n != len(scenes):
        raise ValueError(f"{n} encodings for {len(scenes)} {what} scenes")


def detect_and_score(scenes: list[Scene], encodings: Iterable[SceneEncoding],
                     params: DetectorParams) -> EvalResult:
    """Detect every encoded scene and score the detections against ``scenes`` (AP40).

    ``encodings`` runs parallel to ``scenes``; it may be a generator, so a
    caller that scores once can encode a batch at a time as it is detected
    and need not hold every encoding at the same time. ``scenes`` is read
    only for its labels once every scene is detected.
    """
    dets = [detect(enc, params) for enc in encodings]
    _check_encoded(scenes, dets, "scored")
    return evaluate_scenes(dets, scenes)


def ssl_epoch(
    state: SslState,
    labeled: list[Scene],
    unlabeled: list[Scene],
    unlabeled_enc: list[SceneEncoding],
    cfg: RunConfig,
    val_scenes: list[Scene] | None = None,
    val_enc: list[SceneEncoding] | None = None,
) -> EpochMetrics:
    """One pass of the three-step procedure.

    1. On threshold epochs, refit the dual thresholds from this epoch's
       teacher detections over the unlabeled scenes.
    2. Per unlabeled scene: score teacher detections into pseudo-boxes,
       stratify, remove low-level points, optionally shuffle patches, then
       train the student on freshly drawn strong channel transforms against
       per-channel pseudo targets with hierarchical weights.
    3. Labeled scenes run as supervised steps with unit weights, interleaved
       1:1 with the unlabeled steps (the labeled set cycles).
    EMA follows every student step. Hidden ground truth on unlabeled scenes
    is used only for quality metrics, never for supervision.

    ``unlabeled_enc`` and ``val_enc`` hold one encoding under the weak
    transforms ``cfg.weak_policy()`` per scene of ``unlabeled`` and
    ``val_scenes``, so a caller running several epochs encodes each scene
    once. Each student step draws ``cfg.n_channels`` transforms from
    ``cfg.strong_policy()`` with its own scene seed and encodes anew.
    """
    _check_encoded(unlabeled, unlabeled_enc, "unlabeled")
    if val_scenes:
        _check_encoded(val_scenes, val_enc, "val")
    metrics = EpochMetrics(epoch=state.epoch)
    strong_ranges = cfg.strong_policy()

    teacher_dets = [detect(enc, state.teacher.params) for enc in unlabeled_enc]
    pseudo_sets = [[pseudo_from_detection(d) for d in dets] for dets in teacher_dets]

    if state.epoch % cfg.threshold_period == 0 or state.thresholds is None:
        state.thresholds = fit_threshold_bank(
            [pb for group in pseudo_sets for pb in group],
            num_classes=len(CLASS_NAMES),
            previous=state.thresholds,
            min_score=cfg.prefilter_min_score,
        )
    thr = state.thresholds

    # Unlabeled and labeled steps interleave 1:1 (the labeled set cycles, with
    # fresh strong channels per visit); the labeled anchor must stay in the
    # gradient mix or pseudo-label class noise can snowball through the EMA
    # teacher faster than a trailing supervised phase can undo.
    unsup = LossTotals()
    sup = LossTotals()

    def student_step(kind: str, target: Scene, weights: list[float], idx: int, tag: int,
                     background_weight: float) -> TrainLosses | None:
        """Strong-channel student step on ``target``'s boxes, then the EMA update."""
        transforms = strong_channels(strong_ranges, cfg.n_channels,
                                     scene_seed(state.seed, state.epoch, idx, tag))
        enc = encode(target.cloud, transforms)
        try:
            losses = train_on_scene(enc, target.gt_boxes, target.gt_classes, weights,
                                    state.student, background_weight)
        except NonFiniteLossError as exc:
            raise NonFiniteLossError(f"{kind} scene {target.id}: {exc}") from exc
        if losses is not None:
            ema_update(state.teacher, state.student)
        return losses

    def labeled_step(scene: Scene, idx: int) -> None:
        sup.add(student_step("labeled", scene, [1.0] * len(scene.gt_boxes), idx, 2, 1.0))

    for idx, (scene, pseudo) in enumerate(zip(unlabeled, pseudo_sets)):
        strat = stratify(pseudo, thr)
        metrics.n_pseudo += len(strat)
        metrics.n_high += sum(pb.level == LEVEL_HIGH for pb in strat)
        metrics.n_ambiguous += sum(pb.level == LEVEL_AMBIGUOUS for pb in strat)
        metrics.n_low += sum(pb.level == LEVEL_LOW for pb in strat)
        if scene.gt_boxes:
            quality = pseudo_quality(strat, scene.gt_boxes, scene.gt_classes)
            metrics.incorrect_prefilter += quality.prefilter
            metrics.incorrect_postfilter += quality.postfilter
        low_boxes = [pb.box for pb in strat if pb.level == LEVEL_LOW]
        kept = [pb for pb in strat if pb.level != LEVEL_LOW]
        # the pseudo-labelled view: hidden ground truth stays on ``scene``
        target = Scene(
            scene.id,
            remove_low_level_points(scene.cloud, low_boxes),
            [pb.box for pb in kept],
            [pb.cls for pb in kept],
        )
        if cfg.shuffle_grid_cells >= 2:
            target = shuffle_augment(
                target, cfg.shuffle_grid_cells, scene_seed(state.seed, state.epoch, idx, 1)
            )
        unsup.add(student_step("unlabeled", target, [pb.weight for pb in kept], idx, 0,
                               cfg.unsup_background_weight))
        if labeled:
            labeled_step(labeled[idx % len(labeled)], idx)

    if not unlabeled:
        for idx, scene in enumerate(labeled):
            labeled_step(scene, idx)

    metrics.unsup_cls, metrics.unsup_reg, metrics.unsup_obj, metrics.unsup_total = unsup.means()
    metrics.sup_cls, metrics.sup_reg, metrics.sup_obj, metrics.sup_total = sup.means()
    # pairs the channel consistency evaluates: C(C, 2) per detection
    metrics.channel_pair_evals = sum(
        math.comb(len(d.per_channel_boxes), 2) for dets in teacher_dets for d in dets)
    # what the all-pairs baseline would evaluate: N^2 per scene
    metrics.pairing_pair_evals = sum(len(dets) ** 2 for dets in teacher_dets)
    # class-mean thresholds, as a compact diagnostic
    banks = list(thr.per_class.values()) or [DualThresholds()]
    metrics.thr_p_low = float(np.mean([b.p_hat[0] for b in banks]))
    metrics.thr_p_high = float(np.mean([b.p_hat[1] for b in banks]))
    metrics.thr_o_low = float(np.mean([b.o_hat[0] for b in banks]))
    metrics.thr_o_high = float(np.mean([b.o_hat[1] for b in banks]))
    metrics.thr_iou_low = float(np.mean([b.iou_cons[0] for b in banks]))
    metrics.thr_iou_high = float(np.mean([b.iou_cons[1] for b in banks]))

    if val_scenes:
        result = detect_and_score(val_scenes, val_enc, state.student)
        # APs on the 100 scale in reports
        metrics.val_map = 100.0 * result.map
        metrics.val_ap_car = 100.0 * (result.ap.get(1) or 0.0)
        metrics.val_ap_pedestrian = 100.0 * (result.ap.get(2) or 0.0)
        metrics.val_ap_cyclist = 100.0 * (result.ap.get(3) or 0.0)

    state.epoch += 1
    return metrics
