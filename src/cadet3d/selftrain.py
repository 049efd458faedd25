"""Teacher-student self-training: channel IoU consistency, dual-threshold
stratification, hierarchical weighting, EMA teacher updates, and the epoch
loop as two stages: :func:`pseudo_targets`, the only reader of an unlabeled
scene's labels, gives each scene's id and pseudo-label rows, and
:func:`student_steps` trains on those, reading each cloud by scene id.
"""
from __future__ import annotations

import logging
import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .augment import shuffle_augment, strong_channels
from .config import RunConfig
from .data import CLASS_NAMES, Scene
from .detector import (
    BOX_DIM,
    ENCODE_BATCH,
    Detection,
    DetectorParams,
    LossTotals,
    NonFiniteLossError,
    SceneDetections,
    SceneEncoding,
    detect_batch,
    encode_batches,
    train_on_scene,
)
from .evaluation import EvalResult, evaluate_scenes, pseudo_quality
from .geometry import (
    Box3D,
    PointCloud,
    Transform,
    best_match,
    box_rows,
    iou_3d_rows,
    points_in_box,
)

log = logging.getLogger(__name__)

LEVEL_HIGH = "high"
LEVEL_AMBIGUOUS = "ambiguous"
LEVEL_LOW = "low"
LEVELS = (LEVEL_LOW, LEVEL_AMBIGUOUS, LEVEL_HIGH)  # indexed by level code

CRITERIA = ("p_hat", "o_hat", "iou_cons")


@dataclass
class PairCounter:
    """Instrumentation: number of box-pair IoU evaluations performed."""

    count: int = 0

    def add(self, n: int) -> None:
        self.count += n


@dataclass
class PseudoBox:
    """Teacher detection promoted to a (to-be-stratified) training target;
    :func:`pseudo_targets` keeps a pass's pseudo-boxes as table rows instead."""

    box: Box3D
    cls: int
    p_hat: float
    o_hat: float
    iou_cons: float
    level: str | None = None
    weight: float = 0.0


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


def channel_consistencies(boxes: np.ndarray, counter: PairCounter | None = None) -> np.ndarray:
    """(D,) mean pairwise 3D IoU of each detection's back-transformed channel
    boxes, from their (D, C, 7) rows.

    Uses only each detection's own boxes, so D detections of C channels cost
    exactly D * C(C, 2) pair evaluations, all in one :func:`iou_3d_rows`
    call. Each pair keeps its order, channel i against a later channel j,
    and each detection's pairs are summed in that order before dividing, so
    every value has the bits of the pair-by-pair ``iou_3d`` loop. A
    single-channel detection is trivially self-consistent (1.0).
    """
    n_det, n_ch = boxes.shape[:2]
    first, second = np.triu_indices(n_ch, 1)
    if counter is not None:
        counter.add(n_det * len(first))
    if n_ch < 2:
        return np.ones(n_det)
    ious = iou_3d_rows(boxes[:, first].reshape(-1, BOX_DIM),
                       boxes[:, second].reshape(-1, BOX_DIM)).reshape(n_det, len(first))
    total = np.zeros(n_det)
    for col in ious.T:
        total = total + col
    return total / len(first)


def channel_iou_consistency(det: Detection, counter: PairCounter | None = None) -> float:
    """Mean pairwise 3D IoU over the detection's back-transformed channel
    boxes: :func:`channel_consistencies` of the one detection."""
    rows = box_rows(det.per_channel_boxes)
    return float(channel_consistencies(rows[None], counter)[0])


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
    # distinct values of the sorted xs; np.unique would import numpy.ma
    if n < 3 or np.count_nonzero(xs[1:] != xs[:-1]) < 2:
        return None
    s1 = np.concatenate([[0.0], np.cumsum(xs)])
    s2 = np.concatenate([[0.0], np.cumsum(xs * xs)])

    def seg_sse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        cnt = b - a
        tot = s1[b] - s1[a]
        return (s2[b] - s2[a]) - tot * tot / cnt

    # the segments that do not depend on the row i: [0, i), and [j, n) for
    # every second cut j = 2..n-1
    cuts = np.arange(2, n)
    left = seg_sse(np.zeros_like(cuts), cuts - 1).tolist()
    right = seg_sse(cuts, np.full_like(cuts, n))
    best = (math.inf, -1, -1)
    for i in range(1, n - 1):
        j = cuts[i - 1:]
        total = left[i - 1] + seg_sse(np.full_like(j, i), j) + right[i - 1:]
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


def _table(pseudo_boxes: list[PseudoBox]) -> tuple[np.ndarray, np.ndarray]:
    """The (P,) classes and (P, 3) ``CRITERIA`` values of ``pseudo_boxes``."""
    values = [[pb.p_hat, pb.o_hat, pb.iou_cons] for pb in pseudo_boxes]
    return (np.array([pb.cls for pb in pseudo_boxes], dtype=np.int64),
            np.array(values, dtype=np.float64).reshape(-1, len(CRITERIA)))


def _fit_rows(values: np.ndarray, previous: DualThresholds | None, min_score: float):
    """:func:`fit_dual_thresholds` of the (P, 3) ``CRITERIA`` ``values``."""
    confident = values[values[:, 0] * values[:, 1] >= min_score]
    if len(confident) < 3:
        log.warning("threshold fit skipped: only %d confident pseudo-boxes", len(confident))
        return previous if previous is not None else DualThresholds()
    fitted = {}
    for name, vals in zip(CRITERIA, confident.T):
        lo, hi = _criterion_thresholds(vals)
        fitted[name] = (min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0))
    return DualThresholds(**fitted)


def fit_dual_thresholds(pseudo_boxes: list[PseudoBox], previous: DualThresholds | None = None,
                        *, min_score: float) -> DualThresholds:
    """Three-group clustering of each quality criterion over confident boxes.

    Boxes with p_hat * o_hat below ``min_score`` are excluded; with fewer than
    three boxes left the previous thresholds are retained (neutral defaults
    when none exist yet).
    """
    return _fit_rows(_table(pseudo_boxes)[1], previous, min_score)


def fit_threshold_bank(classes: np.ndarray, values: np.ndarray, num_classes: int,
                       previous: dict[int, DualThresholds] | None = None, *,
                       min_score: float) -> dict[int, DualThresholds]:
    """Dual thresholds per class id ``1..num_classes`` of the (P,) ``classes``
    and (P, 3) ``CRITERIA`` ``values`` of a pass's pseudo-boxes, fitted per
    class because score scales differ by class (small objects localize worse,
    so their objectness and consistency run lower): clustering them jointly
    lets the strong classes squeeze every weak-class box into the low level.
    A class without enough boxes retains its previous thresholds."""
    previous = previous or {}
    return {cls_id: _fit_rows(values[classes == cls_id], previous.get(cls_id), min_score)
            for cls_id in range(1, num_classes + 1)}


def levels(classes: np.ndarray, values: np.ndarray,
           thr: DualThresholds | dict[int, DualThresholds]) -> tuple[np.ndarray, np.ndarray]:
    """Level codes (indices into ``LEVELS``) and supervision weights of the
    (P,) ``classes`` and (P, 3) ``CRITERIA`` ``values`` of pseudo-boxes, under
    ``thr`` or, for a dict, under the thresholds of each row's class.

    High requires every criterion at or above its high boundary; low is any
    criterion below its low boundary; everything else is ambiguous. Weights:
    1 for high, p_hat * o_hat for ambiguous, 0 for low.
    """
    ids = sorted(set(classes.tolist()))  # the (low, high) bounds of each class present
    table = np.array([[getattr(thr[c] if isinstance(thr, dict) else thr, name)
                       for name in CRITERIA] for c in ids]).reshape(-1, len(CRITERIA), 2)
    bound = table[np.searchsorted(ids, classes)]
    low = (values < bound[..., 0]).any(axis=1)
    high = (values >= bound[..., 1]).all(axis=1)
    codes = np.where(low, 0, np.where(high, 2, 1))
    weights = np.where(low, 0.0, np.where(high, 1.0, values[:, 0] * values[:, 1]))
    return codes, weights


def stratify(pseudo_boxes: list[PseudoBox],
             thr: DualThresholds | dict[int, DualThresholds]) -> list[PseudoBox]:
    """Copies of ``pseudo_boxes`` with the level and weight :func:`levels`
    gives them under ``thr``."""
    codes, weights = levels(*_table(pseudo_boxes), thr)
    return [replace(pb, level=LEVELS[code], weight=weight)
            for pb, code, weight in zip(pseudo_boxes, codes.tolist(), weights.tolist())]


def remove_low_level_points(cloud: PointCloud, low_boxes: Sequence[Sequence[float]]) -> PointCloud:
    """Drop points strictly inside any low-level box (``Box3D``s or (L, 7)
    rows), one box at a time; boundary points survive.

    Takes and returns a bare cloud, so no scene labels can pass through."""
    boxes = box_rows(low_boxes).tolist()
    if not boxes or len(cloud) == 0:
        return cloud.copy()
    drop = np.zeros(len(cloud), dtype=bool)
    for box in boxes:
        drop |= points_in_box(box, cloud.xyz, strict=True)
    return PointCloud(cloud.xyz[~drop], cloud.intensity[~drop])


def ema_update(teacher: DetectorParams, student: DetectorParams, momentum: float) -> None:
    """theta_t <- m * theta_t + (1 - m) * theta_s, elementwise, in place."""
    if not teacher.same_shapes(student):
        raise ValueError("teacher/student parameter shapes differ")
    for t_arr, s_arr in zip(teacher.arrays(), student.arrays()):
        t_arr *= momentum
        t_arr += (1.0 - momentum) * s_arr


# ---------------------------------------------------------------------------
# epoch loop
# ---------------------------------------------------------------------------

@dataclass
class SslState:
    student: DetectorParams
    teacher: DetectorParams
    thresholds: dict[int, DualThresholds] | None = None  # per class id
    epoch: int = 0


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


def _detect_each(encoded: Iterable[tuple[Scene, SceneEncoding]], params: DetectorParams,
                 what: str) -> Iterator[tuple[Scene, SceneDetections]]:
    """Each ``(scene, encoding)`` pair of ``encoded`` as ``(scene, detections)``,
    ``ENCODE_BATCH`` pairs drawn and detected per :func:`detect_batch` call,
    the next batch only once the previous one has been yielded. A
    ValueError is re-raised, with its type, as ``<what> scene <id>: ...``:
    a batch that raises is detected again one scene at a time to find the
    scene."""
    it = iter(encoded)
    while batch := list(islice(it, ENCODE_BATCH)):
        try:
            dets = detect_batch([enc for _, enc in batch], params)
        except ValueError:
            for scene, enc in batch:
                try:
                    detect_batch([enc], params)
                except ValueError as exc:
                    raise type(exc)(f"{what} scene {scene.id}: {exc}") from exc
            raise
        yield from zip([scene for scene, _ in batch], dets)


def detect_and_score(encoded: Iterable[tuple[Scene, SceneEncoding]], params: DetectorParams,
                     what: str) -> EvalResult:
    """:func:`evaluate_scenes` (AP40) of the detection rows of every
    ``(scene, encoding)`` pair of ``encoded``, any iterable, detected by
    :func:`_detect_each` with ``what`` naming the pass in errors. Each scene
    of a batch is scored before the next batch is drawn, so a caller can
    encode a batch at a time, and no pass holds every scene's detections."""
    return evaluate_scenes(_detect_each(encoded, params, what))


def pseudo_targets(state: SslState, unlabeled: Sequence[tuple[Scene, SceneEncoding]],
                   cfg: RunConfig, metrics: EpochMetrics
                   ) -> list[tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Stages 1-2 of :func:`ssl_epoch`, counted into ``metrics``.

    1. Teacher pass: each teacher detection on an unlabeled scene becomes a
       pseudo-box row of one table: its box, class and ``CRITERIA`` values,
       the last its channel IoU consistency.
    2. Levels: on threshold epochs, refit the per-class dual thresholds;
       then give every row its level and weight in one :func:`levels` call,
       and count the levels and the incorrect boxes. That count, by
       :func:`pseudo_quality`, is all that reads a scene's labels.

    Returns per scene, in order, its id and the teacher's (L, 7) low boxes,
    then its (K, 7) kept boxes, (K,) classes and (K,) weights.
    """
    # stage 1: the teacher pass as one table of pseudo-boxes, scene after
    # scene: boxes (P, 7), classes (P,) and CRITERIA values (P, 3)
    channel_pairs = PairCounter()
    scenes, passes = [], []
    for scene, dets in _detect_each(unlabeled, state.teacher, "teacher"):
        scenes.append(scene)
        passes.append(dets)
        # what the all-pairs baseline would evaluate: N^2 per scene
        metrics.pairing_pair_evals += len(dets) ** 2

    def stacked(column: str, shape: tuple[int, ...], dtype: type = np.float64) -> np.ndarray:
        """The pass's ``column`` rows; (0, *shape) when no scene was detected."""
        parts = [getattr(dets, column) for dets in passes]
        return np.concatenate(parts) if parts else np.zeros((0, *shape), dtype)

    boxes, classes = stacked("boxes", (BOX_DIM,)), stacked("predicted_class", (), np.int64)
    values = np.column_stack([stacked("p_hat", ()), stacked("objectness", ()),
                              channel_consistencies(stacked("channel_boxes", (1, BOX_DIM)),
                                                    channel_pairs)])
    metrics.channel_pair_evals = channel_pairs.count

    # stage 2: levels
    if state.epoch % cfg.threshold_period == 0 or state.thresholds is None:
        state.thresholds = fit_threshold_bank(
            classes, values,
            num_classes=len(CLASS_NAMES),
            previous=state.thresholds,
            min_score=cfg.prefilter_min_score,
        )
    thr = state.thresholds
    codes, weights = levels(classes, values, thr)
    kept = codes != LEVELS.index(LEVEL_LOW)
    metrics.n_pseudo = len(codes)
    metrics.n_low, metrics.n_ambiguous, metrics.n_high = np.bincount(  # in LEVELS order
        codes, minlength=len(LEVELS)).tolist()
    cuts = np.cumsum([len(dets) for dets in passes[:-1]], dtype=np.int64)  # between scenes
    per_scene = list(zip(scenes, *(np.split(col, cuts) for col in (boxes, classes, kept, weights))))
    metrics.incorrect_prefilter, metrics.incorrect_postfilter = pseudo_quality(
        (b, c, k, scene.gt_boxes, scene.gt_classes)
        for scene, b, c, k, _ in per_scene if scene.gt_boxes)
    # class-mean thresholds, as a compact diagnostic
    means = np.mean([[*t.p_hat, *t.o_hat, *t.iou_cons] for t in thr.values()], axis=0)
    (metrics.thr_p_low, metrics.thr_p_high, metrics.thr_o_low, metrics.thr_o_high,
     metrics.thr_iou_low, metrics.thr_iou_high) = map(float, means)
    return [(scene.id, b[~k], b[k], c[k], w[k]) for scene, b, c, k, w in per_scene]


def student_steps(state: SslState,
                  targets: Sequence[tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
                  labeled: Sequence[Scene], cfg: RunConfig,
                  read_cloud: Callable[[str], PointCloud]) -> tuple[LossTotals, LossTotals]:
    """Stage 3 of :func:`ssl_epoch`: the unlabeled and labeled loss totals.

    Per ``(id, low, boxes, classes, weights)`` of :func:`pseudo_targets`,
    remove the low boxes' points from ``read_cloud(id)``, optionally shuffle
    patches, and train the student against the kept boxes with their
    hierarchical weights. Labeled scenes run as supervised steps with unit
    weights, interleaved 1:1 (the labeled set cycles; with no unlabeled
    scene, each runs once): the labeled anchor must stay in the gradient mix
    or pseudo-label class noise can snowball through the EMA teacher faster
    than a trailing supervised phase can undo. ``ema_update`` at
    ``cfg.ema_momentum`` follows every step that trains.

    Each step carries the strong channels drawn from its own scene seed. No
    step's target, weights or transforms depend on an update, so the steps
    are encoded anew ``ENCODE_BATCH`` at a time (each as if alone), their
    targets built just before their batch, and trained on in order: the
    stage holds the clouds of one batch of steps.
    """
    def steps() -> Iterator[tuple[str, Scene, list[float], tuple[Transform, ...], float]]:
        """Each step, in order: (kind, target, weights, channels, background weight)."""
        for idx in range(len(targets) or len(labeled)):
            if targets:
                scene_id, low, boxes, classes, weights = targets[idx]
                target = Scene(scene_id, remove_low_level_points(read_cloud(scene_id), low),
                               [Box3D(*box) for box in boxes.tolist()], classes.tolist())
                if cfg.shuffle_grid_cells >= 2:
                    target = shuffle_augment(target, cfg.shuffle_grid_cells,
                                             scene_seed(cfg.seed, state.epoch, idx, 1))
                yield ("unlabeled", target, weights.tolist(),
                       strong_channels(cfg, scene_seed(cfg.seed, state.epoch, idx, 0)),
                       cfg.unsup_background_weight)
            if labeled:
                scene = labeled[idx % len(labeled)]
                yield ("labeled", replace(scene, cloud=read_cloud(scene.id)),
                       [1.0] * len(scene.gt_boxes),
                       strong_channels(cfg, scene_seed(cfg.seed, state.epoch, idx, 2)), 1.0)

    unsup = LossTotals()
    sup = LossTotals()
    for (kind, target, weights, _, background_weight), enc in encode_batches(
            steps(), lambda step: (step[1].cloud, step[3])):
        try:
            losses = train_on_scene(enc, target.gt_boxes, target.gt_classes, weights,
                                    state.student, background_weight)
        except (NonFiniteLossError, ValueError) as exc:
            raise type(exc)(f"{kind} scene {target.id}: {exc}") from exc
        if losses is not None:
            ema_update(state.teacher, state.student, cfg.ema_momentum)
        (unsup if kind == "unlabeled" else sup).add(losses)
    return unsup, sup


def ssl_epoch(
    state: SslState,
    labeled: list[Scene],
    unlabeled: list[tuple[Scene, SceneEncoding]],
    cfg: RunConfig,
    read_cloud: Callable[[str], PointCloud],
    val: Sequence[tuple[Scene, SceneEncoding]] = (),
) -> EpochMetrics:
    """One epoch: :func:`pseudo_targets`, :func:`student_steps` and, with
    ``val``, the student's AP40.

    ``unlabeled`` and ``val`` pair each scene with its encoding under the
    weak transforms ``cfg.weak_policy()``, so a caller running several
    epochs encodes each scene once; their clouds are never read.
    ``read_cloud(id)`` gives a train scene's cloud (the CLI reads its point
    file). A student step's NonFiniteLossError or ValueError, and a teacher
    or val detection's ValueError, is re-raised with its type as ``<kind>
    scene <id>: ...``, ``<kind>`` naming the step or the pass.
    """
    metrics = EpochMetrics(epoch=state.epoch)
    targets = pseudo_targets(state, unlabeled, cfg, metrics)
    unsup, sup = student_steps(state, targets, labeled, cfg, read_cloud)
    metrics.unsup_cls, metrics.unsup_reg, metrics.unsup_obj, metrics.unsup_total = unsup.means()
    metrics.sup_cls, metrics.sup_reg, metrics.sup_obj, metrics.sup_total = sup.means()

    if val:
        result = detect_and_score(val, state.student, "val")
        # APs on the 100 scale in reports
        metrics.val_map = 100.0 * result.map
        metrics.val_ap_car = 100.0 * (result.ap.get(1) or 0.0)
        metrics.val_ap_pedestrian = 100.0 * (result.ap.get(2) or 0.0)
        metrics.val_ap_cyclist = 100.0 * (result.ap.get(3) or 0.0)

    state.epoch += 1
    return metrics
