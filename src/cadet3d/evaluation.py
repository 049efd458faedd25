"""Detection metrics: 40-point interpolated average precision, per-class
matching, and pseudo-box quality counting."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Box3D, best_match, box_rows

# 3D IoU a true positive needs; entry k is class id k + 1 (Car, Pedestrian, Cyclist)
IOU_THRESHOLDS = (0.7, 0.5, 0.5)
# AP40: precision is interpolated at recall 1/40, 2/40, ..., 40/40
RECALL_POSITIONS = 40


def match_detections(
    det_boxes: list[Box3D],
    det_scores: list[float],
    gt_boxes: list[Box3D],
    iou_thresh: float,
) -> tuple[list[bool], list[tuple[int, int]]]:
    """Greedy same-class matching within one scene.

    Detections are visited in descending confidence (ties keep input order);
    each claims its highest-IoU unmatched ground-truth box if the IoU reaches
    the threshold (ties break toward the lower GT index). Returns TP flags in
    visit order plus (detection index, GT index) pairs.
    """
    order = sorted(range(len(det_boxes)), key=lambda i: (-det_scores[i], i))
    taken: set[int] = set()
    flags: list[bool] = []
    pairs: list[tuple[int, int]] = []
    matches = best_match(box_rows(det_boxes)[order], box_rows(gt_boxes), skip=taken)
    for di, (iou, gi) in zip(order, matches):
        if gi >= 0 and iou >= iou_thresh:
            taken.add(gi)
            flags.append(True)
            pairs.append((di, gi))
        else:
            flags.append(False)
    return flags, pairs


def ap40(tp_flags: list[bool], n_gt: int, positions: int = RECALL_POSITIONS) -> float | None:
    """Interpolated AP over the recall grid {1/P, ..., P/P}, in [0, 1].

    ``tp_flags`` must be ordered by descending confidence. Undefined (None)
    when there are no ground-truth boxes.
    """
    if n_gt < 0:
        raise ValueError("n_gt must be non-negative")
    if n_gt == 0:
        return None
    if not tp_flags:
        return 0.0
    tp = np.cumsum(np.asarray(tp_flags, dtype=np.float64))
    fp = np.cumsum(~np.asarray(tp_flags, dtype=bool))
    recall = tp / n_gt
    precision = tp / (tp + fp)
    total = 0.0
    for k in range(1, positions + 1):
        r = k / positions
        at_least = precision[recall >= r]
        total += float(at_least.max()) if len(at_least) else 0.0
    return total / positions


@dataclass
class EvalResult:
    ap: dict[int, float | None] = field(default_factory=dict)  # class id -> AP in [0, 1]

    @property
    def map(self) -> float:
        defined = [v for v in self.ap.values() if v is not None]
        return float(np.mean(defined)) if defined else 0.0


def evaluate_scenes(dets_per_scene, scenes) -> EvalResult:
    """Dataset-level per-class AP40 over per-scene detection lists, one list
    per scene of ``scenes`` (ValueError if the counts differ).

    Detections rank by p_hat * objectness. Matching happens within each scene,
    so flags can be merged across scenes and sorted globally without changing
    which detection claims which box.
    """
    result = EvalResult()
    for cls_id, iou_thresh in enumerate(IOU_THRESHOLDS, start=1):
        scored: list[tuple[float, int, int, bool]] = []
        n_gt = 0
        for si, (dets, scene) in enumerate(zip(dets_per_scene, scenes, strict=True)):
            gts = [b for b, c in zip(scene.gt_boxes, scene.gt_classes) if c == cls_id]
            n_gt += len(gts)
            sub = [d for d in dets if d.predicted_class == cls_id]
            flags, _ = match_detections(
                [d.box for d in sub],
                [d.confidence for d in sub],
                gts,
                iou_thresh,
            )
            confs = sorted((d.confidence for d in sub), reverse=True)
            for di, (conf, flag) in enumerate(zip(confs, flags)):
                scored.append((conf, si, di, flag))
        scored.sort(key=lambda t: (-t[0], t[1], t[2]))
        result.ap[cls_id] = ap40([t[3] for t in scored], n_gt)
    return result


@dataclass
class PseudoQualityCounts:
    """Incorrect pseudo-boxes: all of them, and those kept past the filter
    (level high or ambiguous)."""

    prefilter: int = 0
    postfilter: int = 0


def pseudo_quality(pseudo_boxes, gt_boxes, gt_classes) -> PseudoQualityCounts:
    """Count pseudo-boxes whose class mismatches their best-IoU ground truth or
    whose IoU misses the class threshold. Expects stratified boxes (``.level``);
    an unknown level counts as low."""
    counts = PseudoQualityCounts()
    matches = best_match(box_rows([pb.box for pb in pseudo_boxes]), box_rows(gt_boxes))
    for pb, (iou, gi) in zip(pseudo_boxes, matches):
        if gi < 0 or gt_classes[gi] != pb.cls or iou < IOU_THRESHOLDS[pb.cls - 1]:
            counts.prefilter += 1
            if pb.level in ("high", "ambiguous"):
                counts.postfilter += 1
    return counts
