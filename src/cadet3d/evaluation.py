"""Detection metrics: 40-point interpolated average precision, same-class
matching, and pseudo-box quality counting."""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

from .geometry import best_match, box_rows, iou_3d_rows, overlap_candidates

# 3D IoU a true positive needs; entry k is class id k + 1 (Car, Pedestrian, Cyclist)
IOU_THRESHOLDS = (0.7, 0.5, 0.5)
# AP40: precision is interpolated at recall 1/40, 2/40, ..., 40/40
RECALL_POSITIONS = 40


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
    recall = tp / n_gt  # non-decreasing, so the rows reaching a recall are a suffix
    precision = np.append(np.maximum.accumulate((tp / (tp + fp))[::-1])[::-1], 0.0)
    first = np.searchsorted(recall, np.arange(1, positions + 1) / positions)
    return sum(precision[first].tolist()) / positions  # summed in recall order


@dataclass
class EvalResult:
    ap: dict[int, float | None] = field(default_factory=dict)  # class id -> AP in [0, 1]

    @property
    def map(self) -> float:
        defined = [v for v in self.ap.values() if v is not None]
        return float(np.mean(defined)) if defined else 0.0


def evaluate_scenes(detected) -> EvalResult:
    """Dataset-level per-class AP40 over ``(scene, SceneDetections)`` pairs,
    any iterable, drawn one scene at a time once the previous scene is
    matched; only each class's (confidence, scene, visit, TP flag) tallies
    and GT count are kept, so no caller need hold every scene's detections.

    Detections rank by p_hat * objectness. A scene is matched in one
    :func:`best_match` pass, in descending confidence (ties in row order),
    over one :func:`overlap_candidates` table masked to same-class pairs:
    each detection claims its best unclaimed label whose IoU reaches its
    class threshold. As classes share no label, this is class-by-class
    matching, and flags merged across scenes sort globally as they would
    per class.
    """
    classes = range(1, len(IOU_THRESHOLDS) + 1)
    scored: dict[int, list[tuple[float, int, int, bool]]] = defaultdict(list)
    n_gt: Counter[int] = Counter()
    for si, (scene, dets) in enumerate(detected):
        n_gt.update(scene.gt_classes)
        if not len(dets):
            continue
        predicted, confidence = dets.predicted_class, dets.confidence
        truths = box_rows(scene.gt_boxes)
        order = np.argsort(-confidence, kind="stable")
        near = overlap_candidates(dets.boxes, truths) & (predicted[:, None] == scene.gt_classes)
        taken: set[int] = set()
        for visit, (cls, conf, (iou, gi)) in enumerate(zip(
                predicted[order].tolist(), confidence[order].tolist(),
                best_match(dets.boxes[order], truths, taken, near[order]))):
            flag = gi >= 0 and iou >= IOU_THRESHOLDS[cls - 1]
            if flag:
                taken.add(gi)
            scored[cls].append((conf, si, visit, flag))
    result = EvalResult()
    for cls_id in classes:
        scored[cls_id].sort(key=lambda t: (-t[0], t[1], t[2]))
        result.ap[cls_id] = ap40([t[3] for t in scored[cls_id]], n_gt[cls_id])
    return result


def pseudo_quality(scenes) -> tuple[int, int]:
    """``(prefilter, postfilter)`` over the ``(rows, classes, kept, gt_boxes,
    gt_classes)`` of each of ``scenes``, its pseudo-boxes' (P, 7) rows, (P,)
    classes and (P,) flags of those kept past the filter (level high or
    ambiguous), then its labels: how many pseudo-boxes are incorrect, and how
    many of those are kept.

    A pseudo-box is incorrect when its class mismatches its best-IoU ground
    truth of its scene or its IoU misses the class threshold; the best match
    follows ``best_match``'s rules (strictly larger IoU wins, ties to the
    earliest index, none without overlap). The exact 3D IoUs of the pairs
    that pass ``best_match``'s pre-reject (:func:`overlap_candidates`), in
    every scene, come from one :func:`iou_3d_rows` call."""
    scenes = list(scenes)
    near, a, b = [], [np.zeros((0, 7))], [np.zeros((0, 7))]
    for rows, _, _, gts, _ in scenes:
        rows, truths = box_rows(rows), box_rows(gts)
        near.append(overlap_candidates(rows, truths))
        pb_idx, gt_idx = np.nonzero(near[-1])
        a.append(rows[pb_idx])
        b.append(truths[gt_idx])
    ious = iou_3d_rows(np.concatenate(a), np.concatenate(b))
    prefilter = postfilter = p0 = 0
    for (_, classes, kept, _, gt_classes), mask in zip(scenes, near):
        n_near = np.count_nonzero(mask)
        table = np.zeros(mask.shape)  # a pair the pre-reject drops has IoU 0.0
        table[mask] = ious[p0:p0 + n_near]
        p0 += n_near
        for cls, keep, row in zip(classes.tolist(), kept.tolist(), table.tolist()):
            iou = max(row, default=0.0)
            if iou == 0.0 or gt_classes[row.index(iou)] != cls or iou < IOU_THRESHOLDS[cls - 1]:
                prefilter += 1
                postfilter += keep
    return prefilter, postfilter
