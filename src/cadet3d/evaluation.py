"""Detection metrics: 40-point interpolated average precision, per-class
matching, and pseudo-box quality counting."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Box3D, best_match, box_rows, iou_3d_rows, overlap_candidates

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


def evaluate_scenes(detected) -> EvalResult:
    """Dataset-level per-class AP40 over ``(scene, detections)`` pairs, each
    scene's detection list scored against its labels.

    ``detected`` may be any iterable, a generator included: it is drawn one
    scene at a time, the next pair only once the previous scene is matched,
    and only each class's (confidence, scene, rank, TP flag) tallies and GT
    count are kept, so no caller need hold every scene's detections.

    Detections rank by p_hat * objectness. Matching happens within each scene,
    so flags can be merged across scenes and sorted globally without changing
    which detection claims which box.
    """
    classes = range(1, len(IOU_THRESHOLDS) + 1)
    scored: dict[int, list[tuple[float, int, int, bool]]] = {c: [] for c in classes}
    n_gt = dict.fromkeys(classes, 0)
    for si, (scene, dets) in enumerate(detected):
        predicted = [d.predicted_class for d in dets]
        confidence = [d.confidence for d in dets]
        for cls_id, iou_thresh in zip(classes, IOU_THRESHOLDS):
            gts = [b for b, c in zip(scene.gt_boxes, scene.gt_classes) if c == cls_id]
            n_gt[cls_id] += len(gts)
            sub = [i for i, c in enumerate(predicted) if c == cls_id]
            confs = [confidence[i] for i in sub]
            flags, _ = match_detections([dets[i].box for i in sub], confs, gts, iou_thresh)
            for di, (conf, flag) in enumerate(zip(sorted(confs, reverse=True), flags)):
                scored[cls_id].append((conf, si, di, flag))
    result = EvalResult()
    for cls_id in classes:
        scored[cls_id].sort(key=lambda t: (-t[0], t[1], t[2]))
        result.ap[cls_id] = ap40([t[3] for t in scored[cls_id]], n_gt[cls_id])
    return result


def pseudo_quality(scenes) -> tuple[int, int]:
    """``(prefilter, postfilter)`` over the ``(pseudo_boxes, gt_boxes,
    gt_classes)`` of each of ``scenes``: how many pseudo-boxes are incorrect,
    and how many of those are kept past the filter (level high or ambiguous).

    A pseudo-box is incorrect when its class mismatches its best-IoU ground
    truth of its scene or its IoU misses the class threshold; the best match
    follows ``best_match``'s rules (strictly larger IoU wins, ties to the
    earliest index, none without overlap). The exact 3D IoUs of the pairs
    that pass ``best_match``'s pre-reject (:func:`overlap_candidates`), in
    every scene, come from one :func:`iou_3d_rows` call.
    Expects stratified boxes (``.level``); an unknown level counts as low."""
    scenes = list(scenes)
    near, a, b = [], [np.zeros((0, 7))], [np.zeros((0, 7))]
    for pbs, gts, _ in scenes:
        rows, truths = box_rows([pb.box for pb in pbs]), box_rows(gts)
        near.append(overlap_candidates(rows, truths))
        pb_idx, gt_idx = np.nonzero(near[-1])
        a.append(rows[pb_idx])
        b.append(truths[gt_idx])
    ious = iou_3d_rows(np.concatenate(a), np.concatenate(b))
    prefilter = postfilter = p0 = 0
    for (pbs, _, classes), mask in zip(scenes, near):
        n_near = np.count_nonzero(mask)
        table = np.zeros(mask.shape)  # a pair the pre-reject drops has IoU 0.0
        table[mask] = ious[p0:p0 + n_near]
        p0 += n_near
        for pb, row in zip(pbs, table.tolist()):
            iou = max(row, default=0.0)
            if iou == 0.0 or classes[row.index(iou)] != pb.cls or iou < IOU_THRESHOLDS[pb.cls - 1]:
                prefilter += 1
                if pb.level in ("high", "ambiguous"):
                    postfilter += 1
    return prefilter, postfilter
