"""Acceptance suite: one test per shipped guarantee, each printing a
PASS line with the measured numbers (run with -s to watch them live).

The heavyweight semi-supervised benchmark (criteria 9 and 10) runs once per
session for seeds 1-3 through the real CLI against on-disk datasets.
"""
import csv
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cadet3d.cli import main
from cadet3d.data import (
    PointCloud,
    SplitSpec,
    SynthConfig,
    parse_kitti_label,
    read_bin_cloud,
    split_sample,
    synth_scene,
    write_bin_cloud,
    write_kitti_label,
)
from cadet3d.detector import (
    DetectorParams,
    N_FEATURES,
    TrainExample,
    loss_and_grads,
)
from cadet3d.evaluation import ap40
from cadet3d.geometry import (
    Box3D,
    Transform,
    apply_box,
    decode_residual,
    encode_residual,
    invert,
    iou_3d,
    iou_bev,
)
from cadet3d.selftrain import (
    CRITERIA,
    DualThresholds,
    PairCounter,
    PseudoBox,
    channel_iou_consistency,
    fit_dual_thresholds,
    pairing_iou_consistency,
    optimal_three_partition,
    stratify,
)
from cadet3d.voxels import BevGrid, bev_align
from conftest import random_box
from reference import (
    brute_force_ap,
    brute_force_three_partition,
    mc_iou_3d,
    mc_iou_bev,
    point_in_box_bev,
)


def report(criterion: int, detail: str) -> None:
    print(f"\ncriterion {criterion}: PASS - {detail}")


# -------------------------------------------------------------------------
# criterion 1: geometry vs Monte-Carlo oracle
# -------------------------------------------------------------------------

def test_criterion_1_geometry_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240100)
    worst_bev = worst_3d = 0.0
    for _ in range(1000):
        a = random_box(rng, spread=1.5)
        b = random_box(rng, spread=1.5)
        # one 3D sample batch; its xy marginal is uniform over the BEV AABB
        corners = np.vstack([a.corners_bev(), b.corners_bev()])
        lo = np.array([corners[:, 0].min(), corners[:, 1].min(),
                       min(a.cz - a.h / 2, b.cz - b.h / 2)])
        hi = np.array([corners[:, 0].max(), corners[:, 1].max(),
                       max(a.cz + a.h / 2, b.cz + b.h / 2)])
        pts = rng.uniform(lo, hi, (200_000, 3))
        bev_a = point_in_box_bev(a, pts[:, :2])
        bev_b = point_in_box_bev(b, pts[:, :2])
        in_a = bev_a & (np.abs(pts[:, 2] - a.cz) <= a.h / 2)
        in_b = bev_b & (np.abs(pts[:, 2] - b.cz) <= b.h / 2)
        union_bev = (bev_a | bev_b).sum()
        union_3d = (in_a | in_b).sum()
        mc_bev = (bev_a & bev_b).sum() / union_bev if union_bev else 0.0
        mc_3d = (in_a & in_b).sum() / union_3d if union_3d else 0.0
        worst_bev = max(worst_bev, abs(iou_bev(a, b) - mc_bev))
        worst_3d = max(worst_3d, abs(iou_3d(a, b) - mc_3d))
    assert worst_bev < 0.01 and worst_3d < 0.01

    ident = Box3D(1, 2, 0.5, 1.6, 1.5, 3.9, 0.3)
    assert iou_bev(ident, ident) == 1.0 and iou_3d(ident, ident) == 1.0
    far = Box3D(101, 2, 0.5, 2, 2, 2, 0.9)
    assert iou_bev(ident, far) == 0.0 and iou_3d(ident, far) == 0.0
    sq = Box3D(0, 0, 0, 2, 1, 2, 0.0)
    sq45 = Box3D(0, 0, 0, 2, 1, 2, math.pi / 4)
    assert abs(iou_bev(sq, sq45) - 1 / math.sqrt(2)) < 1e-6

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(1, f"max |exact - MC| bev {worst_bev:.4f}, 3d {worst_3d:.4f}; "
              f"analytic cases exact; {elapsed:.1f}s < 30s")


# -------------------------------------------------------------------------
# criterion 2: roundtrips
# -------------------------------------------------------------------------

def test_criterion_2_roundtrips(tmp_path):
    t0 = time.monotonic()
    rng = np.random.default_rng(20240200)

    worst_t = 0.0
    for _ in range(1000):
        t = Transform(flip_y=bool(rng.random() < 0.5),
                      theta=rng.uniform(-math.pi, math.pi), s=rng.uniform(0.5, 2.0))
        b = random_box(rng)
        back = apply_box(invert(t), apply_box(t, b))
        worst_t = max(worst_t, np.abs(back.as_array() - b.as_array()).max())
    assert worst_t < 1e-9

    worst_r = 0.0
    for _ in range(1000):
        anchor, target = random_box(rng), random_box(rng)
        back = decode_residual(encode_residual(target, anchor), anchor)
        worst_r = max(worst_r, np.abs(back.as_array() - target.as_array()).max())
    assert worst_r < 1e-9

    worst_k = 0.0
    for seed in range(100):
        sc = synth_scene(seed, SynthConfig())
        boxes, classes = parse_kitti_label(write_kitti_label(sc))
        assert classes == sc.gt_classes
        for parsed, orig in zip(boxes, sc.gt_boxes):
            worst_k = max(worst_k, np.abs(parsed.as_array() - orig.as_array()).max())
    assert worst_k <= 0.005 + 1e-12

    xyz = rng.standard_normal((100_000, 3)).astype(np.float32).astype(np.float64)
    inten = rng.random(100_000).astype(np.float32).astype(np.float64)
    path = tmp_path / "pts.bin"
    write_bin_cloud(path, PointCloud(xyz, inten))
    back = read_bin_cloud(path)
    assert np.array_equal(back.xyz, xyz) and np.array_equal(back.intensity, inten)

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(2, f"transform {worst_t:.1e}, residual {worst_r:.1e}, labels {worst_k:.4f} "
              f"<= 0.005, binary bit-exact; {elapsed:.1f}s < 10s")


# -------------------------------------------------------------------------
# criterion 3: consistency complexity and agreement
# -------------------------------------------------------------------------

def spread_box(rng, k):
    return Box3D(8.0 * k, rng.uniform(-1, 1), 1.0, 1.0, 1.0, 2.0, rng.uniform(-3, 3))


def test_criterion_3_consistency_complexity():
    from cadet3d.detector import Detection
    from cadet3d.geometry import average_boxes

    rng = np.random.default_rng(20240300)
    details = []
    for n1, n2 in ((10, 10), (100, 100), (1000, 1000), (10, 100), (100, 1000)):
        channel_counter = PairCounter()
        for k in range(n1):
            b = spread_box(rng, k)
            det = Detection(box=b, per_channel_boxes=[b, b, b],
                            class_scores=np.array([0.1, 0.7, 0.1, 0.1]), objectness=0.8)
            channel_iou_consistency(det, channel_counter)
        assert channel_counter.count == 3 * n1

        pairing_counter = PairCounter()
        boxes_a = [spread_box(rng, k) for k in range(n1)]
        boxes_b = [spread_box(rng, k) for k in range(n2)]
        pairing_iou_consistency(boxes_a, boxes_b, pairing_counter)
        assert pairing_counter.count == n1 * n2
        details.append(f"N1={n1}: {channel_counter.count}=3*N1 vs {pairing_counter.count}=N1*N2")

    # matched-counterpart agreement: two-channel detections built from the
    # exact (box, counterpart) pairs the baseline would match
    boxes_a, boxes_b, dets = [], [], []
    for k in range(50):
        base = spread_box(rng, k)
        twin = Box3D(base.cx + 0.12, base.cy, base.cz, base.w, base.h, base.l, base.r)
        boxes_a.append(base)
        boxes_b.append(twin)
        dets.append(Detection(box=average_boxes([base, twin]),
                              per_channel_boxes=[base, twin],
                              class_scores=np.array([0.1, 0.7, 0.1, 0.1]), objectness=0.8))
    pairing = pairing_iou_consistency(boxes_a, boxes_b)
    channel = np.array([channel_iou_consistency(d) for d in dets])
    worst = np.abs(channel - pairing).max()
    assert worst < 1e-9
    report(3, "; ".join(details) + f"; matched-score agreement {worst:.1e}")


# -------------------------------------------------------------------------
# criterion 4: hierarchical weight mapping
# -------------------------------------------------------------------------

def test_criterion_4_weight_mapping():
    grid = np.round(np.linspace(0, 1, 11), 10)
    thresholds = [
        DualThresholds(p_hat=(0.3, 0.7), o_hat=(0.3, 0.7), iou_cons=(0.3, 0.7)),
        DualThresholds(p_hat=(0.2, 0.9), o_hat=(0.5, 0.5), iou_cons=(0.1, 0.6)),
        DualThresholds(p_hat=(0.0, 0.0), o_hat=(0.4, 0.8), iou_cons=(0.45, 0.45)),
    ]
    rank = {"low": 0, "ambiguous": 1, "high": 2}
    checked = 0
    for thr in thresholds:
        for p in grid:
            for o in grid:
                for i in grid:
                    pb = PseudoBox(box=Box3D(0, 0, 0, 1, 1, 1, 0), cls=1,
                                   p_hat=float(p), o_hat=float(o), iou_cons=float(i))
                    out = stratify([pb], thr)[0]
                    scores = dict(p_hat=p, o_hat=o, iou_cons=i)
                    if any(scores[c] < getattr(thr, c)[0] for c in CRITERIA):
                        assert out.level == "low" and out.weight == 0.0
                    elif all(scores[c] >= getattr(thr, c)[1] for c in CRITERIA):
                        assert out.level == "high" and out.weight == 1.0
                    else:
                        assert out.level == "ambiguous"
                        assert out.weight == pytest.approx(p * o, abs=1e-12)
                    for field in ("p_hat", "o_hat", "iou_cons"):
                        if scores[field] >= 1.0:
                            continue
                        raised = stratify([replace(pb, **{field: 1.0})], thr)[0]
                        assert rank[raised.level] >= rank[out.level]
                    checked += 1
    report(4, f"{checked} score/threshold combinations: mapping exhaustive, "
              "single-score raises never demote")


# -------------------------------------------------------------------------
# criterion 5: threshold clustering equals brute force
# -------------------------------------------------------------------------

def test_criterion_5_threshold_clustering():
    rng = np.random.default_rng(20240500)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(3, 31))
        if trial % 2:
            vals = rng.random(n)
        else:  # cluster-structured scores, as threshold fitting sees in use
            centers = np.sort(rng.random(3))
            vals = np.clip(
                np.concatenate([rng.normal(c, 0.05, max(1, n // 3)) for c in centers]),
                0, 1)[:n]
        if len(np.unique(vals)) < 3:
            continue
        centers = optimal_three_partition(vals)
        sse_brute, centers_brute = brute_force_three_partition(vals)
        np.testing.assert_allclose(centers, centers_brute, atol=1e-9)
        checked += 1

    boxes = [PseudoBox(box=Box3D(0, 0, 0, 1, 1, 1, 0), cls=1, p_hat=v, o_hat=1.0, iou_cons=1.0)
             for v in (0.1, 0.12, 0.5, 0.52, 0.9, 0.92)]
    thr = fit_dual_thresholds(boxes, min_score=0.0)
    assert thr.p_hat == pytest.approx((0.31, 0.71), abs=1e-12)
    report(5, f"{checked} random sets match the brute-force optimum; "
              f"worked example thresholds {thr.p_hat}")


# -------------------------------------------------------------------------
# criterion 6: analytic gradients vs finite differences
# -------------------------------------------------------------------------

def test_criterion_6_gradient_checks():
    rng = np.random.default_rng(20240600)
    eps = 1e-5
    worst = {"cls": 0.0, "obj": 0.0, "reg": 0.0}
    for _ in range(100):
        params = DetectorParams.zeros(lr=0.1)
        params.w_cls[:] = rng.normal(size=params.w_cls.shape) * 0.3
        params.w_obj[:] = rng.normal(size=params.w_obj.shape) * 0.3
        params.w_reg[:] = rng.normal(size=params.w_reg.shape) * 0.05
        anchors = [random_box(rng) for _ in range(3)]
        targets = [Box3D(a.cx + rng.uniform(-0.2, 0.2), a.cy + rng.uniform(-0.2, 0.2),
                         a.cz, a.w * rng.uniform(0.9, 1.1), a.h, a.l, a.r + 0.05)
                   for a in anchors]
        cls_id = int(rng.integers(0, 4))
        ex = TrainExample(
            cls_feature=rng.uniform(0, 2, N_FEATURES),
            channel_features=[rng.uniform(0, 2, N_FEATURES) for _ in range(3)],
            anchors=anchors,
            targets=targets if cls_id > 0 else None,
            target_class=cls_id,
            weight=float(rng.uniform(0.3, 1.0)),
        )
        losses, (g_cls, g_obj, g_reg) = loss_and_grads(params, [ex])
        for name, w, grad in (("cls", params.w_cls, g_cls),
                              ("obj", params.w_obj, g_obj),
                              ("reg", params.w_reg, g_reg)):
            flat = w.ravel()
            idxs = rng.choice(flat.size, size=3, replace=False)
            an = grad.ravel()[idxs]
            fd = np.zeros(3)
            for k, i in enumerate(idxs):
                orig = flat[i]
                flat[i] = orig + eps
                lp = getattr(loss_and_grads(params, [ex])[0], name)
                flat[i] = orig - eps
                lm = getattr(loss_and_grads(params, [ex])[0], name)
                flat[i] = orig
                fd[k] = (lp - lm) / (2 * eps)
            denom = max(np.linalg.norm(an), np.linalg.norm(fd), 1e-10)
            rel = np.linalg.norm(an - fd) / denom
            worst[name] = max(worst[name], rel)
            assert rel < 1e-4
    report(6, "max relative gradient error "
              + ", ".join(f"{k} {v:.2e}" for k, v in worst.items()) + " (< 1e-4)")


# -------------------------------------------------------------------------
# criterion 7: BEV alignment identities
# -------------------------------------------------------------------------

def test_criterion_7_alignment():
    rng = np.random.default_rng(20240700)
    n = 12
    origin = (-n / 2 * 0.5, -n / 2 * 0.5)
    feats = [rng.random((n, n, 3)) for _ in range(3)]
    grids = [BevGrid(origin, 0.5, f) for f in feats]
    fused = bev_align(grids, [Transform.identity()] * 3)
    assert np.array_equal(fused.features, np.maximum.reduce(feats))

    base = np.zeros((n, n, 3))
    base[1:-1, 1:-1] = rng.random((n - 2, n - 2, 3))
    rotated = np.rot90(base, k=1, axes=(0, 1)).copy()
    g1 = BevGrid(origin, 0.5, base)
    g2 = BevGrid(origin, 0.5, rotated)
    fused = bev_align([g1, g2], [Transform.identity(), Transform(theta=math.pi / 2)])
    err = np.abs(fused.features[1:-1, 1:-1] - base[1:-1, 1:-1]).max()
    assert err < 1e-6
    report(7, f"identity fusion exact; rotated-grid recovery error {err:.1e} < 1e-6")


# -------------------------------------------------------------------------
# criterion 8: AP40 vs brute force
# -------------------------------------------------------------------------

def test_criterion_8_ap40():
    rng = np.random.default_rng(20240800)
    worst = 0.0
    checked = 0
    for _ in range(300):
        n = int(rng.integers(0, 21))
        flags = [bool(rng.random() < 0.55) for _ in range(n)]
        n_gt = int(rng.integers(max(1, sum(flags)), sum(flags) + 6))
        got = ap40(flags, n_gt)
        want = brute_force_ap(flags, n_gt)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-12
        checked += 1
    assert ap40([True], 1) == 1.0
    assert ap40([], 1) == 0.0
    assert ap40([True], 2) == pytest.approx(0.5, abs=1e-15)
    report(8, f"{checked} instances match brute force (max diff {worst:.1e}); "
              "worked examples 1.0 / 0.0 / 0.5 exact")


# -------------------------------------------------------------------------
# criteria 9 and 10: the semi-supervised benchmark
# -------------------------------------------------------------------------

@pytest.fixture(scope="session")
def benchmark_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("benchmark")
    runs = {}
    t0 = time.monotonic()
    for seed in (1, 2, 3):
        data = base / f"data{seed}"
        out = base / f"run{seed}"
        cfg = base / f"cfg{seed}.txt"
        cfg.write_text(f"seed = {seed}\ndataset_root = {data}\nout_dir = {out}\n")
        assert main(["gen-data", "--config", str(cfg)]) == 0
        assert main(["pretrain", "--config", str(cfg)]) == 0
        assert main(["ssl-train", "--config", str(cfg)]) == 0
        assert main(["eval", "--config", str(cfg), "--params", str(out / "pretrain.params"),
                     "--out", str(out / "eval_pretrain")]) == 0
        assert main(["eval", "--config", str(cfg), "--params", str(out / "student.params"),
                     "--out", str(out / "eval_student")]) == 0

        def read_avg(p):
            row = next(csv.DictReader(open(p)))
            return float(row["Avg"])

        metrics = list(csv.DictReader(open(out / "metrics.csv")))
        runs[seed] = {
            "pretrain_map": read_avg(out / "eval_pretrain" / "results.csv"),
            "student_map": read_avg(out / "eval_student" / "results.csv"),
            "metrics": metrics,
        }
    runs["elapsed"] = time.monotonic() - t0
    return runs


def test_criterion_9_ssl_gain(benchmark_runs):
    gains = [benchmark_runs[s]["student_map"] - benchmark_runs[s]["pretrain_map"]
             for s in (1, 2, 3)]
    mean_gain = float(np.mean(gains))
    elapsed = benchmark_runs["elapsed"]
    assert mean_gain >= 5.0
    assert elapsed < 600.0
    per_seed = ", ".join(
        f"seed {s}: {benchmark_runs[s]['pretrain_map']:.1f}->{benchmark_runs[s]['student_map']:.1f}"
        for s in (1, 2, 3))
    report(9, f"{per_seed}; mean gain {mean_gain:+.2f} >= 5; {elapsed:.0f}s < 600s")


def test_criterion_10_filtering_quality(benchmark_runs):
    details = []
    for seed in (1, 2, 3):
        rows = benchmark_runs[seed]["metrics"]
        pre = [int(r["incorrect_prefilter"]) for r in rows]
        post = [int(r["incorrect_postfilter"]) for r in rows]
        assert all(p <= q for p, q in zip(post, pre)), f"seed {seed}: post exceeds pre"
        assert post[-1] < post[0], f"seed {seed}: post {post[0]} -> {post[-1]} did not drop"
        details.append(f"seed {seed}: post {post[0]}->{post[-1]}")
    report(10, "; ".join(details) + " (post <= pre everywhere, final < first)")


# -------------------------------------------------------------------------
# criterion 11: thread-count determinism
# -------------------------------------------------------------------------

def test_criterion_11_thread_determinism(tmp_path):
    data = tmp_path / "data"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        f"seed = 17\ndataset_root = {data}\nn_scenes = 40\nn_val_scenes = 8\n"
        f"fraction = 0.1\npretrain_epochs = 4\nepochs = 2\n"
    )
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
    assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
    pretrain = tmp_path / "r1" / "pretrain.params"
    assert main(["ssl-train", "--config", str(cfg), "--out", str(tmp_path / "r1"),
                 "--params", str(pretrain), "--threads", "1"]) == 0
    assert main(["ssl-train", "--config", str(cfg), "--out", str(tmp_path / "r4"),
                 "--params", str(pretrain), "--threads", "4"]) == 0
    a = (tmp_path / "r1" / "metrics.csv").read_bytes()
    b = (tmp_path / "r4" / "metrics.csv").read_bytes()
    assert a == b
    report(11, f"metrics CSVs byte-identical across --threads 1/4 ({len(a)} bytes)")
