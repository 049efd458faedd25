"""Synthetic LiDAR-like scenes, KITTI-style label/point I/O, and split sampling.

Labels are stored in the LiDAR frame (x forward, y left, z up, yaw about z).
This deviates from KITTI's camera-frame convention on purpose: the pipeline
has no camera, so no calibration round-trip exists. Field order and count per
line match the KITTI layout so third-party tooling can still tokenize files.
"""
from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import Box3D, PointCloud

CLASS_NAMES = ("Car", "Pedestrian", "Cyclist")  # class ids 1..3; 0 is background
CLASS_IDS = {name: i + 1 for i, name in enumerate(CLASS_NAMES)}
KNOWN_TOKENS = set(CLASS_NAMES) | {"DontCare"}

# mean object dimensions (l, w, h) in meters, keyed by class id
CLASS_SIZES = {1: (3.9, 1.6, 1.5), 2: (0.8, 0.6, 1.75), 3: (1.76, 0.6, 1.73)}


class KittiFormatError(ValueError):
    """Raised on malformed label lines; message names the offending line."""


class BinFormatError(ValueError):
    """Raised on malformed point files; message names the byte offset."""


class SplitFormatError(ValueError):
    """Raised on a split file whose ids cannot name scene files of the dataset."""


@dataclass
class Scene:
    """One sample: a point cloud plus (possibly empty) box annotations."""

    id: str
    cloud: PointCloud
    gt_boxes: list[Box3D] = field(default_factory=list)
    gt_classes: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.gt_boxes) != len(self.gt_classes):
            raise ValueError("gt_boxes and gt_classes lengths differ")


@dataclass(frozen=True)
class SplitSpec:
    fraction: float
    seed: int


@dataclass(frozen=True)
class SynthConfig:
    """The synthetic scene generator's settings; ``gen-data`` uses the defaults, fixed
    values chosen for class separability at desk scale, not measured statistics."""

    ground_points: int = 1000
    ground_sigma: float = 0.03
    ground_radius: float = 17.0
    object_radius: float = 13.0
    max_per_class: int = 3
    min_pts: int = 20
    size_jitter: float = 0.18
    surface_density: float = 8.0
    range_scale: float = 18.0
    clutter_min: int = 2
    clutter_max: int = 9
    min_separation: float = 5.0
    surface_inset: float = 0.05

    def __post_init__(self) -> None:
        if self.ground_points < 0 or self.max_per_class < 0:
            raise ValueError("ground_points and max_per_class must be non-negative")
        if self.clutter_min > self.clutter_max:
            raise ValueError("need clutter_min <= clutter_max")
        if self.range_scale <= 0:
            raise ValueError("range_scale must be positive")
        if min(self.size_jitter, self.ground_sigma, self.surface_inset) < 0:
            raise ValueError("size_jitter, ground_sigma and surface_inset must be non-negative")


def _sample_disc(rng: np.random.Generator, radius: float, n: int = 1) -> np.ndarray:
    r = radius * np.sqrt(rng.random(n))
    ang = rng.uniform(-math.pi, math.pi, n)
    return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)


def _sample_box_surface(
    rng: np.random.Generator, box: Box3D, n: int, inset: float
) -> np.ndarray:
    """Points on the four side faces and the top, pulled strictly inside."""
    hl, hw, hh = 0.5 * box.l, 0.5 * box.w, 0.5 * box.h
    areas = np.array([box.w * box.h, box.w * box.h, box.l * box.h, box.l * box.h, box.l * box.w])
    faces = rng.choice(5, size=n, p=areas / areas.sum())
    off = rng.uniform(0.2 * inset, inset, n)
    # margins keep tangential coordinates off the other faces
    mu = rng.uniform(-1, 1, n) * np.maximum(hl - inset, 0.0)
    mv = rng.uniform(-1, 1, n) * np.maximum(hw - inset, 0.0)
    mz = rng.uniform(-1, 1, n) * np.maximum(hh - inset, 0.0)
    u = np.where(faces == 0, hl - off, np.where(faces == 1, -hl + off, mu))
    v = np.where(faces == 2, hw - off, np.where(faces == 3, -hw + off, mv))
    z = np.where(faces == 4, hh - off, mz)
    c, s = math.cos(box.r), math.sin(box.r)
    x = box.cx + c * u - s * v
    y = box.cy + s * u + c * v
    return np.stack([x, y, box.cz + z], axis=1)


def _place(rng: np.random.Generator, radius: float, taken: list[tuple[float, float]],
           min_sep: float, tries: int = 100) -> tuple[float, float] | None:
    for _ in range(tries):
        (x, y), = _sample_disc(rng, radius)
        if all(math.hypot(x - px, y - py) >= min_sep for px, py in taken):
            return float(x), float(y)
    return None


def synth_scene(rng_seed, cfg: SynthConfig, scene_id: str = "000000") -> Scene:
    """Deterministic synthetic scene: noisy ground disc, surface-sampled class
    objects with range-decayed density, and unlabeled clutter blobs."""
    rng = np.random.default_rng(rng_seed)
    taken: list[tuple[float, float]] = []
    boxes: list[Box3D] = []
    classes: list[int] = []
    chunks: list[np.ndarray] = []
    intens: list[np.ndarray] = []

    for cls_id in (1, 2, 3):
        for _ in range(int(rng.integers(0, cfg.max_per_class + 1))):
            pos = _place(rng, cfg.object_radius, taken, cfg.min_separation)
            jitter = np.exp(rng.normal(0.0, cfg.size_jitter, 3))
            yaw = rng.uniform(-math.pi, math.pi)
            if pos is None:
                continue  # crowded scene; skip this object
            taken.append(pos)
            l0, w0, h0 = CLASS_SIZES[cls_id]
            l, w, h = l0 * jitter[0], w0 * jitter[1], h0 * jitter[2]
            box = Box3D(pos[0], pos[1], 0.5 * h, w, h, l, yaw)
            area = 2 * (l + w) * h + l * w
            decay = 1.0 + (math.hypot(*pos) / cfg.range_scale) ** 2
            n = max(cfg.min_pts, int(area * cfg.surface_density / decay))
            chunks.append(_sample_box_surface(rng, box, n, cfg.surface_inset))
            intens.append(rng.uniform(0.3, 0.7, n))
            boxes.append(box)
            classes.append(cls_id)

    # unlabeled clutter: debris-like blobs, lower than people but with
    # footprints spanning the whole object size range
    for _ in range(int(rng.integers(cfg.clutter_min, cfg.clutter_max + 1))):
        pos = _place(rng, cfg.object_radius, taken, cfg.min_separation)
        dims = rng.uniform(0.4, 2.8, 2)
        h = rng.uniform(0.3, 1.1)
        yaw = rng.uniform(-math.pi, math.pi)
        n = int(rng.integers(25, 71))
        if pos is None:
            continue
        taken.append(pos)
        blob = Box3D(pos[0], pos[1], 0.5 * h, float(dims.min()), h, float(dims.max()), yaw)
        chunks.append(_sample_box_surface(rng, blob, n, cfg.surface_inset))
        intens.append(rng.uniform(0.1, 0.9, n))

    ground_xy = _sample_disc(rng, cfg.ground_radius, cfg.ground_points)
    ground_z = rng.normal(0.0, cfg.ground_sigma, cfg.ground_points)
    ground = np.column_stack([ground_xy, ground_z])
    ground_int = rng.uniform(0.05, 0.35, cfg.ground_points)
    # no returns from under objects: carve ground out of occupied footprints
    keep = np.ones(len(ground), dtype=bool)
    for x, y in taken:
        keep &= np.hypot(ground[:, 0] - x, ground[:, 1] - y) > 2.6
    chunks.append(ground[keep])
    intens.append(ground_int[keep])

    xyz = np.vstack(chunks) if chunks else np.empty((0, 3))
    inten = np.concatenate(intens) if intens else np.empty((0,))
    return Scene(scene_id, PointCloud(xyz, inten), boxes, classes)


def write_kitti_label(scene: Scene) -> str:
    """15-field KITTI-layout lines; unused 2D fields are -1, numerics %.2f."""
    lines = []
    for box, cls_id in zip(scene.gt_boxes, scene.gt_classes):
        name = CLASS_NAMES[cls_id - 1]
        vals = (-1, -1, -1, -1, -1, -1, -1, box.h, box.w, box.l, box.cx, box.cy, box.cz, box.r)
        lines.append(name + " " + " ".join(f"{v:.2f}" for v in vals))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_kitti_label(text: str) -> tuple[list[Box3D], list[int]]:
    """Inverse of :func:`write_kitti_label`; DontCare rows are tolerated and skipped."""
    boxes: list[Box3D] = []
    classes: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        fields = raw.split()
        if len(fields) != 15:
            raise KittiFormatError(f"line {line_no}: expected 15 fields, got {len(fields)}")
        token = fields[0]
        if token not in KNOWN_TOKENS:
            raise KittiFormatError(f"line {line_no}: unknown class token {token!r}")
        try:
            nums = [float(v) for v in fields[1:]]
        except ValueError as exc:
            raise KittiFormatError(f"line {line_no}: non-numeric field ({exc})") from None
        if token == "DontCare":
            continue
        h, w, l = nums[7], nums[8], nums[9]
        x, y, z, ry = nums[10], nums[11], nums[12], nums[13]
        try:
            boxes.append(Box3D(x, y, z, w, h, l, ry))
        except ValueError as exc:
            raise KittiFormatError(f"line {line_no}: {exc}") from None
        classes.append(CLASS_IDS[token])
    return boxes, classes


def write_bin_cloud(path, pc: PointCloud) -> None:
    """Little-endian float32 (x, y, z, intensity) quadruples."""
    arr = np.column_stack([pc.xyz, pc.intensity]).astype("<f4")
    arr.tofile(path)


def read_bin_cloud(path) -> PointCloud:
    raw = Path(path).read_bytes()
    if len(raw) % 16:
        raise BinFormatError(
            f"{path}: truncated record at byte {len(raw) - len(raw) % 16} (length {len(raw)})"
        )
    arr = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    if not np.isfinite(arr).all():  # whole-array tests; the bad record is sought on failure
        bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))[0]
        raise BinFormatError(f"{path}: non-finite value in record at byte {16 * bad}")
    if len(arr) and not 0.0 <= arr[:, 3].min() <= arr[:, 3].max() <= 1.0:
        bad = np.flatnonzero((arr[:, 3] < 0.0) | (arr[:, 3] > 1.0))[0]
        raise BinFormatError(f"{path}: intensity {float(arr[bad, 3])} outside [0, 1] "
                             f"in record at byte {16 * bad}")
    return PointCloud(arr[:, :3].astype(np.float64), arr[:, 3].astype(np.float64))


def split_sample(n_frames: int, spec: SplitSpec) -> tuple[list[str], list[str]]:
    """Partition frame ids into labeled/unlabeled, floor rounding with a 1-frame minimum."""
    if not 0.0 < spec.fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {spec.fraction}")
    if n_frames < 1:
        raise ValueError("n_frames must be positive")
    ids = [f"{i:06d}" for i in range(n_frames)]
    n_lab = max(1, int(math.floor(spec.fraction * n_frames)))
    perm = np.random.default_rng(spec.seed).permutation(n_frames)
    labeled = sorted(ids[i] for i in perm[:n_lab])
    unlabeled = sorted(ids[i] for i in perm[n_lab:])
    return labeled, unlabeled


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open the sibling temp file ``<path>.tmp`` for writing. Once the block
    completes, its contents are flushed to disk and it replaces ``path``; when
    the block raises, it is removed. So ``path`` holds either the earlier or
    the new contents, never a half-written file, even after a crash."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# dataset directory layout: <root>/points/<id>.bin, <root>/labels/<id>.txt,
# <root>/splits/<name>.txt (one id per line)
# ---------------------------------------------------------------------------

def save_scene(root, scene: Scene) -> None:
    root = Path(root)
    (root / "points").mkdir(parents=True, exist_ok=True)
    (root / "labels").mkdir(parents=True, exist_ok=True)
    write_bin_cloud(root / "points" / f"{scene.id}.bin", scene.cloud)
    (root / "labels" / f"{scene.id}.txt").write_text(write_kitti_label(scene))


def load_scene(root, scene_id: str) -> Scene:
    root = Path(root)
    cloud = read_bin_cloud(root / "points" / f"{scene_id}.bin")
    label_path = root / "labels" / f"{scene_id}.txt"
    try:
        boxes, classes = parse_kitti_label(label_path.read_text() if label_path.exists() else "")
    except KittiFormatError as exc:  # name the file, as the point and split readers do
        raise KittiFormatError(f"{label_path}: {exc}") from None
    return Scene(scene_id, cloud, boxes, classes)


def write_split(root, name: str, ids: list[str]) -> None:
    path = Path(root) / "splits"
    path.mkdir(parents=True, exist_ok=True)
    (path / f"{name}.txt").write_text("".join(f"{i}\n" for i in ids))


def read_split(root, name: str) -> list[str]:
    """Scene ids of a split file, whitespace-separated, so none is empty. An
    id is a file name stem inside the dataset, so ``.``, ``..`` or an id that
    holds a path separator or a NUL byte raises :class:`SplitFormatError`, and
    so does an id listed twice, which would count its scene twice."""
    path = Path(root) / "splits" / f"{name}.txt"
    ids = path.read_text().split()
    seen = set()
    for sid in ids:
        if sid in (".", "..") or any(c in sid for c in "/\\\0"):
            raise SplitFormatError(f"{path}: scene id {sid!r} is not a file name")
        if sid in seen:
            raise SplitFormatError(f"{path}: scene id {sid!r} is listed twice")
        seen.add(sid)
    return ids
