"""Datasets (synthetic clusters, IDX files) and two-view augmentation.

Vector data gets scale jitter, additive Gaussian noise and random
coordinate masking; flattened images additionally support horizontal flip
and pad-and-crop before the vector augmentations. Solarization (x -> 1 - x
where x > 0.5) is applied with a per-view probability: view one, the
student's, uses ``solarize_prob_student`` (default 0) and view two, the
teacher's, ``solarize_prob_teacher`` (default 0.2), the one deliberately
asymmetric element of the augmentation recipe.

All randomness comes from the seed passed to :func:`make_views`, drawn in
a fixed documented order, so identical seeds give identical views.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

SOLARIZE_THRESHOLD = 0.5


class IdxFormatError(ValueError):
    """Malformed IDX file; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class NonFiniteDataError(ValueError):
    """A dataset's samples are not all finite."""


@dataclass
class Dataset:
    samples: np.ndarray  # N x d, float64
    labels: np.ndarray   # N, int64
    source: str = "synthetic"
    num_classes: int = 0
    image_hw: Optional[tuple[int, int]] = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.samples.ndim != 2:
            raise ValueError(f"samples must be 2-D, got shape {self.samples.shape}")
        if self.labels.shape != (self.samples.shape[0],):
            raise ValueError(
                f"{self.labels.shape[0]} labels for {self.samples.shape[0]} samples")
        if not np.isfinite(self.samples).all():
            raise NonFiniteDataError("dataset contains non-finite values")
        if self.num_classes == 0:
            self.num_classes = int(self.labels.max()) + 1 if len(self.labels) else 0
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


@dataclass
class AugmentSpec:
    noise_std: float = 0.0
    mask_prob: float = 0.0
    scale_range: tuple[float, float] = (1.0, 1.0)
    flip: bool = False
    crop_pad: int = 0
    solarize_prob_student: float = 0.0
    solarize_prob_teacher: float = 0.2

    def __post_init__(self):
        for name in ("mask_prob", "solarize_prob_student", "solarize_prob_teacher"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        lo, hi = self.scale_range
        if not 0.0 < lo <= hi:
            raise ValueError(f"scale_range must be positive and ordered, got "
                             f"{self.scale_range}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.crop_pad < 0:
            raise ValueError(f"crop_pad must be >= 0, got {self.crop_pad}")


# ---------------------------------------------------------------------------
# synthetic data


# A spread that overflows float64 is left to Dataset's finiteness check.
@np.errstate(over="ignore")
def synth_clusters(num_classes: int, dim: int, per_class: int, spread: float,
                   seed: int) -> Dataset:
    """Gaussian class clusters: each class mean is a seeded random direction
    of unit norm, samples are mean + spread * standard normal."""
    if num_classes < 2:
        raise ValueError(f"need >= 2 classes, got {num_classes}")
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    samples = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        samples[block] = means[c] + spread * rng.normal(size=(per_class, dim))
        labels[block] = c
    return Dataset(samples=samples, labels=labels, source="synthetic",
                   num_classes=num_classes)


# ---------------------------------------------------------------------------
# IDX files


def _read_be32(buf: bytes, offset: int) -> int:
    if offset + 4 > len(buf):
        raise IdxFormatError("truncated header", offset)
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx(images_path, labels_path=None) -> Dataset:
    """Load a big-endian IDX image file (and optional paired label file).

    Pixels are scaled to [0, 1] and images are flattened into row vectors;
    the original height/width is retained for image-aware augmentation.
    Without a label file all labels are zero (fine for pretraining, useless
    for evaluation).
    """
    with open(images_path, "rb") as f:
        buf = f.read()
    magic = _read_be32(buf, 0)
    if magic != IDX_IMAGES_MAGIC:
        raise IdxFormatError(f"bad image magic 0x{magic:08x}", 0)
    count = _read_be32(buf, 4)
    rows = _read_be32(buf, 8)
    cols = _read_be32(buf, 12)
    if count * rows * cols == 0:
        raise IdxFormatError(f"no pixels: {count} x {rows} x {cols}", 4)
    need = 16 + count * rows * cols
    if len(buf) < need:
        raise IdxFormatError(
            f"file ends before {count} x {rows} x {cols} pixels", len(buf))
    pixels = np.frombuffer(buf, dtype=np.uint8, count=count * rows * cols,
                           offset=16)
    samples = pixels.reshape(count, rows * cols).astype(np.float64)
    samples /= 255.0  # in place: one image-sized float64 array, not two

    if labels_path is None:
        labels = np.zeros(count, dtype=np.int64)
        num_classes = 1
    else:
        with open(labels_path, "rb") as f:
            lbuf = f.read()
        lmagic = _read_be32(lbuf, 0)
        if lmagic != IDX_LABELS_MAGIC:
            raise IdxFormatError(f"bad label magic 0x{lmagic:08x}", 0)
        lcount = _read_be32(lbuf, 4)
        if lcount != count:
            raise IdxFormatError(
                f"label count {lcount} does not match image count {count}", 4)
        if len(lbuf) < 8 + lcount:
            raise IdxFormatError("file ends before labels", len(lbuf))
        labels = np.frombuffer(lbuf, dtype=np.uint8, count=lcount,
                               offset=8).astype(np.int64)
        num_classes = int(labels.max()) + 1
    return Dataset(samples=samples, labels=labels, source="idx_file",
                   num_classes=num_classes, image_hw=(rows, cols))


# ---------------------------------------------------------------------------
# augmentation


def _augment_one_view(batch: np.ndarray, spec: AugmentSpec, prob: float,
                      rng: np.random.Generator,
                      image_hw: Optional[tuple[int, int]]) -> np.ndarray:
    n, d = batch.shape
    out = batch.copy()

    # Image-space transforms first, on the unflattened view.
    if image_hw is not None and (spec.flip or spec.crop_pad > 0):
        h, w = image_hw
        imgs = out.reshape(n, h, w)
        if spec.flip:
            flips = rng.random(n) < 0.5
            imgs[flips] = imgs[flips, :, ::-1]
        if spec.crop_pad > 0:
            pad = spec.crop_pad
            padded = np.pad(imgs, ((0, 0), (pad, pad), (pad, pad)))
            offs = rng.integers(0, 2 * pad + 1, size=(n, 2))
            imgs = np.stack([padded[i, r:r + h, c:c + w]
                             for i, (r, c) in enumerate(offs)])
        out = imgs.reshape(n, d)

    lo, hi = spec.scale_range
    if (lo, hi) != (1.0, 1.0):
        out = out * rng.uniform(lo, hi, size=(n, 1))
    if spec.noise_std > 0:
        out = out + spec.noise_std * rng.standard_normal(size=(n, d))
    if spec.mask_prob > 0:
        out = out * (rng.random(size=(n, d)) >= spec.mask_prob)

    if prob > 0:
        hit = rng.random(n) < prob
        sol = out[hit]
        out[hit] = np.where(sol > SOLARIZE_THRESHOLD, 1.0 - sol, sol)
    return out


def make_views(batch: np.ndarray, spec: AugmentSpec, seed: int,
               image_hw: Optional[tuple[int, int]] = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Two independently augmented views of the batch, (v, v').

    The first view solarizes with the student-side probability and the
    second with the teacher-side one. View one consumes the seeded stream
    first, then view two, always in the same internal draw order.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2:
        raise ValueError(f"batch must be 2-D, got shape {batch.shape}")
    rng = np.random.default_rng(seed)
    v = _augment_one_view(batch, spec, spec.solarize_prob_student, rng,
                          image_hw)
    v2 = _augment_one_view(batch, spec, spec.solarize_prob_teacher, rng,
                           image_hw)
    return v, v2
