"""IDX files for the tests: the inverse of :func:`m2t.data.load_idx`.

The program only reads IDX files; the tests write their own.
"""

import struct

import numpy as np

from m2t.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC


def write_idx_images(samples01: np.ndarray, hw: tuple[int, int], path) -> None:
    """Inverse of the image half of load_idx (values in [0,1] -> bytes)."""
    rows, cols = hw
    n = samples01.shape[0]
    pixels = np.clip(np.round(samples01 * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(pixels.tobytes())


def write_idx_labels(labels: np.ndarray, path) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        f.write(np.asarray(labels, dtype=np.uint8).tobytes())
