"""Versioned binary container: a JSON header plus named float64 arrays.

Layout: an 8-byte magic, a little-endian u32 format version, a u32 header
length, a JSON header, then the arrays as little-endian float64 in header
order. The header holds every payload key but ``arrays`` as is, and under
``arrays`` one ``{"name", "shape"}`` entry per array. The loader returns
exactly the saved payload and rejects unknown versions and malformed
containers; what the arrays mean is up to the payload's reader, e.g.
:func:`m2t.model.load_teacher` for teacher dumps.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

MAGIC = b"M2TCKPT\x00"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


class CheckpointVersionError(CheckpointError):
    def __init__(self, found: int):
        super().__init__(
            f"checkpoint format version {found} not supported "
            f"(expected {FORMAT_VERSION})")
        self.found = found


def save_checkpoint(payload: dict, path) -> None:
    arrays = payload["arrays"]
    header = dict(payload, arrays=[{"name": name, "shape": list(arr.shape)}
                                   for name, arr in arrays.items()])
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<I", len(header_bytes)))
        f.write(header_bytes)
        for arr in arrays.values():
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> dict:
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    if len(buf) < 16:
        raise CheckpointError(f"{path}: truncated header")
    version = struct.unpack_from("<I", buf, 8)[0]
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(version)
    header_len = struct.unpack_from("<I", buf, 12)[0]
    header_end = 16 + header_len
    if len(buf) < header_end:
        raise CheckpointError(f"{path}: truncated header")
    try:
        payload = json.loads(buf[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header ({e})") from None

    index = payload.get("arrays") if isinstance(payload, dict) else None
    if not isinstance(index, list):
        raise CheckpointError(f"{path}: malformed header (no array index)")
    arrays = {}
    offset = header_end
    for entry in index:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and entry["name"] not in arrays
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise CheckpointError(f"{path}: bad array index entry {entry!r} "
                                  f"(need a new name, non-negative int shape)")
        name, shape = entry["name"], entry["shape"]
        end = offset + 8 * math.prod(shape)
        if len(buf) < end:
            raise CheckpointError(f"{path}: truncated array {name}")
        arrays[name] = np.frombuffer(
            buf[offset:end], dtype="<f8").reshape(shape).astype(np.float64)
        offset = end
    if offset != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - offset} trailing bytes")
    payload["arrays"] = arrays
    return payload
