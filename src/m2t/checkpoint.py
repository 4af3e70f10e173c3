"""Versioned binary checkpoint container for teacher dumps.

Layout: an 8-byte magic, a little-endian u32 format version, a u32 header
length, a JSON header (encoder spec, BN metadata, array index with shapes,
in a fixed order), then the raw array payload as little-endian float64 in
header order. The loader rejects unknown versions and requires the array
name set to match the encoder spec exactly.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .model import MlpSpec, expected_array_names

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
    index = [{"name": name, "shape": list(arr.shape)}
             for name, arr in arrays.items()]
    header = {
        "encoder_spec": payload["encoder_spec"],
        "bn_initialized": payload.get("bn_initialized", []),
        "bn_eps": payload.get("bn_eps", []),
        "arrays": index,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<I", len(header_bytes)))
        f.write(header_bytes)
        for name, arr in arrays.items():
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
        header = json.loads(buf[16:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header ({e})") from None

    try:
        spec = MlpSpec.from_dict(header["encoder_spec"])
        names = [entry["name"] for entry in header["arrays"]]
        shapes = [tuple(entry["shape"]) for entry in header["arrays"]]
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(
            f"{path}: malformed header ({type(e).__name__}: {e})") from None
    if set(names) != expected_array_names(spec):
        raise CheckpointError(
            f"{path}: array names {sorted(names)} do not match the encoder "
            f"spec's expected set")

    arrays = {}
    offset = header_end
    for name, shape in zip(names, shapes):
        count = int(np.prod(shape)) if shape else 1
        end = offset + count * 8
        if len(buf) < end:
            raise CheckpointError(f"{path}: truncated array {name}")
        arrays[name] = np.frombuffer(
            buf[offset:end], dtype="<f8").reshape(shape).astype(np.float64)
        offset = end
    if offset != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - offset} trailing bytes")
    return {
        "version": version,
        "encoder_spec": header["encoder_spec"],
        "bn_initialized": header.get("bn_initialized", []),
        "bn_eps": header.get("bn_eps", []),
        "arrays": arrays,
    }
