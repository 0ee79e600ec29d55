"""Checkpoint container: versioned text header + named float64 arrays.

Layout: a magic line, a JSON header line (metadata plus array names,
shapes and byte lengths in storage order, and the sha256 of the
payload), a blank line, then the raw little-endian float64 array
payloads concatenated in header order. Round trips are bit-exact. A
short, overlong or corrupt payload raises ValueError. Version 1 files
(no byte lengths, no hash) are still read.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

MAGIC = "RICHLAB-CHECKPOINT v2"
MAGIC_V1 = "RICHLAB-CHECKPOINT v1"
HASH_KEY = "payload_sha256"


def save_checkpoint(path, metadata: dict, arrays: dict):
    """Write named float64 arrays with a metadata header."""
    payloads = {k: np.ascontiguousarray(arrays[k], dtype="<f8").tobytes()
                for k in arrays}
    header = dict(metadata)
    header["arrays"] = [{"name": k, "shape": list(np.shape(arrays[k])),
                         "nbytes": len(payloads[k])} for k in payloads]
    digest = hashlib.sha256()
    for buf in payloads.values():
        digest.update(buf)
    header[HASH_KEY] = digest.hexdigest()
    with open(path, "wb") as fh:
        fh.write((MAGIC + "\n").encode())
        fh.write((json.dumps(header) + "\n\n").encode())
        for buf in payloads.values():
            fh.write(buf)


def load_checkpoint(path, kind=None):
    """Read back (metadata, arrays); inverse of :func:`save_checkpoint`.
    Given a ``kind``, a file whose header names another kind is refused
    before its payload is read, by a ValueError that names both."""
    with open(path, "rb") as fh:
        magic = fh.readline().decode().rstrip("\n")
        if magic not in (MAGIC, MAGIC_V1):
            raise ValueError(f"not a checkpoint file (banner {magic!r})")
        header = json.loads(fh.readline().decode())
        if kind is not None and header.get("kind") != kind:
            raise ValueError(f"{path} holds a checkpoint of kind "
                             f"{header.get('kind')!r}, not {kind!r}")
        if fh.readline() not in (b"\n", b""):
            raise ValueError("malformed checkpoint header")
        expected_hash = header.pop(HASH_KEY, None) if magic == MAGIC else None
        digest = hashlib.sha256()
        arrays = {}
        for entry in header.pop("arrays"):
            name, shape = entry["name"], tuple(entry["shape"])
            nbytes = 8 * (int(np.prod(shape)) if shape else 1)
            if magic == MAGIC and entry["nbytes"] != nbytes:
                raise ValueError(
                    f"checkpoint array {name!r} of shape {shape} needs "
                    f"{nbytes} bytes, but the header lists {entry['nbytes']}")
            buf = fh.read(nbytes)
            if len(buf) != nbytes:
                raise ValueError(
                    f"checkpoint array {name!r} is truncated: expected "
                    f"{nbytes} bytes, got {len(buf)}")
            digest.update(buf)
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        trailing = len(fh.read())
    if trailing:
        raise ValueError(f"checkpoint has {trailing} bytes after its last array")
    if magic == MAGIC and digest.hexdigest() != expected_hash:
        raise ValueError(
            f"checkpoint payload sha256 mismatch: header {expected_hash}, "
            f"payload {digest.hexdigest()}")
    return header, arrays
