"""Checkpoint container: versioned text header + named float64 arrays.

Layout: a magic line, a JSON header line (metadata plus array names,
shapes and byte lengths in storage order, and the sha256 of the
payload), a blank line, then the raw little-endian float64 array
payloads concatenated in header order. Round trips are bit-exact. A
file of another banner, a malformed header, or a short, overlong or
corrupt payload raises ValueError.
"""
from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager

import numpy as np

MAGIC = "RICHLAB-CHECKPOINT v2"
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


def load_checkpoint(path, kind):
    """Read back (metadata, arrays); inverse of :func:`save_checkpoint`.
    Before any payload is read, a ValueError naming ``path`` refuses a
    banner other than MAGIC, a header that is not a JSON object listing
    its arrays as {name, shape, nbytes}, and a kind other than ``kind``."""
    with open(path, "rb") as fh:
        magic = fh.readline().decode(errors="replace").rstrip("\n")
        if magic != MAGIC:
            raise ValueError(f"{path} is not a checkpoint file: banner "
                             f"{magic!r}, expected {MAGIC!r}")
        try:
            header = json.loads(fh.readline())
            entries = [(e["name"], tuple(e["shape"]), e["nbytes"])
                       for e in header.pop("arrays")]
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise ValueError(f"{path}: checkpoint header is not a JSON "
                             f"object listing its arrays ({exc!r})") from None
        if header.get("kind") != kind:
            raise ValueError(f"{path} holds a checkpoint of kind "
                             f"{header.get('kind')!r}, not {kind!r}")
        if fh.readline() not in (b"\n", b""):
            raise ValueError(f"{path}: malformed checkpoint header")
        expected_hash = header.pop(HASH_KEY, None)
        digest = hashlib.sha256()
        arrays = {}
        for name, shape, listed in entries:
            nbytes = 8 * (int(np.prod(shape)) if shape else 1)
            if listed != nbytes:
                raise ValueError(
                    f"checkpoint array {name!r} of shape {shape} needs "
                    f"{nbytes} bytes, but the header lists {listed}")
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
    if digest.hexdigest() != expected_hash:
        raise ValueError(
            f"checkpoint payload sha256 mismatch: header {expected_hash}, "
            f"payload {digest.hexdigest()}")
    return header, arrays


@contextmanager
def missing_entries_refused(path):
    """Turns a KeyError within, a header key or array that a reader of the
    checkpoint at ``path`` lacks, into a ValueError naming it and path."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{path} lacks the checkpoint entry "
                         f"{exc.args[0]!r}") from None
