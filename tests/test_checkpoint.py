import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from richlab.checkpoint import MAGIC, load_checkpoint, save_checkpoint


def sample_arrays():
    rng = np.random.default_rng(0)
    return {"W0": rng.standard_normal((4, 3)), "b0": rng.standard_normal(4),
            "scale": np.float64(2.5)}


finite_arrays = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
    elements=st.floats(allow_nan=False, allow_infinity=True, width=64))


@given(arrays=st.dictionaries(st.text("abcxyz_", min_size=1, max_size=5),
                              finite_arrays, max_size=4),
       meta=st.dictionaries(st.sampled_from(["n", "note"]),
                            st.integers(-5, 5)))
def test_round_trip_is_bit_exact(tmp_path_factory, arrays, meta):
    path = tmp_path_factory.mktemp("ck") / "a.ckpt"
    meta = {"kind": "x", **meta}
    save_checkpoint(path, meta, arrays)
    got_meta, got = load_checkpoint(path, "x")
    assert got_meta == meta
    assert list(got) == list(arrays)
    for k in arrays:
        assert got[k].shape == np.shape(arrays[k])
        assert got[k].tobytes() == np.asarray(arrays[k]).tobytes()


def test_header_records_lengths_and_hash(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {"kind": "x"}, sample_arrays())
    lines = path.read_bytes().split(b"\n", 2)
    assert lines[0].decode() == MAGIC
    header = json.loads(lines[1])
    assert [e["nbytes"] for e in header["arrays"]] == [96, 32, 8]
    assert len(header["payload_sha256"]) == 64


def test_version_1_banner_is_refused(tmp_path):
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, {"kind": "x"}, sample_arrays())
    path.write_bytes(path.read_bytes().replace(MAGIC.encode(),
                                               b"RICHLAB-CHECKPOINT v1", 1))
    with pytest.raises(ValueError, match="banner 'RICHLAB-CHECKPOINT v1'") \
            as refused:
        load_checkpoint(path, "x")
    assert str(path) in str(refused.value)


@pytest.mark.parametrize("cut", [1, 8, 40])
def test_truncated_file_names_array_and_sizes(tmp_path, cut):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {"kind": "x"}, sample_arrays())
    path.write_bytes(path.read_bytes()[:-cut])
    name, size = {1: ("scale", 7), 8: ("scale", 0), 40: ("b0", 0)}[cut]
    expected = {"scale": 8, "b0": 32}[name]
    with pytest.raises(ValueError, match=f"'{name}' is truncated: expected "
                                         f"{expected} bytes, got {size}"):
        load_checkpoint(path, "x")


def test_flipped_payload_byte_fails_the_hash(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {"kind": "x"}, sample_arrays())
    raw = bytearray(path.read_bytes())
    raw[-20] ^= 0x01   # inside b0
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="sha256 mismatch"):
        load_checkpoint(path, "x")


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {"kind": "x"}, sample_arrays())
    path.write_bytes(path.read_bytes() + b"\0" * 8)
    with pytest.raises(ValueError, match="8 bytes after its last array"):
        load_checkpoint(path, "x")


def test_header_length_disagreeing_with_shape_rejected(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {"kind": "x"}, sample_arrays())
    magic, header, rest = path.read_bytes().split(b"\n", 2)
    meta = json.loads(header)
    meta["arrays"][1]["nbytes"] = 24
    path.write_bytes(b"\n".join([magic, json.dumps(meta).encode(), rest]))
    with pytest.raises(ValueError, match="'b0' of shape \\(4,\\) needs 32 "
                                         "bytes, but the header lists 24"):
        load_checkpoint(path, "x")


@pytest.mark.parametrize("header", [
    b'{"kind": "x", "arrays": [', b'\xff{}', b'["kind", "x"]', b'"x"',
    b'{"kind": "x"}', b'{"kind": "x", "arrays": 3}',
    b'{"kind": "x", "arrays": {"a": 1}}',
    b'{"kind": "x", "arrays": [{"name": "a", "shape": [2]}]}',
    b'{"kind": "x", "arrays": [{"name": "a", "shape": [2.5], "nbytes": 16}]}',
    b'{"kind": "x", "arrays": [{"name": "a", "shape": [-1], "nbytes": 8}]}',
    b'{"kind": "x", "arrays": [{"name": "a", "shape": 2, "nbytes": 16}]}',
    b'{"kind": "x", "arrays": [{"name": "a", "shape": [2], "nbytes": "16"}]}',
    b'{"kind": "x", "arrays": [{"name": "a", "shape": [], "nbytes": true}]}',
    b'{"kind": "x", "arrays": [{"name": 3, "shape": [1], "nbytes": 8}]}',
], ids=["cut", "not-utf8", "list", "string", "no-arrays", "arrays-int",
        "arrays-dict", "no-nbytes", "shape-float", "shape-negative",
        "shape-int", "nbytes-string", "nbytes-bool", "name-int"])
def test_malformed_header_names_the_path(tmp_path, header):
    path = tmp_path / "a.ckpt"
    path.write_bytes(MAGIC.encode() + b"\n" + header + b"\n\n")
    with pytest.raises(ValueError) as refused:
        load_checkpoint(path, "x")
    assert str(refused.value).startswith(
        f"{path}: checkpoint header is not a JSON object listing its arrays")
