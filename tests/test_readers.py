"""Property tests of the two binary readers, ``load_matrix`` and
``load_checkpoint``, of the two text readers, ``load_ids`` and
``load_manifest``, and of the memory the matrix reader holds."""

import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from icis import data
from icis.data import (SplitManifest, load_ids, load_manifest, load_matrix, save_ids, save_manifest,
                       save_matrix)
from icis.errors import IcisError
from icis.model import IcisModel, LossConfig, load_checkpoint, save_checkpoint
from icis.tensor import RngState

# float32-representable values, so the 32-bit container round-trips them exactly
_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_MATRICES = arrays(np.float32, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12), elements=_F32)
# chunk sizes that split the payloads drawn here, and the real one
_CHUNKS = st.sampled_from([1, 3, 8, data.READ_CHUNK])


def _mutations():
    """A change to a file's bytes: cut it short, extend it, or flip one bit."""
    return st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, 10**6)),
        st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
        st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 7)),
    )


def _mutate(raw: bytes, mutation) -> bytes:
    kind = mutation[0]
    if kind == "truncate":
        return raw[: mutation[1] % len(raw)]
    if kind == "extend":
        return raw + mutation[1]
    pos = mutation[1] % len(raw)
    return raw[:pos] + bytes([raw[pos] ^ (1 << mutation[2])]) + raw[pos + 1 :]


def _small_model(seed, d_a, d_w, hidden):
    """A model whose parameters are float32-representable."""
    model = IcisModel.init(d_a, d_w, hidden, RngState(seed))
    for layer in model.layers():
        layer.weight[...] = layer.weight.astype(np.float32)
        layer.bias[...] = RngState(seed + 1).normal(1, layer.bias.size).astype(np.float32)
    return model


@settings(deadline=None)
@given(_MATRICES, _CHUNKS)
def test_matrix_round_trip_is_exact(m, chunk):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(data, "READ_CHUNK", chunk):
        p = Path(tmp) / "m.wsmat"
        save_matrix(p, m)
        back = load_matrix(p)
    assert back.dtype == np.float32 and back.shape == m.shape
    assert np.array_equal(back, m.astype(np.float64))


def test_matrix_round_trip_over_several_read_chunks(tmp_path):
    m = RngState(5).normal(3, data.READ_CHUNK).astype(np.float32)
    m[2, -1] = 7.5
    save_matrix(tmp_path / "m.wsmat", m)
    assert np.array_equal(load_matrix(tmp_path / "m.wsmat"), m)


@settings(deadline=None)
@given(st.integers(0, 100), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), _CHUNKS)
def test_checkpoint_round_trip_is_exact(seed, d_a, d_w, hidden, chunk):
    model = _small_model(seed, d_a, d_w, hidden)
    config = LossConfig(distance="l2", use_w_to_a=False)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(data, "READ_CHUNK", chunk):
        p = Path(tmp) / "model.ckpt"
        save_checkpoint(p, model, config, seed=seed)
        back, back_config, meta = load_checkpoint(p)
    assert back_config == config and meta["seed"] == str(seed)
    for want, got in zip(model.layers(), back.layers()):
        assert np.array_equal(got.weight, want.weight) and np.array_equal(got.bias, want.bias)


@settings(deadline=None)
@given(_MATRICES, _mutations())
def test_a_damaged_matrix_file_raises_only_icis_errors(m, mutation):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "m.wsmat"
        save_matrix(p, m)
        p.write_bytes(_mutate(p.read_bytes(), mutation))
        try:
            load_matrix(p)
        except IcisError:
            pass


@settings(deadline=None)
@given(st.integers(0, 100), _mutations())
def test_a_damaged_checkpoint_raises_only_icis_errors(seed, mutation):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "model.ckpt"
        save_checkpoint(p, _small_model(seed, 2, 3, 2), LossConfig(), seed=seed)
        p.write_bytes(_mutate(p.read_bytes(), mutation))
        try:
            load_checkpoint(p)
        except IcisError:
            pass


def test_load_matrix_holds_the_result_and_one_chunk(tmp_path):
    p = tmp_path / "m.wsmat"
    save_matrix(p, RngState(9).normal(1024, 1024))
    tracemalloc.start()
    try:
        m = load_matrix(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 8 MiB of float64 plus one float32 chunk and its mask; reading the whole
    # file first and converting it held 1.5 times the result
    assert peak < 1.1 * m.nbytes


def _is_id(s: str) -> bool:
    """An id that a one-id-per-line file keeps as it is: one line with no
    surrounding whitespace."""
    return s.splitlines() == [s] and s.strip() == s


_IDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8).filter(_is_id)
# a manifest also reads "#..." as a comment and "[...]" as a section header
_MANIFEST_IDS = _IDS.filter(lambda s: not s.startswith("#") and not (s.startswith("[") and s.endswith("]")))


@settings(deadline=None)
@given(st.lists(_IDS, max_size=12))
def test_ids_round_trip_is_exact(ids):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "x.ids"
        save_ids(p, ids)
        assert load_ids(p) == ids


@settings(deadline=None)
@given(st.lists(_MANIFEST_IDS, unique=True, max_size=12), st.data())
def test_manifest_round_trip_is_exact(ids, draw):
    n_seen = draw.draw(st.integers(0, len(ids)))
    seen, unseen = ids[:n_seen], ids[n_seen:]
    val_seen = draw.draw(st.lists(st.sampled_from(seen), unique=True) if seen else st.just([]))
    manifest = SplitManifest(seen, unseen, val_seen)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "manifest.txt"
        save_manifest(p, manifest)
        assert load_manifest(p) == manifest


def _text_files():
    """Arbitrary bytes, or a valid manifest with one mutation."""
    valid = "[seen]\na\nb\n[unseen]\nc\n[val_seen]\na\n".encode("utf-8")
    return st.one_of(st.binary(max_size=64), _mutations().map(lambda m: _mutate(valid, m)))


@settings(deadline=None)
@given(_text_files())
def test_damaged_ids_and_manifests_raise_only_icis_errors(raw):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "f.txt"
        p.write_bytes(raw)
        for read in (load_ids, load_manifest):
            try:
                read(p)
            except IcisError:
                pass
