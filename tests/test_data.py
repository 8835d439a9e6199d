"""Tests for file formats, data containers, splits, and the synthetic task."""

import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from icis import data
from icis.baselines import conse_combine, costa_weights, vgse_smo_weights, vgse_wavg_weights
from icis.data import (
    ClassifierHead,
    DescriptorSet,
    FeatureSet,
    MATRIX_MAGIC,
    PairSet,
    SplitManifest,
    biases_path_for,
    ids_path_for,
    load_classifier_head,
    load_descriptor_set,
    load_feature_set,
    load_ids,
    load_manifest,
    load_matrix,
    make_pairs,
    save_ids,
    save_manifest,
    save_matrix,
    subsample_pairs,
    synth_generate,
)
from icis.errors import ClassIdError, DataFormatError, IcisError
from icis.evaluation import evaluate
from icis.model import inject

# ---------------------------------------------------------------------------
# matrix container


def test_matrix_round_trip(tmp_path):
    # values exactly representable in the 32-bit on-disk format
    m = np.array([[1.5, -2.25], [0.0, 4.0], [0.125, 3e4]])
    p = tmp_path / "m.wsmat"
    save_matrix(p, m)
    assert np.array_equal(load_matrix(p), m)


def test_matrix_round_trip_rounds_to_32_bit(tmp_path):
    p = tmp_path / "m.wsmat"
    save_matrix(p, [[1e-3]])
    back = load_matrix(p)
    assert back[0, 0] == np.float64(np.float32(1e-3))


def test_matrix_bytes_are_exactly_as_documented(tmp_path):
    p = tmp_path / "m.wsmat"
    save_matrix(p, [[1.0, 2.0], [3.0, 4.0]])
    raw = p.read_bytes()
    expected = MATRIX_MAGIC + struct.pack("<II", 2, 2) + struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)
    assert raw == expected


def test_matrix_hand_authored_bytes_load(tmp_path):
    p = tmp_path / "hand.wsmat"
    p.write_bytes(b"WSMAT01\n" + struct.pack("<II", 2, 2) + struct.pack("<4f", 1, 2, 3, 4))
    assert load_matrix(p).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_matrix_zero_by_zero(tmp_path):
    p = tmp_path / "empty.wsmat"
    save_matrix(p, np.zeros((0, 0)))
    out = load_matrix(p)
    assert out.shape == (0, 0)


def test_matrix_zero_rows_nonzero_cols(tmp_path):
    p = tmp_path / "norows.wsmat"
    save_matrix(p, np.zeros((0, 5)))
    assert load_matrix(p).shape == (0, 5)


def test_matrix_bad_magic_reports_offset_zero(tmp_path):
    p = tmp_path / "bad.wsmat"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(DataFormatError) as err:
        load_matrix(p)
    assert err.value.offset == 0


def test_matrix_truncated_payload_reports_file_length(tmp_path):
    p = tmp_path / "trunc.wsmat"
    full = MATRIX_MAGIC + struct.pack("<II", 2, 2) + struct.pack("<4f", 1, 2, 3, 4)
    p.write_bytes(full[:-6])
    with pytest.raises(DataFormatError) as err:
        load_matrix(p)
    assert err.value.offset == len(full) - 6


def test_matrix_trailing_bytes_are_an_error(tmp_path):
    p = tmp_path / "trail.wsmat"
    p.write_bytes(MATRIX_MAGIC + struct.pack("<II", 1, 1) + struct.pack("<f", 2.5) + b"xx")
    with pytest.raises(DataFormatError) as err:
        load_matrix(p)
    assert "trailing" in str(err.value)


def test_matrix_nonfinite_payload_is_an_error(tmp_path):
    p = tmp_path / "nan.wsmat"
    p.write_bytes(MATRIX_MAGIC + struct.pack("<II", 1, 1) + struct.pack("<f", float("nan")))
    with pytest.raises(DataFormatError):
        load_matrix(p)


@pytest.mark.parametrize("chunk", [None, 2])
def test_matrix_nonfinite_value_reports_its_byte(tmp_path, monkeypatch, chunk):
    # a 2 x 3 payload whose 5th value is NaN: bytes 16 + 4 * 4 = 32; with
    # two-value chunks it is found in the third chunk
    if chunk is not None:
        monkeypatch.setattr("icis.data.READ_CHUNK", chunk)
    p = tmp_path / "nan.wsmat"
    p.write_bytes(MATRIX_MAGIC + struct.pack("<II", 2, 3) + struct.pack("<6f", 1, 2, 3, 4, float("nan"), 6))
    with pytest.raises(DataFormatError, match=r"byte 32\).*non-finite") as err:
        load_matrix(p)
    assert err.value.offset == 32


def test_matrix_save_rejects_nonfinite(tmp_path):
    with pytest.raises(IcisError):
        save_matrix(tmp_path / "x.wsmat", [[np.inf]])


@pytest.mark.parametrize("bad", [1e39, -1e39, float("nan")])
def test_matrix_save_rejects_what_float32_cannot_hold_and_writes_nothing(tmp_path, bad):
    p = tmp_path / "x.wsmat"
    with pytest.raises(IcisError, match="float32"):
        save_matrix(p, [[bad, 1.0]])
    assert not p.exists()


def test_matrix_float32_max_round_trips(tmp_path):
    top = float(np.finfo(np.float32).max)
    save_matrix(tmp_path / "x.wsmat", [[top, -top]])
    assert load_matrix(tmp_path / "x.wsmat").tolist() == [[top, -top]]


@pytest.mark.parametrize("weights, biases", [([[1e39, 1.0], [0.0, 1.0]], None),
                                             ([[1.0, 0.0], [0.0, 1.0]], [0.0, 1e39])])
def test_head_save_rejects_what_float32_cannot_hold_and_writes_nothing(tmp_path, weights, biases):
    head = ClassifierHead(["a", "b"], weights, biases)
    with pytest.raises(IcisError, match="float32"):
        head.save(tmp_path / "h.wsmat")
    assert list(tmp_path.iterdir()) == []


def test_matrix_missing_file(tmp_path):
    with pytest.raises(DataFormatError):
        load_matrix(tmp_path / "does-not-exist.wsmat")


def test_csv_round_trip(tmp_path):
    m = np.array([[1.0, -2.5], [3.25, 0.0]])
    p = tmp_path / "m.csv"
    save_matrix(p, m)
    assert np.allclose(load_matrix(p), m, atol=0)
    # header row present
    assert p.read_text().splitlines()[0].count(",") == 1


def test_csv_ragged_row_is_an_error(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(DataFormatError) as err:
        load_matrix(p)
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("bad", ["nan", "1e400", "-inf"])
def test_csv_non_finite_value_names_its_line(tmp_path, bad):
    p = tmp_path / "nonfinite.csv"
    p.write_text(f"a,b\n1,2\n3,{bad}\n5,6\n")
    with pytest.raises(DataFormatError, match="line 3: non-finite"):
        load_matrix(p)


def test_csv_non_numeric_is_an_error(tmp_path):
    p = tmp_path / "alpha.csv"
    p.write_text("a,b\n1,banana\n")
    with pytest.raises(DataFormatError):
        load_matrix(p)


def test_csv_empty_file_is_an_error(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(DataFormatError):
        load_matrix(p)


@pytest.mark.parametrize("payload, message", [
    (b"a,b\n1,2\n3,\xff\n", " (byte 10): not UTF-8: invalid start byte"),
    (b"a\n1\n" + b"2" * 131073 + b"\n", ": line 3: field larger than field limit (131072)"),
], ids=["not-utf8", "field-over-limit"])
def test_csv_undecodable_or_oversized_input_is_a_data_error(tmp_path, payload, message):
    p = tmp_path / "bad.csv"
    p.write_bytes(payload)
    with pytest.raises(DataFormatError) as err:
        load_matrix(p)
    # the offset or line locates the problem, and nothing escapes as a csv or decoding error
    assert str(err.value) == f"{p}{message}"


def test_ids_round_trip(tmp_path):
    p = tmp_path / "m.ids"
    save_ids(p, ["c001", "c002", "zebra"])
    assert load_ids(p) == ["c001", "c002", "zebra"]


@pytest.mark.parametrize("bad", ["", " b", "b ", "\tb", "c\nd", "c\rd", "c\x0bd", "c\u2028d"])
def test_ids_that_would_not_read_back_are_refused_before_any_file_is_written(tmp_path, bad):
    with pytest.raises(ClassIdError, match="would not read back"):
        save_ids(tmp_path / "m.ids", ["a", bad, "c"])
    with pytest.raises(ClassIdError, match="would not read back"):
        DescriptorSet(["a", bad], np.eye(2)).save(tmp_path / "d.wsmat")
    with pytest.raises(ClassIdError, match="would not read back"):
        save_manifest(tmp_path / "split.txt", SplitManifest(["a"], [bad]))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", ["#a", "[x]", "[seen]"])
def test_manifest_ids_that_would_read_as_comments_or_headers_are_refused(tmp_path, bad):
    with pytest.raises(ClassIdError, match="comment or a section header"):
        save_manifest(tmp_path / "split.txt", SplitManifest(["b", bad], ["y"]))
    assert not (tmp_path / "split.txt").exists()
    # an ids sidecar has neither comments nor sections
    save_ids(tmp_path / "m.ids", [bad])
    assert load_ids(tmp_path / "m.ids") == [bad]


# printable ids without spaces, and ids built from the characters that readers strip, skip or split at
_IDS = st.one_of(st.text(st.characters(blacklist_categories=("Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=4),
                 st.text(alphabet="ab #[]\t\n\r\x0b\x1c\x85\u2028 ", max_size=4))


@given(ids=st.lists(_IDS, max_size=6, unique=True), n_seen=st.integers(0, 6))
def test_every_accepted_id_reads_back_as_itself(ids, n_seen):
    with tempfile.TemporaryDirectory() as tmp:
        sidecar, manifest = Path(tmp) / "m.ids", Path(tmp) / "split.txt"
        try:
            save_ids(sidecar, ids)
        except ClassIdError:
            assert not sidecar.exists()
        else:
            assert load_ids(sidecar) == ids
        split = SplitManifest(ids[:n_seen], ids[n_seen:])
        try:
            save_manifest(manifest, split)
        except ClassIdError:
            assert not manifest.exists()
        else:
            back = load_manifest(manifest)
            assert (back.seen, back.unseen) == (split.seen, split.unseen)


def test_ids_and_manifest_that_are_not_utf8_are_format_errors(tmp_path):
    p = tmp_path / "m.ids"
    p.write_bytes(b"c001\nc0\xff2\n")
    with pytest.raises(DataFormatError, match="byte 7.*not UTF-8") as exc:
        load_ids(p)
    assert exc.value.path == str(p) and exc.value.offset == 7
    p = tmp_path / "split.txt"
    p.write_bytes(b"[seen]\n\xe9\n")
    with pytest.raises(DataFormatError, match="byte 7.*not UTF-8"):
        load_manifest(p)


def test_ids_path_swaps_suffix(tmp_path):
    assert ids_path_for(tmp_path / "head.wsmat").name == "head.ids"


# ---------------------------------------------------------------------------
# containers


def test_descriptor_set_lookup_and_subset():
    ds = DescriptorSet(["a", "b", "c"], np.eye(3))
    assert ds.matrix.shape[1] == 3
    assert ds.vector("b").tolist() == [0.0, 1.0, 0.0]
    sub = ds.subset(["c", "a"])
    assert sub.class_ids == ["c", "a"]
    assert sub.matrix.tolist() == [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]


def test_descriptor_set_duplicate_id_is_an_error():
    with pytest.raises(ClassIdError):
        DescriptorSet(["a", "a"], np.eye(2))


def test_descriptor_set_unknown_id_is_an_error():
    ds = DescriptorSet(["a"], np.ones((1, 2)))
    with pytest.raises(ClassIdError):
        ds.vector("nope")


def test_descriptor_set_row_count_mismatch():
    with pytest.raises(ClassIdError):
        DescriptorSet(["a", "b"], np.ones((3, 2)))


def test_descriptor_set_round_trip(tmp_path):
    ds = DescriptorSet(["x", "y"], [[1.0, 2.0], [3.0, 4.0]])
    ds.save(tmp_path / "d.wsmat")
    back = load_descriptor_set(tmp_path / "d.wsmat")
    assert back.class_ids == ["x", "y"]
    assert np.array_equal(back.matrix, ds.matrix)


def test_head_rejects_zero_norm_rows():
    with pytest.raises(IcisError):
        ClassifierHead(["a", "b"], [[1.0, 0.0], [0.0, 0.0]])


def test_a_zero_norm_head_row_is_named_by_its_first_class():
    with pytest.raises(IcisError, match="zero-norm weight rows, first of class 'b'$"):
        ClassifierHead(["a", "b", "c"], [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])


def test_head_logits_with_and_without_bias():
    head = ClassifierHead(["a", "b"], [[1.0, 0.0], [0.0, 2.0]], biases=[0.5, -1.0])
    x = np.array([[1.0, 1.0]])
    assert head.logits(x).tolist() == [[1.5, 1.0]]
    plain = ClassifierHead(["a", "b"], [[1.0, 0.0], [0.0, 2.0]])
    assert plain.logits(x).tolist() == [[1.0, 2.0]]


def test_head_logits_are_float32_only_when_both_sides_are():
    w32 = np.array([[1.0, 0.5], [0.25, 2.0]], dtype=np.float32)
    x32 = np.array([[1.0, 3.0]], dtype=np.float32)
    for weights in (w32, w32.astype(np.float64)):
        for biases in (None, [0.5, -1.0]):
            head = ClassifierHead(["a", "b"], weights, biases)
            for x in (x32, x32.astype(np.float64), x32.tolist()):
                narrow = head.weights.dtype == np.float32 and getattr(x, "dtype", None) == np.float32
                scores = head.logits(x)
                assert scores.dtype == (np.float32 if narrow else np.float64)
                assert scores.tolist() == (x32.astype(np.float64) @ w32.astype(np.float64).T
                                           + (0.0 if biases is None else np.array(biases))).tolist()


def test_head_subset_carries_bias_and_seen_flags():
    head = ClassifierHead(
        ["a", "b", "c"], np.eye(3), biases=[1.0, 2.0, 3.0], seen=[True, False, True]
    )
    sub = head.subset(["c", "b"])
    assert sub.class_ids == ["c", "b"]
    assert sub.biases.tolist() == [3.0, 2.0]
    assert sub.seen.tolist() == [True, False]


def test_head_subset_is_a_gathered_block_of_checked_rows(monkeypatch):
    head = ClassifierHead(["a", "b", "c"], np.eye(3) + 0.5, biases=[1.0, 2.0, 3.0], seen=[True, False, True])

    def checked_again(self):
        raise AssertionError("a subset ran the head checks again")

    monkeypatch.setattr(ClassifierHead, "__post_init__", checked_again)
    sub = head.subset(["c", "a"])
    assert sub.class_ids == ["c", "a"] and sub.weights.tolist() == [[0.5, 0.5, 1.5], [1.5, 0.5, 0.5]]
    for mine, theirs in ((sub.weights, head.weights), (sub.biases, head.biases), (sub.seen, head.seen)):
        assert mine.flags.c_contiguous and not np.shares_memory(mine, theirs)
    # unknown ids are refused first, then duplicates, as classify(among=...) reports them
    with pytest.raises(ClassIdError, match="unknown class id 'x'"):
        head.subset(["a", "a", "x"])
    with pytest.raises(ClassIdError, match="duplicate classifier id 'a'"):
        head.subset(["a", "c", "a"])


def test_head_round_trip_with_biases(tmp_path):
    head = ClassifierHead(["a", "b"], [[1.0, 2.0], [3.0, 4.0]], biases=[0.5, -0.5])
    head.save(tmp_path / "h.wsmat")
    (tmp_path / "h.biases.wsmat").rename(tmp_path / "h_bias.wsmat")
    back = load_classifier_head(
        tmp_path / "h.wsmat", biases_path=tmp_path / "h_bias.wsmat", seen_ids=["a"]
    )
    assert np.array_equal(back.weights, head.weights)
    assert back.biases.tolist() == [0.5, -0.5]
    assert back.seen.tolist() == [True, False]


def test_head_save_writes_biases_to_their_sidecar_by_default(tmp_path):
    head = ClassifierHead(["a", "b"], [[1.0, 2.0], [3.0, 4.0]], biases=[0.5, -0.5])
    head.save(tmp_path / "h.wsmat")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.biases.wsmat", "h.ids", "h.wsmat"]
    back = load_classifier_head(tmp_path / "h.wsmat", biases_path=tmp_path / "h.biases.wsmat")
    assert back.biases.tolist() == [0.5, -0.5]
    # read back from the sidecar by default; an explicit biases path wins, and no sidecar means no biases
    assert biases_path_for(tmp_path / "h.wsmat") == tmp_path / "h.biases.wsmat"
    assert load_classifier_head(tmp_path / "h.wsmat").biases.tolist() == [0.5, -0.5]
    save_matrix(tmp_path / "other.wsmat", [[1.5, 2.5]])
    explicit = load_classifier_head(tmp_path / "h.wsmat", biases_path=tmp_path / "other.wsmat")
    assert explicit.biases.tolist() == [1.5, 2.5]
    ClassifierHead(["a", "b"], [[1.0, 2.0], [3.0, 4.0]]).save(tmp_path / "plain.wsmat")
    assert load_classifier_head(tmp_path / "plain.wsmat").biases is None


def test_head_biases_must_be_one_row(tmp_path):
    ClassifierHead(["a", "b", "c", "d"], np.eye(4)).save(tmp_path / "h.wsmat")
    save_matrix(tmp_path / "b.wsmat", [[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(DataFormatError, match=r"b\.wsmat.*shape \(2, 2\); expected one row"):
        load_classifier_head(tmp_path / "h.wsmat", biases_path=tmp_path / "b.wsmat")
    save_matrix(tmp_path / "b.wsmat", [[0.0, 1.0, 2.0, 3.0]])
    head = load_classifier_head(tmp_path / "h.wsmat", biases_path=tmp_path / "b.wsmat")
    assert head.biases.tolist() == [0.0, 1.0, 2.0, 3.0]


def test_feature_set_restrict_and_label_check():
    fs = FeatureSet(np.arange(8, dtype=float).reshape(4, 2), ["a", "b", "a", "c"])
    sub = fs.restrict_to(["a"])
    assert sub.n_samples == 2
    assert sub.features.tolist() == [[0.0, 1.0], [4.0, 5.0]]
    fs.check_labels_known(["a", "b", "c"])
    with pytest.raises(ClassIdError):
        fs.check_labels_known(["a", "b"])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_restricted_part_is_built_from_the_checked_rows_without_checking_them_again(monkeypatch, dtype):
    x = np.random.default_rng(24).standard_normal((9, 3)).astype(dtype)
    fs = FeatureSet(x, ["a", "b", "c"] * 3)
    expected = FeatureSet(x[[0, 2, 3, 5, 6, 8]], ["a", "c"] * 3)
    for check in ("check_finite", "_ids_per_row", "_as_stored"):
        monkeypatch.setattr(data, check, lambda *args: pytest.fail("the rows were checked again"))
    part = fs.restrict_to(["c", "a"])
    assert type(part) is FeatureSet and part.labels == expected.labels
    # the part holds the set's matrix and the positions of its rows in it
    assert part.rows.matrix is fs.rows.matrix and part.rows.positions.tolist() == [0, 2, 3, 5, 6, 8]
    assert part.features.dtype == expected.features.dtype == dtype and part.features.flags.c_contiguous
    assert np.array_equal(part.features, expected.features) and not np.shares_memory(part.features, x)
    assert fs.restrict_to(["z"]).features.shape == (0, 3)


def test_restrict_to_a_2000_by_512_float32_set_allocates_no_row():
    x = np.random.default_rng(33).standard_normal((2000, 512)).astype(np.float32)
    fs = FeatureSet(x, [f"c{i % 50:02d}" for i in range(2000)])
    wanted = [f"c{i:02d}" for i in range(0, 50, 2)]
    tracemalloc.start()
    try:
        part = fs.restrict_to(wanted)
        inner = part.restrict_to(wanted[:5])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert part.rows.matrix is inner.rows.matrix is x
    assert part.n_samples == 1000 and inner.n_samples == 200
    assert np.array_equal(inner.features, x[[i for i in range(2000) if i % 50 in range(0, 10, 2)]])
    # the label mask, the positions and the labels; a copy of the part's 1000 rows is 2000 KiB
    assert peak < 32 * x[0].nbytes


@pytest.mark.parametrize("walk", [np.float32, np.float64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_part_is_scored_from_views_of_its_runs_and_one_buffer_of_gathered_blocks(monkeypatch, dtype, walk):
    rng = np.random.default_rng(34)
    x = rng.standard_normal((40, 8)).astype(dtype)
    # rows 0-15 are one run of the part, then every other row
    part = FeatureSet(x, ["a"] * 16 + ["a", "b"] * 12).restrict_to(["a"])
    positions = list(range(16)) + list(range(16, 40, 2))
    assert part.rows.positions.tolist() == positions
    head = ClassifierHead([f"k{i}" for i in range(5)], rng.standard_normal((5, 8)))
    calls = []
    logits = ClassifierHead.logits

    def spied(self, features):
        calls.append((self, features))
        return logits(self, features)

    monkeypatch.setattr(ClassifierHead, "logits", spied)
    # feature-row blocks of 8 rows: two runs, then 8 and 4 gathered rows
    starts = []
    for lo, _, scores in head.logit_blocks(part.rows, range(5), 8 * 8 * np.dtype(walk).itemsize, walk):
        # checked as it comes: the next block may be staged in the same buffer
        block, staged = calls[-1]
        rows = x[positions[lo:lo + staged.shape[0]]].astype(walk)
        assert staged.dtype == walk and np.array_equal(staged, rows)
        assert np.array_equal(scores, logits(block, rows))  # the scores of a copy of the block's rows
        starts.append(lo)
    assert starts == [0, 8, 16, 24] and len(calls) == 4
    calls = [staged for _, staged in calls]
    buffer = calls[2].base
    assert buffer is not None and buffer is not x and buffer.shape == (8, 8) and calls[3].base is buffer
    if dtype == walk:
        assert calls[0].base is calls[1].base is x  # runs are views of the shared matrix
    else:
        assert calls[0].base is calls[1].base is buffer


def test_feature_set_round_trip(tmp_path):
    fs = FeatureSet([[1.0, 2.0]], ["k"])
    fs.save(tmp_path / "f.wsmat")
    back = load_feature_set(tmp_path / "f.wsmat")
    assert back.labels == ["k"]


# ---------------------------------------------------------------------------
# manifests and pairs


def test_manifest_rejects_overlap_and_stray_validation():
    with pytest.raises(ClassIdError):
        SplitManifest(["a", "b"], ["b", "c"])
    with pytest.raises(ClassIdError):
        SplitManifest(["a"], ["b"], val_seen=["b"])


def test_manifest_round_trip_with_comments(tmp_path):
    m = SplitManifest(["a", "b", "c"], ["d"], val_seen=["b"])
    p = tmp_path / "split.txt"
    save_manifest(p, m)
    text = p.read_text()
    p.write_text("# a comment\n\n" + text)
    back = load_manifest(p)
    assert back.seen == ["a", "b", "c"]
    assert back.unseen == ["d"]
    assert back.val_seen == ["b"]


def test_manifest_unknown_section_is_an_error(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("[seen]\na\n[bogus]\nb\n")
    with pytest.raises(DataFormatError):
        load_manifest(p)


def test_manifest_id_before_section_is_an_error(tmp_path):
    p = tmp_path / "bad2.txt"
    p.write_text("a\n[seen]\n")
    with pytest.raises(DataFormatError):
        load_manifest(p)


def test_make_pairs_joins_on_id_in_head_order():
    ds = DescriptorSet(["a", "b", "c"], np.diag([1.0, 2.0, 3.0]))
    head = ClassifierHead(["c", "a"], [[1.0, 1.0], [2.0, 2.0]])
    pairs = make_pairs(ds, head)
    assert pairs.class_ids == ["c", "a"]
    assert pairs.descriptors.tolist() == [[0.0, 0.0, 3.0], [1.0, 0.0, 0.0]]
    assert pairs.weights.tolist() == [[1.0, 1.0], [2.0, 2.0]]


def test_make_pairs_include_bias_appends_column():
    ds = DescriptorSet(["a", "b"], np.eye(2))
    with_bias = ClassifierHead(["a", "b"], np.eye(2), biases=[0.5, -0.5])
    pairs = make_pairs(ds, with_bias, include_bias=True)
    assert pairs.weights.tolist() == [[1.0, 0.0, 0.5], [0.0, 1.0, -0.5]]
    no_bias = ClassifierHead(["a", "b"], np.eye(2))
    pairs0 = make_pairs(ds, no_bias, include_bias=True)
    assert pairs0.weights[:, -1].tolist() == [0.0, 0.0]


def test_make_pairs_missing_descriptor_is_an_error():
    ds = DescriptorSet(["a"], np.ones((1, 2)))
    head = ClassifierHead(["a", "b"], np.ones((2, 2)))
    with pytest.raises(ClassIdError):
        make_pairs(ds, head)


def _lookups_of_a_missing_id():
    # "nope" is a class id that the looked-up container does not have
    ds = DescriptorSet(["a", "b"], np.eye(2))
    head = ClassifierHead(["a", "b"], np.eye(2), seen=[True, False])
    stray = ClassifierHead(["a", "nope"], np.eye(2))
    pairs = PairSet(["a", "b"], np.eye(2), np.eye(2))
    unseen = DescriptorSet(["u"], [[1.0, 1.0]])
    features = FeatureSet(np.eye(2), ["b", "b"])
    return {
        "DescriptorSet.subset": lambda: ds.subset(["a", "nope"]),
        "DescriptorSet.vector": lambda: ds.vector("nope"),
        "ClassifierHead.subset": lambda: head.subset(["b", "nope"]),
        "PairSet.subset": lambda: pairs.subset(["nope", "a"]),
        "make_pairs": lambda: make_pairs(ds, stray),
        "conse_combine": lambda: conse_combine(stray, ds, np.eye(2)),
        "costa_weights": lambda: costa_weights(unseen, ds, stray),
        "vgse_wavg_weights": lambda: vgse_wavg_weights(unseen, ds, stray),
        "vgse_smo_weights": lambda: vgse_smo_weights(unseen, ds, stray),
        "evaluate": lambda: evaluate(head, features, unseen_ids=["b", "nope"]),
    }


@pytest.mark.parametrize("lookup", sorted(_lookups_of_a_missing_id()))
def test_every_id_lookup_names_the_missing_id(lookup):
    with pytest.raises(ClassIdError, match="unknown class id 'nope'"):
        _lookups_of_a_missing_id()[lookup]()


@given(data=st.data(), ids=st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=12, unique=True))
def test_subset_follows_the_selection_order(data, ids):
    sel = data.draw(st.permutations(ids))[: data.draw(st.integers(0, len(ids)))]
    matrix = np.arange(1.0, 3 * len(ids) + 1).reshape(len(ids), 3)
    # list.index is the reference lookup
    expected = matrix[[ids.index(s) for s in sel]]
    sub_ds = DescriptorSet(ids, matrix).subset(sel)
    sub_head = ClassifierHead(ids, matrix).subset(sel)
    sub_pairs = PairSet(ids, matrix, -matrix).subset(sel)
    assert sub_ds.class_ids == sub_head.class_ids == sub_pairs.class_ids == sel
    assert np.array_equal(sub_ds.matrix, expected)
    assert np.array_equal(sub_head.weights, expected)
    assert np.array_equal(sub_pairs.descriptors, expected)
    assert np.array_equal(sub_pairs.weights, -expected)


def test_pair_set_duplicate_id_is_an_error():
    with pytest.raises(ClassIdError, match="duplicate pair id 'a'"):
        PairSet(["a", "a"], [[1.0], [2.0]], [[1.0], [2.0]])
    # ids are compared as strings, as subset looks them up
    with pytest.raises(ClassIdError):
        PairSet([1, "1"], np.eye(2), np.eye(2))


# ---------------------------------------------------------------------------
# synthetic tasks


def test_synth_true_head_classifies_noiseless_features_perfectly():
    task = synth_generate(seed=0, n_seen=8, n_unseen=4, d_a=6, d_w=10, samples_per_class=5)
    all_weights = np.vstack([task.head.weights, task.true_unseen_weights])
    ids = task.manifest.seen + task.manifest.unseen
    scores = task.features.features @ all_weights.T
    predicted = [ids[i] for i in scores.argmax(axis=1)]
    assert predicted == task.features.labels


def test_synth_weights_are_unit_norm():
    task = synth_generate(seed=1, n_seen=5, n_unseen=3, d_a=4, d_w=6)
    norms = np.linalg.norm(task.head.weights, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(task.true_unseen_weights, axis=1), 1.0, atol=1e-12)


def test_synth_is_deterministic_per_seed():
    t1 = synth_generate(seed=4, n_seen=6, n_unseen=2, d_a=5, d_w=7, feature_noise=0.1)
    t2 = synth_generate(seed=4, n_seen=6, n_unseen=2, d_a=5, d_w=7, feature_noise=0.1)
    assert np.array_equal(t1.descriptors.matrix, t2.descriptors.matrix)
    assert np.array_equal(t1.features.features, t2.features.features)
    t3 = synth_generate(seed=5, n_seen=6, n_unseen=2, d_a=5, d_w=7, feature_noise=0.1)
    assert not np.array_equal(t1.descriptors.matrix, t3.descriptors.matrix)


def test_synth_feature_noise_leaves_margin_mostly_intact():
    task = synth_generate(seed=2, n_seen=10, n_unseen=0, d_a=8, d_w=16, samples_per_class=30, feature_noise=0.1)
    scores = task.features.features @ task.head.weights.T
    ids = task.manifest.seen
    predicted = [ids[i] for i in scores.argmax(axis=1)]
    accuracy = np.mean([p == l for p, l in zip(predicted, task.features.labels)])
    assert accuracy >= 0.99


def test_synth_ids_are_zero_padded_and_split_is_disjoint():
    task = synth_generate(seed=0, n_seen=3, n_unseen=2, d_a=2, d_w=2)
    assert task.manifest.seen == ["c000", "c001", "c002"]
    assert task.manifest.unseen == ["c003", "c004"]
    assert task.head.class_ids == task.manifest.seen


def test_synth_descriptor_rank_limits_spectrum():
    task = synth_generate(seed=3, n_seen=20, n_unseen=5, d_a=16, d_w=8, descriptor_rank=2)
    s = np.linalg.svd(task.descriptors.matrix, compute_uv=False)
    # two dominant directions, the rest only the 0.05 jitter
    assert s[1] > 10 * s[2]
    with pytest.raises(IcisError):
        synth_generate(seed=0, n_seen=4, n_unseen=0, d_a=4, d_w=4, descriptor_rank=9)


def test_synth_mlp_map_and_bad_kind():
    task = synth_generate(seed=0, n_seen=4, n_unseen=2, d_a=3, d_w=5, map_kind="mlp")
    assert task.head.weights.shape == (4, 5)
    with pytest.raises(IcisError):
        synth_generate(seed=0, n_seen=4, n_unseen=0, d_a=3, d_w=5, map_kind="spline")


def test_synth_argument_validation():
    with pytest.raises(IcisError):
        synth_generate(seed=0, n_seen=1, n_unseen=2, d_a=3, d_w=3)
    with pytest.raises(IcisError):
        synth_generate(seed=0, n_seen=3, n_unseen=-1, d_a=3, d_w=3)


# ---------------------------------------------------------------------------
# subsampling


def _pairs(n):
    ids = [f"p{i}" for i in range(n)]
    rng = np.random.default_rng(0)
    return PairSet(ids, rng.standard_normal((n, 3)), rng.standard_normal((n, 4)))


def test_subsample_fraction_one_is_identity():
    pairs = _pairs(9)
    out = subsample_pairs(pairs, 1.0, seed=5)
    assert out.class_ids == pairs.class_ids
    assert np.array_equal(out.descriptors, pairs.descriptors)


def test_subsample_is_seeded_and_order_preserving():
    pairs = _pairs(20)
    a = subsample_pairs(pairs, 0.5, seed=3)
    b = subsample_pairs(pairs, 0.5, seed=3)
    assert a.class_ids == b.class_ids
    assert len(a) == 10
    index = {c: i for i, c in enumerate(pairs.class_ids)}
    positions = [index[c] for c in a.class_ids]
    assert positions == sorted(positions)


def test_subsample_fractions_nest_under_one_seed():
    pairs = _pairs(30)
    small = set(subsample_pairs(pairs, 0.2, seed=9).class_ids)
    big = set(subsample_pairs(pairs, 0.6, seed=9).class_ids)
    assert small <= big


def test_subsample_too_small_fraction_is_an_error():
    pairs = _pairs(10)
    with pytest.raises(IcisError):
        subsample_pairs(pairs, 0.1, seed=0)
    with pytest.raises(IcisError):
        subsample_pairs(pairs, 1.5, seed=0)


# ---------------------------------------------------------------------------
# float32 heads


def _float32_head_file(tmp_path, n_classes=2000, dim=1024):
    weights = np.random.default_rng(23).standard_normal((n_classes, dim)).astype(np.float32)
    ClassifierHead([f"c{i:04d}" for i in range(n_classes)], weights).save(tmp_path / "h.wsmat")
    return tmp_path / "h.wsmat", weights


def test_a_head_keeps_c_contiguous_float32_weights_and_makes_the_rest_float64():
    w32 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    assert ClassifierHead(["a", "b"], w32).weights is w32
    for other in (np.asfortranarray(w32), w32.astype(np.float16), w32.tolist(), w32.astype(np.float64)):
        head = ClassifierHead(["a", "b"], other)
        assert head.weights.dtype == np.float64 and head.weights.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(IcisError, match="zero-norm weight rows, first of class 'b'"):
        ClassifierHead(["a", "b"], np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32))


def test_a_loaded_head_is_float32_and_its_derived_rows_are_float64(tmp_path):
    path, weights = _float32_head_file(tmp_path, 6, 4)
    head = load_classifier_head(path)
    assert head.weights.dtype == np.float32 and np.array_equal(head.weights, weights)
    derived = {
        "inject": inject(head, ["n0"], np.ones((1, 4))).weights,
        "make_pairs": make_pairs(DescriptorSet(head.class_ids, np.eye(6, 3) + 1.0), head).weights,
    }
    expected = {"inject": np.vstack([weights, np.ones((1, 4))]), "make_pairs": weights}
    for name, rows in derived.items():
        assert rows.dtype == np.float64 and np.array_equal(rows, expected[name]), name
    # a subset keeps the head's float32 rows; scoring upcasts each class block
    sub = head.subset(["c0004", "c0001"])
    assert sub.weights.dtype == np.float32 and np.array_equal(sub.weights, weights[[4, 1]])
    x = np.random.default_rng(24).standard_normal((5, 4))
    for scored, rows in ((head, [1, 2]), (head, [4, 1]), (sub, range(2))):
        (lo, clo, logits), = scored.logit_blocks(x, rows, 1 << 10)
        assert (lo, clo) == (0, 0) and logits.dtype == np.float64
        assert np.array_equal(logits, x @ scored.weights[list(rows)].astype(np.float64).T)


def test_a_subset_of_a_float32_head_holds_one_float32_copy_of_its_rows(tmp_path):
    path, weights = _float32_head_file(tmp_path)
    head = load_classifier_head(path)
    ids = head.class_ids[::2]
    tracemalloc.start()
    try:
        sub = head.subset(ids)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 4 MiB of gathered rows and the id lookup; a float64 copy next to them would hold 3 times that
    assert peak < 1.25 * weights[::2].nbytes
    assert sub.weights.dtype == np.float32 and np.array_equal(sub.weights, weights[::2])


def test_loading_a_head_holds_its_float32_payload_once(tmp_path):
    path, weights = _float32_head_file(tmp_path)
    tracemalloc.start()
    try:
        head = load_classifier_head(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 8 MiB of rows, plus about 0.3 MB: one read chunk's finiteness mask, the
    # zero-norm check's buffer and the ids; a float64 head would hold twice the payload
    assert head.weights.dtype == np.float32
    assert peak < 1.1 * weights.nbytes


def test_saving_a_float32_head_copies_no_payload_and_writes_the_same_bytes(tmp_path):
    path, weights = _float32_head_file(tmp_path)
    head = load_classifier_head(path)
    tracemalloc.start()
    try:
        head.save(tmp_path / "again.wsmat")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the ids' text and nothing the size of the 8 MiB payload
    assert peak < weights.nbytes / 4
    assert (tmp_path / "again.wsmat").read_bytes() == path.read_bytes()
    ClassifierHead(head.class_ids, weights.astype(np.float64)).save(tmp_path / "wide.wsmat")
    assert (tmp_path / "wide.wsmat").read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# float32 feature rows


def test_a_feature_set_keeps_c_contiguous_float32_rows_and_makes_the_rest_float64():
    x32 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    assert FeatureSet(x32, ["a", "b"]).features is x32
    for other in (np.asfortranarray(x32), x32.astype(np.float16), x32.tolist(), x32.astype(np.float64)):
        features = FeatureSet(other, ["a", "b"]).features
        assert features.dtype == np.float64 and features.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_a_loaded_feature_set_and_its_splits_keep_float32_rows(tmp_path):
    x32 = np.random.default_rng(25).standard_normal((12, 4)).astype(np.float32)
    labels = [f"c{i % 3}" for i in range(12)]
    FeatureSet(x32, labels).save(tmp_path / "f.wsmat")
    loaded = load_feature_set(tmp_path / "f.wsmat")
    assert loaded.features.dtype == np.float32 and np.array_equal(loaded.features, x32)
    part = loaded.restrict_to(["c2", "c0"])
    kept = [l != "c1" for l in labels]
    assert part.rows.matrix is loaded.features  # the part reads the loaded rows; its features gather them
    assert part.features.dtype == np.float32 and part.features.flags.c_contiguous
    assert np.array_equal(part.features, x32[kept]) and part.labels == [l for l, k in zip(labels, kept) if k]
    # a CSV copy, which shares the .ids sidecar, loads the same values as float64
    save_matrix(tmp_path / "f.csv", loaded.features)
    wide = load_feature_set(tmp_path / "f.csv")
    assert wide.features.dtype == np.float64 and np.array_equal(wide.features, x32)


def test_loading_a_feature_set_holds_its_float32_payload_once(tmp_path):
    x32 = np.random.default_rng(26).standard_normal((2000, 1024)).astype(np.float32)
    FeatureSet(x32, [f"c{i % 50:02d}" for i in range(2000)]).save(tmp_path / "f.wsmat")
    tracemalloc.start()
    try:
        features = load_feature_set(tmp_path / "f.wsmat")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 8 MiB of rows, one read chunk's finiteness mask and the labels; a float64
    # copy next to the payload would hold 3 times the payload
    assert features.features.dtype == np.float32
    assert peak < 1.1 * x32.nbytes
