"""Tests for the dense matrix helpers and the seeded RNG."""

import tracemalloc

import numpy as np
import pytest

from icis.data import ClassifierHead
from icis.errors import IcisError, ShapeMismatchError, ZeroNormError
from icis.tensor import (
    RngState,
    as_matrix,
    as_vector,
    check_finite,
    rand_normal,
    row_normalize,
)


def test_as_matrix_coerces_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.flags["C_CONTIGUOUS"]
    assert m.shape == (2, 2)


def test_as_matrix_rejects_wrong_rank():
    with pytest.raises(ShapeMismatchError):
        as_matrix([1.0, 2.0, 3.0])
    with pytest.raises(ShapeMismatchError):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_vector_rejects_matrix():
    with pytest.raises(ShapeMismatchError):
        as_vector([[1.0, 2.0]])


def test_check_finite_raises_on_nan_and_inf():
    check_finite(np.ones((2, 2)))
    with pytest.raises(IcisError):
        check_finite(np.array([[1.0, np.nan]]))
    with pytest.raises(IcisError):
        check_finite(np.array([[np.inf, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (2, 1), (4, 2)])
def test_check_finite_rejects_each_non_finite_value_anywhere(bad, where):
    m = np.arange(15.0).reshape(5, 3)
    m[where] = bad
    with pytest.raises(IcisError, match="^weights contains non-finite entries$"):
        check_finite(m, "weights")


def test_check_finite_accepts_the_extremes_and_empty_matrices():
    big = np.finfo(np.float64).max
    check_finite(np.array([[big, -big], [big, big]]))
    check_finite(np.zeros((0, 3)))
    check_finite(np.zeros((3, 0)))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_check_finite_builds_no_temporary_that_grows_with_the_matrix():
    m = np.random.default_rng(0).standard_normal((1000, 1000))
    # a boolean mask of the matrix would be m.nbytes / 8
    assert _traced_peak(lambda: check_finite(m)) < m.nbytes / 64
    ids = [f"c{i}" for i in range(1000)]
    assert _traced_peak(lambda: ClassifierHead(ids, m)) < m.nbytes / 16


def test_row_normalize_unit_rows():
    m = np.array([[3.0, 4.0], [0.0, -2.0]])
    out = row_normalize(m)
    assert np.allclose(np.linalg.norm(out, axis=1), [1.0, 1.0], atol=1e-12)
    assert np.allclose(out[0], [0.6, 0.8])


def test_row_normalize_zero_row_is_an_error():
    with pytest.raises(ZeroNormError):
        row_normalize(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_rng_equal_seeds_equal_draws():
    a = RngState(123).normal(4, 5)
    b = RngState(123).normal(4, 5)
    assert np.array_equal(a, b)


def test_rng_different_seeds_differ():
    a = RngState(1).normal(4, 5)
    b = RngState(2).normal(4, 5)
    assert not np.array_equal(a, b)


def test_rng_spawn_streams_are_independent_and_stable():
    root = RngState(9)
    a1 = root.spawn("alpha").normal(3, 3)
    b1 = root.spawn("beta").normal(3, 3)
    a2 = RngState(9).spawn("alpha").normal(3, 3)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b1)


def test_rand_normal_zero_std_gives_exact_zeros():
    out = rand_normal(RngState(0), 3, 4, 0.0)
    assert out.shape == (3, 4)
    assert np.all(out == 0.0)


def test_rand_normal_zero_std_still_advances_the_stream():
    # after a zero-std draw the next draw must match the draw that follows
    # the same-shaped nonzero-std call
    r1 = RngState(7)
    rand_normal(r1, 3, 4, 0.0)
    after_zero = rand_normal(r1, 2, 2, 1.0)

    r2 = RngState(7)
    rand_normal(r2, 3, 4, 1.0)
    after_nonzero = rand_normal(r2, 2, 2, 1.0)
    assert np.array_equal(after_zero, after_nonzero)


def test_rand_normal_scales_by_std():
    r1 = RngState(11)
    r2 = RngState(11)
    base = rand_normal(r1, 6, 6, 1.0)
    scaled = rand_normal(r2, 6, 6, 2.5)
    assert np.allclose(scaled, base * 2.5, atol=1e-12)


def test_rand_normal_scales_the_draws_in_place():
    std = 0.3
    want = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 0)))).standard_normal((500, 400)) * std
    rng = RngState(5)
    peak = _traced_peak(lambda: rand_normal(rng, 500, 400, std))
    assert np.array_equal(rand_normal(RngState(5), 500, 400, std), want)
    # the draws themselves, and no second array of their size
    assert want.nbytes <= peak < 1.5 * want.nbytes


def test_rand_normal_large_sample_moments():
    out = rand_normal(RngState(42), 400, 250, 0.5)
    assert abs(out.mean()) < 0.01
    assert abs(out.std() - 0.5) < 0.01


def test_rand_normal_negative_std_is_an_error():
    with pytest.raises(IcisError):
        rand_normal(RngState(0), 2, 2, -1.0)


def test_rng_negative_seed_is_an_error():
    with pytest.raises(IcisError, match="seed must be >= 0"):
        RngState(-1)


def test_permutation_is_seeded():
    p1 = RngState(5).permutation(10)
    p2 = RngState(5).permutation(10)
    assert np.array_equal(p1, p2)
    assert sorted(p1.tolist()) == list(range(10))
