import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpknn import (
    DEFAULT_RBF_BANDWIDTH,
    IngestionError,
    KernelSpec,
    kernel_weights,
    normalize_rows,
)
from dpknn import kernels
from reference import kernel_eval

COSINE = KernelSpec("cosine")
RBF = KernelSpec("rbf")


def weight(spec, x, q) -> float:
    """kernel_weights of the single stored vector ``x`` against ``q``."""
    return float(kernel_weights(spec, np.asarray(x, dtype=np.float64)[None, :],
                                np.asarray(q, dtype=np.float64))[0])


def unit(v) -> np.ndarray:
    return normalize_rows([v])[0]


def test_l2_normalize_three_four():
    np.testing.assert_allclose(unit([3.0, 4.0]), [0.6, 0.8], rtol=0, atol=1e-15)


def test_l2_normalize_idempotent():
    v = unit([1.0, 2.0, -2.0])
    np.testing.assert_allclose(unit(v), v, rtol=0, atol=1e-15)


def test_l2_normalize_zero_vector_rejected():
    with pytest.raises(IngestionError):
        unit([0.0, 0.0])


def test_normalize_rows_names_offending_row():
    mat = [[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]
    with pytest.raises(IngestionError, match="row 1"):
        normalize_rows(mat)


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_chunked_normalize_equals_one_pass_bitwise(monkeypatch, chunk):
    monkeypatch.setattr(kernels, "NORMALIZE_CHUNK", chunk)
    gen = np.random.default_rng(chunk)
    for d in (1, 3, 16, 64):
        mat = gen.standard_normal((30, d)) * gen.uniform(1e-3, 1e3, size=(30, 1))
        want = mat / np.linalg.norm(mat, axis=1)[:, None]
        assert normalize_rows(mat).tobytes() == want.tobytes()
    mat[23] = 0.0
    with pytest.raises(IngestionError, match="row 23"):
        normalize_rows(mat)


def test_rbf_default_bandwidth():
    assert RBF.bandwidth == pytest.approx(math.exp(1.5))


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("linear")
    with pytest.raises(ValueError):
        KernelSpec("rbf", bandwidth=0.0)
    with pytest.raises(ValueError):
        KernelSpec("cosine", bandwidth=2.0)


def test_rbf_at_one_bandwidth_squared():
    # ||x - q||^2 == bandwidth^2  =>  weight exp(-1)
    half = DEFAULT_RBF_BANDWIDTH / 2.0
    x = np.array([half, 0.0])
    q = np.array([-half, 0.0])
    assert weight(RBF, x, q) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert weight(RBF, x, q) == pytest.approx(0.367879441, abs=1e-9)


def test_cosine_identical_and_orthogonal():
    x = unit([1.0, 1.0, 0.0])
    assert weight(COSINE, x, x) == pytest.approx(1.0)
    assert weight(COSINE, [1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_negative_clamped_to_zero():
    assert weight(COSINE, [1.0, 0.0], [-1.0, 0.0]) == 0.0


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_weights(COSINE, np.eye(3), np.ones(2))
    with pytest.raises(ValueError):
        kernel_weights(COSINE, np.ones(2), np.ones(2))  # a vector, not an (n, d) matrix


@given(st.integers(0, 2 ** 32 - 1))
def test_kernel_symmetry_and_range(seed):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal(6)
    q = gen.standard_normal(6)
    x /= np.linalg.norm(x)
    q /= np.linalg.norm(q)
    for spec in (COSINE, RBF):
        w = weight(spec, x, q)
        assert weight(spec, q, x) == w
        assert 0.0 <= w <= 1.0
    # unit-norm inputs keep rbf weights above exp(-4 / bandwidth^2)
    assert weight(RBF, x, q) >= math.exp(-4.0 / DEFAULT_RBF_BANDWIDTH ** 2) - 1e-12


@given(st.integers(0, 2 ** 32 - 1))
def test_rbf_decreases_with_distance(seed):
    gen = np.random.default_rng(seed)
    q = gen.standard_normal(5)
    q /= np.linalg.norm(q)
    near = unit(q + 0.1 * gen.standard_normal(5))
    far = unit(-q + 0.1 * gen.standard_normal(5))
    if np.linalg.norm(near - q) < np.linalg.norm(far - q):
        assert weight(RBF, near, q) >= weight(RBF, far, q)


def test_kernel_weights_matches_scalar_eval(rng):
    feats = rng.standard_normal((25, 7))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    q = feats[3]
    for spec in (COSINE, RBF):
        vec = kernel_weights(spec, feats, q)
        scalar = [kernel_eval(spec, row, q) for row in feats]
        np.testing.assert_allclose(vec, scalar, rtol=0, atol=1e-12)
