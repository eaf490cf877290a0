"""Similarity kernels and feature normalization.

All similarity weights produced here lie in [0, 1] for unit-norm inputs, which
is what caps the per-query contribution of any single stored example and hence
its privacy charge.  Features are L2-normalized once, at ingestion; raw
(unnormalized) vectors are never kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Bandwidth used throughout unless a config overrides it.  With unit-norm
# inputs the squared distance is at most 4, so rbf weights stay within
# [exp(-4 / bandwidth^2), 1].
DEFAULT_RBF_BANDWIDTH = math.exp(1.5)

KERNEL_KINDS = ("rbf", "cosine")

NORMALIZE_CHUNK = 4096  # rows normalized at a time, so temporaries stay cache-sized

# Absolute slack, in units of x . q, by which similarity_floor undercuts the
# exact reach of the threshold.  It covers the float64 rounding of a kernel
# weight (gamma_d * |x| |q| for d far below 1e9) and queries whose norm is
# within the engine's 1e-6 tolerance of 1.
FLOOR_SLACK = 1e-5


class IngestionError(ValueError):
    """A feature vector or label failed validation on its way into a store."""


@dataclass(frozen=True)
class KernelSpec:
    """Which similarity function to use and, for rbf, its bandwidth."""

    kind: str = "cosine"
    bandwidth: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if self.kind == "rbf":
            bw = DEFAULT_RBF_BANDWIDTH if self.bandwidth is None else float(self.bandwidth)
            if not bw > 0.0:
                raise ValueError(f"rbf bandwidth must be positive, got {bw}")
            object.__setattr__(self, "bandwidth", bw)
        elif self.bandwidth is not None:
            raise ValueError("bandwidth only applies to the rbf kernel")


def normalize_rows(matrix) -> np.ndarray:
    """L2-normalize each row of an (n, d) matrix, naming any offending row."""
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2:
        raise IngestionError(f"expected an (n, d) feature matrix, got shape {mat.shape}")
    # Row by row the norms are those of one whole-matrix pass, so the result
    # is bitwise the same; chunks keep the squares out of main memory.
    norms = np.empty(mat.shape[0])
    for lo in range(0, mat.shape[0], NORMALIZE_CHUNK):
        norms[lo:lo + NORMALIZE_CHUNK] = np.linalg.norm(mat[lo:lo + NORMALIZE_CHUNK], axis=1)
    bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
    if bad.size:
        raise IngestionError(f"zero-norm feature vector at row {int(bad[0])}")
    return mat / norms[:, None]


def kernel_weights(spec: KernelSpec, features: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Similarity weight of every row x of ``features`` against ``q``.

    rbf:     exp(-||x - q||^2 / bandwidth^2)
    cosine:  max(0, x . q)   (negative similarities carry no vote and are
             clamped so weights stay in [0, 1] for unit-norm inputs)
    """
    if features.ndim != 2 or q.ndim != 1 or features.shape[1] != q.shape[0]:
        raise ValueError(
            f"dimension mismatch: features {features.shape} vs query {q.shape}"
        )
    if spec.kind == "rbf":
        diff = features - q
        sq = np.einsum("ij,ij->i", diff, diff)
        return np.exp(-sq / (spec.bandwidth * spec.bandwidth))
    return np.maximum(0.0, features @ q)


def similarity_floor(spec: KernelSpec, threshold: float) -> float | None:
    """A value of x . q below which no unit row x can reach ``threshold`` against unit q.

    cosine:  the weight is max(0, x . q), so the floor is the threshold itself.
    rbf:     ||x - q||^2 = 2 - 2 x . q on unit vectors, so the weight reaches
             the threshold only when x . q >= 1 + bandwidth^2 ln(threshold) / 2.

    Each floor is lowered by FLOOR_SLACK (times bandwidth^2 for rbf, where a
    rounding error in the weight's exponent is bandwidth^2 / 2 times as large
    in x . q), so that every weight :func:`kernel_weights` computes at or
    above the threshold, for a query the engine accepts, belongs to a row
    whose exact x . q is at or above the floor.  Returns None, meaning no row
    can be ruled out, when the threshold is not positive.
    """
    if not threshold > 0.0:
        return None
    if spec.kind == "rbf":
        bw2 = spec.bandwidth * spec.bandwidth
        return 1.0 + 0.5 * bw2 * math.log(threshold) - FLOOR_SLACK * max(1.0, bw2)
    return threshold - FLOOR_SLACK
