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
    norms = np.linalg.norm(mat, axis=1)
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
