import numpy as np
import pytest

from dpknn import EngineConfig, ExampleStore, KernelSpec


def unit_rows(gen: np.random.Generator, n: int, d: int) -> np.ndarray:
    mat = gen.standard_normal((n, d))
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def small_store(seed=0, n=30, d=8, c=3, budget=50.0, tau=0.3, sigma_vote=0.5,
                sigma_count=None, queries=20, reuse=False, kind="cosine",
                count_floor=30.0) -> ExampleStore:
    gen = np.random.default_rng(seed)
    config = EngineConfig(
        kernel=KernelSpec(kind),
        weight_threshold=tau,
        sigma_vote=sigma_vote,
        sigma_count=sigma_count,
        planned_queries=queries,
        budget=budget,
        reuse_predictions=reuse,
        count_floor=count_floor,
    )
    features = unit_rows(gen, n, d)
    labels = gen.integers(0, c, size=n)
    return ExampleStore(features, labels, c, config)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
