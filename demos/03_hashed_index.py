"""Sign-random-projection index at scale: recall and speed vs exhaustive scan.

100k unit vectors, 30 tables of 8-bit codes.  A query only touches the union
of its 30 buckets, so selection cost drops by roughly the occupancy ratio
while high-similarity neighbors (the only ones the engine can select anyway)
almost always share a bucket with the query in at least one table.

Usage: python3 demos/03_hashed_index.py
"""

import time

import numpy as np

from dpknn import (
    EngineConfig,
    KernelSpec,
    NoiseSource,
    answer_query,
    answer_query_hashed,
    build_index,
    generate_synthetic,
)

TAU = 0.7

print("generating 100k examples in 20 classes ...")
data = generate_synthetic(num_classes=20, size=100_000, dim=64,
                          num_queries=200, seed=11)
config = EngineConfig(kernel=KernelSpec("cosine"), weight_threshold=TAU,
                      sigma_vote=0.5, planned_queries=200, budget=1000.0)
store = data.store(config)

started = time.perf_counter()
index = build_index(store, tables=30, bits=8, seed=5)
median_bucket = np.median([table["median"] for table in index.occupancy()])
print(f"built 30x8-bit index in {time.perf_counter() - started:.2f}s, "
      f"median bucket occupancy {median_bucket:.0f}")

recalls, candidate_counts = [], []
for q in data.query_features[:100]:
    true = np.flatnonzero(store.features @ q >= TAU)
    cand = index.retrieve(q)
    candidate_counts.append(cand.size)
    if true.size:
        recalls.append(float(np.isin(true, cand).mean()))
print(f"median candidates per query: {int(np.median(candidate_counts))} of 100000")
print(f"recall of true above-threshold neighbors: median "
      f"{np.median(recalls):.3f}, min {min(recalls):.3f}")

# The index reads the store it was built over, so hashed queries go to that
# store and the exhaustive ones to an identical fresh copy.
exact_store = data.store(config)
src_a, src_b = NoiseSource(1), NoiseSource(1)
lat_hash, lat_full, agree = [], [], 0
for q in data.query_features[:100]:
    t0 = time.perf_counter()
    a = answer_query_hashed(store, index, q, src_a).answer
    lat_hash.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    b = answer_query(exact_store, q, src_b).answer
    lat_full.append(time.perf_counter() - t0)
    agree += a == b
print(f"\nanswers agree on {agree}/100 queries (same noise tape)")
print(f"latency: hashed {1e3 * np.median(lat_hash):.2f} ms vs "
      f"exhaustive {1e3 * np.median(lat_full):.2f} ms "
      f"({np.median(lat_full) / np.median(lat_hash):.1f}x faster)")
