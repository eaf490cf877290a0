"""Sign-random-projection index for sub-linear candidate retrieval.

Each of L tables hashes a vector to b bits: bit j is 1 exactly when the
vector's dot product with that table's j-th Gaussian hyperplane is >= 0.
Retrieval returns the union (deduplicated) of the query's exact-collision
buckets across tables.  Codes depend only on (seed, tables, bits, dimension)
and the hashed vector itself — never on the rest of the data — so inserting
or deleting one example can never move another example's bucket.

Candidate restriction changes nothing about privacy: the engine applies the
same filtering, capping, and charging to whatever candidate set it is handed.
Missed true neighbors cost accuracy only.
"""

from __future__ import annotations

import numpy as np

from .engine import ExampleStore, QueryOutcome, answer_query
from .mechanisms import NoiseSource

BUILD_CHUNK = 8192  # rows hashed at a time while building


class LshIndex:
    """Bucketed sign-random-projection codes over a store's live examples."""

    def __init__(self, store: ExampleStore, tables: int, bits: int, seed: int):
        if tables < 1:
            raise ValueError(f"tables must be >= 1, got {tables}")
        if not 1 <= bits <= 63:
            raise ValueError(f"bits must lie in [1, 63], got {bits}")
        self.store = store
        self.tables = int(tables)
        self.bits = int(bits)
        self.seed = int(seed)
        gen = np.random.Generator(np.random.Philox(self.seed))
        # (tables, bits, d) hyperplanes, fixed for the life of the index.
        self.hyperplanes = gen.standard_normal((self.tables, self.bits, store.dimension))
        # Codes are packed into little-endian words: one byte each when bits <= 8.
        self._code_dtype = np.dtype("<u1" if self.bits <= 8 else "<u8")
        live = np.flatnonzero(store.alive)
        # Hashing in chunks bounds the (rows, tables * bits) projection's memory.
        codes = np.empty((live.shape[0], self.tables), dtype=self._code_dtype)
        for lo in range(0, live.shape[0], BUILD_CHUNK):
            codes[lo:lo + BUILD_CHUNK] = self._packed_codes(store.features[live[lo:lo + BUILD_CHUNK]])
        self._buckets: list[dict[int, np.ndarray]] = []
        for table in range(self.tables):
            # A stable sort keeps each bucket's members in index order; on
            # uint8 keys numpy sorts by radix.
            order = np.argsort(codes[:, table], kind="stable")
            keys = codes[order, table]
            members = live[order]
            first = np.ones(keys.shape, dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            starts = np.flatnonzero(first)
            ends = np.append(starts[1:], keys.shape[0])
            self._buckets.append({
                key: members[lo:hi]
                for key, lo, hi in zip(keys[starts].tolist(), starts.tolist(), ends.tolist())
            })

    def _packed_codes(self, mat: np.ndarray) -> np.ndarray:
        """(n, tables) codes of the rows of ``mat``, in ``_code_dtype``."""
        n = mat.shape[0]
        projections = mat @ self.hyperplanes.reshape(-1, mat.shape[1]).T
        # Bit j of a table's code is its plane j; padding each code to a whole
        # word lets one packbits call over each row pack them all.
        width = 8 * self._code_dtype.itemsize
        bits = np.zeros((n, self.tables, width), dtype=bool)
        bits[..., : self.bits] = projections.reshape(n, self.tables, self.bits) >= 0.0
        packed = np.packbits(bits.reshape(n, self.tables * width), axis=-1, bitorder="little")
        return packed.view(self._code_dtype)

    def codes_for(self, vectors: np.ndarray) -> np.ndarray:
        """(n, tables) int64 bucket codes; each packs ``bits`` sign bits."""
        single = vectors.ndim == 1
        codes = self._packed_codes(vectors[None, :] if single else vectors).astype(np.int64)
        return codes[0] if single else codes

    def add(self, index: int) -> None:
        """Index one newly inserted store example."""
        codes = self.codes_for(self.store.features[index])
        for table in range(self.tables):
            key = int(codes[table])
            bucket = self._buckets[table].get(key)
            self._buckets[table][key] = (
                np.array([index], dtype=np.int64)
                if bucket is None
                else np.append(bucket, index)
            )

    def retrieve(self, query: np.ndarray) -> np.ndarray:
        """Union of the query's collision buckets, live examples only, sorted."""
        codes = self.codes_for(np.asarray(query, dtype=np.float64))
        alive = self.store.alive
        mark = np.zeros_like(alive)
        for table, code in enumerate(codes.tolist()):
            bucket = self._buckets[table].get(code)
            if bucket is not None:
                mark[bucket] = True
        mark &= alive
        return np.flatnonzero(mark)

    def occupancy(self) -> list[dict[str, float]]:
        """Per-table bucket statistics, for tuning bits/tables."""
        stats = []
        for table in range(self.tables):
            sizes = np.array([b.shape[0] for b in self._buckets[table].values()])
            stats.append(
                {
                    "buckets": int(sizes.shape[0]),
                    "min": int(sizes.min()),
                    "median": float(np.median(sizes)),
                    "max": int(sizes.max()),
                }
            )
        return stats


def build_index(store: ExampleStore, tables: int, bits: int, seed: int) -> LshIndex:
    """Hash every live example of ``store`` into ``tables`` x ``bits`` buckets."""
    return LshIndex(store, tables, bits, seed)


def answer_query_hashed(store: ExampleStore, index: LshIndex, query,
                        src: NoiseSource) -> QueryOutcome:
    """answer_query restricted to the index's candidates for this query.

    A reused prediction appended by the engine is indexed immediately so it is
    retrievable from the very next query on.  ``index`` must have been built
    over ``store``: it reads that store's alive mask and features.
    """
    if index.store is not store:
        raise ValueError("index was built over a different store")
    before = store.features.shape[0]
    outcome = answer_query(store, query, src, candidates=index.retrieve(query))
    for new in range(before, store.features.shape[0]):
        index.add(new)
    return outcome
