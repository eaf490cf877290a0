"""Sign-random-projection index for sub-linear candidate retrieval.

Each of L tables hashes a vector to b bits: bit j is 1 exactly when the
vector's dot product with that table's j-th Gaussian hyperplane is >= 0.
Retrieval forms the union (deduplicated) of the query's exact-collision
buckets across tables.  Codes depend only on (seed, tables, bits, dimension)
and the hashed vector itself — never on the rest of the data — so inserting
or deleting one example can never move another example's bucket.

Given a floor (:func:`dpknn.kernels.similarity_floor`), retrieval then
shortlists the union with an int8 sketch: 64 bytes a row at d = 64 instead of
the 512 of its float64 feature.  Row i's sketch is k_i = rint(127 x_i), one
scale for every row, which is exact enough because stored rows are unit-norm
and so |x_ij| <= 1.  Row i is dropped only when

    fl32(k_i . q) / 127 + ||q||_1 / 254 + eps < floor,

which certifies x_i . q < floor.  Rounding 127 x_ij to an integer moves it by
at most 1/2, so |x_i . q - k_i . q / 127| <= ||q||_1 / 254.  The float32
product rounds q once (relative 2^-24 per entry) and then, by Higham,
*Accuracy and Stability of Numerical Algorithms*, §3.1, the dot product in
any summation order errs by at most gamma_d sum_j |k_ij q_j| with
gamma_d = d u / (1 - d u), u = 2^-24.  Divided by 127 that is at most
gamma_d ||q||_1 (1 + u), so

    eps = ||q||_1 (gamma_d + 2^-23)

covers both.  For d <= 2^16 its spare, at least ||q||_1 2^-25, absorbs the
float64 rounding of the test itself and float32 underflow (below
d 2^-149).  At d = 64 with a unit query, eps <= 8 (3.82e-6 + 1.2e-7)
~ 3.2e-5.  Above d = 2^16 no row is dropped.

Neither step changes privacy: the engine applies the same filtering,
capping, and charging to whatever candidate set it is handed, and both the
buckets and the shortlist decide a row on its own feature and the query
alone.  A shortlisted-out row lies below the floor, so its kernel weight is
below the threshold and the engine would not select it: the selection is the
one the engine would make over the full union.  Missed true neighbors cost
accuracy only.
"""

from __future__ import annotations

import numpy as np

from .accounting import with_room
from .engine import ExampleStore, QueryOutcome, answer_query
from .kernels import similarity_floor
from .mechanisms import NoiseSource

BUILD_CHUNK = 8192  # rows hashed at a time while building
SHORTLIST_CHUNK = 2048  # sketch rows scored at a time: each float32 block stays in L2
SKETCH_SCALE = 127  # k = rint(127 x) fits int8 because |x_j| <= 1 on unit rows
BUCKET_ROOM = 8  # free slots the build leaves after each bucket
MAX_SHORTLIST_DIM = 2 ** 16  # above it eps is no longer certified; see the module docstring
_F32_UNIT = 2.0 ** -24
_NO_MEMBERS = np.empty(0, dtype=np.int64)


def _sketch_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """rint(127 x) of unit rows, in ``out`` when given: integral float64s int8 holds exactly."""
    return np.rint(np.multiply(rows, SKETCH_SCALE, out=out), out=out)


def _float32_at_most(x: float) -> np.float32:
    """The largest float32 that is <= ``x``: comparing float32s against it loses nothing."""
    rounded = np.float32(x)
    # float() compares exactly; a float32 scalar against a Python float would compare in float32.
    return np.nextafter(rounded, np.float32(-np.inf)) if float(rounded) > x else rounded


class LshIndex:
    """Bucketed sign-random-projection codes over a store's live examples, with an int8 sketch."""

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
        # Rows of examples removed before the build are never retrieved; their sketch stays 0.
        self.sketch = self._sketch = np.zeros(store.features.shape, dtype=np.int8)
        codes = self._hash_and_sketch(live)
        # Each bucket is the live prefix of its buffer in _room[table], grown
        # by add with with_room.  The build lays a table's buckets out in one
        # array, each followed by BUCKET_ROOM free slots, so that most inserts
        # copy nothing.
        self._buckets: list[dict[int, np.ndarray]] = []
        self._room: list[dict[int, np.ndarray]] = []
        for table_codes in codes:
            # A stable sort keeps each bucket's members in index order; on
            # uint8 keys numpy sorts by radix.
            order = np.argsort(table_codes, kind="stable")
            keys = table_codes[order]
            members = live[order]
            first = np.ones(keys.shape, dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            starts = np.flatnonzero(first)
            ends = np.append(starts[1:], keys.shape[0])
            laid_out = np.empty(keys.shape[0] + BUCKET_ROOM * starts.shape[0], dtype=np.int64)
            rooms, buckets = {}, {}
            at = 0
            for key, lo, hi in zip(keys[starts].tolist(), starts.tolist(), ends.tolist()):
                laid_out[at:at + hi - lo] = members[lo:hi]
                rooms[key] = laid_out[at:at + hi - lo + BUCKET_ROOM]
                buckets[key] = laid_out[at:at + hi - lo]
                at += hi - lo + BUCKET_ROOM
            self._room.append(rooms)
            self._buckets.append(buckets)

    def _hash_and_sketch(self, live: np.ndarray) -> np.ndarray:
        """(tables, n) codes of the ``live`` rows, whose sketch rows it fills in.

        Hashing in chunks bounds the (rows, tables * bits) projection's
        memory, and every chunk reuses the same scratch arrays, which are
        freed on return, before the buckets are laid out.  Codes are
        table-major, so each table's sort reads contiguous keys.
        """
        features = self.store.features
        codes = np.empty((self.tables, live.shape[0]), dtype=self._code_dtype)
        chunk = max(1, min(BUILD_CHUNK, live.shape[0]))
        projections = np.empty((chunk, self.tables * self.bits))
        scaled = np.empty((chunk, features.shape[1]))
        for lo in range(0, live.shape[0], chunk):
            rows = live[lo:lo + chunk]
            block = features[rows]
            n = rows.shape[0]
            codes[:, lo:lo + n] = self._packed_codes(block, projections[:n]).T
            self._sketch[rows] = _sketch_rows(block, scaled[:n])
        return codes

    def _packed_codes(self, mat: np.ndarray, projections: np.ndarray | None = None) -> np.ndarray:
        """(n, tables) codes of the rows of ``mat``, in ``_code_dtype``.

        ``projections``, an (n, tables * bits) float64 array, is overwritten
        with the rows' projections when given.
        """
        n = mat.shape[0]
        projections = np.matmul(mat, self.hyperplanes.reshape(-1, mat.shape[1]).T, out=projections)
        # Bit j of a table's code is its plane j; padding each code to a whole
        # word lets one packbits call over each row pack them all.
        width = 8 * self._code_dtype.itemsize
        # Only the padding is cleared; the comparison writes the code bits in
        # place, with no zero-filled array and no temporary per chunk.
        bits = np.empty((n, self.tables, width), dtype=bool)
        bits[..., self.bits:] = False
        np.greater_equal(projections.reshape(n, self.tables, self.bits), 0.0,
                         out=bits[..., : self.bits])
        packed = np.packbits(bits.reshape(n, self.tables * width), axis=-1, bitorder="little")
        return packed.view(self._code_dtype)

    def codes_for(self, vectors: np.ndarray) -> np.ndarray:
        """(n, tables) int64 bucket codes; each packs ``bits`` sign bits."""
        single = vectors.ndim == 1
        codes = self._packed_codes(vectors[None, :] if single else vectors).astype(np.int64)
        return codes[0] if single else codes

    def add(self, index: int) -> None:
        """Index the store's newest example, which must be the next one unindexed."""
        used = self.sketch.shape[0]
        if index != used:
            raise ValueError(f"the next example to index is {used}, got {index}")
        feature = self.store.features[index]
        self._sketch = with_room(self._sketch, used)
        self._sketch[used] = _sketch_rows(feature)
        self.sketch = self._sketch[: used + 1]
        codes = self.codes_for(feature).tolist()
        for buckets, rooms, key in zip(self._buckets, self._room, codes):
            bucket = buckets.get(key, _NO_MEMBERS)
            size = bucket.shape[0]
            room = with_room(rooms.get(key, bucket), size)
            room[size] = index
            rooms[key] = room
            buckets[key] = room[: size + 1]

    def retrieve(self, query: np.ndarray, floor: float | None = None) -> np.ndarray:
        """Union of the query's collision buckets, live examples only, sorted.

        With a ``floor``, only the rows whose x . q may reach it are kept (see
        the module docstring).
        """
        q = np.asarray(query, dtype=np.float64)
        codes = self.codes_for(q)
        alive = self.store.alive
        mark = np.zeros_like(alive)
        for table, code in enumerate(codes.tolist()):
            bucket = self._buckets[table].get(code)
            if bucket is not None:
                mark[bucket] = True
        mark &= alive
        union = np.flatnonzero(mark)
        if floor is None or q.shape[0] > MAX_SHORTLIST_DIM:
            return union
        return union[self._may_reach(union, q, floor)]

    def _may_reach(self, rows: np.ndarray, q: np.ndarray, floor: float) -> np.ndarray:
        """Mask of ``rows`` whose sketch does not certify x . q < floor."""
        d = q.shape[0]
        gamma = d * _F32_UNIT / (1.0 - d * _F32_UNIT)
        l1 = float(np.abs(q).sum())
        # Keep row i when fl32(k_i . q) >= 127 (floor - ||q||_1 / 254 - eps).
        cut = _float32_at_most(
            SKETCH_SCALE * (floor - l1 / (2 * SKETCH_SCALE) - l1 * (gamma + 2.0 * _F32_UNIT)))
        q32 = q.astype(np.float32)
        keep = np.empty(rows.shape[0], dtype=bool)
        for lo in range(0, rows.shape[0], SHORTLIST_CHUNK):
            block = np.take(self.sketch, rows[lo:lo + SHORTLIST_CHUNK], axis=0)
            np.greater_equal(block.astype(np.float32) @ q32, cut,
                             out=keep[lo:lo + SHORTLIST_CHUNK])
        return keep

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

    The candidates are the index's shortlist at the kernel's similarity
    floor, which holds every row of the bucket union that can reach the
    weight threshold.  A reused prediction appended by the engine is indexed
    immediately so it is retrievable from the very next query on.  ``index``
    must have been built over ``store``: it reads that store's alive mask and
    features.
    """
    if index.store is not store:
        raise ValueError("index was built over a different store")
    before = store.features.shape[0]
    floor = similarity_floor(store.config.kernel, store.config.weight_threshold)
    outcome = answer_query(store, query, src, candidates=index.retrieve(query, floor=floor))
    for new in range(before, store.features.shape[0]):
        index.add(new)
    return outcome
