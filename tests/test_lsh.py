"""Sign-random-projection index: codes, buckets, retrieval, engine integration."""

import numpy as np
import pytest

from conftest import small_store, unit_rows
from dpknn import lsh
from dpknn import (
    EngineConfig,
    ExampleStore,
    KernelSpec,
    LshIndex,
    NoiseSource,
    answer_query,
    answer_query_hashed,
    build_index,
    generate_synthetic,
    kernel_weights,
    normalize_rows,
)
from dpknn.kernels import FLOOR_SLACK, similarity_floor


def make_store(features, labels, c=3, tau=0.3, budget=50.0, **overrides):
    cfg = EngineConfig(kernel=KernelSpec("cosine"), weight_threshold=tau,
                       sigma_vote=0.5, planned_queries=20, budget=budget,
                       **overrides)
    return ExampleStore(features, labels, c, cfg)


def clustered(gen, clusters, per_cluster, d, spread=0.02):
    means = unit_rows(gen, clusters, d)
    labels = np.repeat(np.arange(clusters), per_cluster)
    feats = means[labels] + spread * gen.standard_normal((labels.size, d))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    return feats, labels % 3, means


# -- construction and codes -------------------------------------------------------


def test_index_is_deterministic_in_seed():
    store = small_store(n=50, d=8)
    a = build_index(store, tables=4, bits=6, seed=9)
    b = build_index(store, tables=4, bits=6, seed=9)
    assert (a.hyperplanes == b.hyperplanes).all()
    q = unit_rows(np.random.default_rng(0), 1, 8)[0]
    assert (a.retrieve(q) == b.retrieve(q)).all()
    c = build_index(store, tables=4, bits=6, seed=10)
    assert not (a.hyperplanes == c.hyperplanes).all()


def test_codes_shape_and_range():
    store = small_store(n=40, d=8)
    index = build_index(store, tables=5, bits=7, seed=1)
    codes = index.codes_for(store.features)
    assert codes.shape == (40, 5)
    assert codes.min() >= 0
    assert codes.max() < 2**7
    single = index.codes_for(store.features[3])
    assert single.shape == (5,)
    assert (single == codes[3]).all()


def test_antipodal_vectors_get_complement_codes():
    store = small_store(n=10, d=8)
    index = build_index(store, tables=3, bits=8, seed=2)
    codes = index.codes_for(store.features)
    flipped = index.codes_for(-store.features)
    assert (codes + flipped == 2**8 - 1).all()


def test_parameter_validation():
    store = small_store(n=5)
    with pytest.raises(ValueError, match="tables"):
        build_index(store, tables=0, bits=4, seed=0)
    with pytest.raises(ValueError, match="bits"):
        build_index(store, tables=2, bits=0, seed=0)
    with pytest.raises(ValueError, match="bits"):
        build_index(store, tables=2, bits=64, seed=0)


def test_buckets_partition_live_examples():
    store = small_store(n=60, d=8)
    store.remove_example(7)
    store.remove_example(20)
    index = build_index(store, tables=4, bits=5, seed=3)
    codes = index.codes_for(store.features)
    live = np.flatnonzero(store.alive)
    for table in range(4):
        members = np.concatenate(list(index._buckets[table].values()))
        assert sorted(members.tolist()) == live.tolist()
        for i in live:
            assert i in index._buckets[table][int(codes[i, table])]
    for row in index.occupancy():
        assert row["buckets"] >= 1
        assert row["min"] >= 1


def one_shot_buckets(index, store):
    """Buckets formed from codes_for over every live row at once, by a per-code scan."""
    live = np.flatnonzero(store.alive)
    codes = index.codes_for(store.features[live])
    return [{int(c): live[codes[:, t] == c] for c in np.unique(codes[:, t])}
            for t in range(index.tables)]


def assert_same_buckets(got, want):
    for table_got, table_want in zip(got, want, strict=True):
        assert list(table_got) == sorted(table_want)  # keys in ascending order
        for key, members in table_want.items():
            assert table_got[key].dtype == np.int64
            assert table_got[key].tolist() == members.tolist()


@pytest.mark.parametrize("n", [0, 5, 2 * lsh.BUILD_CHUNK + 3])
@pytest.mark.parametrize("bits", [3, 8, 12, 63])
def test_chunked_build_matches_one_shot_codes(n, bits):
    gen = np.random.default_rng(n + bits)
    store = make_store(unit_rows(gen, n, 8), gen.integers(0, 3, size=n)) if n else small_store(n=1)
    store.remove_example(n // 2)  # n = 0 builds over a store whose only row is removed
    index = build_index(store, tables=3, bits=bits, seed=4)
    assert_same_buckets(index._buckets, one_shot_buckets(index, store))


def test_build_with_small_chunks_matches_one_shot_codes(monkeypatch):
    monkeypatch.setattr(lsh, "BUILD_CHUNK", 7)
    store = small_store(n=60, d=8)
    for i in (0, 6, 7, 59):
        store.remove_example(i)
    index = build_index(store, tables=5, bits=4, seed=2)
    assert_same_buckets(index._buckets, one_shot_buckets(index, store))


def test_batch_codes_equal_single_vector_codes():
    vectors = unit_rows(np.random.default_rng(10), 10_000, 64)
    store = small_store(n=5, d=64)
    index = build_index(store, tables=30, bits=8, seed=3)
    codes = index.codes_for(vectors)
    assert codes.dtype == np.int64
    for i, v in enumerate(vectors):
        assert (index.codes_for(v) == codes[i]).all(), i


# -- retrieval ----------------------------------------------------------------------


def test_retrieve_matches_brute_force_collisions():
    gen = np.random.default_rng(17)
    store = small_store(n=80, d=10, seed=17)
    index = build_index(store, tables=6, bits=4, seed=5)
    for q in unit_rows(gen, 5, 10):
        got = index.retrieve(q)
        qc = index.codes_for(q)
        collide = (index.codes_for(store.features) == qc).any(axis=1)
        want = np.flatnonzero(collide & store.alive)
        assert got.tolist() == want.tolist()


def test_retrieve_drops_removed_and_sees_added():
    gen = np.random.default_rng(4)
    feats, labels, means = clustered(gen, 1, 12, 8)
    store = make_store(feats, labels)
    index = build_index(store, tables=8, bits=2, seed=6)
    q = means[0]
    before = index.retrieve(q)
    assert before.size == 12  # tight cluster collides with itself
    store.remove_example(3)
    assert 3 not in index.retrieve(q)
    new = store.add_example(means[0], 1)
    index.add(new)
    assert new in index.retrieve(q)


def test_retrieve_on_empty_store():
    store = small_store(n=1)
    store.remove_example(0)
    index = build_index(store, tables=2, bits=3, seed=0)
    assert index.retrieve(np.eye(8)[0]).size == 0


def union_then_filter(index, q):
    """Retrieval as the union of collision buckets by np.unique, then the alive filter."""
    codes = index.codes_for(q)
    hits = [index._buckets[t][int(c)] for t, c in enumerate(codes) if int(c) in index._buckets[t]]
    if not hits:
        return np.empty(0, dtype=np.int64)
    candidates = np.unique(np.concatenate(hits))
    return candidates[index.store.alive[candidates]]


def test_retrieve_matches_union_reference_across_inserts_and_removals():
    gen = np.random.default_rng(21)
    feats, labels, means = clustered(gen, 4, 25, 8, spread=0.2)
    store = make_store(feats, labels)
    index = build_index(store, tables=6, bits=3, seed=7)
    queries = unit_rows(gen, 10, 8)

    def check():
        for q in np.vstack([queries, means]):
            got = index.retrieve(q)
            want = union_then_filter(index, q)
            assert got.dtype == np.int64
            assert got.tobytes() == want.tobytes()

    check()
    for step in range(60):
        if step % 3 == 0:
            index.add(store.add_example(means[step % 4] + 0.1 * gen.standard_normal(8), 1))
        live = np.flatnonzero(store.alive)
        store.remove_example(int(gen.choice(live)))
        check()
    for i in np.flatnonzero(store.alive):
        store.remove_example(int(i))
    check()
    assert all(index.retrieve(q).size == 0 for q in queries)


# -- engine integration ---------------------------------------------------------------


def test_full_recall_reproduces_exhaustive_run_bitwise():
    gen = np.random.default_rng(23)
    feats, labels, means = clustered(gen, 1, 20, 8, spread=0.01)
    q = means[0]
    hashed_store = make_store(feats, labels, tau=0.5)
    plain_store = make_store(feats, labels, tau=0.5)
    index = build_index(hashed_store, tables=6, bits=3, seed=8)
    assert index.retrieve(q).size == 20  # precondition: nothing is missed
    got = answer_query_hashed(hashed_store, index, q, NoiseSource(77))
    want = answer_query(plain_store, q, NoiseSource(77))
    assert got.answer == want.answer
    assert got.released_count == want.released_count
    assert got.selected.tolist() == want.selected.tolist()
    assert (hashed_store.ledger.z == plain_store.ledger.z).all()


def test_empty_retrieval_charges_nothing():
    gen = np.random.default_rng(31)
    feats, labels, means = clustered(gen, 1, 15, 8, spread=0.01)
    store = make_store(feats, labels, tau=0.0)
    index = build_index(store, tables=4, bits=6, seed=9)
    away = -means[0]  # complement codes: collides with nothing in the cluster
    assert index.retrieve(away).size == 0
    before = store.ledger.z.copy()
    out = answer_query_hashed(store, index, away, NoiseSource(1))
    assert out.selected.size == 0
    assert len(out.charges) == 0
    assert (store.ledger.z == before).all()
    assert 0 <= out.answer < 3


def test_hashed_answer_rejects_an_index_built_over_another_store():
    gen = np.random.default_rng(12)
    feats, labels, means = clustered(gen, 1, 10, 8)
    store = make_store(feats, labels, reuse_predictions=True)
    other = make_store(feats, labels, reuse_predictions=True)
    index = build_index(other, tables=4, bits=3, seed=2)
    src = NoiseSource(3)
    with pytest.raises(ValueError, match="different store"):
        answer_query_hashed(store, index, means[0], src)
    assert store.released == [] and src.draws == 0
    assert store.features.shape[0] == other.features.shape[0] == 10


def test_reused_prediction_is_indexed_immediately():
    gen = np.random.default_rng(6)
    feats, labels, means = clustered(gen, 2, 10, 8)
    store = make_store(feats, labels, tau=0.4, reuse_predictions=True)
    index = build_index(store, tables=8, bits=3, seed=10)
    q = means[0]
    answer_query_hashed(store, index, q, NoiseSource(2))
    new = store.features.shape[0] - 1
    assert store.public[new]
    assert new in index.retrieve(q)


def test_recall_improves_with_more_tables():
    gen = np.random.default_rng(91)
    feats, labels, means = clustered(gen, 10, 30, 16, spread=0.08)
    store = make_store(feats, labels, tau=0.6)
    queries = means + 0.05 * gen.standard_normal(means.shape)
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)

    def median_recall(tables):
        index = build_index(store, tables=tables, bits=8, seed=12)
        recalls = []
        for q in queries:
            true = set(np.flatnonzero(store.features @ q >= 0.6).tolist())
            if not true:
                continue
            got = set(index.retrieve(q).tolist())
            recalls.append(len(true & got) / len(true))
        return float(np.median(recalls))

    low, high = median_recall(1), median_recall(24)
    assert high >= low
    assert high >= 0.9


# -- the certified int8 shortlist -----------------------------------------------------


def rows_at_dot(gen, q, dots):
    """Unit rows whose dot product with unit ``q`` is each of ``dots`` (up to rounding)."""
    rows = []
    for t in dots:
        u = gen.standard_normal(q.shape[0])
        u -= (u @ q) * q
        u /= np.linalg.norm(u)
        rows.append(t * q + np.sqrt(max(0.0, 1.0 - t * t)) * u)
    return np.array(rows)


def sketch_adversarial_rows(gen, q, dots):
    """Unit rows near each of ``dots`` against ``q`` whose int8 sketch underestimates x . q
    by close to ||q||_1 / 254: every 127 x_j but one sits 0.001 from a half-integer, on
    the side that rounds against q_j, and that one entry makes the row unit-norm."""
    rows = []
    for x in rows_at_dot(gen, q, dots):
        free = int(np.argmax(np.abs(x)))
        h = np.where(q >= 0, np.floor(127 * x) + 0.499, np.ceil(127 * x) - 0.499)
        h[free] = 0.0
        h[free] = np.copysign(np.sqrt(127.0 ** 2 - h @ h), x[free])
        rows.append(h / 127)
    return np.array(rows)


def kernel_at(kind):
    return KernelSpec("rbf", 1.0) if kind == "rbf" else KernelSpec("cosine")


def dot_reaching(kind, tau):
    """The x . q at which a unit row's weight equals tau (cosine or rbf with bandwidth 1)."""
    return 1.0 + 0.5 * np.log(tau) if kind == "rbf" else tau


def assert_shortlist_keeps_reachable_rows(store, index, q):
    cfg = store.config
    union = index.retrieve(q)
    floor = similarity_floor(cfg.kernel, cfg.weight_threshold)
    short = index.retrieve(q, floor=floor)
    assert short.dtype == np.int64
    assert np.isin(short, union).all()
    assert (np.diff(short) > 0).all()
    if floor is None:
        assert short.tolist() == union.tolist()
    # Weights as a gather of the union, of the whole store, and of each row alone.
    tau = cfg.weight_threshold
    reach = kernel_weights(cfg.kernel, store.features[union], q) >= tau
    reach |= kernel_weights(cfg.kernel, store.features, q)[union] >= tau
    reach |= np.array([kernel_weights(cfg.kernel, store.features[i:i + 1], q)[0] >= tau
                       for i in union], dtype=bool)
    assert np.isin(union[reach], short).all()
    return short


@pytest.mark.parametrize("kind", ["cosine", "rbf"])
@pytest.mark.parametrize("d", [1, 8, 64])
@pytest.mark.parametrize("tau", [0.0, 0.3, 0.7, 1.0])
def test_shortlist_keeps_every_row_that_reaches_the_threshold(kind, d, tau):
    gen = np.random.default_rng([d, int(100 * tau), len(kind)])
    q = unit_rows(gen, 1, d)[0]
    parts = [unit_rows(gen, 300, d), np.vstack([q, -q])]
    if d > 1:
        if tau > 0:
            t = dot_reaching(kind, tau)
            parts.append(rows_at_dot(gen, q, [t, np.nextafter(t, -2.0), np.nextafter(t, 2.0)] * 3))
        parts.append(sketch_adversarial_rows(gen, q, np.linspace(-0.5, 1.0, 20)))
    feats = np.vstack(parts)
    cfg = EngineConfig(kernel=kernel_at(kind), weight_threshold=tau, sigma_vote=0.5,
                       planned_queries=20, budget=50.0, reuse_predictions=True)
    store = ExampleStore(feats, gen.integers(0, 3, size=feats.shape[0]), 3, cfg)
    index = build_index(store, tables=16, bits=1, seed=d)
    assert_shortlist_keeps_reachable_rows(store, index, q)
    # Reused predictions enter as public rows; the query itself is one of them.
    src = NoiseSource(d)
    for query in [q, *unit_rows(gen, 3, d), q]:
        answer_query_hashed(store, index, query, src)
        assert_shortlist_keeps_reachable_rows(store, index, query)
    assert store.public.sum() == 5


def test_shortlist_keeps_adversarial_rows_at_the_threshold():
    gen = np.random.default_rng(5)
    q = unit_rows(gen, 1, 64)[0]
    adversarial = sketch_adversarial_rows(gen, q, [0.5] * 40)
    feats = np.vstack([adversarial, unit_rows(gen, 200, 64)])
    store = make_store(feats, np.zeros(feats.shape[0], dtype=np.int64))
    index = build_index(store, tables=16, bits=1, seed=2)
    rows = store.features[:40]
    shortfall = rows @ q - index.sketch[:40].astype(np.float64) @ q / 127
    margin = np.abs(q).sum() / 254
    assert (shortfall <= margin).all()
    assert np.median(shortfall) > 0.9 * margin  # a halved margin would drop these rows
    union = index.retrieve(q)
    for i in range(40):
        # The threshold is the row's own weight: the engine selects it.
        tau = kernel_weights(store.config.kernel, store.features[i:i + 1], q)[0]
        short = index.retrieve(q, floor=similarity_floor(store.config.kernel, tau))
        assert (i in short) == (i in union)
    assert np.isin(np.arange(40), union).mean() > 0.9


def test_shortlist_drops_rows_far_below_the_floor():
    gen = np.random.default_rng(3)
    q = unit_rows(gen, 1, 64)[0]
    feats = np.vstack([rows_at_dot(gen, q, [0.95] * 5 + [0.0] * 50), q])
    store = make_store(feats, np.zeros(feats.shape[0], dtype=np.int64), tau=0.7)
    index = build_index(store, tables=16, bits=1, seed=1)
    union = index.retrieve(q)
    short = index.retrieve(q, floor=similarity_floor(store.config.kernel, 0.7))
    assert {0, 1, 2, 3, 4, 55} <= set(short.tolist())
    assert len(short) == 6 < len(union)


def test_float32_cut_never_exceeds_the_float64_cut():
    gen = np.random.default_rng(0)
    values = np.concatenate([gen.uniform(-130, 130, 2000), [0.0, -1e-40, 1.0, -127.0]])
    for x in values.tolist():
        cut = lsh._float32_at_most(x)
        assert cut.dtype == np.float32
        assert float(cut) <= x < float(np.nextafter(cut, np.float32(np.inf)))


def test_similarity_floor():
    assert similarity_floor(KernelSpec("cosine"), 0.0) is None
    assert similarity_floor(KernelSpec("rbf", 2.0), 0.0) is None
    assert similarity_floor(KernelSpec("cosine"), 0.7) == 0.7 - FLOOR_SLACK
    got = similarity_floor(KernelSpec("rbf", 2.0), 0.5)
    assert got == pytest.approx(1.0 + 2.0 * np.log(0.5) - 4.0 * FLOOR_SLACK, abs=1e-15)


def test_stream_with_and_without_the_floor_agrees():
    data = generate_synthetic(num_classes=20, size=20_000, dim=64, num_queries=120, seed=4)
    cfg = EngineConfig(kernel=KernelSpec("cosine"), weight_threshold=0.7, sigma_vote=0.5,
                       planned_queries=120, budget=0.08, reuse_predictions=True)
    floored, plain = data.store(cfg), data.store(cfg)
    floored_index = build_index(floored, tables=30, bits=8, seed=5)
    plain_index = build_index(plain, tables=30, bits=8, seed=5)
    src_a, src_b = NoiseSource(9), NoiseSource(9)
    shortlisted = unioned = 0
    for q in data.query_features:
        got = answer_query_hashed(floored, floored_index, q, src_a)
        before = plain.features.shape[0]
        candidates = plain_index.retrieve(q)
        want = answer_query(plain, q, src_b, candidates=candidates)
        for new in range(before, plain.features.shape[0]):
            plain_index.add(new)
        assert got.selected.tolist() == want.selected.tolist()
        assert got.charged.tolist() == want.charged.tolist()
        assert got.released_count == want.released_count
        assert got.answer == want.answer
        np.testing.assert_allclose(got.label_charges, want.label_charges, rtol=0, atol=1e-12)
        np.testing.assert_allclose(floored.ledger.z, plain.ledger.z, rtol=0, atol=1e-12)
        shortlisted += floored_index.retrieve(q, floor=0.7 - FLOOR_SLACK).shape[0]
        unioned += candidates.shape[0]
    assert floored.private_remaining().min() < cfg.count_charge  # some examples retired
    assert shortlisted < unioned / 4


# -- inserts ---------------------------------------------------------------------------


def test_add_rejects_an_example_out_of_order():
    store = small_store(n=10, d=8)
    index = build_index(store, tables=2, bits=3, seed=0)
    store.add_example(np.eye(8)[0], 0)
    store.add_example(np.eye(8)[1], 0)
    with pytest.raises(ValueError, match="next example to index is 10"):
        index.add(11)


def test_inserts_match_one_shot_buckets_sketch_and_retrieval():
    gen = np.random.default_rng(77)
    d, tau = 8, 0.6
    store = make_store(unit_rows(gen, 40, d), gen.integers(0, 3, size=40), tau=tau)
    index = build_index(store, tables=3, bits=3, seed=6)
    inserts = unit_rows(gen, 5000, d)
    queries = unit_rows(gen, 3, d)
    floor = similarity_floor(store.config.kernel, tau)
    final_codes = index.codes_for(normalize_rows(np.vstack([store.features, inserts])))
    reallocations = 0
    for step, feature in enumerate(inserts):
        rooms = [dict(table) for table in index._room]
        n = store.add_example(feature, step % 3)
        index.add(n)
        reallocations += sum(room is not rooms[t].get(key)
                             for t, table in enumerate(index._room) for key, room in table.items())
        if step % 7 == 0:
            store.remove_example(int(gen.choice(np.flatnonzero(store.alive))))
        codes = final_codes[: n + 1]
        for t, table in enumerate(index._buckets):
            want = {int(c): np.flatnonzero(codes[:, t] == c) for c in np.unique(codes[:, t])}
            assert sorted(table) == sorted(want)
            for key, members in want.items():
                assert table[key].dtype == np.int64
                assert table[key].tolist() == members.tolist()
        assert index.sketch.tobytes() == np.rint(127 * store.features).astype(np.int8).tobytes()
        for q in queries:
            collide = (codes == index.codes_for(q)).any(axis=1) & store.alive
            assert index.retrieve(q).tolist() == np.flatnonzero(collide).tolist()
        if step % 500 == 499:
            fresh = build_index(store, tables=3, bits=3, seed=6)
            for q in queries:
                got = index.retrieve(q, floor=floor)
                assert got.tolist() == fresh.retrieve(q, floor=floor).tolist()
    assert reallocations >= 3 * 2 ** 3  # every bucket outgrew the build's spare room
