"""Engine behavior: config resolution, per-example arithmetic, the query loop.

The heavyweight checks compare full runs against tests/reference.py, a
longhand reimplementation that shares nothing with the engine except the
noise tape.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_store, unit_rows
from dpknn import (
    DpParams,
    EngineConfig,
    ExampleStore,
    IndividualLedger,
    IngestionError,
    KernelSpec,
    LedgerInvariantError,
    NoiseSource,
    answer_query,
    answer_stream,
    budget_for_dp,
    capped_votes,
    kernel_weights,
    select_neighbors,
)
from dpknn.engine import _accumulate_votes
from dpknn.kernels import normalize_rows
from reference import noiseless_vote, reference_stream


def config(**overrides):
    base = dict(kernel=KernelSpec("cosine"), weight_threshold=0.3, sigma_vote=0.5,
                planned_queries=20, budget=50.0)
    base.update(overrides)
    return EngineConfig(**base)


# -- configuration --------------------------------------------------------------


def test_sigma_count_default_scales_with_planned_queries():
    cfg = config(planned_queries=600, budget=1.0)
    assert cfg.sigma_count == pytest.approx(10.0)
    # Each count release then costs 1/(2*100) = B * 3 / T of the budget.
    assert cfg.count_charge == pytest.approx(3.0 / 600.0)


def test_sigma_count_default_guards_zero_planned_queries():
    cfg = config(planned_queries=0, budget=2.0)
    assert cfg.sigma_count == pytest.approx(math.sqrt(1.0 / 12.0))


def test_explicit_sigma_count_wins():
    cfg = config(sigma_count=0.5)
    assert cfg.count_charge == pytest.approx(2.0)


def test_exactly_one_budget_source():
    with pytest.raises(ValueError, match="exactly one"):
        config(dp=DpParams(1.0, 1e-5))
    with pytest.raises(ValueError, match="exactly one"):
        config(budget=None)


def test_dp_target_resolves_to_converted_budget():
    params = DpParams(1.0, 1e-5)
    cfg = config(budget=None, dp=params)
    assert cfg.per_example_budget == budget_for_dp(params)


@pytest.mark.parametrize("bad", [
    dict(weight_threshold=-0.01),
    dict(weight_threshold=1.01),
    dict(sigma_vote=0.0),
    dict(sigma_vote=-1.0),
    dict(planned_queries=-1),
    dict(count_floor=0.5),
    dict(budget=0.0),
    dict(budget=-3.0),
    dict(sigma_count=0.0),
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        config(**bad)


# -- per-example vote arithmetic --------------------------------------------------


def test_contribution_caps_at_budget_neutral_magnitude():
    # cap = 0.5 * sqrt(2 * 30 / 60) = 0.5, below the raw weight 0.9
    magnitudes, charges = capped_votes(np.array([0.9]), np.array([1.0 / 60.0]), 30.0, 0.5)
    assert magnitudes == pytest.approx([0.5])
    assert charges.tolist() == [1.0 / 60.0]  # the whole remaining budget


def test_contribution_uses_weight_when_budget_ample():
    magnitudes, _ = capped_votes(np.array([0.4, 0.7]), np.array([10.0, 10.0]), 30.0, 0.5)
    assert magnitudes.tolist() == [0.4, 0.7]


def test_contribution_zero_budget_is_silent():
    magnitudes, charges = capped_votes(np.array([0.9]), np.array([0.0]), 30.0, 0.5)
    assert magnitudes.tolist() == [0.0]
    assert charges.tolist() == [0.0]


def test_charge_label_matches_closed_form():
    _, charges = capped_votes(np.array([0.5]), np.array([1.0]), 30.0, 0.4)
    assert charges[0] == pytest.approx(0.25 / 9.6, rel=1e-12)  # w^2 / (2 sigma^2 K)


def test_charge_label_saturated_is_exactly_zero():
    count_charge = 0.125
    ledger = IndividualLedger(3, budget=0.425)
    z = ledger.z - count_charge
    cap = 0.05 * math.sqrt(2.0 * 30.0 * z[0])
    # far above the cap, then at it and just below it, where rounding decides
    weights = np.array([0.95, cap, np.nextafter(cap, 0.0)])
    magnitudes, charges = capped_votes(weights, z, 30.0, 0.05)
    assert magnitudes[0] == cap and charges[0] == z[0]
    ledger.spend(np.arange(3), count_charge, charges)
    assert ledger.z[0] == 0.0
    assert np.all(np.abs(ledger.z[1:]) <= IndividualLedger.SLACK)


@pytest.mark.parametrize("n", [0, 1_000, 100_000, 100_001])
def test_accumulate_votes_matches_per_class_fsum(n):
    gen = np.random.default_rng(n)
    labels = gen.integers(0, 4, n)
    magnitudes = gen.random(n)
    got = _accumulate_votes(labels, magnitudes, 4)
    want = np.array([math.fsum(magnitudes[labels == c]) for c in range(4)])
    assert got.dtype == np.float64
    # plain index-ordered sums, within their rounding bound
    np.testing.assert_allclose(got, want, rtol=max(n, 1) * 2.0**-53, atol=0.0)


# -- selection --------------------------------------------------------------------


def cluster_store(cosines, tau, **overrides):
    """Store of 2-D unit vectors with prescribed cosines against query (1, 0)."""
    angles = np.arccos(np.asarray(cosines))
    features = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    labels = np.arange(len(cosines)) % 3
    cfg = config(weight_threshold=tau, **overrides)
    return ExampleStore(features, labels, 3, cfg), np.array([1.0, 0.0])


def test_select_threshold_is_inclusive():
    store, q = cluster_store([0.9, 0.12, 0.05], tau=0.5)
    # pin the threshold to example 1's weight exactly as the engine computes it
    middle = float(max(store.features[1] @ q, 0.0))
    at = ExampleStore(store.features, store.labels, 3,
                      config(weight_threshold=middle))
    idx, w = select_neighbors(at, q)
    assert idx.tolist() == [0, 1]
    assert w[1] == middle
    above = ExampleStore(store.features, store.labels, 3,
                         config(weight_threshold=np.nextafter(middle, 1.0)))
    idx, _ = select_neighbors(above, q)
    assert idx.tolist() == [0]


def test_select_zero_threshold_takes_everything():
    store, q = cluster_store([0.9, 0.12, -0.5], tau=0.0)
    idx, w = select_neighbors(store, q)
    assert idx.tolist() == [0, 1, 2]
    assert w[2] == 0.0  # clamped, and 0 >= 0 keeps it


def test_select_skips_exhausted_examples_but_not_public_ones():
    store, q = cluster_store([0.9, 0.8, 0.7], tau=0.3, sigma_count=0.1)
    # drain example 1 below the count-release threshold (50 per release)
    store.ledger.spend(np.array([1]), np.array([49.9]))
    pub = store.add_example(q, 0, public=True)
    idx, _ = select_neighbors(store, q)
    assert idx.tolist() == [0, 2, pub]


def test_select_respects_candidate_restriction():
    store, q = cluster_store([0.9, 0.8, 0.7], tau=0.3)
    idx, _ = select_neighbors(store, q, candidates=np.array([1]))
    assert idx.tolist() == [1]


def full_mask_select(store, query, candidates):
    """select_neighbors as it filtered before candidate-local filtering: two store-sized masks."""
    cfg = store.config
    mask = store.alive & store.ledger.active_mask(cfg.count_charge)
    restricted = np.zeros_like(mask)
    restricted[candidates] = True
    active = np.flatnonzero(mask & restricted)
    weights = kernel_weights(cfg.kernel, store.features[active], query)
    keep = weights >= cfg.weight_threshold
    return active[keep], weights[keep]


def test_candidate_local_filter_matches_the_full_mask_filter():
    gen = np.random.default_rng(8)
    store = small_store(seed=8, n=400, d=6, tau=0.2, sigma_count=0.5, budget=20.0)
    for i in gen.choice(400, size=40, replace=False):
        store.remove_example(int(i))
    retired = gen.choice(np.flatnonzero(store.alive), size=60, replace=False)
    store.ledger.spend(retired, np.full(60, 19.5))  # below the count charge of 2
    queries = unit_rows(gen, 6, 6)
    publics = [store.add_example(q, 1, public=True) for q in queries[:3]]
    assert store.public[publics].all()
    n = store.features.shape[0]
    for q in queries:
        for size in (0, 1, 50, n):
            picked = gen.choice(n, size=size, replace=False)
            for candidates in (np.sort(picked), picked, np.concatenate([picked, picked[:5]])):
                got_idx, got_w = select_neighbors(store, q, candidates=candidates)
                want_idx, want_w = full_mask_select(store, q, candidates)
                assert got_idx.dtype == np.int64
                assert got_idx.tolist() == want_idx.tolist()
                assert got_w.tobytes() == want_w.tobytes()


def test_active_mask_on_indices_matches_the_full_mask():
    store = small_store(n=50, sigma_count=0.5, budget=3.0)
    store.ledger.spend(np.arange(0, 50, 3), np.full(17, 1.5))
    store.add_example(np.eye(8)[0], 0, public=True)
    full = store.ledger.active_mask(2.0)
    for indices in (np.arange(51), np.array([50, 3, 4, 3]), np.empty(0, dtype=np.int64)):
        assert store.ledger.active_mask(2.0, indices).tolist() == full[indices].tolist()


# -- answer_query basics -----------------------------------------------------------


def test_answer_query_validates_query():
    store = small_store()
    src = NoiseSource(0)
    with pytest.raises(ValueError, match="dimension"):
        answer_query(store, np.zeros(3), src)
    with pytest.raises(IngestionError, match="unit"):
        answer_query(store, np.full(8, 0.5), src)  # norm sqrt(2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_answer_query_rejects_non_finite_query(bad):
    store = small_store()
    q = np.eye(8)[0]
    q[3] = bad
    with pytest.raises(IngestionError, match="finite"):
        answer_query(store, q, NoiseSource(0))
    assert store.queries_answered == 0


def test_failed_charge_leaves_ledger_and_trail_untouched(monkeypatch):
    store = small_store(n=20, tau=0.1)
    q = store.features[0]

    def refuse(self, indices, *amounts):
        raise LedgerInvariantError("refused")

    monkeypatch.setattr(IndividualLedger, "spend", refuse)
    before = store.ledger.z.copy()
    with pytest.raises(LedgerInvariantError, match="refused"):
        answer_query(store, q, NoiseSource(0))
    assert np.array_equal(store.ledger.z, before)
    assert store.released == []
    assert store.queries_answered == 0


def test_answer_query_draw_count_is_fixed_per_query():
    store = small_store(n=10, c=4, tau=0.99)  # nothing selected at this threshold
    src = NoiseSource(5)
    queries = unit_rows(np.random.default_rng(1), 6, 8)
    answer_stream(store, queries, src)
    assert src.draws == 6 * (1 + 4)


def test_unanimous_neighborhood_wins():
    q = np.zeros(8)
    q[0] = 1.0
    features = np.tile(q, (10, 1))
    cfg = config(weight_threshold=0.5, sigma_vote=1e-3, sigma_count=1e-3,
                 budget=1e7, planned_queries=1)
    store = ExampleStore(features, np.full(10, 2), 4, cfg)
    out = answer_query(store, q, NoiseSource(3))
    assert out.answer == 2
    assert out.selected.tolist() == list(range(10))


def test_exhausted_store_answers_from_noise_alone():
    q = np.zeros(4)
    q[0] = 1.0
    features = np.tile(q, (5, 1))
    cfg = config(weight_threshold=0.0, sigma_vote=0.5, sigma_count=1.0,
                 budget=0.6, planned_queries=2)
    store = ExampleStore(features, np.arange(5) % 3, 3, cfg)
    src = NoiseSource(11)
    first = answer_query(store, q, src)
    assert first.selected.size == 5
    # one count release (0.5) dropped everyone below the next release's price
    second = answer_query(store, q, src)
    assert second.selected.size == 0
    assert second.released_count == 30.0
    assert len(second.charges) == 0
    assert 0 <= second.answer < 3


def test_empty_store_still_answers():
    store = small_store(n=1)
    store.remove_example(0)
    out = answer_query(store, np.eye(8)[0], NoiseSource(0))
    assert out.selected.size == 0
    assert 0 <= out.answer < 3


def test_saturated_example_lands_on_exact_zero():
    q = np.zeros(4)
    q[0] = 1.0
    cfg = config(weight_threshold=0.5, sigma_vote=0.05, sigma_count=1.0,
                 budget=0.6, planned_queries=1)
    store = ExampleStore(q[None, :], [1], 3, cfg)
    out = answer_query(store, q, NoiseSource(2))
    assert store.ledger.z[0] == 0.0
    assert out.charges[0].count_charge == 0.5
    assert out.charges[0].label_charge == 0.6 - 0.5  # everything that was left


def test_count_floor_is_honored():
    store = small_store(n=3, tau=0.99, count_floor=30.0)
    out = answer_query(store, np.eye(8)[0], NoiseSource(0))
    assert out.released_count >= 30.0


# -- equivalence with the longhand reimplementation --------------------------------


def clustered_data(gen, n, d, c, spread=0.05):
    means = unit_rows(gen, c, d)
    labels = np.arange(n) % c
    feats = means[labels] + spread * gen.standard_normal((n, d))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    return feats, labels, means


def run_both(features, labels, c, queries, cfg, seed):
    store = ExampleStore(features, labels, c, cfg)
    outcomes = answer_stream(store, queries, NoiseSource(seed))
    ref = reference_stream(
        features, labels, c, queries,
        kind=cfg.kernel.kind, bandwidth=cfg.kernel.bandwidth,
        tau=cfg.weight_threshold, sigma_count=cfg.sigma_count,
        sigma_vote=cfg.sigma_vote, count_floor=cfg.count_floor,
        budget=cfg.per_example_budget, src=NoiseSource(seed),
        reuse=cfg.reuse_predictions,
    )
    return store, outcomes, ref


def assert_runs_match(store, outcomes, ref, n_original, atol):
    ref_answers, ref_z, ref_public, ref_records = ref
    assert [o.answer for o in outcomes] == ref_answers
    np.testing.assert_allclose(store.ledger.z[:n_original],
                               np.array(ref_z[:n_original]), rtol=0, atol=atol)
    flat = [(r.query_index, r.example, r.count_charge, r.label_charge)
            for o in outcomes for r in o.charges]
    assert len(flat) == len(ref_records)
    for got, want in zip(flat, ref_records):
        assert got[:2] == want[:2]
        assert got[2] == want[2]
        assert got[3] == pytest.approx(want[3], rel=1e-9, abs=atol)


def test_matches_reference_low_noise_ample_budget():
    gen = np.random.default_rng(42)
    feats, labels, means = clustered_data(gen, 5, 4, 3)
    queries = unit_rows(gen, 4, 4) * 0.0 + means[np.arange(4) % 3]
    queries += 0.03 * gen.standard_normal(queries.shape)
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    cfg = config(weight_threshold=0.3, sigma_vote=1e-3, sigma_count=1e-3,
                 budget=2.1e6, planned_queries=4)
    store, outcomes, ref = run_both(feats, labels, 3, queries, cfg, seed=7)
    assert_runs_match(store, outcomes, ref, 5, atol=1e-9)
    # with this much budget and this little noise the answers are the
    # noiseless kernel votes
    for q, out in zip(queries, outcomes):
        want, _ = noiseless_vote(feats, labels, 3, q, kind="cosine",
                                 bandwidth=None, tau=0.3)
        assert out.answer == want


def test_matches_reference_rbf_kernel():
    gen = np.random.default_rng(3)
    feats, labels, _ = clustered_data(gen, 8, 5, 3)
    queries = unit_rows(gen, 5, 5)
    cfg = config(kernel=KernelSpec("rbf", bandwidth=1.3), weight_threshold=0.2,
                 sigma_vote=0.4, sigma_count=0.6, budget=8.0, planned_queries=5)
    store, outcomes, ref = run_both(feats, labels, 3, queries, cfg, seed=19)
    assert_runs_match(store, outcomes, ref, 8, atol=1e-9)


def test_matches_reference_through_retirement_and_saturation():
    gen = np.random.default_rng(2024)
    feats = unit_rows(gen, 40, 6)
    labels = gen.integers(0, 4, size=40)
    queries = unit_rows(gen, 12, 6)
    cfg = config(weight_threshold=0.2, sigma_vote=0.3, sigma_count=0.3,
                 budget=25.0, planned_queries=12)
    store, outcomes, ref = run_both(feats, labels, 4, queries, cfg, seed=99)
    assert_runs_match(store, outcomes, ref, 40, atol=1e-9)
    # the ledger must end inside [0, B] and some example must actually retire
    assert (store.ledger.z >= -1e-9).all()
    assert (store.ledger.z <= 25.0).all()
    assert (store.ledger.z < cfg.count_charge).any()


def test_matches_reference_with_prediction_reuse():
    gen = np.random.default_rng(8)
    feats, labels, means = clustered_data(gen, 9, 4, 3)
    queries = means[np.arange(6) % 3] + 0.05 * gen.standard_normal((6, 4))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    cfg = config(weight_threshold=0.3, sigma_vote=0.3, sigma_count=0.5,
                 budget=6.0, planned_queries=6, reuse_predictions=True)
    store, outcomes, ref = run_both(feats, labels, 3, queries, cfg, seed=31)
    ref_answers, ref_z, ref_public, _ = ref
    assert_runs_match(store, outcomes, ref, 9, atol=1e-9)
    assert store.public.sum() == 6
    assert store.public.tolist() == ref_public


# -- stream bookkeeping -------------------------------------------------------------


def test_stream_outcomes_are_ordered_and_recorded():
    store = small_store(n=20, queries=5)
    queries = unit_rows(np.random.default_rng(0), 5, 8)
    outcomes = answer_stream(store, queries, NoiseSource(1))
    assert [o.query_index for o in outcomes] == list(range(5))
    assert store.queries_answered == 5
    assert store.released == outcomes


def test_ledger_equals_budget_minus_recorded_charges():
    store = small_store(n=25, budget=3.0, tau=0.1, sigma_count=0.4, queries=10)
    queries = unit_rows(np.random.default_rng(7), 10, 8)
    answer_stream(store, queries, NoiseSource(4))
    spent = {}
    for out in store.released:
        for r in out.charges:
            spent[r.example] = spent.get(r.example, 0.0) + r.count_charge + r.label_charge
    for i in range(25):
        assert store.ledger.z[i] == pytest.approx(3.0 - spent.get(i, 0.0), abs=1e-9)


def test_never_selected_budgets_are_bitwise_untouched():
    store = small_store(n=40, d=8, budget=50.0, tau=0.6, queries=15)
    queries = unit_rows(np.random.default_rng(21), 15, 8)
    weights = np.maximum(store.features @ queries.T, 0.0)
    never = np.flatnonzero((weights < 0.6).all(axis=1))
    assert never.size > 0
    answer_stream(store, queries, NoiseSource(13))
    assert (store.ledger.z[never] == 50.0).all()


# -- mutation ------------------------------------------------------------------------


def identical_point_store(n=6, c=3, **overrides):
    q = np.zeros(4)
    q[0] = 1.0
    cfg = config(weight_threshold=0.5, sigma_count=0.5, budget=100.0,
                 planned_queries=10, **overrides)
    store = ExampleStore(np.tile(q, (n, 1)), np.arange(n) % c, c, cfg)
    return store, q


def test_removed_example_is_never_selected_again():
    store, q = identical_point_store()
    src = NoiseSource(0)
    first = answer_query(store, q, src)
    assert 2 in first.selected
    store.remove_example(2)
    second = answer_query(store, q, src)
    assert 2 not in second.selected
    assert second.selected.tolist() == [0, 1, 3, 4, 5]


def test_removal_leaves_other_budgets_alone():
    store, q = identical_point_store()
    answer_query(store, q, NoiseSource(0))
    before = store.ledger.z.copy()
    store.remove_example(4)
    assert (store.ledger.z == before).all()
    assert store.size == 5


def test_remove_validates_index():
    store = small_store(n=3)
    with pytest.raises(IndexError):
        store.remove_example(3)
    with pytest.raises(IndexError):
        store.remove_example(-1)
    store.remove_example(1)
    with pytest.raises(IndexError):
        store.remove_example(1)


def test_indices_are_stable_across_removal():
    store, q = identical_point_store()
    store.remove_example(2)
    new = store.add_example(q, 1)
    assert new == 6
    assert store.alive.tolist() == [True, True, False, True, True, True, True]
    out = answer_query(store, q, NoiseSource(0))
    assert new in out.selected


def test_duplicate_inserts_are_charged_independently():
    store, q = identical_point_store(n=2)
    a = store.add_example(q, 0)
    b = store.add_example(q, 0)
    answer_query(store, q, NoiseSource(0))
    assert store.ledger.z[a] == store.ledger.z[b] < 100.0
    charged = {r.example for r in store.released[0].charges}
    assert {a, b} <= charged


def test_added_example_gets_fresh_budget():
    store, q = identical_point_store()
    answer_query(store, q, NoiseSource(0))
    idx = store.add_example(q, 2)
    assert store.ledger.remaining(idx) == 100.0


def test_add_example_validates():
    store = small_store(n=4, c=3)
    with pytest.raises(IngestionError, match="dimension"):
        store.add_example(np.ones(5), 0)
    with pytest.raises(IngestionError, match="label"):
        store.add_example(np.ones(8), 3)


# -- amortized growth ----------------------------------------------------------------

GROWN = ("features", "labels", "public", "alive")


def store_arrays(store):
    arrays = {name: getattr(store, name) for name in GROWN}
    arrays.update(z=store.ledger.z, unlimited=store.ledger.unlimited)
    return arrays


def test_inserts_match_naive_vstack_append_bitwise():
    gen = np.random.default_rng(8)
    store = small_store(n=1000, d=8, seed=8)
    want = {name: a.copy() for name, a in store_arrays(store).items()}
    seen = store_arrays(store)
    reallocations = dict.fromkeys(seen, 0)

    def remove_one():
        i = int(gen.choice(np.flatnonzero(store.alive)))
        store.remove_example(i)
        want["alive"][i] = False

    for k in range(5000):
        if gen.random() < 0.05:
            remove_one()
        if store.features.shape[0] in (1000, 1999, 2000, 3999, 4000):  # just before a crossing
            remove_one()
        private = np.flatnonzero(~store.ledger.unlimited)
        spent = gen.choice(private, size=3, replace=False)
        store.ledger.spend(spent, np.full(3, 1e-3))
        want["z"][spent] = want["z"][spent] - 1e-3
        feature = unit_rows(gen, 1, 8)[0]
        label = int(gen.integers(0, 3))
        public = bool(k % 3 == 0)
        index = store.add_example(feature, label, public=public)
        assert index == want["features"].shape[0]
        want["features"] = np.vstack([want["features"], normalize_rows(feature[None, :])])
        want["labels"] = np.append(want["labels"], label)
        want["public"] = np.append(want["public"], public)
        want["alive"] = np.append(want["alive"], True)
        want["z"] = np.append(want["z"], store.ledger.budget)
        want["unlimited"] = np.append(want["unlimited"], public)
        got = store_arrays(store)
        moved = [name for name, array in got.items() if not np.shares_memory(array, seen[name])]
        for name in moved:
            reallocations[name] += 1
        if moved:
            remove_one()  # just after a crossing
        seen = got
        assert len(store.ledger) == store.features.shape[0] == store.alive.shape[0] \
            == store.public.shape[0] == store.labels.shape[0]
        assert np.shares_memory(store.public, store.ledger.unlimited), f"after {k + 1} inserts"
        if k % 50 == 0 or k == 4999:
            for name, array in store_arrays(store).items():
                assert array.dtype == want[name].dtype, name
                assert array.tobytes() == want[name].tobytes(), f"{name} after {k + 1} inserts"
    # 1000 -> 6000 rows: at most ceil(log2(6)) + 1 buffer reallocations per array
    assert all(1 <= count <= math.ceil(math.log2(6)) + 1 for count in reallocations.values()), \
        reallocations


def test_store_never_writes_the_arrays_it_was_built_from():
    gen = np.random.default_rng(2)
    features = unit_rows(gen, 50, 8)
    labels = gen.integers(0, 3, size=50)
    kept = features.copy(), labels.copy()
    features.flags.writeable = False
    labels.flags.writeable = False
    store = ExampleStore(features, labels, 3, config(reuse_predictions=True))
    store.remove_example(0)
    src = NoiseSource(4)
    for q in unit_rows(gen, 40, 8):
        answer_query(store, q, src)
        store.add_example(q, 1)
        store.remove_example(int(np.flatnonzero(store.alive)[0]))
    assert store.features.shape[0] == 130
    assert (features == kept[0]).all() and (labels == kept[1]).all()


def test_stores_built_from_one_dataset_stay_independent_under_reuse():
    gen = np.random.default_rng(5)
    features = unit_rows(gen, 60, 8)
    labels = gen.integers(0, 3, size=60)
    queries = unit_rows(gen, 30, 8)
    cfg = config(reuse_predictions=True)
    first = ExampleStore(features, labels, 3, cfg)
    second = ExampleStore(features, labels, 3, cfg)
    untouched = {name: a.copy() for name, a in store_arrays(second).items()}
    a = answer_stream(first, queries, NoiseSource(6))
    assert first.features.shape[0] == 90
    for name, array in store_arrays(second).items():
        assert array.tobytes() == untouched[name].tobytes(), name
    b = answer_stream(second, queries, NoiseSource(6))
    assert [o.answer for o in a] == [o.answer for o in b]
    grown = store_arrays(second)
    for name, array in store_arrays(first).items():
        assert array.tobytes() == grown[name].tobytes(), name


# -- prediction reuse ----------------------------------------------------------------


def test_reused_predictions_are_public_uncharged_and_counted():
    q = np.zeros(4)
    q[0] = 1.0
    cfg = config(weight_threshold=0.0, sigma_vote=0.5, sigma_count=1e-3,
                 budget=1e7, planned_queries=3, count_floor=1.0,
                 reuse_predictions=True)
    store = ExampleStore(np.tile(q, (3, 1)), np.array([0, 1, 2]), 3, cfg)
    src = NoiseSource(6)
    counts = [answer_query(store, q, src).released_count for _ in range(3)]
    # each answered query re-enters the pool and is counted by the next one
    assert [round(c) for c in counts] == [3, 4, 5]
    assert store.public.sum() == 3
    for out in store.released:
        for r in out.charges:
            assert not store.public[r.example]
    assert (store.ledger.z[~store.public] < 1e7).all()


def test_reuse_appends_the_answer_as_label():
    store = small_store(n=12, tau=0.2, budget=80.0, reuse=True)
    out = answer_query(store, np.eye(8)[1], NoiseSource(9))
    assert store.labels[-1] == out.answer
    assert store.public[-1]
    assert store.ledger.unlimited[-1]


def test_reuse_matches_no_reuse_on_well_separated_data():
    gen = np.random.default_rng(14)
    feats, labels, means = clustered_data(gen, 30, 8, 3, spread=0.03)
    queries = means[np.arange(8) % 3] + 0.03 * gen.standard_normal((8, 8))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    answers = {}
    for reuse in (False, True):
        cfg = config(weight_threshold=0.5, sigma_vote=0.05, sigma_count=0.05,
                     budget=1e5, planned_queries=8, reuse_predictions=reuse)
        store = ExampleStore(feats, labels, 3, cfg)
        outs = answer_stream(store, queries, NoiseSource(23))
        answers[reuse] = [o.answer for o in outs]
    assert answers[False] == answers[True]


# -- property checks -----------------------------------------------------------------


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 25), tau=st.floats(0.0, 0.9),
       budget=st.floats(0.05, 40.0), t=st.integers(1, 8))
def test_budgets_stay_in_range_under_random_streams(seed, n, tau, budget, t):
    gen = np.random.default_rng(seed)
    cfg = config(weight_threshold=tau, sigma_vote=0.4, sigma_count=0.5,
                 budget=budget, planned_queries=t)
    store = ExampleStore(unit_rows(gen, n, 6), gen.integers(0, 3, n), 3, cfg)
    src = NoiseSource(seed + 1)
    answer_stream(store, unit_rows(gen, t, 6), src)
    assert (store.ledger.z >= -1e-9).all()
    assert (store.ledger.z <= budget).all()
    assert src.draws == t * 4


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10_000))
def test_charges_are_never_negative(seed):
    gen = np.random.default_rng(seed)
    cfg = config(weight_threshold=0.1, sigma_vote=0.3, sigma_count=0.4,
                 budget=2.0, planned_queries=6)
    store = ExampleStore(unit_rows(gen, 15, 5), gen.integers(0, 3, 15), 3, cfg)
    answer_stream(store, unit_rows(gen, 6, 5), NoiseSource(seed))
    for out in store.released:
        for r in out.charges:
            assert r.count_charge > 0
            assert r.label_charge >= 0
