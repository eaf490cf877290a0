"""The columnar charge trail on a paper-scale stream.

Each QueryOutcome keeps its charges as arrays; ChargeRecord objects exist only
when an audit reads ``outcome.charges``.  These tests pin that the query path
builds none, that the records an audit gets are the ones the engine charged the
ledger with, and that the naive oracle still agrees with the ledger.
"""

import numpy as np
import pytest

from dpknn import (
    ChargeRecord,
    DpParams,
    EngineConfig,
    IndividualLedger,
    KernelSpec,
    NoiseSource,
    answer_query,
    answer_stream,
    oracle_compose,
)
from dpknn import engine
from dpknn.data import generate_synthetic

QUERIES = 300


def paper_store():
    """The paper setting: 6000x16, 3 classes, cosine tau=0.85, sigma_vote=0.9, eps=1, T=300."""
    data = generate_synthetic(num_classes=3, size=6000, dim=16, num_queries=QUERIES, seed=5)
    config = EngineConfig(kernel=KernelSpec("cosine"), weight_threshold=0.85, sigma_vote=0.9,
                          planned_queries=QUERIES, dp=DpParams(1.0, 1e-5))
    return data.store(config), data.query_features


def test_query_path_builds_no_charge_records(monkeypatch):
    def refuse(*args):
        raise AssertionError("the query path built a ChargeRecord")

    monkeypatch.setattr(engine, "ChargeRecord", refuse)
    store, queries = paper_store()
    outcomes = answer_stream(store, queries, NoiseSource(1))
    assert len(outcomes) == QUERIES
    # paper scale: hundreds of charges per query
    assert sum(o.charged.shape[0] for o in outcomes) > 100 * QUERIES
    with pytest.raises(AssertionError, match="ChargeRecord"):
        outcomes[0].charges  # only an audit read builds records


def test_charges_are_the_records_the_ledger_was_charged_with(monkeypatch):
    """Field for field, the records the engine built per charge before the trail was columnar.

    Those were ChargeRecord(t, int(i), count_charge, float(label)) over the
    private selected examples, with the amounts the ledger deducted.
    """
    spent = []
    spend = IndividualLedger.spend

    def recording_spend(ledger, indices, *amounts):
        spend(ledger, indices, *amounts)
        spent.append((np.array(indices), amounts))

    monkeypatch.setattr(IndividualLedger, "spend", recording_spend)
    store, queries = paper_store()
    cfg = store.config
    for t, q in enumerate(queries):
        before = store.ledger.z.copy()
        out = answer_query(store, q, NoiseSource(t))
        indices, (count, labels) = spent[t]
        want = [ChargeRecord(t, int(i), count, float(c)) for i, c in zip(indices, labels)]
        got = out.charges
        assert got == want
        assert all(type(r.example) is int and type(r.label_charge) is float for r in got)
        assert count == cfg.count_charge
        assert np.array_equal(out.charged, out.selected[~store.public[out.selected]])
        after = before.copy()
        after[indices] = (before[indices] - count) - labels
        assert np.array_equal(store.ledger.z, after)
    assert len(spent) == QUERIES


def test_oracle_over_the_trail_matches_the_ledger():
    store, queries = paper_store()
    answer_stream(store, queries, NoiseSource(2))
    budget = store.config.per_example_budget
    # oracle_compose is quadratic by design; audit a sample of the charged examples
    charged = np.unique(np.concatenate([o.charged for o in store.released]))
    sample = set(np.random.default_rng(0).choice(charged, 40, replace=False).tolist())
    records = [r for o in store.released for r in o.charges if r.example in sample]
    totals = oracle_compose(records)
    assert set(totals) == sample
    for i, total in totals.items():
        assert abs(store.ledger.z[i] - (budget - total)) <= 1e-9
