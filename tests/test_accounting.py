import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpknn import (
    ChargeRecord,
    DpParams,
    IndividualLedger,
    LedgerInvariantError,
    budget_for_dp,
    classical_dp_bound,
    oracle_compose,
    rdp_to_dp,
)


# -- conversion -----------------------------------------------------------------


def test_rdp_to_dp_zero_budget():
    assert rdp_to_dp(0.0, 1e-5) == 0.0


def test_rdp_to_dp_unit_budget_beats_classical():
    eps = rdp_to_dp(1.0, 1e-5)
    assert eps <= 1.0 + 2.0 * math.sqrt(math.log(1e5))
    assert eps <= 7.787


def test_rdp_to_dp_validates_delta():
    for delta in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            rdp_to_dp(1.0, delta)


def test_rdp_to_dp_grid_is_near_continuous_optimum():
    # Independent oracle: refine the conversion over a very fine alpha mesh.
    # The fixed grid is 0.01-spaced up to order 10 and 2-spaced beyond, so the
    # tight 1e-4 agreement applies where the optimal order falls in the dense
    # segment (alpha* = 1 + sqrt(log(1/delta)/B) <= 10); smaller budgets sit
    # on the coarse segment and may give back a few 1e-4 — still a valid
    # upper bound, since every grid point is one.
    for budget in (0.01, 0.05, 0.3, 1.0, 4.0):
        delta = 1e-5
        alpha = np.linspace(1.0005, 600.0, 400000)
        dense = (budget * alpha + np.log(1.0 / (alpha * delta)) / (alpha - 1.0)
                 + np.log1p(-1.0 / alpha)).min()
        got = rdp_to_dp(budget, delta)
        oracle = min(dense, classical_dp_bound(budget, delta))
        assert got <= classical_dp_bound(budget, delta) + 1e-12
        assert got >= oracle - 1e-9  # never *below* the true optimum
        alpha_star = 1.0 + math.sqrt(math.log(1.0 / delta) / budget)
        assert abs(got - oracle) <= (1e-4 if alpha_star <= 10.0 else 4e-3)


@given(st.floats(1e-6, 20.0), st.floats(1e-6, 20.0),
       st.sampled_from([1e-8, 1e-6, 1e-5, 1e-3]))
@settings(max_examples=60, deadline=None)
def test_rdp_to_dp_monotone_in_budget(b1, b2, delta):
    lo, hi = sorted((b1, b2))
    assert rdp_to_dp(lo, delta) <= rdp_to_dp(hi, delta) + 1e-12


def test_rdp_to_dp_monotone_in_delta():
    for budget in (0.05, 1.0):
        eps = [rdp_to_dp(budget, d) for d in (1e-9, 1e-7, 1e-5, 1e-3, 1e-1)]
        assert all(a >= b - 1e-12 for a, b in zip(eps, eps[1:]))


@pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0])
def test_budget_for_dp_round_trip(epsilon):
    target = DpParams(epsilon, 1e-5)
    budget = budget_for_dp(target)
    assert 0.0 < budget < epsilon
    assert rdp_to_dp(budget, 1e-5) == pytest.approx(epsilon, abs=1e-6)


def test_budget_for_dp_monotone_in_epsilon():
    budgets = [budget_for_dp(DpParams(e, 1e-5)) for e in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(budgets, budgets[1:]))


def test_dp_params_validation():
    with pytest.raises(ValueError):
        DpParams(0.0, 1e-5)
    with pytest.raises(ValueError):
        DpParams(1.0, 0.0)
    with pytest.raises(ValueError):
        DpParams(1.0, 1.0)


# -- ledger and filter -------------------------------------------------------------


def test_filter_fresh_ledger_keeps_everyone():
    ledger = IndividualLedger(5, budget=1.0)
    np.testing.assert_array_equal(np.flatnonzero(ledger.active_mask(0.01)), np.arange(5))


def test_filter_exhausted_keeps_only_unlimited():
    ledger = IndividualLedger(3, budget=1.0)
    ledger.unlimited[1] = True
    ledger.z[:] = 0.0
    np.testing.assert_array_equal(np.flatnonzero(ledger.active_mask(0.01)), [1])


def test_filter_boundary_is_inclusive():
    threshold = 0.125
    ledger = IndividualLedger(3, budget=1.0)
    ledger.z[:] = [threshold, threshold - 1e-12, 2.0 * threshold]
    np.testing.assert_array_equal(np.flatnonzero(ledger.active_mask(threshold)), [0, 2])


def test_ledger_spend_validation():
    ledger = IndividualLedger(2, budget=1.0)
    with pytest.raises(LedgerInvariantError):
        ledger.spend(np.array([0]), np.array([-0.1]))
    with pytest.raises(LedgerInvariantError):
        ledger.spend(np.array([0]), np.array([1.5]))
    ledger2 = IndividualLedger(2, budget=1.0)
    ledger2.unlimited[1] = True
    with pytest.raises(LedgerInvariantError):
        ledger2.spend(np.array([1]), np.array([0.1]))


def test_ledger_spend_is_all_or_nothing():
    ledger = IndividualLedger(3, budget=0.9)
    with pytest.raises(LedgerInvariantError, match="negative"):
        ledger.spend(np.array([0, 1]), np.array([0.2, 1.5]))
    with pytest.raises(LedgerInvariantError, match="negative"):
        ledger.spend(np.array([0, 1]), 0.3, np.array([0.2, 0.7]))  # the second charge overdraws 1
    assert ledger.z.tolist() == [0.9, 0.9, 0.9]


def test_ledger_spend_applies_charges_in_order():
    ledger = IndividualLedger(2, budget=0.9)
    ledger.spend(np.array([0]), 0.3, np.array([0.2]))
    # (0.9 - 0.3) - 0.2 rounds differently from 0.9 - (0.3 + 0.2)
    assert ledger.z[0] == (0.9 - 0.3) - 0.2 != 0.9 - (0.3 + 0.2)
    assert ledger.z[1] == 0.9


def test_ledger_budgets_non_increasing():
    ledger = IndividualLedger(4, budget=2.0)
    history = [ledger.z.copy()]
    gen = np.random.default_rng(3)
    for _ in range(20):
        idx = np.flatnonzero(gen.random(4) < 0.5)
        ledger.spend(idx, gen.random(idx.shape[0]) * 0.05)
        history.append(ledger.z.copy())
    for before, after in zip(history, history[1:]):
        assert np.all(after <= before + 1e-15)


def test_ledger_appends_match_naive_append_bitwise():
    gen = np.random.default_rng(11)
    ledger = IndividualLedger(1000, budget=2.0)
    z, unlimited = ledger.z.copy(), ledger.unlimited.copy()
    reallocations = 0
    for k in range(5000):
        private = np.flatnonzero(~unlimited)
        idx = gen.choice(private, size=4, replace=False)
        amounts = gen.random(4) * 1e-3
        ledger.spend(idx, amounts)
        z[idx] = z[idx] - amounts
        before = ledger.z
        public = bool(gen.random() < 0.3)
        assert ledger.append(unlimited=public) == k + 1000
        z = np.append(z, 2.0)
        unlimited = np.append(unlimited, public)
        reallocations += not np.shares_memory(before, ledger.z)
        assert len(ledger) == ledger.z.shape[0] == ledger.unlimited.shape[0] == k + 1001
        if k % 100 == 0 or k == 4999:
            assert ledger.z.tobytes() == z.tobytes()
            assert ledger.unlimited.tobytes() == unlimited.tobytes()
    # 1000 -> 6000 entries: at most ceil(log2(6)) + 1 reallocations
    assert 1 <= reallocations <= math.ceil(math.log2(6)) + 1


def test_ledger_append_grows_an_empty_ledger():
    ledger = IndividualLedger(0, budget=1.0)
    for k in range(5):
        assert ledger.append(unlimited=k == 2) == k
    assert ledger.z.tolist() == [1.0] * 5
    assert ledger.unlimited.tolist() == [False, False, True, False, False]


# -- audit oracle ------------------------------------------------------------------


def test_oracle_compose_empty():
    assert oracle_compose([]) == {}


def test_oracle_compose_single_record():
    records = [ChargeRecord(0, 4, 0.25, 0.5)]
    assert oracle_compose(records) == {4: 0.75}


def test_oracle_compose_accumulates_across_queries():
    records = [
        ChargeRecord(0, 1, 0.1, 0.2),
        ChargeRecord(1, 1, 0.1, 0.0),
        ChargeRecord(1, 2, 0.1, 0.3),
    ]
    totals = oracle_compose(records)
    assert totals[1] == pytest.approx(0.4)
    assert totals[2] == pytest.approx(0.4)
