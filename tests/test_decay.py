import math

import numpy as np
import pytest

from sawcount import decay
from sawcount.decay import (
    choose_exponents_hc,
    choose_exponents_md,
    decay_factor_hc,
    decay_factor_md,
    delta_c,
    gap_bound,
    hc_message_bounds,
    lambda_c,
    md_message_bounds,
    nu_hc,
    nu_md,
    ptilde,
    symmetrize_check,
    xi_hc,
    xi_md,
    xtilde,
)
from sawcount.recurrence import hardcore, monomerdimer


def test_lambda_c_values():
    assert lambda_c(2.0) == pytest.approx(4.0, rel=1e-14)
    assert lambda_c(3.0) == pytest.approx(27.0 / 16.0, rel=1e-14)
    # published-table spot values (bounds truncate, never round up)
    assert 0.961 <= lambda_c(4.251419) < 0.962
    assert 2.538 <= lambda_c(2.429) < 2.539
    with pytest.raises(ValueError):
        lambda_c(1.0)


def test_delta_c_round_trip():
    for d in (1.5, 2.0, 3.0, 4.251419, 10.0):
        assert delta_c(lambda_c(d)) == pytest.approx(d, abs=1e-9)
    assert delta_c(4.0) == pytest.approx(2.0, abs=1e-9)
    assert delta_c(27.0 / 16.0) == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(ValueError):
        delta_c(0.0)


def test_delta_c_extreme_activities():
    assert delta_c(1e8) > 1.0
    assert delta_c(1e-8) > 1e6


def test_delta_c_above_float_resolution():
    # above lambda of about 1e31 the root lies below the smallest float
    # above 1, which delta_c returns as an upper bound on it
    top = math.nextafter(1.0, 2.0)
    for lam in (1e32, 1e100, 1e308):
        assert delta_c(lam) == top
        assert lambda_c(top) < lam
        assert decay_factor_hc(lam, 3.0).supercritical
    assert 1.0 < delta_c(1e30) < 1.0 + 1e-12


def test_exponents_hc():
    q, a, dc = choose_exponents_hc(4.0)
    assert dc == pytest.approx(2.0, abs=1e-9)
    assert 1.0 / q == pytest.approx(1.0 - 0.5 * math.log(2.0), rel=1e-12)
    q, a, dc = choose_exponents_hc(27.0 / 16.0)
    assert 1.0 / q == pytest.approx(1.0 - math.log(1.5), rel=1e-12)
    rng = np.random.default_rng(0)
    for lam in rng.uniform(0.01, 20.0, size=50):
        q, a, dc = choose_exponents_hc(float(lam))
        assert abs(1.0 / q + 1.0 / a - 1.0) <= 1e-15
        assert q <= 2.0 + 1e-12 and a >= 2.0 - 1e-12


def test_exponents_md():
    assert choose_exponents_md(1.0, 2.0) == pytest.approx((3.0, 1.5, 2.0))
    q, r, big_d = choose_exponents_md(1.0, 0.1)
    assert (q, r, big_d) == pytest.approx((2.0, 2.0, 0.75))
    q, r, big_d = choose_exponents_md(0.25, 3.0)
    assert (q, r, big_d) == pytest.approx((2.0, 2.0, 3.0))
    rng = np.random.default_rng(1)
    for gam, dl in rng.uniform(0.05, 8.0, size=(50, 2)):
        q, r, big_d = choose_exponents_md(float(gam), float(dl))
        assert 1.0 < r <= 2.0 + 1e-12
        assert abs(1.0 / q + 1.0 / r - 1.0) <= 1e-15


def test_xtilde():
    # at the critical activity of arity d the root sits at 1/(d-1)
    assert xtilde(3.0, 27.0 / 16.0) == pytest.approx(0.5, abs=1e-10)
    assert xtilde(2.0, 4.0) == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(2)
    for d, lam in rng.uniform(0.2, 10.0, size=(100, 2)):
        x = xtilde(float(d), float(lam))
        assert abs(d * x - 1.0 - lam * (1.0 + x) ** (-d)) <= 1e-10


def test_xtilde_decreasing_in_d():
    for lam in (0.5, 1.0, 3.0):
        grid = np.linspace(0.5, 12.0, 60)
        vals = [xtilde(float(d), lam) for d in grid]
        assert all(b < a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_ptilde():
    assert ptilde(2.0, 1.0) == pytest.approx(0.5, rel=1e-14)
    assert ptilde(6.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    rng = np.random.default_rng(3)
    for d, gam in rng.uniform(0.05, 10.0, size=(100, 2)):
        p = ptilde(float(d), float(gam))
        assert abs(1.0 - p - gam * d * p * p) <= 1e-12


def test_xi_maximized_at_xtilde():
    rng = np.random.default_rng(4)
    for d, lam in rng.uniform(0.3, 8.0, size=(25, 2)):
        q = choose_exponents_hc(float(lam))[0]
        best = xi_hc(float(d), xtilde(float(d), float(lam)), float(lam), q)
        xs = np.linspace(1e-6, 3.0 * (1.0 + lam) / d, 2000)
        assert float(xi_hc(float(d), xs, float(lam), q).max()) <= best + 1e-9


def test_xi_maximized_at_ptilde():
    rng = np.random.default_rng(5)
    for d, gam in rng.uniform(0.2, 8.0, size=(25, 2)):
        q = choose_exponents_md(float(gam), float(d))[0]
        best = xi_md(float(d), ptilde(float(d), float(gam)), float(gam), q)
        xs = np.linspace(1e-9, 1.0, 2000)
        assert float(xi_md(float(d), xs, float(gam), q).max()) <= best + 1e-9


def test_nu_hc_peaks_at_delta_c():
    rng = np.random.default_rng(6)
    lams = rng.uniform(0.05, 12.0, size=20)
    for lam in lams:
        lam = float(lam)
        q, _, dc = choose_exponents_hc(lam)
        cap = 1.0 / dc
        assert abs(nu_hc(dc, lam, q) - cap) <= 1e-10
        for d in rng.uniform(0.4, 4.0 * dc, size=10):
            assert nu_hc(float(d), lam, q) <= cap + 1e-9


def test_nu_md_peaks_at_big_d():
    rng = np.random.default_rng(7)
    for gam, dl in rng.uniform(0.1, 6.0, size=(20, 2)):
        q, _, big_d = choose_exponents_md(float(gam), float(dl))
        cap = nu_md(big_d, float(gam), q)
        for d in rng.uniform(0.05, 4.0 * big_d, size=10):
            assert nu_md(float(d), float(gam), q) <= cap + 1e-9


def test_decay_factor_hc_boundary():
    rep = decay_factor_hc(27.0 / 16.0, 3.0)
    assert rep.alpha == pytest.approx(1.0 / 3.0, abs=1e-11)
    assert rep.alpha_delta == pytest.approx(1.0, abs=1e-10)
    assert rep.supercritical  # the strict condition alpha*delta < 1 fails


def test_decay_factor_hc_subcritical():
    rep = decay_factor_hc(1.0, 4.0)
    # delta_c(1) recorded from the bisection; lambda_c(4) > 1 > lambda_c(5)
    assert rep.delta_c == pytest.approx(4.141041525410525, abs=1e-9)
    assert 4.0 < rep.delta_c < 5.0
    assert rep.alpha == pytest.approx(1.0 / rep.delta_c, rel=1e-12)
    assert rep.alpha_delta < 1.0
    assert not rep.supercritical
    assert rep.ssm_rate == pytest.approx(rep.alpha_delta ** (1.0 / rep.q))


def test_decay_factor_hc_supercritical():
    rep = decay_factor_hc(4.0, 3.0)
    assert rep.supercritical
    assert rep.alpha_delta >= 1.0


def test_decay_grid_check_cached_by_lambda(monkeypatch):
    # a failing grid check raises on every call; a passing one is reused
    # for every delta
    decay._checked_exponents_hc.cache_clear()
    monkeypatch.setattr(decay, "_GRID_SLACK", -1.0)
    for _ in range(2):
        with pytest.raises(ArithmeticError):
            decay_factor_hc(1.3, 3.0)
    monkeypatch.setattr(decay, "_GRID_SLACK", 1e-9)
    first = decay_factor_hc(1.3, 3.0)
    monkeypatch.setattr(decay, "_GRID_SLACK", -1.0)
    assert decay_factor_hc(1.3, 3.0) == first
    assert decay_factor_hc(1.3, 5.0).alpha == first.alpha


def test_decay_factor_hc_contracts_below_critical():
    # alpha * delta < 1 exactly on the subcritical side
    rng = np.random.default_rng(10)
    for _ in range(40):
        delta = float(rng.uniform(1.2, 12.0))
        lam = float(rng.uniform(0.05, 0.999)) * lambda_c(delta)
        rep = decay_factor_hc(lam, delta)
        assert rep.alpha_delta < 1.0
        assert not rep.supercritical
        assert 0.0 < rep.ssm_rate < 1.0


def test_decay_factor_md_examples():
    rep = decay_factor_md(1.0, 2.0)
    assert rep.q == pytest.approx(3.0)
    assert rep.alpha == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert rep.ssm_rate == pytest.approx(0.5, rel=1e-12)
    rep6 = decay_factor_md(1.0, 6.0)
    assert rep6.q == pytest.approx(5.0)
    assert rep6.ssm_rate == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert rep6.alpha == pytest.approx((1.0 / 6.0) * (2.0 / 3.0) ** 5, rel=1e-12)


def test_decay_factor_md_always_subcritical():
    rng = np.random.default_rng(8)
    for gam, dl in rng.uniform(0.1, 8.0, size=(30, 2)):
        rep = decay_factor_md(float(gam), float(dl))
        assert rep.alpha_delta <= rep.ssm_rate**rep.q + 1e-12
        assert rep.ssm_rate**rep.q < 1.0
        assert not rep.supercritical


def test_gap_bound():
    assert gap_bound(3.0, 1.0 / 16.0, 1.0, 1.0, []) == 0.0
    assert gap_bound(3.0, 1.0 / 16.0, 1.0, 1.0, [3] * 8) == pytest.approx(1.0 / 8.0)
    for ell in (1, 4, 9):
        assert gap_bound(2.5, 0.3, 1.0, 1.0, [ell]) == pytest.approx(
            0.3 ** (ell / 2.5)
        )
    with pytest.raises(ValueError):
        gap_bound(0.5, 0.3, 1.0, 1.0, [1])
    with pytest.raises(ValueError):
        gap_bound(2.0, 1.5, 1.0, 1.0, [1])


def test_message_bounds():
    m, l = hc_message_bounds(1.0)
    assert m == pytest.approx(math.asinh(1.0))
    assert l == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))
    m, l = md_message_bounds(1.0, 4)
    assert m == pytest.approx(0.5 * math.log(9.0))
    assert l == 1.0


def test_gap_bound_dominates_observed_gap():
    # a-priori bound vs the gap actually realized on the d-ary tree; the
    # cutset in the bound is the deepest unpinned layer, one level above
    # the pinned frontier
    from sawcount.recurrence import dary_md_gaps

    gamma, d = 1.0, 3
    rep = decay_factor_md(gamma, float(d))
    m, l = md_message_bounds(gamma, d)
    gaps = dary_md_gaps(d, gamma, 14)
    for ell in range(2, 15):
        cut = ell - 1
        bound = gap_bound(rep.q, rep.alpha, m, l, [cut] * (d**cut))
        assert gaps[ell] <= bound * (1.0 + 1e-9)


def test_symmetrize_check_hc():
    lam = 1.0
    b = lam * 1.2 ** (-3)
    rep = symmetrize_check(hardcore(lam), 3, b, 2.5, trials=10**4, seed=0)
    assert rep.passed
    assert rep.max_random <= rep.max_symmetric + 1e-9


def test_symmetrize_check_md():
    b = 1.0 / 2.2  # sum of inputs = 1.2 at gamma = 1
    rep = symmetrize_check(monomerdimer(1.0), 4, b, 1.5, trials=10**4, seed=0)
    assert rep.passed


def test_symmetrize_check_frozen():
    # recorded bit for bit; guards the random-subset sampler's draw order
    rep = symmetrize_check(hardcore(1.0), 5, 1.2 ** (-5), 2.5, trials=500, seed=3)
    assert (repr(rep.max_random), repr(rep.max_symmetric)) == (
        "0.32979665302107414", "0.3298241896037904")
    # sum of inputs 1.7, so at least two active coordinates (k_min = 2)
    b = 1.0 / (1.0 + 1.5 * 1.7)
    rep = symmetrize_check(monomerdimer(1.5), 5, b, 1.5, trials=500, seed=3)
    assert (repr(rep.max_random), repr(rep.max_symmetric)) == (
        "0.08983810455301407", "0.09017484103957064")


def test_symmetrize_check_d1_trivial():
    rep = symmetrize_check(hardcore(2.0), 1, 0.5, 3.0, trials=100, seed=0)
    assert rep.passed


def test_symmetrize_check_validation():
    with pytest.raises(ValueError, match="infeasible"):
        symmetrize_check(hardcore(1.0), 3, 2.0, 2.5)
    with pytest.raises(ValueError, match="exponent"):
        symmetrize_check(hardcore(1.0), 3, 0.5, 1.5)
    with pytest.raises(ValueError, match="exponent"):
        symmetrize_check(monomerdimer(1.0), 3, 0.5, 3.0)
    with pytest.raises(ValueError, match="infeasible"):
        symmetrize_check(monomerdimer(1.0), 2, 0.1, 1.5)  # sum 9 > d
