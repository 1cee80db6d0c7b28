import math

import numpy as np
import pytest

from oracles import projection_residual_norm_sq
from sparsense.bounds import (
    BoundParams,
    concentration_terms,
    mapping_factor_lower,
    mapping_factor_lower_linear,
    mapping_factor_lower_quadratic,
    noise_concentration_factor,
    omega_for_probability,
    probability_ceiling,
    projection_inflation,
    reconstructible_sparsity,
    recovery_probability,
    rho_tightness_limit,
    singular_value_bounds,
    snr_floor_continuation,
    snr_floor_selection,
    snr_min_requirement,
)
from sparsense.errors import InfeasibleParams, InfeasibleTarget
from sparsense.matgen import gen_gaussian_normalized


def test_singular_value_bounds_direct_values():
    lower, upper, floor = singular_value_bounds(4, 1024, 0.15)
    # oracle: 1 - sqrt(4/1024) - 0.15 etc., frozen from direct evaluation
    assert lower == pytest.approx(0.7875, abs=1e-15)
    assert upper == pytest.approx(1.2125, abs=1e-15)
    assert floor == pytest.approx(1.0 - math.exp(-11.52), abs=1e-15)
    assert floor == pytest.approx(0.9999900704956941, abs=1e-15)


def test_singular_value_bounds_edges():
    lower, _, _ = singular_value_bounds(1024, 1024, 1e-12)
    assert lower == pytest.approx(0.0, abs=1e-9)
    _, _, floor = singular_value_bounds(4, 16, 1e-9)
    assert floor == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(InfeasibleParams):
        singular_value_bounds(4, 16, 0.0)


def test_mapping_factor_orthogonal_limit():
    assert mapping_factor_lower(4, 1024, 1e-300, 0.15) == pytest.approx(1.0, abs=1e-12)
    assert mapping_factor_lower_linear(4, 1e-300) == pytest.approx(1.0, abs=1e-12)
    assert mapping_factor_lower_quadratic(4, 1e-300) == pytest.approx(1.0, abs=1e-12)


def test_mapping_factor_frozen_values():
    # frozen from direct evaluation of the closed forms at K=4, M=1024,
    # mu=0.135, rho=0.15
    assert mapping_factor_lower(4, 1024, 0.135, 0.15) == pytest.approx(
        0.9259964296664983, abs=1e-14
    )
    assert mapping_factor_lower_linear(4, 0.135) == pytest.approx(
        0.6782329983125268, abs=1e-14
    )
    assert mapping_factor_lower_quadratic(4, 0.135) == pytest.approx(
        0.8430217589357475, abs=1e-14
    )


def test_mapping_factor_between_quadratic_and_one():
    v = mapping_factor_lower(4, 1024, 0.135, 0.15)
    assert mapping_factor_lower_quadratic(4, 0.135) < v < 1.0


def test_mapping_factor_preconditions():
    with pytest.raises(InfeasibleParams, match="1/\\(K-1\\)"):
        mapping_factor_lower(4, 1024, 0.5, 0.15)
    with pytest.raises(InfeasibleParams, match="sqrt"):
        mapping_factor_lower(4, 16, 0.01, 0.9)  # 1 - sqrt(K/M) - rho <= 0
    with pytest.raises(InfeasibleParams, match="K mu"):
        mapping_factor_lower_linear(8, 0.135)  # K mu > 1
    with pytest.raises(InfeasibleParams, match="vacuous"):
        mapping_factor_lower_quadratic(6, 0.135)  # argument goes negative


def test_rho_tightness_limit_values():
    assert rho_tightness_limit(1, 1024, 0.5) == pytest.approx(-math.sqrt(1 / 1024), abs=1e-15)
    assert rho_tightness_limit(4, 1024, 0.135) == pytest.approx(0.3425, abs=1e-15)


def test_rho_valid_interval_at_sparsity_ceiling():
    # the slack interval used by the blind algorithm is the same formula
    # evaluated at the (real-valued) sparsity ceiling
    mu, m = 0.135, 1024
    c = reconstructible_sparsity(mu)
    expect = (c - 1.0) * mu - math.sqrt(c / m)
    assert expect == pytest.approx(0.3684283260859516, abs=1e-12)
    assert expect > 0.175  # the default slack lies inside the interval here


def test_reconstructible_sparsity_values():
    assert reconstructible_sparsity(1.0) == 1.0
    assert reconstructible_sparsity(0.135) == pytest.approx(4.203703703703703, abs=1e-14)
    assert reconstructible_sparsity(0.109) == pytest.approx(5.087155963302752, abs=1e-14)
    with pytest.raises(InfeasibleParams):
        reconstructible_sparsity(0.0)


def test_concentration_factor_at_log_one():
    # M - C = e makes the log term exactly 1
    m = 100
    c = 100 - math.e
    a1, a2 = concentration_terms(m, c)
    assert a1 == pytest.approx(4 * math.e - 2, abs=1e-12)
    assert a2 == pytest.approx(math.e + 2 * math.sqrt(math.e), abs=1e-12)
    assert noise_concentration_factor(m, c) == pytest.approx(0.5260821345698607, abs=1e-12)


def test_concentration_factor_asymptotics():
    x = 1e6
    ratio = noise_concentration_factor(int(x) + 10, 10.0) / math.sqrt(x)
    assert 0.9 < ratio < 1.0


def test_concentration_factor_regression():
    v = noise_concentration_factor(1024, reconstructible_sparsity(0.135))
    assert v == pytest.approx(29.386952770329252, abs=1e-11)
    with pytest.raises(InfeasibleParams):
        noise_concentration_factor(5, 4.5)


def test_probability_ceiling_reached_at_large_omega():
    params = BoundParams(m=1024, n=2048, mu=0.135, rho=0.175)
    ceiling = probability_ceiling(params)
    assert recovery_probability(1e6, params) == pytest.approx(ceiling, abs=1e-9)


def test_probability_monotone_in_omega():
    params = BoundParams(m=1024, n=2048, mu=0.135, rho=0.175)
    grid = [0.05, 0.2, 0.5, 1.0, 1.5, 2.0, 4.0, 8.0]
    values = [recovery_probability(w, params) for w in grid]
    for a, b in zip(values, values[1:]):
        assert b >= a


def test_probability_near_target_at_reference_omega():
    # at the coherence of a seeded 1024 x 2048 Gaussian matrix, omega = 1.3
    # already sits on the probability plateau: P(1.3) within 0.05 of 0.95
    mu = gen_gaussian_normalized(1024, 2048, seed=410).coherence
    params = BoundParams(m=1024, n=2048, mu=mu, rho=0.175)
    assert recovery_probability(1.3, params) == pytest.approx(0.95, abs=0.05)


def test_omega_round_trips():
    params = BoundParams(m=1024, n=2048, mu=0.135, rho=0.175)
    for p_min in (0.90, 0.95, 0.99):
        omega = omega_for_probability(p_min, params)
        assert abs(recovery_probability(omega, params) - p_min) <= 1e-9


def test_omega_frozen_value():
    # frozen from an independent bisection over the written-out formula
    params = BoundParams(m=1024, n=2048, mu=0.135, rho=0.175)
    assert omega_for_probability(0.95, params) == pytest.approx(1.10994, abs=5e-4)


def test_omega_infeasible_target():
    params = BoundParams(m=64, n=128, mu=0.3, rho=0.175)
    with pytest.raises(InfeasibleTarget):
        omega_for_probability(0.9999, params)


def test_snr_floors_vanish_with_coherence():
    # both floors carry mu^2 in the numerator; hold the sparsity ceiling fixed
    # while shrinking mu (the derived ceiling would outgrow M)
    omega = 1.3
    tiny = BoundParams(m=1024, n=8192, mu=1e-8, rho=0.15, k=4, sparsity_ceiling=4.2)
    assert snr_min_requirement(tiny, omega) <= 1e-12
    small = BoundParams(m=1024, n=8192, mu=0.002, rho=0.15, k=4)
    assert snr_min_requirement(small, omega) <= 1e-4


def test_snr_floor_frozen_values():
    # frozen from direct evaluation at M=1024, N=8192, mu=0.135, K=4,
    # rho=0.15, omega solving the probability target 0.95
    params = BoundParams(m=1024, n=8192, mu=0.135, rho=0.15, k=4)
    omega = omega_for_probability(0.95, params)
    assert omega == pytest.approx(1.1832376424803717, abs=1e-9)
    assert projection_inflation(4, 1024, 0.135, 0.15) == pytest.approx(
        1.1662223914699161, abs=1e-12
    )
    assert snr_floor_selection(params, omega) == pytest.approx(
        4.965140363658437, rel=1e-9
    )
    assert snr_floor_continuation(params, omega) == pytest.approx(
        0.6358573187256038, rel=1e-9
    )
    assert snr_min_requirement(params, omega) == pytest.approx(
        4.965140363658437, rel=1e-9
    )


def test_snr_floor_monotone_in_coherence_at_fixed_omega():
    omega = 1.1832376424803717
    hi = BoundParams(m=1024, n=8192, mu=0.135, rho=0.15, k=4)
    lo = BoundParams(m=1024, n=8192, mu=0.109, rho=0.15, k=4)
    assert snr_min_requirement(lo, omega) < snr_min_requirement(hi, omega)
    assert snr_min_requirement(lo, omega) == pytest.approx(0.6719154251923307, rel=1e-9)


def test_snr_floor_continuation_precondition():
    params = BoundParams(m=64, n=128, mu=0.4, rho=0.15, k=2)
    with pytest.raises(InfeasibleParams):
        snr_floor_continuation(params, omega=10.0)


def test_bound_params_validation():
    with pytest.raises(InfeasibleParams):
        BoundParams(m=0, n=8, mu=0.1, rho=0.1)
    with pytest.raises(InfeasibleParams):
        BoundParams(m=8, n=4, mu=0.1, rho=0.1)
    with pytest.raises(InfeasibleParams):
        BoundParams(m=4, n=8, mu=1.5, rho=0.1)
    with pytest.raises(InfeasibleParams):
        BoundParams(m=4, n=8, mu=0.1, rho=0.0)
    with pytest.raises(InfeasibleParams):
        snr_floor_selection(BoundParams(m=1024, n=2048, mu=0.1, rho=0.1), 1.0)


def test_ceiling_override_is_used():
    base = BoundParams(m=1024, n=2048, mu=0.135, rho=0.175)
    overr = BoundParams(m=1024, n=2048, mu=0.135, rho=0.175, sparsity_ceiling=8.0)
    assert overr.ceiling_c == 8.0
    # larger ceiling lowers the achievable probability and raises omega a bit
    assert probability_ceiling(overr) < probability_ceiling(base)
    assert omega_for_probability(0.95, overr) > omega_for_probability(0.95, base)


def test_ordering_where_slack_is_small_enough():
    # half the tightness limit keeps the probabilistic bound the closest to 1
    for mu in (0.05, 0.109, 0.135):
        for m in (256, 1024):
            for k in range(2, 11):
                limit = rho_tightness_limit(k, m, mu)
                if limit <= 0:
                    continue
                rho = 0.5 * limit
                try:
                    prob = mapping_factor_lower(k, m, mu, rho)
                    quad = mapping_factor_lower_quadratic(k, mu)
                    lin = mapping_factor_lower_linear(k, mu)
                except InfeasibleParams:
                    continue
                assert prob > quad >= lin


def test_empirical_projected_norm_coverage_small_sample():
    # 100-matrix version of the projected-column-norm coverage check; the
    # 1000-matrix run lives in the acceptance suite.
    m, n, k, rho = 256, 512, 3, 0.15
    floor = 1.0 - 2.0 * math.exp(-m * rho * rho / 2.0)
    rng = np.random.default_rng(7)
    hits = trials = 0
    for seed in range(100):
        d = gen_gaussian_normalized(m, n, seed=seed)
        try:
            lower = mapping_factor_lower(k, m, d.coherence, rho)
        except InfeasibleParams:
            continue
        support = list(rng.choice(n, size=k - 1, replace=False))
        others = [j for j in range(n) if j not in support]
        i = int(rng.choice(others))
        norm_sq = projection_residual_norm_sq(d, d.entries[:, i].copy(), support)
        value = math.sqrt(max(norm_sq, 0.0))
        trials += 1
        hits += lower <= value <= 1.0 + 1e-12
    assert trials > 0
    assert hits / trials >= floor
