"""Closed-form recovery bounds for greedy sparse recovery.

Everything here is a deterministic pure function of its parameters:

* two-sided probabilistic bounds on the extreme singular values of a
  Gaussian M x K block, with their confidence floor;
* three lower bounds on the mapping factor ``||P_perp(S) d_i||`` (the norm of
  a candidate column after projecting out the selected subspace): the
  singular-value-based bound, and two coherence-only bounds it is compared
  against;
* the reconstructible-sparsity ceiling, the recovery-probability curve
  P(omega), its bisection inverse, and the two SNR floors whose maximum a
  minimum component SNR must exceed for the blind stopping rule to both keep
  selecting correct atoms and not stop early.

All logarithms and exponentials are natural.
"""

import math
from dataclasses import dataclass

from .errors import InfeasibleParams, InfeasibleTarget

BISECT_TOL = 1e-10
BISECT_MAX_ITER = 200
MAX_SWEEP_ROWS = 100_000  # rows of one closed-form sweep: its sparsity levels or p_min grid


@dataclass(frozen=True)
class BoundParams:
    """Shared inputs of the bound calculators.

    ``sparsity_ceiling`` overrides the coherence-derived ceiling when a
    sharper problem-specific value is available; by default it is
    ``(1 + 1/mu) / 2``, the classical coherence-only exact-recovery limit.
    """

    m: int
    n: int
    mu: float
    rho: float
    k: int | None = None
    sparsity_ceiling: float | None = None

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.m > self.n:
            raise InfeasibleParams(f"require 1 <= M <= N, got M={self.m}, N={self.n}")
        if not 0.0 < self.mu < 1.0:
            raise InfeasibleParams(f"require coherence in (0, 1), got {self.mu}")
        if not 0.0 < self.rho < math.inf:
            raise InfeasibleParams(f"require a finite rho > 0, got {self.rho}")

    @property
    def ceiling_c(self) -> float:
        if self.sparsity_ceiling is not None:
            return self.sparsity_ceiling
        return reconstructible_sparsity(self.mu)

    def require_k(self) -> int:
        if self.k is None:
            raise InfeasibleParams("this bound needs the sparsity k")
        return self.k


def singular_value_bounds(k: int, m: int, rho: float) -> tuple[float, float, float]:
    """(lower, upper, prob_floor) for the extreme singular values of an M x K
    Gaussian block with entries N(0, 1/M):
    lower = 1 - sqrt(K/M) - rho, upper = 1 + sqrt(K/M) + rho, each holding
    with probability at least prob_floor = 1 - exp(-M rho^2 / 2)."""
    if not 0.0 < rho < math.inf:
        raise InfeasibleParams(f"require a finite rho > 0, got {rho}")
    if not 0 < k <= m:
        raise InfeasibleParams(f"require 0 < K <= M, got K={k}, M={m}")
    root = math.sqrt(k / m)
    return 1.0 - root - rho, 1.0 + root + rho, 1.0 - math.exp(-m * rho * rho / 2.0)


def sparsity_levels(k_lo: int, k_hi: int, m: int) -> range:
    """K = k_lo..k_hi; require 1 <= k_lo <= k_hi <= M and at most MAX_SWEEP_ROWS levels."""
    if not 1 <= k_lo <= k_hi <= m or k_hi - k_lo >= MAX_SWEEP_ROWS:
        raise InfeasibleParams(f"require 1 <= K-min <= K-max <= M with at most {MAX_SWEEP_ROWS} "
                               f"levels, got K-min={k_lo}, K-max={k_hi}, M={m}")
    return range(k_lo, k_hi + 1)


def projection_inflation(k: int, m: int, mu: float, rho: float) -> float:
    """Inflation factor T >= 1 relating the projected column norm to 1:
    ``1/sqrt(T) <= ||P_perp(S) d_i|| <= 1`` on the singular-value event."""
    if k > 1 and not mu < 1.0 / (k - 1):
        raise InfeasibleParams(f"require mu < 1/(K-1): mu={mu}, K={k}")
    lower, upper, _ = singular_value_bounds(k, m, rho)
    if not lower > 0.0:
        raise InfeasibleParams(
            f"require 1 - sqrt(K/M) - rho > 0, got {lower} (K={k}, M={m}, rho={rho})"
        )
    shrink = k * mu * mu * upper / (lower * lower)
    if not shrink < 1.0:
        raise InfeasibleParams(
            f"require K mu^2 (1 + sqrt(K/M) + rho) < (1 - sqrt(K/M) - rho)^2, "
            f"got ratio {shrink} (K={k}, M={m}, mu={mu}, rho={rho})"
        )
    return 1.0 / (1.0 - shrink)


def mapping_factor_lower(k: int, m: int, mu: float, rho: float) -> float:
    """Probabilistic lower bound 1/sqrt(T) on the mapping factor."""
    return 1.0 / math.sqrt(projection_inflation(k, m, mu, rho))


def mapping_factor_lower_linear(k: int, mu: float) -> float:
    """Coherence-only bound sqrt(1 - K mu)."""
    if not k * mu < 1.0:
        raise InfeasibleParams(f"require K mu < 1, got K={k}, mu={mu}")
    return math.sqrt(1.0 - k * mu)


def mapping_factor_lower_quadratic(k: int, mu: float) -> float:
    """Coherence-only bound sqrt(1 - (1 + (K-1) mu) K mu^2 / (1 - (K-1) mu)^2)."""
    if not (k - 1) * mu < 1.0:
        raise InfeasibleParams(f"require (K-1) mu < 1, got K={k}, mu={mu}")
    denom = (1.0 - (k - 1) * mu) ** 2
    arg = 1.0 - (1.0 + (k - 1) * mu) * k * mu * mu / denom
    if not arg > 0.0:
        raise InfeasibleParams(
            f"quadratic bound is vacuous (argument {arg} <= 0) for K={k}, mu={mu}"
        )
    return math.sqrt(arg)


def rho_tightness_limit(k: int, m: int, mu: float) -> float:
    """Largest slack rho for which the probabilistic mapping-factor bound stays
    tighter than both coherence-only bounds: (K-1) mu - sqrt(K/M).
    Nonpositive means no such rho exists."""
    return (k - 1) * mu - math.sqrt(k / m)


def reconstructible_sparsity(mu: float) -> float:
    """Coherence-only sparsity ceiling (1 + 1/mu) / 2 below which greedy
    recovery of the exact support is guaranteed in the noiseless case."""
    if not 0.0 < mu <= 1.0:
        raise InfeasibleParams(f"require mu in (0, 1], got {mu}")
    return (1.0 + 1.0 / mu) / 2.0


def concentration_terms(m: int, c: float) -> tuple[float, float]:
    """The two terms (a1, a2) whose square-root difference forms the noise
    concentration factor; defined for M - C > 1."""
    x = m - c
    if not x > 1.0:
        raise InfeasibleParams(f"require M - C > 1, got M={m}, C={c}")
    a1 = 4.0 * x - 2.0
    a2 = x + 2.0 * math.sqrt(x * math.log(x))
    return a1, a2


def noise_concentration_factor(m: int, c: float) -> float:
    """sqrt(a1) - sqrt(a2); scales the noise-correlation threshold."""
    a1, a2 = concentration_terms(m, c)
    return math.sqrt(a1) - math.sqrt(a2)


def probability_ceiling(params: BoundParams) -> float:
    """Limit of the recovery probability as omega grows without bound."""
    c = params.ceiling_c
    if not params.m - c > 1.0:
        raise InfeasibleParams(f"require M - C > 1, got M={params.m}, C={c}")
    return (
        1.0
        - 2.0 * math.exp(-params.m * params.rho * params.rho / 2.0)
        - 1.0 / (params.m - c)
        - 1.0 / params.m
    )


def recovery_probability(omega: float, params: BoundParams) -> float:
    """P(omega): probability floor that the blind stopping rule with threshold
    omega * mu selects every correct atom and stops on time."""
    if not omega > 0.0:
        raise InfeasibleParams(f"require omega > 0, got {omega}")
    c = params.ceiling_c
    theta = noise_concentration_factor(params.m, c)
    t = omega * params.mu * theta
    log_tail = math.log(c * params.n) - 0.5 * t * t - math.log(math.sqrt(2.0 * math.pi) * t)
    try:
        tail = math.exp(log_tail)
    except OverflowError:
        tail = math.inf
    return probability_ceiling(params) - tail


def omega_for_probability(p_min: float, params: BoundParams) -> float:
    """Inverse of recovery_probability by bisection.

    P is strictly increasing on (0, inf) (its subtracted tail term is strictly
    decreasing), so the root is unique; monotonicity is asserted while the
    bracket is refined. Raises InfeasibleParams for a non-finite p_min and
    InfeasibleTarget when p_min is not below the ceiling.
    """
    if not math.isfinite(p_min):
        raise InfeasibleParams(f"target probability must be finite, got {p_min}")
    ceiling = probability_ceiling(params)
    if not p_min < ceiling:
        raise InfeasibleTarget(p_min, ceiling)
    lo = 1e-9
    hi = 1.0
    while recovery_probability(hi, params) < p_min:
        hi *= 2.0
        if hi > 1e12:
            raise InfeasibleParams("bisection bracket expansion failed")
    p_lo = recovery_probability(lo, params)
    p_hi = recovery_probability(hi, params)
    assert p_lo <= p_hi, "recovery probability must be nondecreasing on the bracket"
    omega = hi
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        p_mid = recovery_probability(mid, params)
        assert p_lo - 1e-15 <= p_mid <= p_hi + 1e-15, "bracket lost monotonicity"
        if p_mid < p_min:
            lo, p_lo = mid, p_mid
        else:
            hi, p_hi = mid, p_mid
        omega = hi
        if abs(p_mid - p_min) <= BISECT_TOL:
            omega = mid
            break
    return omega


def snr_floor_selection(params: BoundParams, omega: float) -> float:
    """SNR floor under which a wrong atom may beat a correct one at selection."""
    k = params.require_k()
    mu = params.mu
    t_infl = projection_inflation(k, params.m, mu, params.rho)
    theta = noise_concentration_factor(params.m, params.ceiling_c)
    lead = 2.0 - (k - t_infl) * mu
    gap = lead - 2.0 * k * t_infl * mu
    sep = 1.0 - (k - 1) * mu
    if gap == 0.0:
        raise InfeasibleParams("selection floor denominator 2-(K-T)mu-2KTmu is zero")
    if sep == 0.0:
        raise InfeasibleParams("selection floor denominator 1-(K-1)mu is zero")
    return (
        4.0 * lead * lead * (omega * mu * theta) ** 2
        / (params.m * gap * gap * sep * sep)
    )


def snr_floor_continuation(params: BoundParams, omega: float) -> float:
    """SNR floor under which the blind rule may stop before all atoms are found."""
    k = params.require_k()
    m, mu, rho = params.m, params.mu, params.rho
    theta = noise_concentration_factor(m, params.ceiling_c)
    noise_norm = math.sqrt(m + 2.0 * math.sqrt(m * math.log(m)))
    root = math.sqrt(k / m)
    denom = 1.0 - root - rho - omega * mu * (1.0 + root + rho) * math.sqrt(k)
    if not denom > 0.0:
        raise InfeasibleParams(
            f"require 1 - sqrt(K/M) - rho - omega mu (1 + sqrt(K/M) + rho) sqrt(K) > 0, "
            f"got {denom}"
        )
    return (omega * mu * (theta + noise_norm)) ** 2 / (m * denom * denom)


def snr_min_requirement(params: BoundParams, omega: float) -> float:
    """Minimum component SNR that guarantees the target recovery probability:
    max of the selection and continuation floors."""
    return max(snr_floor_selection(params, omega), snr_floor_continuation(params, omega))
