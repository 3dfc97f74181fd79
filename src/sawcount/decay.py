"""Closed-form correlation-decay analysis for both models.

The central objects are a monotone reparametrization ("message") of each
recurrence and the per-level contraction it certifies.  For a message phi
with derivative Phi, arity d and symmetric input x, define

    Xi_q(d, x) = (1/d) * ( Phi(f_d(x)) * |f_d'(x)| / Phi(x) )**q
    nu(d)      = max_x Xi_q(d, x)

where f_d is the symmetric recurrence (f evaluated at d equal inputs).
The decay factor alpha = sup_d nu(d) controls error propagation down a
tree: for a cutset C of pinned nodes,

    |gap at root| <= (M/L) * ( sum_{v in C} alpha**depth(v) )**(1/q)

with L = inf Phi and M the largest message gap a pinned node can carry.
When alpha * Delta < 1 for a graph whose SAW counts grow like Delta**l,
the truncation error at depth l decays exponentially.

Messages used (with their conjugate-exponent choices):

  hard-core:     phi(x) = asinh(sqrt(x)),   Phi(x) = 1/(2 sqrt(x(1+x)))
                 1/q = 1 - ((Dc-1)/2) log(1 + 1/(Dc-1)),  1/a = 1 - 1/q
                 where Dc solves lambda_c(Dc) = lambda.  The maximizing x
                 is the fixed-point-like root of d*x = 1 + f_d(x), and
                 nu(d) peaks at d = Dc with value exactly 1/Dc.

  monomer-dimer: phi(x) = (1/2) log(x/(2-x)),  Phi(x) = 1/(x(2-x))
                 q = sqrt(1 + 4*gamma*D), D = max(Delta, 3/(4*gamma))
                 The maximizing x is ptilde(d) = (sqrt(1+4gd)-1)/(2gd),
                 nu peaks at d = D, and alpha*Delta < 1 for every gamma.

The symmetrizability property behind the cutset bound (that the
worst-case weighted gradient norm of f_d on a level set is attained with
all nonzero coordinates equal) is numerically validated by
symmetrize_check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .recurrence import HARDCORE, MONOMERDIMER, ModelParams

BISECT_REL_TOL = 1e-12
BISECT_MAX_ITER = 200


@dataclass(frozen=True)
class DecayReport:
    """Analysis bundle for one (model, activity, Delta) triple."""

    model: ModelParams
    delta: float
    q: float
    alpha: float
    ssm_rate: float
    delta_c: float | None = None  # hard-core: root of lambda_c(t) = lambda
    a: float | None = None  # hard-core conjugate exponent
    r: float | None = None  # monomer-dimer conjugate exponent
    big_d: float | None = None  # monomer-dimer arity cap D
    supercritical: bool = False

    @property
    def alpha_delta(self) -> float:
        return self.alpha * self.delta


# ---------------------------------------------------------------------------
# Critical activity and exponents
# ---------------------------------------------------------------------------


def lambda_c(delta: float) -> float:
    """Critical activity delta**delta / (delta-1)**(delta+1), delta > 1."""
    if not delta > 1:
        raise ValueError("lambda_c needs delta > 1")
    return math.exp(delta * math.log(delta) - (delta + 1.0) * math.log(delta - 1.0))


def _log_lambda_c(t: float) -> float:
    return t * math.log(t) - (t + 1.0) * math.log(t - 1.0)


def delta_c(lam: float) -> float:
    """Unique t > 1 with lambda_c(t) = lam, by bisection in log space.

    lambda_c decreases strictly from +inf (t -> 1+) to 0 (t -> inf), so a
    bracket always exists; converges to |lambda_c(t) - lam| <= 1e-12*lam.
    Above lam of about 1e31 the root lies below the smallest float above
    1, math.nextafter(1.0, 2.0), which is returned as an upper bound on it.
    """
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("lambda must be positive and finite")
    target = math.log(lam)
    lo = 1.0 + 1e-9
    while _log_lambda_c(lo) < target:
        if lo == math.nextafter(1.0, 2.0):
            return lo  # lambda_c(lo) < lam: an upper bound on the root
        lo = 1.0 + (lo - 1.0) / 2.0
    hi = 2.0
    while _log_lambda_c(hi) > target:
        hi *= 2.0
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        val = _log_lambda_c(mid)
        if abs(val - target) <= BISECT_REL_TOL:
            return mid
        if val > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def choose_exponents_hc(lam: float) -> tuple[float, float, float]:
    """Adaptive-norm exponents (q, a, delta_c) for the hard-core message.

    Always yields q <= 2 and a >= 2 (the symmetrizable range).
    """
    dc = delta_c(lam)
    inv_q = 1.0 - 0.5 * (dc - 1.0) * math.log1p(1.0 / (dc - 1.0))
    q = 1.0 / inv_q
    a = 1.0 / (1.0 - inv_q)
    return q, a, dc


def choose_exponents_md(gamma: float, delta: float) -> tuple[float, float, float]:
    """Exponents (q, r, D) for the monomer-dimer message.

    D = max(Delta, 3/(4*gamma)); q = sqrt(1 + 4*gamma*D); r its conjugate.
    At the boundary D = 3/(4*gamma) this gives r = 2 exactly, which is
    still inside the symmetrizable range (1, 2].
    """
    if not gamma > 0 or not delta > 0:
        raise ValueError("gamma and delta must be positive")
    big_d = max(delta, 3.0 / (4.0 * gamma))
    q = math.sqrt(1.0 + 4.0 * gamma * big_d)
    r = q / (q - 1.0)
    return q, r, big_d


# ---------------------------------------------------------------------------
# Symmetric-input maximizers and contraction curves
# ---------------------------------------------------------------------------


def xtilde(d: float, lam: float) -> float:
    """Unique positive root of d*x = 1 + lam*(1+x)**(-d), by bisection.

    Brackets (0, (1+lam)/d]: the left end is negative, the right end
    nonnegative, and the residual is strictly increasing in x.
    """
    if not d > 0 or not lam > 0:
        raise ValueError("d and lambda must be positive")
    lo, hi = 0.0, (1.0 + lam) / d

    def resid(x):
        return d * x - 1.0 - lam * (1.0 + x) ** (-d)

    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if resid(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= BISECT_REL_TOL * max(hi, 1e-30):
            break
    return 0.5 * (lo + hi)


def ptilde(d: float, gamma: float) -> float:
    """Positive root of 1 - x - gamma*d*x**2, in closed form."""
    if not d > 0 or not gamma > 0:
        raise ValueError("d and gamma must be positive")
    gd = gamma * d
    return (math.sqrt(1.0 + 4.0 * gd) - 1.0) / (2.0 * gd)


def xi_hc(d, x, lam: float, q: float):
    """Contraction integrand for the hard-core message at symmetric input x.

    Equals (1/d) * (Phi(f_d(x)) |f_d'(x)| / Phi(x))**q, which simplifies to
    d**(q-1) * ( x/(1+x) * f/(1+f) )**(q/2) with f = lam*(1+x)**(-d).
    Accepts numpy arrays in d and x.
    """
    d = np.asarray(d, dtype=float)
    x = np.asarray(x, dtype=float)
    f = lam * (1.0 + x) ** (-d)
    core = (x / (1.0 + x)) * (f / (1.0 + f))
    return d ** (q - 1.0) * core ** (0.5 * q)


def xi_md(d, x, gamma: float, q: float):
    """Contraction integrand for the monomer-dimer message:
    d**(q-1) * (gamma*x*(2-x) / (1 + 2*gamma*d*x))**q."""
    d = np.asarray(d, dtype=float)
    x = np.asarray(x, dtype=float)
    return d ** (q - 1.0) * (gamma * x * (2.0 - x) / (1.0 + 2.0 * gamma * d * x)) ** q


def nu_hc(d: float, lam: float, q: float | None = None) -> float:
    """sup_x Xi_q(d, x) for the hard-core message = Xi_q(d, xtilde(d))."""
    if q is None:
        q = choose_exponents_hc(lam)[0]
    return float(xi_hc(d, xtilde(d, lam), lam, q))


def nu_md(d: float, gamma: float, q: float) -> float:
    """sup_x Xi_q(d, x) for the monomer-dimer message = Xi_q(d, ptilde(d))."""
    return float(xi_md(d, ptilde(d, gamma), gamma, q))


# ---------------------------------------------------------------------------
# Decay reports
# ---------------------------------------------------------------------------

_GRID_POINTS = 400
_GRID_SLACK = 1e-9


@functools.lru_cache(maxsize=256)
def _checked_exponents_hc(lam: float) -> tuple[float, float, float]:
    """choose_exponents_hc(lam) once a logarithmic grid over d in
    [1, 4*delta_c] has confirmed that no arity beats nu(delta_c) = 1/delta_c.

    The check depends on lam only, so passing results are cached; a
    failing one raises ArithmeticError and is not cached, so it raises
    again on every call.
    """
    q, a, dc = choose_exponents_hc(lam)
    alpha = 1.0 / dc
    grid = np.exp(np.linspace(0.0, math.log(4.0 * dc), _GRID_POINTS))
    vals = np.array([nu_hc(float(d), lam, q) for d in grid])
    worst = float(vals.max())
    if worst > alpha + _GRID_SLACK:
        raise ArithmeticError(
            f"grid maximum {worst!r} exceeds 1/delta_c = {alpha!r}"
        )
    return q, a, dc


def decay_factor_hc(lam: float, delta: float) -> DecayReport:
    """Decay report for hard-core activity lam on graphs of SAW growth delta.

    alpha = nu(delta_c) = 1/delta_c exactly, cross-checked on a grid by
    _checked_exponents_hc.  When lam >= lambda_c(delta) the report is
    flagged supercritical (alpha*delta >= 1; the truncation-error bound is
    vacuous there).
    """
    if not delta > 1:
        raise ValueError("delta must be > 1")
    q, a, dc = _checked_exponents_hc(lam)
    alpha = 1.0 / dc
    # the usable regime is alpha*delta < 1 strictly; the boundary
    # lam == lambda_c(delta) is flagged too
    supercritical = alpha * delta >= 1.0 - 1e-9
    rate = (alpha * delta) ** (1.0 / q)
    return DecayReport(
        model=ModelParams(HARDCORE, lam),
        delta=delta,
        q=q,
        a=a,
        delta_c=dc,
        alpha=alpha,
        ssm_rate=rate,
        supercritical=supercritical,
    )


def decay_factor_md(gamma: float, delta: float) -> DecayReport:
    """Decay report for dimer activity gamma on graphs of SAW growth delta.

    alpha = (1/D) * (1 - 2/(1 + sqrt(1+4*gamma*D)))**q in closed form; the
    strong-spatial-mixing rate is 1 - 2/(1 + sqrt(1+4*gamma*D)).  Valid
    for every gamma > 0 (alpha*delta < 1 always).
    """
    q, r, big_d = choose_exponents_md(gamma, delta)
    rate = 1.0 - 2.0 / (1.0 + q)  # q = sqrt(1 + 4*gamma*D)
    alpha = (rate**q) / big_d
    grid = np.exp(np.linspace(math.log(1e-3), math.log(4.0 * big_d), _GRID_POINTS))
    vals = np.array([nu_md(float(d), gamma, q) for d in grid])
    if float(vals.max()) > alpha + _GRID_SLACK:
        raise ArithmeticError("grid maximum exceeds closed-form alpha")
    return DecayReport(
        model=ModelParams(MONOMERDIMER, gamma),
        delta=delta,
        q=q,
        r=r,
        big_d=big_d,
        alpha=alpha,
        ssm_rate=rate,
        supercritical=False,
    )


# ---------------------------------------------------------------------------
# A-priori truncation-error bound
# ---------------------------------------------------------------------------


def gap_bound(q: float, alpha: float, m_const: float, l_const: float, frontier_depths) -> float:
    """A-priori bound (M/L) * (sum_v alpha**depth(v))**(1/q) on the root gap.

    frontier_depths lists the depth of every pinned cutset node; an empty
    cutset (fully expanded tree) gives 0.
    """
    if not q > 1 or not 0.0 < alpha < 1.0 or not l_const > 0:
        raise ValueError("need q > 1, alpha in (0,1), L > 0")
    depths = list(frontier_depths)
    if not depths:
        return 0.0
    total = math.fsum(alpha**d for d in depths)
    return (m_const / l_const) * total ** (1.0 / q)


def hc_message_bounds(lam: float) -> tuple[float, float]:
    """(M, L) for the hard-core message on ratio range [0, lam]:
    M = asinh(sqrt(lam)), L = 1/(2*sqrt(lam*(1+lam)))."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    return math.asinh(math.sqrt(lam)), 1.0 / (2.0 * math.sqrt(lam * (1.0 + lam)))


def md_message_bounds(gamma: float, max_degree: int) -> tuple[float, float]:
    """(M, L) for the monomer-dimer message: M = (1/2) log(1 + 2*gamma*maxdeg)
    (probabilities live in [1/(1+gamma*maxdeg), 1]), L = 1."""
    if not gamma > 0 or max_degree < 0:
        raise ValueError("need gamma > 0 and max_degree >= 0")
    return 0.5 * math.log1p(2.0 * gamma * max_degree), 1.0


# ---------------------------------------------------------------------------
# Numerical symmetrizability validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetrizeReport:
    max_random: float
    max_symmetric: float
    passed: bool
    d: int
    constraint: float
    exponent: float
    trials: int
    seed: int


_SYM_SLACK = 1e-9


def _random_split(rng, trials, d, k_min):
    """Random sparsity patterns and weights for `trials` points in d
    coordinates: each row activates a uniform random subset of between
    k_min and d coordinates and splits weight 1 over it (exponential
    draws, normalized); inactive weights are 0."""
    k_active = rng.integers(k_min, d + 1, size=trials)
    weights = rng.exponential(size=(trials, d))
    col = np.arange(d)
    mask = col[None, :] < k_active[:, None]
    # random subset of each row, not just a prefix
    perm = rng.permuted(np.tile(col, (trials, 1)), axis=1)
    active = np.zeros((trials, d), dtype=bool)
    np.put_along_axis(active, perm, mask, axis=1)
    weights = np.where(active, weights, 0.0)
    weights /= weights.sum(axis=1, keepdims=True)
    return active, weights


def symmetrize_check(
    params: ModelParams,
    d: int,
    constraint: float,
    exponent: float,
    trials: int = 10**4,
    seed: int = 0,
) -> SymmetrizeReport:
    """Validate that the constrained gradient-norm program is won by a
    symmetric point.

    The program maximizes sum_i ((1/Phi(x_i)) |df_d/dx_i|)**exponent over
    inputs with f_d(x) = constraint.  `trials` random feasible points
    (with random sparsity patterns) are compared against the best of the
    d symmetric candidates (k equal nonzero coordinates, k = 1..d); the
    check passes when no random point beats the symmetric maximum beyond
    1e-9.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    if params.model == HARDCORE:
        lam = params.activity
        if not 0.0 < constraint <= lam:
            raise ValueError("infeasible constraint: need 0 < B <= lambda")
        if exponent < 2.0:
            raise ValueError("hard-core exponent must be >= 2")
        log_ratio = math.log(lam / constraint)

        # random feasible points: split log(lam/B) over a random subset
        active, weights = _random_split(rng, trials, d, 1)
        x = np.expm1(weights * log_ratio)
        # objective: sum (2B sqrt(x/(1+x)))**a over active coordinates
        terms = (2.0 * constraint * np.sqrt(x / (1.0 + x))) ** exponent
        terms = np.where(active, terms, 0.0)
        max_random = float(terms.sum(axis=1).max())

        best_sym = 0.0
        for k in range(1, d + 1):
            xk = math.expm1(log_ratio / k)
            val = k * (2.0 * constraint * math.sqrt(xk / (1.0 + xk))) ** exponent
            best_sym = max(best_sym, val)
    elif params.model == MONOMERDIMER:
        gamma = params.activity
        if not 0.0 < constraint < 1.0:
            raise ValueError("infeasible constraint: need 0 < B < 1")
        if not 1.0 < exponent <= 2.0:
            raise ValueError("monomer-dimer exponent must be in (1, 2]")
        total = (1.0 - constraint) / (gamma * constraint)  # sum of p_i
        if total > d:
            raise ValueError("infeasible constraint: sum of inputs exceeds d")

        k_min = max(1, math.ceil(total))
        active, weights = _random_split(rng, trials, d, k_min)
        p = weights * total
        # redistribute overflow above 1 onto the other active coordinates
        for _ in range(200):
            over = np.clip(p - 1.0, 0.0, None)
            excess = over.sum(axis=1)
            if not (excess > 1e-15).any():
                break
            p = np.minimum(p, 1.0)
            room = np.where(active & (p < 1.0), 1.0 - p, 0.0)
            room_tot = room.sum(axis=1, keepdims=True)
            np.divide(room, room_tot, out=room, where=room_tot > 0)
            p = p + room * excess[:, None]
        p = np.clip(p, 0.0, 1.0)

        coeff = gamma * constraint * constraint
        terms = (coeff * p * (2.0 - p)) ** exponent
        terms = np.where(active, terms, 0.0)
        max_random = float(terms.sum(axis=1).max())

        best_sym = 0.0
        for k in range(k_min, d + 1):
            pk = total / k
            val = k * (coeff * pk * (2.0 - pk)) ** exponent
            best_sym = max(best_sym, val)
    else:
        raise ValueError(f"unknown model {params.model!r}")

    return SymmetrizeReport(
        max_random=max_random,
        max_symmetric=best_sym,
        passed=max_random <= best_sym + _SYM_SLACK,
        d=d,
        constraint=constraint,
        exponent=exponent,
        trials=trials,
        seed=seed,
    )
