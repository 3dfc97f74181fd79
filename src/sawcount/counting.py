"""Partition functions: exact oracles for small graphs and certified
approximation via self-reducibility.

The approximation telescopes vertex deletions in ascending-id order.
Writing G_i for the graph with vertices 0..i-1 removed:

  hard-core:     Z(G) = prod_i (1 + R_0(G_i))        (1 - p_v = Z(G-v)/Z(G))
  monomer-dimer: Z(G) = prod_i 1 / p_0(G_i)

Each factor comes from a certified marginal interval, so the product
interval encloses Z regardless of any decay assumption.  One stopping
rule serves both models: each factor is deepened until its log-width is
within a running share of eps, so the final interval ratio is at most
e^eps <= (1+eps)^2, and the reported value (the geometric interval
midpoint) is within a factor 1+-eps of Z.  Accumulation is in log space.
"""

from __future__ import annotations

import math

from .graph import Graph, degree_stats, delete_vertex
from .recurrence import (
    HARDCORE,
    MONOMERDIMER,
    AdaptiveBudgetError,
    ApproxResult,
    ModelParams,
    _adaptive,
)
from .sawtree import UNOCCUPIED, BoundaryCondition

ORACLE_MAX_VERTICES = 28
ORACLE_MAX_EDGES = 40


# ---------------------------------------------------------------------------
# Exact oracles (memoized branching over induced-subgraph bitmasks)
# ---------------------------------------------------------------------------


def _neighbor_masks(g: Graph):
    return tuple(sum(1 << u for u in nbrs) for nbrs in g.adjacency)


def _lowest_bit_index(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _hc_Z(nbr_masks, lam, mask, cache):
    """Weighted independent-set count of the induced subgraph on `mask`."""
    if mask == 0:
        return 1.0
    hit = cache.get(mask)
    if hit is not None:
        return hit
    v = _lowest_bit_index(mask)
    rest = mask & ~(1 << v)
    out = _hc_Z(nbr_masks, lam, rest, cache) + lam * _hc_Z(
        nbr_masks, lam, rest & ~nbr_masks[v], cache
    )
    cache[mask] = out
    return out


def _md_Z(nbr_masks, gamma, mask, cache):
    """Weighted matching count of the induced subgraph on `mask`."""
    if mask == 0:
        return 1.0
    hit = cache.get(mask)
    if hit is not None:
        return hit
    v = _lowest_bit_index(mask)
    rest = mask & ~(1 << v)
    out = _md_Z(nbr_masks, gamma, rest, cache)
    partners = nbr_masks[v] & rest
    while partners:
        u = _lowest_bit_index(partners)
        partners &= partners - 1
        out += gamma * _md_Z(nbr_masks, gamma, rest & ~(1 << u), cache)
    cache[mask] = out
    return out


def _check_oracle_size(g: Graph, params: ModelParams):
    if params.model == HARDCORE and g.n > ORACLE_MAX_VERTICES:
        raise ValueError(f"oracle limited to n <= {ORACLE_MAX_VERTICES}")
    if params.model == MONOMERDIMER and g.num_edges > ORACLE_MAX_EDGES:
        raise ValueError(f"oracle limited to <= {ORACLE_MAX_EDGES} edges")
    if g.n > 63:
        raise ValueError("oracle uses 63-bit vertex masks")


def oracle_Z(g: Graph, params: ModelParams) -> float:
    """Exact partition function by exhaustive weighted enumeration."""
    _check_oracle_size(g, params)
    nbr = _neighbor_masks(g)
    full = (1 << g.n) - 1
    if params.model == HARDCORE:
        return _hc_Z(nbr, params.activity, full, {})
    return _md_Z(nbr, params.activity, full, {})


def oracle_marginal(
    g: Graph,
    v: int,
    params: ModelParams,
    boundary: BoundaryCondition | None = None,
):
    """Exact marginal at v by conditional enumeration.

    Monomer-dimer: returns the monomer probability p_v.
    Hard-core: returns (p_v, R_v); an optional boundary conditions the
    distribution on its pins (occupied pins must be independent and must
    not involve v).
    """
    _check_oracle_size(g, params)
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    nbr = _neighbor_masks(g)
    full = (1 << g.n) - 1
    if params.model == MONOMERDIMER:
        if boundary is not None:
            raise ValueError("boundary conditions apply to hard-core only")
        z = _md_Z(nbr, params.activity, full, {})
        z_without = _md_Z(nbr, params.activity, full & ~(1 << v), {})
        return z_without / z
    lam = params.activity
    mask = full
    if boundary is not None:
        boundary.validate(g)
        if v in boundary.assignments:
            raise ValueError("boundary must not pin the query vertex")
        for w, state in boundary.assignments.items():
            if state == UNOCCUPIED:
                mask &= ~(1 << w)
        for w in boundary.occupied():
            mask &= ~((1 << w) | nbr[w])
        if not mask & (1 << v):
            return 0.0, 0.0  # a neighbor of v is pinned occupied
    cache = {}
    # split Z over the state of v: no cancellation in the ratio
    z_v_out = _hc_Z(nbr, lam, mask & ~(1 << v), cache)
    z_v_in = lam * _hc_Z(nbr, lam, mask & ~((1 << v) | nbr[v]), cache)
    return z_v_in / (z_v_out + z_v_in), z_v_in / z_v_out


# ---------------------------------------------------------------------------
# Certified approximation of log Z
# ---------------------------------------------------------------------------


def _telescope(g, params, eps, budget):
    """The telescope of both models: walks the deletion sequence,
    bracketing one factor on each shrinking graph; on budget exhaustion,
    pads the failed and all later factors with their a-priori bounds and
    reports the failed vertex (factor i belongs to original vertex i).

    Factor i is deepened until its log-width is at most an equal share of
    the allowance still unspent, (allowance - spent) / (n - i).  The
    shares never decrease (a factor that finishes under its share, such
    as an exactly expanded one, passes the rest on), the spent total
    never exceeds the allowance, and the allowance leaves room for the
    roundoff pad, so log(hi/lo) <= eps holds by construction.
    """
    n = g.n
    model = params.model
    # pad the certificate by the accumulated floating-point roundoff of
    # the per-factor logs and the final exp (a few ulps per factor)
    pad = 4e-15 * (n + 4)
    allowance = eps * (1.0 - 1e-9) - 2.0 * pad

    def log_width(lo, hi):
        flo, fhi = _log_factor(model, lo, hi)
        return fhi - flo

    log_lo = 0.0
    log_hi = 0.0
    depth_max = 0
    nodes = 0
    converged = True
    failed_vertex = None
    h = g
    for i in range(n):
        if converged:
            share = (allowance - (log_hi - log_lo)) / (n - i)
            vertex_budget = max(1, (budget - nodes) // (n - i))
            try:
                lo, hi, depth, used = _adaptive(
                    h, 0, params, log_width, share, None, vertex_budget
                )
            except AdaptiveBudgetError as exc:
                converged = False
                failed_vertex = i
                lo, hi = _trivial_bracket(params, h, exc.lo, exc.hi)
                depth, used = exc.depth, exc.nodes_expanded
            depth_max = max(depth_max, depth)
            nodes += used
        else:
            lo, hi = _trivial_bracket(params, h)
        flo, fhi = _log_factor(model, lo, hi)
        log_lo += flo
        log_hi += fhi
        h = delete_vertex(h, 0)
    log_mid = 0.5 * (log_lo + log_hi)
    return ApproxResult(
        value=math.exp(log_mid),
        lo=math.exp(log_lo - pad),
        hi=math.exp(log_hi + pad),
        eps_requested=eps,
        depth_max_used=depth_max,
        nodes_expanded=nodes,
        converged=converged,
        log_value=log_mid,
        failed_vertex=failed_vertex,
    )


def _log_factor(model, lo, hi):
    """(log lower, log upper) bound of one telescope factor, 1 + R for
    hard-core or 1/p for monomer-dimer, from its marginal bracket."""
    if model == HARDCORE:
        return math.log1p(lo), math.log1p(hi)
    return -math.log(hi), -math.log(lo) if lo > 0 else math.inf


def _trivial_bracket(params, h, lo=None, hi=None):
    """A marginal bracket at vertex 0 of h that needs no tree: the model's
    a-priori range, narrowed by a partial bracket where one is given."""
    if params.model == HARDCORE:
        return (0.0 if lo is None else lo), (params.activity if hi is None else hi)
    p_min = 1.0 / (1.0 + params.activity * degree_stats(h)[0])
    return (p_min if lo is None else max(lo, p_min)), (1.0 if hi is None else hi)


def partition_hc(
    g: Graph, lam: float, eps: float, budget: int | None = None
) -> ApproxResult:
    """Certified (1 +- eps) approximation of the hard-core partition function.

    Each deleted vertex contributes the factor 1 + R from its pinned
    walk-tree ratio, bracketed until its log-width log(1+R_hi) -
    log(1+R_lo) fits its running share of eps (see `_telescope`), so the
    full product interval ratio is at most e^eps.  The budget defaults to
    10**7 nodes per marginal (10**7 * n total).  Inputs with activity
    above the critical value for their degree are attempted anyway (the
    node budget guards runtime) and carry the decay report as an advisory.
    """
    if not (0 < eps <= 1):
        raise ValueError("eps must be in (0, 1]")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if g.n == 0:
        return ApproxResult(1.0, 1.0, 1.0, eps, 0, 0, log_value=0.0)
    if budget is None:
        budget = 10**7 * g.n
    out = _telescope(g, ModelParams(HARDCORE, lam), eps, budget)
    maxdeg = degree_stats(g)[0]
    if maxdeg >= 3:
        from .decay import decay_factor_hc

        report = decay_factor_hc(lam, float(maxdeg - 1))
        if report.supercritical:
            out.advisory = report
    return out


def partition_md(
    g: Graph, gamma: float, eps: float, budget: int | None = None
) -> ApproxResult:
    """Certified (1 +- eps) approximation of the matching polynomial.

    Each deleted vertex contributes the factor 1/p from its monomer
    probability, bracketed until its log-width log(p_hi) - log(p_lo) fits
    its running share of eps (see `_telescope`), so the full product
    interval ratio is at most e^eps.  The budget defaults to 10**7 nodes
    per marginal.
    """
    if not (0 < eps <= 1):
        raise ValueError("eps must be in (0, 1]")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if g.n == 0:
        return ApproxResult(1.0, 1.0, 1.0, eps, 0, 0, log_value=0.0)
    if budget is None:
        budget = 10**7 * g.n
    return _telescope(g, ModelParams(MONOMERDIMER, gamma), eps, budget)
