"""Partition functions: exact oracles for small graphs and certified
approximation via self-reducibility.

The approximation telescopes vertex deletions in a cycle-cutting order
v_0, ..., v_{n-1}: a greedy feedback vertex set first, then the rest in
ascending id.  Writing G_i for G with v_0..v_{i-1} deleted:

  hard-core:     Z(G) = prod_i (1 + R_{v_i}(G_i))    (1 - p_v = Z(G-v)/Z(G))
  monomer-dimer: Z(G) = prod_i 1 / p_{v_i}(G_i)

Each factor is a marginal on G itself with v_0..v_{i-1} blocked, so no
graph is rebuilt.  It comes from a certified marginal interval, so the
product interval encloses Z regardless of any decay assumption.  Only
the feedback vertices lie on cycles of their G_i; every later vertex
lies in a forest, whose SAW tree is the forest component itself, so its
factor is exact at full expansion.  One stopping rule serves both models:
each feedback factor is deepened until its log-width is within a running
share of eps, so the final interval ratio is at most e^eps <=
(1+eps)^2, and the reported value (the geometric interval midpoint) is
within a factor 1+-eps of Z.  Accumulation is in log space.
"""

from __future__ import annotations

import math

from . import recurrence
from .graph import Graph, degree_stats
from .recurrence import (
    HARDCORE,
    MONOMERDIMER,
    AdaptiveBudgetError,
    ApproxResult,
    ModelParams,
    _adaptive,
)
from .sawtree import UNOCCUPIED, BoundaryCondition, NodeBudgetError

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


def _cycle_cutting_order(g: Graph) -> tuple[list, int]:
    """The telescope's vertex order and the length k of its cycle-cutting
    prefix: a greedy feedback vertex set first, then the rest in id order.

    The greedy set peels the graph to its 2-core (repeatedly removing the
    vertices of degree <= 1), takes the core vertex of highest degree in
    the core (lowest id on ties) and peels again, until the core is
    empty.  So every vertex after the prefix lies in a forest once the
    vertices before it are deleted.
    """
    adj = g.adjacency
    deg = [len(a) for a in adj]
    core = set(range(g.n))
    stack = [v for v in core if deg[v] <= 1]
    fvs = []
    while True:
        while stack:
            u = stack.pop()
            if u in core:
                core.remove(u)
                for w in adj[u]:
                    if w in core:
                        deg[w] -= 1
                        if deg[w] <= 1:
                            stack.append(w)
        if not core:
            break
        v = max(core, key=lambda u: (deg[u], -u))
        fvs.append(v)
        stack.append(v)
    taken = set(fvs)
    return fvs + [v for v in range(g.n) if v not in taken], len(fvs)


def _telescope(g, params, eps, budget):
    """The telescope of both models, in the cycle-cutting order of
    `_cycle_cutting_order`: factor i is the marginal of vertex order[i] on
    g with order[:i] deleted (see `sandwich_values`, argument `blocked`).
    The budget defaults to 10**7 nodes per vertex.  On budget exhaustion
    it pads the failed and all later factors with their a-priori bounds
    and reports the failed vertex.

    Only the first k factors, of the feedback vertices, lie on cycles and
    are truncated: factor i < k is deepened until its log-width is at most
    an equal share of the allowance still unspent, (allowance - spent) /
    (k - i).  The shares never decrease (a factor that finishes under its
    share passes the rest on), the spent total never exceeds the
    allowance, and the allowance leaves room for the roundoff pad, so
    log(hi/lo) <= eps holds by construction.  Every later factor lies in
    a tree, whose SAW tree is the tree itself: one untruncated pass at
    depth n - i (more than the n - i vertices left allow) gives it
    exactly.  Only the truncated factors count toward depth_max_used.
    """
    if not (0 < eps <= 1):
        raise ValueError("eps must be in (0, 1]")
    n = g.n
    if n == 0:
        return ApproxResult(1.0, 1.0, 1.0, eps, 0, 0, log_value=0.0, log_lo=0.0, log_hi=0.0)
    if budget is None:
        budget = 10**7 * n
    model = params.model
    act = [params.activity]
    pad = _roundoff_pad(g, params)
    allowance = eps * (1.0 - 1e-9) - 2.0 * pad

    def log_width(lo, hi):
        flo, fhi = _log_factor(model, lo, hi)
        return fhi - flo

    order, k = _cycle_cutting_order(g)
    log_lo = 0.0
    log_hi = 0.0
    depth_max = 0
    nodes = 0
    failed_vertex = None
    taken = set()
    for i, v in enumerate(order):
        if failed_vertex is None:
            vertex_budget = max(1, (budget - nodes) // (n - i))
            try:
                if i < k:
                    share = (allowance - (log_hi - log_lo)) / (k - i)
                    lo, hi, depth, used = _adaptive(
                        g, v, params, log_width, share, None, vertex_budget, taken
                    )
                    depth_max = max(depth_max, depth)
                else:
                    # looked up on the module at call time, as _adaptive's
                    # passes are, so a wrapper of it sees every pass
                    pairs, used, _ = recurrence.sandwich_values(
                        g, v, model, act, n - i, None, vertex_budget, taken
                    )
                    lo, hi = pairs[0]
            except AdaptiveBudgetError as exc:
                failed_vertex = v
                lo, hi = _trivial_bracket(params, g, v, exc.lo, exc.hi)
                depth_max = max(depth_max, exc.depth)
                used = exc.nodes_expanded
            except NodeBudgetError as exc:
                failed_vertex = v
                lo, hi = _trivial_bracket(params, g, v)
                used = exc.nodes_expanded
            nodes += used
        else:
            lo, hi = _trivial_bracket(params, g, v)
        flo, fhi = _log_factor(model, lo, hi)
        log_lo += flo
        log_hi += fhi
        taken.add(v)
    log_mid = 0.5 * (log_lo + log_hi)
    log_lo -= pad
    log_hi += pad
    return ApproxResult(
        value=_exp(log_mid),
        lo=_exp(log_lo),
        hi=_exp(log_hi),
        eps_requested=eps,
        depth_max_used=depth_max,
        nodes_expanded=nodes,
        converged=failed_vertex is None,
        log_value=log_mid,
        failed_vertex=failed_vertex,
        log_lo=log_lo,
        log_hi=log_hi,
    )


def _roundoff_pad(g, params):
    """The log-space pad of a telescope's certificate for floating-point
    roundoff: a few ulps per factor of the largest sum it can reach.

    The factor logs are nonnegative, so the roundoff of each log and of
    the running sum is at most about (n + 1) 2**-53 times the sum, and
    the sum is at most the sum of the a-priori factor bounds, log(1 +
    lambda) per vertex (hard-core) or log(1 + gamma*deg(v)) (monomer-dimer).
    """
    if params.model == HARDCORE:
        top = g.n * math.log1p(params.activity)
    else:
        top = sum(math.log1p(params.activity * len(a)) for a in g.adjacency)
    return 4e-15 * (g.n + 4) * max(1.0, top)


def _exp(x):
    """e**x, or inf where that overflows the float range (x > 709.78)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_factor(model, lo, hi):
    """(log lower, log upper) bound of one telescope factor, 1 + R for
    hard-core or 1/p for monomer-dimer, from its marginal bracket."""
    if model == HARDCORE:
        return math.log1p(lo), math.log1p(hi)
    return -math.log(hi), -math.log(lo) if lo > 0 else math.inf


def _trivial_bracket(params, g, v, lo=None, hi=None):
    """A marginal bracket at v that needs no tree: the model's a-priori
    range, narrowed by a partial bracket where one is given.  A monomer
    probability is at least 1/(1 + gamma*deg(v)), as every neighbor's is
    at most 1."""
    if params.model == HARDCORE:
        return (0.0 if lo is None else lo), (params.activity if hi is None else hi)
    p_min = 1.0 / (1.0 + params.activity * len(g.adjacency[v]))
    return (p_min if lo is None else max(lo, p_min)), (1.0 if hi is None else hi)


def partition_hc(
    g: Graph, lam: float, eps: float, budget: int | None = None
) -> ApproxResult:
    """Certified (1 +- eps) approximation of the hard-core partition function.

    Each deleted vertex contributes the factor 1 + R from its pinned
    walk-tree ratio, with the vertices deleted before it pinned
    unoccupied.  A feedback vertex's factor is bracketed until its
    log-width log(1+R_hi) - log(1+R_lo) fits its running share of eps,
    and every other factor is exact (see `_telescope`), so the full
    product interval ratio is at most e^eps.  The budget defaults to
    10**7 nodes per marginal (10**7 * n total).  Inputs with activity
    above the critical value for their degree are attempted anyway (the
    node budget guards runtime) and carry the decay report as an advisory.
    """
    out = _telescope(g, ModelParams(HARDCORE, lam), eps, budget)
    maxdeg = degree_stats(g)[0]
    if maxdeg >= 3:
        from .decay import decay_factor_hc, delta_c

        # the report's own supercritical test, alpha*delta >= 1 - 1e-9 with
        # alpha = 1/delta_c(lam), decides first: building the report costs
        # about as much as a whole telescope on a small graph
        if (1.0 / delta_c(lam)) * (maxdeg - 1) >= 1.0 - 1e-9:
            out.advisory = decay_factor_hc(lam, float(maxdeg - 1))
    return out


def partition_md(
    g: Graph, gamma: float, eps: float, budget: int | None = None
) -> ApproxResult:
    """Certified (1 +- eps) approximation of the matching polynomial.

    Each deleted vertex contributes the factor 1/p from its monomer
    probability, with the vertices deleted before it blocked.  A feedback
    vertex's factor is bracketed until its log-width log(p_hi) - log(p_lo)
    fits its running share of eps, and every other factor is exact (see
    `_telescope`), so the full product interval ratio is at most e^eps.
    The budget defaults to 10**7 nodes per marginal.
    """
    return _telescope(g, ModelParams(MONOMERDIMER, gamma), eps, budget)
