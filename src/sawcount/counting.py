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
the feedback vertices lie on cycles of their G_i; the later vertices
make up the forest G minus the feedback set, whose factors multiply to
its partition function, which one bottom-up pass gives exactly.  One
stopping rule serves both models: each feedback factor is deepened until
its log-width is within its share of eps.  The shares follow each
factor's predicted cost, fitted from its first passes, and are re-split
from the allowance still unspent as the factors finish, so the final
interval ratio is at most e^eps <= (1+eps)^2 whatever the fit, and the
reported value (the geometric interval midpoint) is within a factor
1+-eps of Z.  Accumulation is in log space.
"""

from __future__ import annotations

import itertools
import math

from .decay import decay_factor_hc, delta_c
from .graph import Graph, degree_stats
from .recurrence import (
    HARDCORE,
    MONOMERDIMER,
    AdaptiveBudgetError,
    ApproxResult,
    ModelParams,
    _adaptive,
    _Deepening,
    apriori_interval,
)
from .sawtree import UNOCCUPIED, BoundaryCondition

ORACLE_MAX_VERTICES = 28
ORACLE_MAX_EDGES = 40

_PROBE_DEPTH = 4  # every feedback factor is deepened this far before the shares are fitted
_BISECTIONS = 60  # halvings of the bracket on log mu in `_cost_shares`


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
    The budget defaults to 10**7 nodes per vertex, handed out as each
    factor starts: (budget - nodes spent) // (vertices left).  On budget
    exhaustion the failed vertex is reported and each feedback factor
    keeps its loop's interval, which starts at its `apriori_interval`;
    the forest factors stay exact.

    Only the first k factors, of the feedback vertices, lie on cycles and
    are truncated, each by an `_adaptive` loop run in two stages:

      probe -- every feedback factor runs the passes of its loop up to
          depth `_PROBE_DEPTH` (depths 0, 1, 2 and 4 as a rule) against
          an equal share of the allowance.  A factor that meets it, or
          whose tree ends, is settled.
      resume -- `_cost_shares` splits what the settled factors left of
          the allowance over the others by their cost fits.  Each loop
          then goes on from its probe passes, in order, towards the
          allowance still unspent times its weight over the weights of
          the factors not yet run.

    A factor that finishes under its target passes the rest on, the spent
    total never exceeds the allowance whatever the weights, and the
    allowance leaves room for the roundoff pad, so log(hi/lo) <= eps holds
    by construction: a bad fit costs nodes, never the certificate.

    Every later vertex lies in the forest g minus the feedback set, whose
    factors multiply to its partition function: one pass of
    `_forest_log_z` gives them at one node per vertex, which the
    per-vertex budget always grants, so it runs whether or not a feedback
    factor ran out.  Only the truncated factors count toward
    depth_max_used.
    """
    if not (0 < eps <= 1):
        raise ValueError("eps must be in (0, 1]")
    if budget is not None and budget <= 0:
        raise ValueError("budget must be positive")
    n = g.n
    if n == 0:
        return ApproxResult(1.0, 1.0, 1.0, eps, 0, 0, log_value=0.0, log_lo=0.0, log_hi=0.0)
    if budget is None:
        budget = 10**7 * n
    model = params.model
    pad = _roundoff_pad(g, params)
    allowance = eps * (1.0 - 1e-9) - 2.0 * pad

    def log_width(lo, hi):
        flo, fhi = _log_factor(model, lo, hi)
        return fhi - flo

    order, k = _cycle_cutting_order(g)
    blocked = [frozenset(order[:i]) for i in range(k)]
    loops = [_Deepening(apriori_interval(params, g, v)) for v in order[:k]]
    nodes = 0
    failed = None

    def deepen(i, target, until=None):
        # go on with factor i's loop; False when the budget ran out
        nonlocal nodes, failed
        loop = loops[i]
        before = loop.total
        limit = before + max(1, (budget - nodes) // (n - i))
        try:
            _adaptive(g, order[i], params, log_width, target, None, limit,
                      blocked[i], loop, until)
        except AdaptiveBudgetError as exc:
            failed = order[i]
            nodes += exc.nodes_expanded - before
            return False
        nodes += loop.total - before
        return True

    share = allowance / max(1, k)
    if all(deepen(i, share, _PROBE_DEPTH) for i in range(k)):
        open_ = [i for i, loop in enumerate(loops) if not loop.settled(share)]
        spent = sum(loop.passes[-1][1] for loop in loops if loop.settled(share))
        if open_:
            even = (allowance - spent) / len(open_)
            weights = _cost_shares([_cost_fit(loops[i].passes) for i in open_],
                                   allowance - spent)
            # a weight that is not a positive share counts as no fit
            weights = [w if 0 < w < math.inf else even for w in weights]
            rest = list(itertools.accumulate(reversed(weights)))[::-1]
            for i, w, r in zip(open_, weights, rest):
                if not deepen(i, (allowance - spent) * min(1.0, w / r)):
                    break
                spent += loops[i].passes[-1][1]

    log_lo = 0.0
    log_hi = 0.0
    for loop in loops:
        flo, fhi = _log_factor(model, *loop.last)
        log_lo += flo
        log_hi += fhi
    depth_max = max([0] + [loop.passes[-1][0] for loop in loops if loop.passes])
    log_z = _forest_log_z(g, params, order[:k])
    log_lo += log_z
    log_hi += log_z
    nodes += n - k
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
        converged=failed is None,
        log_value=log_mid,
        failed_vertex=failed,
        log_lo=log_lo,
        log_hi=log_hi,
    )


def _cost_fit(passes):
    """(beta, log A, width reached) of a factor's cost model from its last
    two passes, or None without a usable fit.

    With width W rho**d and nodes B b**d at depth d, reaching width s
    takes about A s**-beta nodes, beta = log b / log(1/rho).  Through the
    last pass (depth d, width w, n nodes), A = n w**beta.
    """
    (_, w0, n0), (_, w1, n1) = passes
    if not (0.0 < w1 < w0 < math.inf and n1 > n0):
        return None
    beta = math.log(n1 / n0) / math.log(w0 / w1)
    return beta, math.log(n1) + beta * math.log(w1), w1


def _cost_shares(fits, total):
    """Shares of `total` log-width for factors with the cost fits of
    `_cost_fit`, which minimize their predicted nodes.

    A factor without a fit gets total / len(fits).  The others split the
    rest: minimizing sum_i A_i s_i**-beta_i subject to sum_i s_i fixed
    gives s_i = (beta_i A_i / mu)**(1/(1 + beta_i)), each capped at the
    width its factor has reached already, with mu found by bisection on
    log mu.  The shares sum to at most `total`.
    """
    even = total / len(fits)
    fitted = [f for f in fits if f is not None]
    part = even * len(fitted)
    if not fitted or part <= 0:
        return [even] * len(fits)

    def shares(log_mu):
        return [min(cap, math.exp((math.log(beta) + log_a - log_mu) / (1.0 + beta)))
                for beta, log_a, cap in fitted]

    if sum(cap for _, _, cap in fitted) <= part:
        best = [cap for _, _, cap in fitted]
    else:
        # every share is at least part below lo, at most part/len above hi
        lo = min(math.log(b) + a - (1.0 + b) * math.log(part) for b, a, _ in fitted)
        hi = max(math.log(b) + a - (1.0 + b) * math.log(part / len(fitted))
                 for b, a, _ in fitted)
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            if sum(shares(mid)) > part:
                lo = mid
            else:
                hi = mid
        best = shares(hi)
    it = iter(best)
    return [even if f is None else next(it) for f in fits]


def _forest_log_z(g, params, cut):
    """log Z of g minus the vertices `cut`, which must leave a forest, in
    one bottom-up pass.

    Each component is rooted at its lowest id, listed breadth first and
    folded from the last listed vertex back, each vertex's children in
    ascending id as the sandwich walkers fold them: R_u = lambda prod
    1/(1 + R_c) (hard-core) or p_u = 1/(1 + gamma sum p_c) (monomer-dimer)
    over the children c of u.  Deleting the vertices leaf to root is a
    telescope of its own whose factor at u is the marginal of u's
    subtree, so log Z = sum_u log(1 + R_u), resp. sum_u -log p_u.
    """
    a = params.activity
    hc = params.model == HARDCORE
    adj = g.adjacency
    parent = [-1] * g.n
    done = bytearray(g.n)
    for v in cut:
        done[v] = 1
    value = [0.0] * g.n
    out = 0.0
    for root in range(g.n):
        if done[root]:
            continue
        done[root] = 1
        tree = [root]
        for u in tree:  # breadth first: the list grows as it is read
            for w in adj[u]:
                if not done[w]:
                    done[w] = 1
                    parent[w] = u
                    tree.append(w)
        for u in reversed(tree):
            if hc:
                x = a
                for w in adj[u]:
                    if parent[w] == u:
                        x *= 1.0 / (1.0 + value[w])
                out += math.log1p(x)
            else:
                s = 0.0
                for w in adj[u]:
                    if parent[w] == u:
                        s += value[w]
                x = 1.0 / (1.0 + a * s)
                out -= math.log(x)
            value[u] = x
    return out


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


def partition_hc(
    g: Graph, lam: float, eps: float, budget: int | None = None
) -> ApproxResult:
    """Certified (1 +- eps) approximation of the hard-core partition function.

    Each deleted vertex contributes the factor 1 + R from its pinned
    walk-tree ratio, with the vertices deleted before it pinned
    unoccupied.  A feedback vertex's factor is bracketed until its
    log-width log(1+R_hi) - log(1+R_lo) fits its cost-aware share of eps,
    and every other factor is exact (see `_telescope`), so the full
    product interval ratio is at most e^eps.  The budget defaults to
    10**7 nodes per marginal (10**7 * n total).  Inputs with activity
    above the critical value for their degree are attempted anyway (the
    node budget guards runtime) and carry the decay report as an advisory.
    """
    out = _telescope(g, ModelParams(HARDCORE, lam), eps, budget)
    maxdeg = degree_stats(g)[0]
    if maxdeg >= 3:
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
    fits its cost-aware share of eps, and every other factor is exact (see
    `_telescope`), so the full product interval ratio is at most e^eps.
    The budget defaults to 10**7 nodes per marginal.
    """
    return _telescope(g, ModelParams(MONOMERDIMER, gamma), eps, budget)
