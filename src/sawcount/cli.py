"""Command-line interface.

Subcommands: hc-count, md-count, hc-marginal, md-marginal, decay-table,
conn-const, z2-branching, lattice-bounds, gen, oracle.

Each subcommand's handler `_cmd_*(args)` returns `(record, ok)`; one
that runs out of budget returns its partial certified record with ok
false.  The record is None where the command wrote its own output: `gen`
without `--format json` (its edge list or a confirmation line) and a
failed `z2-branching` (one line on stderr).  `main` emits the record,
the one call of `_emit`, and exits 0 if ok, else 1.  A ValueError or
OSError is a usage error (a bad flag value, a missing or malformed graph
file): it exits 2 with its message on stderr.

Every record echoes its fully resolved configuration (including seeds):
as a "config" object in JSON mode, as leading '# key = value' lines in
text mode.  Numbers are serialized with 12 significant digits, the ends
of a certified interval (and the proven eigenvalue bound) rounded
outward.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Context

from . import __version__
from .connconst import (
    PowerIterationError,
    StateCapError,
    conn_profile,
    lattice_bounds_table,
    sample_roots,
    spectral_bound,
    truncate3,
    z2_branching_matrix,
)
from .counting import oracle_Z, oracle_marginal, partition_hc, partition_md
from .decay import decay_factor_hc, decay_factor_md, lambda_c
from .graph import GNP_GENERATOR, gen_graph, graph_from_edge_list, graph_to_edge_list
from .recurrence import (
    HARDCORE,
    MONOMERDIMER,
    AdaptiveBudgetError,
    ModelParams,
    apriori_interval,
    marginal_adaptive,
    sandwich_values,
)
from .sawtree import NodeBudgetError

_FLOAT_FMT = "%.12g"


def _fnum(x, rounding=ROUND_HALF_EVEN):
    """Round-trip a float through its 12-significant-digit form.

    Rounds to nearest by default.  A bound rounds outward, so the printed
    number is still a bound: an upper end with ROUND_CEILING, a lower end
    with ROUND_FLOOR (the nearest float to a 12-digit decimal at or above
    x is still at or above x, and likewise below).
    """
    return float(Context(prec=12, rounding=rounding).create_decimal(x))


def _fup(x):
    return _fnum(x, ROUND_CEILING)


def _fdown(x):
    return _fnum(x, ROUND_FLOOR)


# ---------------------------------------------------------------------------
# JSON record schemas (shipped validator; all emitted records must pass)
# ---------------------------------------------------------------------------

_COMMON_FIELDS = {"command": str, "config": dict}

# a count's value, lo and hi are emitted only when finite (see _cmd_count);
# its log-space certificate is always there
_COUNT_SCHEMA = {"log_value": float, "log_lo": float, "log_hi": float,
                 "eps": float, "depth": int, "nodes": int, "converged": bool}
_COUNT_OPTIONAL = {"value": float, "lo": float, "hi": float, "failed_vertex": int}
_MARGINAL_SCHEMA = {"value": float, "lo": float, "hi": float, "tol": float,
                    "depth": int, "nodes": int, "converged": bool}

_SCHEMAS = {
    "hc-count": _COUNT_SCHEMA,
    "md-count": _COUNT_SCHEMA,
    "hc-marginal": _MARGINAL_SCHEMA,
    "md-marginal": _MARGINAL_SCHEMA,
    "decay-table": {"rows": list},
    "conn-const": {"rows": list, "complete": bool, "roots": list, "walks": int,
                   "walked": list},
    "z2-branching": {"eigenvalue": float, "states": int, "states_raw": int,
                     "ssm_bound": float},
    "lattice-bounds": {"rows": list},
    "oracle": {"value": float},
    "gen": {"n": int, "edges": int},
}

# fields a record may omit, type-checked when present
_OPTIONAL = {"hc-count": _COUNT_OPTIONAL, "md-count": _COUNT_OPTIONAL,
             "conn-const": {"failed_root": int}}


def _check_field(key, val, typ):
    if typ is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ValueError(f"record field {key!r} must be a number")
    elif not isinstance(val, typ):
        raise ValueError(f"record field {key!r} must be {typ.__name__}")


def validate_record(record) -> None:
    """Validate a result record against the shipped schema; raises ValueError."""
    if not isinstance(record, dict):
        raise ValueError("record must be an object")
    for key, typ in _COMMON_FIELDS.items():
        if not isinstance(record.get(key), typ):
            raise ValueError(f"record field {key!r} missing or mistyped")
    schema = _SCHEMAS.get(record["command"])
    if schema is None:
        raise ValueError(f"unknown command {record['command']!r}")
    for key, typ in schema.items():
        if key not in record:
            raise ValueError(f"record field {key!r} missing")
        _check_field(key, record[key], typ)
    for key, typ in _OPTIONAL.get(record["command"], {}).items():
        if key in record:
            _check_field(key, record[key], typ)


def _emit(record, fmt):
    """Print a record: as JSON (validated against its schema), or as text,
    its config as '# key = value' lines, then each other field as
    'key value' and the rows under a '# columns:' header."""
    if fmt == "json":
        text = json.dumps(record, indent=2, sort_keys=True)
        validate_record(json.loads(text))
        print(text)
        return
    for key, val in sorted(record["config"].items()):
        print(f"# {key} = {val}")
    for key in sorted(record.keys() - {"command", "config", "rows"}):
        val = record[key]
        print(f"{key} {_FLOAT_FMT % val if isinstance(val, float) else val}")
    rows = record.get("rows", [])
    if rows:
        print("# columns: " + "  ".join(rows[0]))
    for row in rows:
        print("  ".join(_FLOAT_FMT % v if isinstance(v, float) else str(v)
                        for v in row.values()))


def _read_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_edge_list(fh.read())


def _base_config(**extra):
    return {"version": __version__, **extra}


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (record, ok)
# ---------------------------------------------------------------------------


def _params(args):
    """(model, activity) of a run: the model from the command's hc-/md-
    prefix or from --model, the activity from --lam or --gamma."""
    model = {"hc-": HARDCORE, "md-": MONOMERDIMER}.get(args.cmd[:3]) or args.model
    flag = "lam" if model == HARDCORE else "gamma"
    act = getattr(args, flag)
    if act is None:
        raise ValueError(f"--{flag} is required for the {model} model")
    return model, act


def _cmd_count(args):
    model, act = _params(args)
    g = _read_graph(args.graph)
    budget = args.budget if args.budget is not None else 10**7 * g.n
    cfg = _base_config(
        graph=args.graph, model=model, activity=act,
        eps=args.eps, budget=budget,
    )
    partition = partition_hc if model == HARDCORE else partition_md
    res = partition(g, act, args.eps, budget=budget)
    record = {
        "command": args.cmd,
        "config": cfg,
        "log_value": _fnum(res.log_value),
        "log_lo": _fdown(res.log_lo),
        "log_hi": _fup(res.log_hi),
        "eps": args.eps,
        "depth": res.depth_max_used,
        "nodes": res.nodes_expanded,
        "converged": res.converged,
    }
    # Z above the float range (log Z > 709.78) has only its logs
    for key, val in (("value", _fnum(res.value)), ("lo", _fdown(res.lo)),
                     ("hi", _fup(res.hi))):
        if math.isfinite(val):
            record[key] = val
    if not res.converged:
        record["failed_vertex"] = res.failed_vertex
    if res.advisory is not None:
        record["advisory"] = (
            f"activity {act} is above the critical value for max degree; "
            f"decay factor bound {_FLOAT_FMT % res.advisory.alpha_delta} >= 1"
        )
    return record, res.converged


def _cmd_marginal(args):
    model, act = _params(args)
    g = _read_graph(args.graph)
    params = ModelParams(model, act)
    cfg = _base_config(
        graph=args.graph, model=model, activity=act, vertex=args.vertex,
        tol=args.tol, depth=args.depth, budget=args.budget,
    )
    converged = True
    if args.depth is not None:
        try:
            pairs, nodes, _ = sandwich_values(
                g, args.vertex, model, [act], args.depth, budget=args.budget
            )
            (lo, hi), depth = pairs[0], args.depth
        except NodeBudgetError as exc:
            # no pass completed: the a-priori interval, which needs no tree
            (lo, hi), depth = apriori_interval(params, g, args.vertex), 0
            nodes, converged = exc.nodes_expanded, False
        value = 0.5 * (lo + hi)
    else:
        try:
            res = marginal_adaptive(g, args.vertex, params, tol=args.tol,
                                    budget=args.budget)
            lo, hi, value = res.lo, res.hi, res.value
            depth, nodes = res.depth_max_used, res.nodes_expanded
        except AdaptiveBudgetError as exc:
            lo, hi = exc.lo, exc.hi
            value, depth, nodes = 0.5 * (lo + hi), exc.depth, exc.nodes_expanded
            converged = False
    record = {
        "command": args.cmd,
        "config": cfg,
        "value": _fnum(value),
        "lo": _fdown(lo),
        "hi": _fup(hi),
        "tol": args.tol,
        "depth": depth,
        "nodes": nodes,
        "converged": converged,
    }
    return record, converged


# each model's decay factor and its table columns: (column, DecayReport field)
_DECAY_COLUMNS = {
    HARDCORE: (decay_factor_hc, (("q", "q"), ("a", "a"), ("delta_c", "delta_c"))),
    MONOMERDIMER: (decay_factor_md, (("q", "q"), ("r", "r"), ("D", "big_d"))),
}
_DECAY_SHARED = (("alpha", "alpha"), ("alpha_delta", "alpha_delta"),
                 ("ssm_rate", "ssm_rate"))


def _cmd_decay_table(args):
    model, act = _params(args)
    decay_factor, columns = _DECAY_COLUMNS[model]
    rows = []
    for delta in args.delta:
        rep = decay_factor(act, delta)
        rows.append({
            "delta": delta,
            **{col: _fnum(getattr(rep, field)) for col, field in columns + _DECAY_SHARED},
            "supercritical": rep.supercritical,
        })
    cfg = _base_config(model=model, activity=act, delta=args.delta)
    return {"command": "decay-table", "config": cfg, "rows": rows}, True


def _cmd_conn_const(args):
    g = _read_graph(args.graph)
    if args.roots == "all":
        roots = "all"
    else:
        roots = sample_roots(g, int(args.roots), seed=args.seed)
    prof = conn_profile(g, args.lmax, roots=roots, budget=args.budget)
    cfg = _base_config(
        graph=args.graph, lmax=args.lmax, roots=args.roots,
        seed=args.seed, budget=args.budget,
    )
    rows = [
        {"l": l, "cumulative": c, "estimate": _fnum(e)}
        for l, c, e in zip(prof.lengths, prof.cumulative, prof.estimates)
    ]
    record = {
        "command": "conn-const",
        "config": cfg,
        "rows": rows,
        "complete": prof.complete,
        "roots": prof.roots,
        "walks": prof.walks,
        "walked": prof.walked,
    }
    if not prof.complete:
        record["failed_root"] = prof.failed_root
    return record, prof.complete


def _cmd_z2(args):
    cfg = _base_config(
        L=args.L, ordering=args.ordering, pruning=args.pruning,
        tol=args.tol, state_cap=args.state_cap, merge=not args.no_merge,
    )
    try:
        bm = z2_branching_matrix(
            args.L, ordering=args.ordering, pruning=args.pruning,
            state_cap=args.state_cap, merge=not args.no_merge,
        )
        ev = spectral_bound(bm, tol=args.tol)
    except (StateCapError, PowerIterationError) as exc:
        print(f"z2-branching failed: {exc}", file=sys.stderr)
        return None, False
    ev = _fup(ev)  # a proven upper bound, printed as one
    record = {
        "command": "z2-branching",
        "config": cfg,
        "eigenvalue": ev,
        "states": bm.k,
        "states_raw": bm.states_raw,
        "ssm_bound": _fnum(truncate3(lambda_c(ev))),
    }
    return record, True


def _cmd_lattice_bounds(args):
    rows = [
        {
            "lattice": b.lattice,
            "max_degree": b.max_degree,
            "connective_constant": b.connective_constant,
            "ssm_bound": truncate3(b.ssm_bound),
        }
        for b in lattice_bounds_table()
    ]
    return {"command": "lattice-bounds", "config": _base_config(), "rows": rows}, True


# each kind's parameters, in groups that are required together
_GEN_PARAMS = {
    "cycle": (("n",),),
    "complete": (("n",),),
    "grid": (("width", "height"),),
    "dary_tree": (("d", "depth"),),
    "gnp": (("n",), ("d",)),
}


def _cmd_gen(args):
    params = {}
    for group in _GEN_PARAMS[args.kind]:
        if any(getattr(args, p) is None for p in group):
            verb = "is" if len(group) == 1 else "are"
            flags = " and ".join("--" + p for p in group)
            raise ValueError(f"{flags} {verb} required for kind {args.kind}")
        params.update((p, getattr(args, p)) for p in group)
    g = gen_graph(args.kind, seed=args.seed, **params)
    header = [
        f"# kind = {args.kind}",
        f"# params = {params}",
        f"# seed = {args.seed}",
        f"# generator = {GNP_GENERATOR}",
    ]
    text = "\n".join(header) + "\n" + graph_to_edge_list(g)
    if not args.out:
        sys.stdout.write(text)
        return None, True
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    if args.format == "json":
        cfg = _base_config(kind=args.kind, seed=args.seed, out=args.out, **params)
        return {"command": "gen", "config": cfg, "n": g.n, "edges": g.num_edges}, True
    print(f"wrote {g.n} vertices, {g.num_edges} edges to {args.out}")
    return None, True


def _cmd_oracle(args):
    model, act = _params(args)
    g = _read_graph(args.graph)
    params = ModelParams(model, act)
    cfg = _base_config(graph=args.graph, model=model, activity=act, vertex=args.vertex)
    record = {"command": "oracle", "config": cfg}
    if args.vertex is None:
        record["value"] = _fnum(oracle_Z(g, params))
    elif model == HARDCORE:
        p, ratio = oracle_marginal(g, args.vertex, params)
        record["value"] = _fnum(p)
        record["ratio"] = _fnum(ratio)
    else:
        record["value"] = _fnum(oracle_marginal(g, args.vertex, params))
    return record, True


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(sp, default_format):
    sp.add_argument("--format", choices=("json", "text"), default=default_format)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sawcount",
        description="certified approximate counting via self-avoiding-walk trees",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    for cmd, act_flag in (("hc-count", "--lam"), ("md-count", "--gamma")):
        sp = sub.add_parser(cmd)
        sp.add_argument("--graph", required=True)
        sp.add_argument(act_flag, dest=act_flag.strip("-"), type=float, required=True)
        sp.add_argument("--eps", type=float, default=0.01)
        sp.add_argument("--budget", type=int, default=None,
                        help="total node budget; default 10^7 per marginal")
        _add_common(sp, "json")

    for cmd, act_flag in (("hc-marginal", "--lam"), ("md-marginal", "--gamma")):
        sp = sub.add_parser(cmd)
        sp.add_argument("--graph", required=True)
        sp.add_argument(act_flag, dest=act_flag.strip("-"), type=float, required=True)
        sp.add_argument("--vertex", type=int, default=0)
        sp.add_argument("--tol", type=float, default=1e-6)
        sp.add_argument("--depth", type=int, default=None,
                        help="fixed truncation depth instead of adaptive")
        sp.add_argument("--budget", type=int, default=10**7)
        _add_common(sp, "json")

    sp = sub.add_parser("decay-table")
    sp.add_argument("--model", choices=(HARDCORE, MONOMERDIMER), required=True)
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--delta", type=float, action="append", required=True)
    _add_common(sp, "text")

    sp = sub.add_parser("conn-const")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--lmax", type=int, default=8)
    sp.add_argument("--roots", default="all",
                    help="'all' or a sample size")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=int, default=10**8)
    _add_common(sp, "text")

    sp = sub.add_parser("z2-branching")
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--ordering", choices=("relative", "uniform"),
                    default="relative")
    sp.add_argument("--pruning", choices=("none", "weitz"), default="weitz")
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--state-cap", type=int, default=5 * 10**6)
    sp.add_argument("--no-merge", action="store_true")
    _add_common(sp, "text")

    sp = sub.add_parser("lattice-bounds")
    _add_common(sp, "text")

    sp = sub.add_parser("gen")
    sp.add_argument("--kind", required=True,
                    choices=("cycle", "complete", "grid", "dary_tree", "gnp"))
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--d", type=float, default=None)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--width", type=int, default=None)
    sp.add_argument("--height", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    _add_common(sp, "text")

    sp = sub.add_parser("oracle")
    sp.add_argument("--model", choices=(HARDCORE, MONOMERDIMER), required=True)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--lam", type=float, default=None)
    sp.add_argument("--gamma", type=float, default=None)
    sp.add_argument("--vertex", type=int, default=None)
    _add_common(sp, "json")

    return p


_HANDLERS = {
    "hc-count": _cmd_count,
    "md-count": _cmd_count,
    "hc-marginal": _cmd_marginal,
    "md-marginal": _cmd_marginal,
    "decay-table": _cmd_decay_table,
    "conn-const": _cmd_conn_const,
    "z2-branching": _cmd_z2,
    "lattice-bounds": _cmd_lattice_bounds,
    "gen": _cmd_gen,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        record, ok = _HANDLERS[args.cmd](args)
        if record is not None:
            _emit(record, args.format)
        return 0 if ok else 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
