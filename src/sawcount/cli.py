"""Command-line interface.

Subcommands: hc-count, md-count, hc-marginal, md-marginal, decay-table,
conn-const, z2-branching, lattice-bounds, gen, oracle.

Every run echoes its fully resolved configuration (including seeds) in
the output header: as a "config" object in JSON mode, as leading
'# key = value' lines in text mode.  Numbers are serialized with 12
significant digits, the ends of a certified interval (and the proven
eigenvalue bound) rounded outward.  Exit codes: 0 success, 2 usage error, 1
computational failure (budget or convergence), with partial certified
results still emitted.
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
from .counting import _trivial_bracket, oracle_Z, oracle_marginal, partition_hc, partition_md
from .decay import decay_factor_hc, decay_factor_md, lambda_c
from .graph import GNP_GENERATOR, gen_graph, graph_from_edge_list, graph_to_edge_list
from .recurrence import (
    HARDCORE,
    MONOMERDIMER,
    AdaptiveBudgetError,
    ModelParams,
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

_SCHEMAS = {
    "hc-count": _COUNT_SCHEMA,
    "md-count": _COUNT_SCHEMA,
    "hc-marginal": {"value": float, "lo": float, "hi": float, "tol": float,
                    "depth": int, "nodes": int, "converged": bool},
    "md-marginal": {"value": float, "lo": float, "hi": float, "tol": float,
                    "depth": int, "nodes": int, "converged": bool},
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


def _emit(record, fmt, out):
    if fmt == "json":
        text = json.dumps(record, indent=2, sort_keys=True)
        validate_record(json.loads(text))
        print(text, file=out)
        return
    for key, val in sorted(record["config"].items()):
        print(f"# {key} = {val}", file=out)
    _emit_text_body(record, out)


def _emit_text_body(record, out):
    skip = {"command", "config"}
    rows = record.get("rows")
    for key in sorted(record):
        if key in skip or key == "rows":
            continue
        val = record[key]
        if isinstance(val, float):
            val = _FLOAT_FMT % val
        print(f"{key} {val}", file=out)
    if rows is not None:
        if rows:
            print("# columns: " + "  ".join(rows[0]), file=out)
        for row in rows:
            print("  ".join(
                _FLOAT_FMT % v if isinstance(v, float) else str(v)
                for v in row.values()
            ), file=out)


def _read_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_edge_list(fh.read())


def _base_config(**extra):
    return {"version": __version__, **extra}


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_count(args, out):
    g = _read_graph(args.graph)
    model = HARDCORE if args.cmd == "hc-count" else MONOMERDIMER
    act = args.lam if model == HARDCORE else args.gamma
    budget = args.budget if args.budget is not None else 10**7 * g.n
    cfg = _base_config(
        graph=args.graph, model=model, activity=act,
        eps=args.eps, budget=budget,
    )
    if model == HARDCORE:
        res = partition_hc(g, act, args.eps, budget=budget)
    else:
        res = partition_md(g, act, args.eps, budget=budget)
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
    _emit(record, args.format, out)
    return 0 if res.converged else 1


def _cmd_marginal(args, out):
    g = _read_graph(args.graph)
    model = HARDCORE if args.cmd == "hc-marginal" else MONOMERDIMER
    act = args.lam if model == HARDCORE else args.gamma
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
            # no pass completed: the a-priori bracket, which needs no tree
            (lo, hi), depth = _trivial_bracket(params, g, args.vertex), 0
            nodes, converged = exc.nodes_expanded, False
        value = 0.5 * (lo + hi)
    else:
        try:
            res = marginal_adaptive(g, args.vertex, params, tol=args.tol,
                                    budget=args.budget)
            lo, hi, value = res.lo, res.hi, res.value
            depth, nodes = res.depth_max_used, res.nodes_expanded
        except AdaptiveBudgetError as exc:
            # the last pass's interval, narrowed by the a-priori bracket
            # (a shallow monomer-dimer pass ends below its lower bound)
            lo, hi = _trivial_bracket(params, g, args.vertex, exc.lo, exc.hi)
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
    _emit(record, args.format, out)
    return 0 if converged else 1


def _cmd_decay_table(args, out):
    rows = []
    for delta in args.delta:
        if args.model == HARDCORE:
            rep = decay_factor_hc(args.lam, delta)
            rows.append({
                "delta": delta,
                "q": _fnum(rep.q),
                "a": _fnum(rep.a),
                "delta_c": _fnum(rep.delta_c),
                "alpha": _fnum(rep.alpha),
                "alpha_delta": _fnum(rep.alpha_delta),
                "ssm_rate": _fnum(rep.ssm_rate),
                "supercritical": rep.supercritical,
            })
        else:
            rep = decay_factor_md(args.gamma, delta)
            rows.append({
                "delta": delta,
                "q": _fnum(rep.q),
                "r": _fnum(rep.r),
                "D": _fnum(rep.big_d),
                "alpha": _fnum(rep.alpha),
                "alpha_delta": _fnum(rep.alpha_delta),
                "ssm_rate": _fnum(rep.ssm_rate),
                "supercritical": rep.supercritical,
            })
    act = args.lam if args.model == HARDCORE else args.gamma
    cfg = _base_config(model=args.model, activity=act, delta=args.delta)
    record = {"command": "decay-table", "config": cfg, "rows": rows}
    _emit(record, args.format, out)
    return 0


def _cmd_conn_const(args, out):
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
    _emit(record, args.format, out)
    return 0 if prof.complete else 1


def _cmd_z2(args, out):
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
        return 1
    ev = _fup(ev)  # a proven upper bound, printed as one
    record = {
        "command": "z2-branching",
        "config": cfg,
        "eigenvalue": ev,
        "states": bm.k,
        "states_raw": bm.states_raw,
        "ssm_bound": _fnum(truncate3(lambda_c(ev))),
    }
    _emit(record, args.format, out)
    return 0


def _cmd_lattice_bounds(args, out):
    rows = [
        {
            "lattice": b.lattice,
            "max_degree": b.max_degree,
            "connective_constant": b.connective_constant,
            "ssm_bound": truncate3(b.ssm_bound),
        }
        for b in lattice_bounds_table()
    ]
    cfg = _base_config()
    record = {"command": "lattice-bounds", "config": cfg, "rows": rows}
    if args.format == "json":
        _emit(record, "json", out)
        return 0
    for key, val in sorted(cfg.items()):
        print(f"# {key} = {val}", file=out)
    print(f"{'lattice':40s} {'degree':>6s} {'conn-const':>11s} {'ssm-bound':>9s}",
          file=out)
    for r in rows:
        print(
            f"{r['lattice']:40s} {r['max_degree']:6d} "
            f"{r['connective_constant']:11.6f} {r['ssm_bound']:9.3f}",
            file=out,
        )
    return 0


def _cmd_gen(args, out):
    params = {}
    if args.kind in ("cycle", "complete", "gnp"):
        if args.n is None:
            raise ValueError(f"--n is required for kind {args.kind}")
        params["n"] = args.n
    if args.kind == "gnp":
        if args.d is None:
            raise ValueError("--d is required for kind gnp")
        params["d"] = args.d
    if args.kind == "dary_tree":
        if args.d is None or args.depth is None:
            raise ValueError("--d and --depth are required for kind dary_tree")
        params["d"] = int(args.d)
        params["depth"] = args.depth
    if args.kind == "grid":
        if args.width is None or args.height is None:
            raise ValueError("--width and --height are required for kind grid")
        params["width"] = args.width
        params["height"] = args.height
    g = gen_graph(args.kind, seed=args.seed, **params)
    header = [
        f"# kind = {args.kind}",
        f"# params = {params}",
        f"# seed = {args.seed}",
        f"# generator = {GNP_GENERATOR}",
    ]
    body = graph_to_edge_list(g)
    text = "\n".join(header) + "\n" + body
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if args.format == "json":
            cfg = _base_config(kind=args.kind, seed=args.seed, out=args.out, **params)
            _emit({"command": "gen", "config": cfg, "n": g.n, "edges": g.num_edges},
                  "json", out)
        else:
            print(f"wrote {g.n} vertices, {g.num_edges} edges to {args.out}",
                  file=out)
    else:
        out.write(text)
    return 0


def _cmd_oracle(args, out):
    g = _read_graph(args.graph)
    act = args.lam if args.model == HARDCORE else args.gamma
    params = ModelParams(args.model, act)
    cfg = _base_config(
        graph=args.graph, model=args.model, activity=act,
        vertex=args.vertex,
    )
    record = {"command": "oracle", "config": cfg}
    if args.vertex is None:
        record["value"] = _fnum(oracle_Z(g, params))
    elif args.model == HARDCORE:
        p, ratio = oracle_marginal(g, args.vertex, params)
        record["value"] = _fnum(p)
        record["ratio"] = _fnum(ratio)
    else:
        record["value"] = _fnum(oracle_marginal(g, args.vertex, params))
    _emit(record, args.format, out)
    return 0


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


def _check_activity(args):
    if args.cmd in ("decay-table", "oracle"):
        if args.model == HARDCORE and args.lam is None:
            raise ValueError("--lam is required for the hardcore model")
        if args.model == MONOMERDIMER and args.gamma is None:
            raise ValueError("--gamma is required for the monomerdimer model")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _check_activity(args)
        return _HANDLERS[args.cmd](args, sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NodeBudgetError, AdaptiveBudgetError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
