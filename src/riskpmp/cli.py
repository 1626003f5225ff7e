"""Scenario-driven command line front end.

Each verb reads a JSON scenario config, runs the matching pipeline, and
writes report.json plus any requested bulk data under the output directory.
Reports embed a reproduction stanza (the effective config and the code
version) so artifacts can be regenerated byte for byte; the only field that
varies between reruns of one scenario is created_utc.

Exit codes: 0 when the run passed or completed, 1 on a usage error
(bad flags, or a config that is unreadable, whose keys or types the schema
refuses, or whose values a library object refuses; nothing is written),
2 when a requested check or certificate failed, 3 when the certificate
came back inconclusive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, export, forked
from .adjoint import martingale_check
from .certificate import CertifyConfig, certify
from .planner import (
    BangBangPolicy,
    BangBangReport,
    SopInstance,
    assemble_solution,
    bangbang_necessity,
    build_sop,
    solve_sop,
)
from .risk import AVaR, Expectation, MixtureAVaR, risk_subgradient, risk_value
from .rng import ensemble_normals, validate_seed
from .sde import (
    BrownianSource,
    ControlLaw,
    DynamicsSpec,
    double_integrator_dynamics,
    euler_maruyama,
    make_grid,
    sample_brownian,
    sample_std,
    scalar_linear_dynamics,
    strong_convergence_order,
    validate_n_paths,
)
from .variational import ito_counterexample, linearization_rate
# unused here, kept for the benchmark's span site cli:tangent_from_control
from .variational import tangent_from_control  # noqa: F401

REPORT_VERSION = "riskpmp_report_v1"
THREADS_ENV = "RISKPMP_THREADS"

_EXIT = {"pass": 0, "completed": 0, "fail": 2, "inconclusive": 3}


class UsageError(Exception):
    """Config or command-line problem; maps to exit code 1, no artifacts."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags, which this tool reserves for
    # failed checks, so route parse errors through UsageError instead
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# scenario schemas
#
# A schema is plain Python and states keys and types only: float, int, bool
# and str for JSON leaves (a bool is not a number, and 1.0 is not an
# integer), [s] for an array of s, a tuple for either of its members, _Obj
# for an object with exactly its keys, and _Tagged for an object whose tag
# field picks its keys.  Value rules (ranges, lengths, signs) belong to the
# library objects built from the blocks.


@dataclass(frozen=True)
class _Obj:
    keys: dict
    required: tuple = ()


@dataclass(frozen=True)
class _Tagged:
    tag: str
    forms: dict  # tag value -> _Obj of the other keys


_LEAVES = {float: ("number", (int, float)), int: ("integer", int), bool: ("boolean", bool),
           str: ("string", str)}


def _type(schema):
    """JSON type name and Python types of a schema's top level."""
    if isinstance(schema, list):
        return "array", list
    if isinstance(schema, (_Obj, _Tagged)):
        return "object", dict
    return _LEAVES[schema]


def _fits(value, schema):
    return isinstance(value, _type(schema)[1]) and (schema is bool or not isinstance(value, bool))


def _rejected(path, message):
    return UsageError(f"config rejected at {'/'.join(map(str, path)) or 'config'}: {message}")


def _check(value, schema, path=()):
    """Raise a UsageError naming the first key or type the schema refuses."""
    alternatives = schema if isinstance(schema, tuple) else (schema,)
    alt = next((a for a in alternatives if _fits(value, a)), None)
    if alt is None:
        wanted = " or ".join(repr(_type(a)[0]) for a in alternatives)
        raise _rejected(path, f"{value!r} is not of type {wanted}")
    if isinstance(alt, list):
        for i, item in enumerate(value):
            _check(item, alt[0], path + (i,))
        return
    context = ""
    if isinstance(alt, _Tagged):
        if alt.tag not in value:
            raise _rejected(path, f"missing keys {[alt.tag]}")
        tag = value[alt.tag]
        if not isinstance(tag, str) or tag not in alt.forms:
            raise _rejected(path + (alt.tag,), f"{tag!r} is not one of {list(alt.forms)}")
        context = f" for {alt.tag} {tag!r}"
        value = {k: v for k, v in value.items() if k != alt.tag}
        alt = alt.forms[tag]
    if isinstance(alt, _Obj):
        missing = [k for k in alt.required if k not in value]
        if missing:
            raise _rejected(path, f"missing keys {missing}{context}")
        extra = sorted(set(value) - set(alt.keys))
        if extra:
            raise _rejected(path, f"keys {extra} do not apply{context}")
        for key, item in value.items():
            _check(item, alt.keys[key], path + (key,))


_DYNAMICS = _Tagged("name", {
    "scalar-linear": _Obj({"a": float, "b": float}),
    "double-integrator": _Obj({"cubic": float, "noise": float}),
})

_INSTANCE = _Obj(
    {f.name: float for f in fields(SopInstance)},
    tuple(f.name for f in fields(SopInstance) if f.default is MISSING),
)

# exactly one of initial_sign and constant: _policy_values
_POLICY = _Obj({"initial_sign": int, "switches": [float], "constant": float})

_TOLERANCES = _Obj({f.name: float for f in fields(CertifyConfig)})

_MEASURE = _Tagged("type", {
    "expectation": _Obj({}),
    "avar": _Obj({"alpha": float}, ("alpha",)),
    "mixture": _Obj({"alphas": [float], "weights": [float]}, ("alphas", "weights")),
})

_CANDIDATE = dict(instance=_INSTANCE, n_steps=int, n_paths=int,
                  write_costates=bool, write_paths=bool, binary=bool)


def _scenario(props, required=()):
    return _Obj(dict(kind=str, seed=int, out_dir=str, **props), ("kind", "seed") + tuple(required))


def _study(props):
    return _scenario(dict(problem=_DYNAMICS, x0=(float, [float]), horizon=float, n_paths=int,
                          **props), ("problem", "x0", "horizon", "n_paths") + tuple(props))


_SCHEMAS = {
    "simulate": _scenario(
        dict(dynamics=_DYNAMICS, x0=[float], horizon=float, n_steps=int, n_paths=int,
             control=_Obj({"constant": (float, [float])}, ("constant",)),
             write_paths=bool, binary=bool),
        ("dynamics", "x0", "horizon", "n_steps", "n_paths"),
    ),
    # exactly one of samples and sample: _run_risk_eval
    "risk-eval": _scenario(
        dict(measure=_MEASURE, samples=[float], write_xi=bool,
             sample=_Obj({"n": int, "mean": float, "std": float}, ("n",))),
        ("measure",),
    ),
    "adjoint": _scenario(dict(_CANDIDATE, policy=_POLICY),
                         ("instance", "policy", "n_steps", "n_paths")),
    "certify": _scenario(dict(_CANDIDATE, policy=_POLICY, tolerances=_TOLERANCES),
                         ("instance", "n_steps", "n_paths")),
    "sop-solve": _scenario(dict(_CANDIDATE, tolerances=_TOLERANCES, certify=bool),
                           ("instance", "n_steps", "n_paths")),
    "counterexample": _scenario({}),
    "convergence": _Tagged("study", {
        "linearization-rate": _study(dict(n_steps=int, u_star=float, w=float, epsilons=[float])),
        "strong-order": _study(dict(n_steps_levels=[int])),
    }),
}


def _finite_number(token):
    value = float(token)
    if not np.isfinite(value):  # NaN and Infinity are not JSON; 1e400 overflows
        raise UsageError(f"config holds the non-finite number {token}")
    return value


def load_scenario(path, kind):
    """Read, parse, and check the keys and types of a scenario config for the given verb."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw, parse_constant=_finite_number, parse_float=_finite_number)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    if cfg.get("kind") != kind:
        raise UsageError(f"config kind {cfg.get('kind')!r} does not match verb {kind!r}")
    _check(cfg, _SCHEMAS[kind])
    return cfg


# ---------------------------------------------------------------------------
# config -> domain objects


@contextmanager
def _refused(where=""):
    """A library object's ValueError for a bad value, as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{where}{exc}") from exc


def _dynamics(cfg, where) -> DynamicsSpec:
    if cfg["name"] == "scalar-linear":
        return scalar_linear_dynamics(cfg.get("a", 0.8), cfg.get("b", 0.3))
    with _refused(f"{where}: "):
        return double_integrator_dynamics(**{k: v for k, v in cfg.items() if k != "name"})


def _grid(horizon, n_steps):
    with _refused():
        return make_grid(horizon, n_steps)


def _measure(cfg):
    with _refused("measure: "):
        if cfg["type"] == "expectation":
            return Expectation()
        if cfg["type"] == "avar":
            return AVaR(cfg["alpha"])
        return MixtureAVaR(cfg["alphas"], cfg["weights"])


def _instance(cfg) -> SopInstance:
    with _refused("instance: "):  # the schema's field names and noise default are SopInstance's
        return SopInstance(**cfg)


def _policy_values(cfg, instance, grid):
    """Control values on the grid for an explicit candidate policy."""
    if ("initial_sign" in cfg) == ("constant" in cfg) or {"constant", "switches"} <= set(cfg):
        raise UsageError("policy: give 'initial_sign' (with optional 'switches') or 'constant'")
    if "constant" in cfg:
        values = np.full((grid.n_steps, 1), float(cfg["constant"]))
        with _refused("policy: "):  # the dynamics own the control set
            build_sop(instance).dyn.check_controls(values)
        return values
    with _refused("policy: "):
        policy = BangBangPolicy(
            initial_sign=float(cfg["initial_sign"]),
            switches=tuple(float(s) for s in cfg.get("switches", ())),
        )
    for s in policy.switches:  # the policy alone does not know the horizon
        if not 0.0 <= s <= instance.horizon:
            raise UsageError(f"policy: switch time {s} lies outside [0, {instance.horizon}]")
    return policy.on_grid(grid)


# ---------------------------------------------------------------------------
# serialization helpers


def _write_rows(path, columns, rows):
    # undefined values: null in report.json, nan in the CSVs
    table = np.array([[np.nan if row[c] is None else row[c] for c in columns] for row in rows],
                     dtype=float).reshape(len(rows), len(columns))
    np.savetxt(path, table, fmt="%.17g", delimiter=",", header=",".join(columns), comments="")


_PLOT_SECTIONS = {
    "rates": ("rates.csv", ("eps", "r")),
    "strong_order": ("strong_order.csv", ("n_steps", "rms_error")),
    "costate_mean": ("costate_mean.csv", ("t", "mean_p_y", "stderr")),
    "gap_hist": ("gap_hist.csv", ("bin_lo", "bin_hi", "count")),
    "incumbents": ("incumbents.csv", ("evaluation", "best_cost")),
}


def emit_plot_data(report, out_dir):
    """Write the report's tabular sections as tidy CSVs; returns filenames.

    A section that is present but empty still produces its header row, so
    downstream plotting scripts never special-case missing files.
    """
    out = Path(out_dir)
    results = report.get("results", {})
    written = []
    for key, (fname, columns) in _PLOT_SECTIONS.items():
        if key not in results:
            continue
        _write_rows(out / fname, columns, results[key])
        written.append(fname)
    return written


def _costate_mean_rows(costates):
    band = costates.band
    return [
        {"t": t, "mean_p_y": mean, "stderr": s}
        for t, mean, s in zip(costates.grid.nodes, band.mean[:, 0], band.stderr[:, 0])
    ]


def _gap_hist_rows(report, bins=32):
    """The histogram of every cell's gap on [0, max]: the report's nonzero
    gaps binned node by node, and its zero cells added to the first bin."""
    hi = max(report.max, 1e-12)
    counts, edges = np.histogram([], bins=bins, range=(0.0, hi))
    for gaps in report.nonzero:
        counts += np.histogram(gaps, bins=bins, range=(0.0, hi))[0]
    counts[0] += report.cells - sum(gaps.size for gaps in report.nonzero)
    return [
        {"bin_lo": lo, "bin_hi": hi_, "count": int(c)}
        for lo, hi_, c in zip(edges[:-1], edges[1:], counts)
    ]


def _write_bulk_artifacts(cfg, ctx, states, noise_dim, costates=None, paths_default=False):
    """Start the run's per-path CSV writers and dumps in one export call,
    their join kept on ctx for run(); each forked writer reads its values a
    chunk of paths at a time, the costates evaluated from their node fits."""
    jobs, dumps, artifacts = [], [], {}
    nodes, n_paths, binary = states.grid.nodes, states.n_paths, cfg.get("binary", False)

    def dump(name, block):
        dumps.append((ctx.file(name), nodes, n_paths, block, noise_dim, cfg["seed"]))

    if cfg.get("write_paths", paths_default):
        def x_rows(lo, hi):
            return states.values[lo:hi]

        jobs.append((ctx.file("paths.csv"), nodes, n_paths, x_rows, "x"))
        artifacts["paths_csv"] = "paths.csv"
        if binary:
            dump("paths.bin", x_rows)
            artifacts["paths_dump"] = "paths.bin"
    if costates is not None and cfg.get("write_costates", True):
        def p_rows(lo, hi):
            return costates.span(lo, hi, q=False)[0]

        def q_rows(lo, hi):
            q = costates.span(lo, hi, p=False)[1]
            return q.reshape(q.shape[0], q.shape[1], -1)

        jobs.append((ctx.file("costates.csv"), nodes, n_paths, p_rows, "p"))
        jobs.append((ctx.file("qcoef.csv"), nodes[:-1], n_paths, q_rows, "q"))
        artifacts.update(costates_csv="costates.csv", martingale_integrand_csv="qcoef.csv")
        if binary:
            dump("costates.bin", p_rows)
            artifacts["costates_dump"] = "costates.bin"
    ctx.join_writers = export.write_csvs(jobs, dumps)
    return artifacts


# ---------------------------------------------------------------------------
# verb runners


class RunContext:
    def __init__(self, out_dir, workers):
        self.out_dir = Path(out_dir)
        self.workers = workers  # processes a verb may run its paths on
        # waits for the CSV writers still running; run() calls it before report.json
        self.join_writers = lambda: None

    def file(self, name):
        """Path of an artifact; the output directory is made on first use, so a
        usage error raised before anything is written leaves no directory."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name


def _run_simulate(cfg, ctx):
    dyn = _dynamics(cfg["dynamics"], "dynamics")
    grid = _grid(cfg["horizon"], cfg["n_steps"])
    u = cfg["control"]["constant"] if "control" in cfg else np.zeros(dyn.control_dim)
    source = BrownianSource(grid, dyn.noise_dim, cfg["n_paths"], cfg["seed"], RATE_BLOCK)
    with _refused():  # the integrator's input rules, applied before any normal is drawn
        states = euler_maruyama(dyn, ControlLaw.constant(u, grid.n_steps), cfg["x0"], source,
                                ctx.workers)
    artifacts = _write_bulk_artifacts(cfg, ctx, states, dyn.noise_dim, paths_default=True)
    failed = states.failed_paths
    terminal = states.values[:, -1, :]
    results = {
        "n_paths": cfg["n_paths"],
        "n_steps": cfg["n_steps"],
        "failed_paths": int(failed.size),
        "terminal_mean": terminal.mean(axis=0),
        "terminal_std": sample_std(terminal),
    }
    return "completed", results, artifacts


def _run_risk_eval(cfg, ctx):
    measure = _measure(cfg["measure"])
    if ("samples" in cfg) == ("sample" in cfg):
        raise UsageError("provide exactly one of 'samples' and 'sample'")
    if "samples" in cfg:
        z = np.asarray(cfg["samples"], dtype=float)
    else:
        spec = cfg["sample"]
        n, std = spec["n"], spec.get("std", 1.0)
        if n < 1 or std < 0:
            raise UsageError(f"sample: n must be at least 1 and std nonnegative, got {n} and {std}")
        z = spec.get("mean", 0.0) + std * ensemble_normals(cfg["seed"], n, 1)[:, 0]
    with _refused("samples: "):  # an empty sample
        value = risk_value(measure, z)
    sub = risk_subgradient(measure, z)
    mean_xi = float(sub.xi.mean())
    pairing = float(np.mean(sub.xi * z))
    tol = 1e-9 + 1e-12 * abs(value)
    status = "pass" if abs(mean_xi - 1.0) <= 1e-9 and abs(pairing - value) <= tol else "fail"
    results = {
        "n": int(z.size),
        "value": value,
        "subgradient": {
            "mean_xi": mean_xi,
            "pairing": pairing,
            "quantile": sub.quantile,
            "atom_weight": sub.atom_weight,
            "boundary_hit": sub.boundary_hit,
            "unique": sub.unique,
        },
    }
    artifacts = {}
    if cfg.get("write_xi", False):
        rows = [{"index": i, "z": zi, "xi": xi} for i, (zi, xi) in enumerate(zip(z, sub.xi))]
        _write_rows(ctx.file("xi.csv"), ("index", "z", "xi"), rows)
        artifacts["xi_csv"] = "xi.csv"
    return status, results, artifacts


def _candidate_solution(cfg, ctx):
    instance = _instance(cfg["instance"])
    grid = _grid(instance.horizon, cfg["n_steps"])
    values = _policy_values(cfg["policy"], instance, grid)
    brownian = sample_brownian(grid, 1, cfg["n_paths"], cfg["seed"])
    return assemble_solution(instance, values, brownian, ctx.workers)


def _diagnostics_summary(costates):
    diag = costates.diagnostics
    return {
        "basis_size": diag.basis_size,
        "residual_rms": diag.residual_rms,
        "mu_residual_rms": diag.mu_residual_rms,
        "ridge_flagged": diag.ridge_flagged,
        "bsde_residual_max": costates.bsde_residual_max,
    }


def _run_adjoint(cfg, ctx):
    sol = _candidate_solution(cfg, ctx)
    artifacts = _write_bulk_artifacts(cfg, ctx, sol.states, sol.problem.dyn.noise_dim, sol.costates)
    mart = martingale_check(sol.costates)
    results = {
        "regression": _diagnostics_summary(sol.costates),
        "martingale": {
            "passed": mart.passed,
            "max_abs_slope": float(np.max(np.abs(mart.slopes))),
            "max_stderr": float(np.max(mart.stderrs)),
        },
        "costate_mean": _costate_mean_rows(sol.costates),
    }
    return ("pass" if mart.passed else "fail"), results, artifacts


def _certify_config(cfg):
    with _refused("tolerances: "):
        return CertifyConfig(**cfg.get("tolerances", {}))


def _certify_solution(ctx, sol, config):
    cert, gaps = certify(sol.problem, sol, config)
    cert_text = json.dumps(cert.as_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"
    ctx.file("certificate.json").write_text(cert_text)
    results = {
        "certificate": cert.as_dict(),
        "max_gap": {
            "mean": gaps.mean,
            "max": gaps.max,
            "violating_fractions": {format(k, "g"): v for k, v in gaps.violating_fractions.items()},
        },
        "gap_hist": _gap_hist_rows(gaps),
    }
    return cert.verdict, results, {"certificate": "certificate.json"}


def _solved(cfg, ctx):
    instance = _instance(cfg["instance"])
    _grid(instance.horizon, cfg["n_steps"])  # solve_sop builds it after this check
    return solve_sop(instance, n_steps=cfg["n_steps"], n_paths=cfg["n_paths"], seed=cfg["seed"],
                     workers=ctx.workers)


def _run_certify(cfg, ctx):
    config = _certify_config(cfg)
    sol = _candidate_solution(cfg, ctx) if "policy" in cfg else _solved(cfg, ctx)
    artifacts = _write_bulk_artifacts(cfg, ctx, sol.states, sol.problem.dyn.noise_dim, sol.costates)
    status, results, cert_artifacts = _certify_solution(ctx, sol, config)
    results["costate_mean"] = _costate_mean_rows(sol.costates)
    return status, results, {**artifacts, **cert_artifacts}


def _run_sop_solve(cfg, ctx):
    config = _certify_config(cfg)
    sol = _solved(cfg, ctx)
    artifacts = _write_bulk_artifacts(cfg, ctx, sol.states, sol.problem.dyn.noise_dim, sol.costates)
    necessity = bangbang_necessity(sol)
    safety = necessity.safety
    refinement, shot = sol.refinement, sol.refinement.start
    start = {"initial_sign": shot.policy.initial_sign, "switches": list(shot.policy.switches)}
    results = {
        # an adapted candidate has no open-loop profile: name its shooting start
        "policy": ({"adapted": True, "sweeps": refinement.sweeps, "start": start}
                   if refinement.adapted else start),
        "cost": sol.cost,
        "refinement": {
            "sweeps": refinement.sweeps,
            "holdout_avar": [{"sweep": i, "avar": v} for i, v in enumerate(refinement.scores)],
        },
        "evaluations": shot.evaluations,
        "incumbents": [
            {"evaluation": i + 1, "best_cost": c} for i, c in enumerate(shot.incumbents)
        ],
        "safety": {
            "avar_terminal_position": safety.avar_value,
            "margin": safety.margin,
            "band": safety.band,
            "safe": safety.safe,
        },
        "bangbang": {f.name: getattr(necessity, f.name)
                     for f in fields(BangBangReport) if f.name != "safety"},
        "costate_mean": _costate_mean_rows(sol.costates),
    }
    status = "completed"
    if cfg.get("certify", True):
        status, cert_results, cert_artifacts = _certify_solution(ctx, sol, config)
        results.update(cert_results)
        artifacts.update(cert_artifacts)
    return status, results, artifacts


def _run_counterexample(cfg, ctx):
    rep = ito_counterexample()
    ok = abs(rep.pointwise_min_sq_dist - 0.2) <= 1e-9 and rep.lebesgue_gap == 0.0
    results = {
        "ito_gap_lower_bound": rep.ito_lower_bound,
        "pointwise_min_sq_dist": rep.pointwise_min_sq_dist,
        "target": list(rep.target),
        "nearest_points": [list(p) for p in rep.nearest_points],
        "lebesgue_selection": rep.lebesgue_selection,
        "lebesgue_gap": rep.lebesgue_gap,
    }
    return ("pass" if ok else "fail"), results, {}


RATE_BLOCK = 4096  # most Brownian paths a worker of simulate or the rate study draws at a time


def _run_convergence(cfg, ctx):
    dyn = _dynamics(cfg["problem"], "problem")
    x0 = np.atleast_1d(cfg["x0"])  # both studies apply the x0 rule before they sample
    if cfg["study"] == "strong-order":
        with _refused():  # x0, horizon, levels, or dynamics without a closed form
            rep = strong_convergence_order(
                dyn, x0, cfg["horizon"], cfg["n_steps_levels"], cfg["n_paths"], cfg["seed"]
            )
        results = {
            "estimate": rep.estimate,
            "pairwise_orders": rep.pairwise_orders,
            "strong_order": [
                {"n_steps": int(k), "rms_error": float(e)}
                for k, e in zip(rep.n_steps_levels, rep.errors)
            ],
        }
        return "completed", results, {}
    grid = _grid(cfg["horizon"], cfg["n_steps"])
    # each worker draws its blocks as it reaches them and releases each before the next
    source = BrownianSource(grid, dyn.noise_dim, cfg["n_paths"], cfg["seed"], RATE_BLOCK)
    u_star, w = (ControlLaw.constant(cfg[key], grid.n_steps) for key in ("u_star", "w"))
    with _refused():  # epsilons, x0, controls that move nothing, or aborted reference paths
        table = linearization_rate(dyn, u_star, x0, source, w, cfg["epsilons"], ctx.workers)
    results = {
        "passed": table.passed,
        "rates": [{"eps": e, "r": r} for e, r in table.rows()],
    }
    return ("pass" if table.passed else "fail"), results, {}


_RUNNERS = {
    "simulate": _run_simulate,
    "risk-eval": _run_risk_eval,
    "adjoint": _run_adjoint,
    "certify": _run_certify,
    "sop-solve": _run_sop_solve,
    "counterexample": _run_counterexample,
    "convergence": _run_convergence,
}


# ---------------------------------------------------------------------------
# orchestration


def _resolve_threads(flag_value):
    if flag_value is not None:
        value = flag_value
    else:
        raw = os.environ.get(THREADS_ENV)
        if raw is None:
            return forked.usable_cpus()
        try:
            value = int(raw)
        except ValueError as exc:
            raise UsageError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise UsageError(f"thread count must be at least 1, got {value}")
    return value


def build_parser():
    parser = _Parser(prog="riskpmp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", metavar="verb")
    sub.required = True
    for verb in _SCHEMAS:
        p = sub.add_parser(verb, help=f"run a {verb} scenario")
        p.add_argument("--config", required=True, help="path to the JSON scenario config")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument(
            "--threads",
            type=int,
            help=("worker processes for the paths of simulate, of the rate study and of the "
                  "solve behind sop-solve, certify and adjoint, at most one per usable CPU "
                  f"(the default); no output byte depends on it (env {THREADS_ENV})"),
        )
    return parser


def run(argv):
    args = build_parser().parse_args(argv)
    threads = _resolve_threads(args.threads)
    cfg = load_scenario(args.config, args.verb)
    if args.seed is not None:
        cfg["seed"] = args.seed
    with _refused():  # the value rules every runner reads before it draws
        validate_seed(cfg["seed"])
        if "n_paths" in cfg:
            validate_n_paths(cfg["n_paths"])
    if args.out is not None:
        cfg["out_dir"] = args.out
    out_dir = Path(cfg.get("out_dir", "riskpmp_out"))
    ctx = RunContext(out_dir, threads)
    try:
        status, results, artifacts = _RUNNERS[args.verb](cfg, ctx)
    except BaseException:
        # a verb that raises leaves no writer running either; the verb's
        # error, not a writer's, is the one raised
        with suppress(RuntimeError):
            ctx.join_writers()
        raise
    ctx.join_writers()
    out_dir.mkdir(parents=True, exist_ok=True)

    # the report must not record the invocation itself: thread count and
    # command line may vary between byte-identical reruns of one scenario
    report = {
        "version": REPORT_VERSION,
        "kind": args.verb,
        "status": status,
        "seed": cfg["seed"],
        "results": export.jsonable(results),
        "artifacts": dict(artifacts),
        "reproduction": {
            "config": cfg,
            "code_version": __version__,
        },
        "created_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }
    report["artifacts"]["plots"] = emit_plot_data(report, out_dir)
    report["artifacts"]["report"] = "report.json"
    (out_dir / "report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n")
    print(f"{args.verb}: {status} ({out_dir / 'report.json'})")
    return _EXIT[status]


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return run(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
