"""Scenario-driven command line front end.

Each verb reads a JSON scenario config, runs the matching pipeline, and
writes report.json plus any requested bulk data under the output directory.
Reports embed a reproduction stanza (the effective config and the code
version) so artifacts can be regenerated byte for byte; the only field that
varies between reruns of one scenario is created_utc.

Exit codes: 0 when the run passed or completed, 1 on a usage error
(bad flags, unreadable or schema-invalid config; nothing is written),
2 when a requested check or certificate failed, 3 when the certificate
came back inconclusive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

import jsonschema
import numpy as np

from . import export
from .adjoint import martingale_check
from .certificate import CertifyConfig, certify
from .planner import (
    BangBangPolicy,
    BangBangReport,
    SopInstance,
    assemble_solution,
    bangbang_necessity,
    safety_check,
    solve_sop,
)
from .risk import AVaR, Expectation, MixtureAVaR, risk_subgradient, risk_value
from .rng import ensemble_normals
from .sde import (
    ControlLaw,
    DynamicsSpec,
    StateEnsemble,
    double_integrator_dynamics,
    euler_maruyama,
    make_grid,
    sample_brownian,
    sample_std,
    scalar_linear_dynamics,
    strong_convergence_order,
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

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_NONNEG = {"type": "number", "minimum": 0}
_POSINT = {"type": "integer", "minimum": 1}
_BOOL = {"type": "boolean"}
_NUMS = {"type": "array", "items": _NUM}
_SEED = {"type": "integer", "minimum": 0, "maximum": 2**64 - 1}
_UNIT = {"type": "number", "exclusiveMinimum": 0, "maximum": 1}


def _obj(props, required=()):
    return {
        "type": "object",
        "properties": props,
        "required": list(required),
        "additionalProperties": False,
    }


_DYNAMICS = _obj(
    {
        "name": {"enum": ["scalar-linear", "double-integrator"]},
        "a": _NUM,
        "b": _NUM,
        "cubic": _NUM,
        "noise": _NONNEG,
    },
    ["name"],
)

_INSTANCE = _obj(
    {
        "y0": _NUM,
        "v0": _NUM,
        "y_target": _NUM,
        "horizon": _POS,
        "alpha": _UNIT,
        "noise": _NONNEG,
    },
    ["y0", "v0", "y_target", "horizon", "alpha"],
)

_POLICY = {
    "oneOf": [
        _obj(
            {
                "initial_sign": {"type": "integer", "enum": [-1, 1]},
                "switches": {"type": "array", "items": _NUM, "maxItems": 2},
            },
            ["initial_sign"],
        ),
        _obj({"constant": _NUM}, ["constant"]),
    ]
}

_TOLERANCES = _obj({f.name: _POS for f in fields(CertifyConfig)})

_MEASURE = _obj(
    {
        "type": {"enum": ["expectation", "avar", "mixture"]},
        "alpha": _UNIT,
        "alphas": {"type": "array", "items": _UNIT, "minItems": 1},
        "weights": {"type": "array", "items": _POS, "minItems": 1},
    },
    ["type"],
)


def _scenario(kind, props, required=()):
    base = {"kind": {"const": kind}, "seed": _SEED, "out_dir": {"type": "string"}}
    base.update(props)
    return _obj(base, ["kind", "seed"] + list(required))


_SCHEMAS = {
    "simulate": _scenario(
        "simulate",
        {
            "dynamics": _DYNAMICS,
            "x0": _NUMS,
            "control": _obj({"constant": {"anyOf": [_NUM, _NUMS]}}, ["constant"]),
            "horizon": _POS,
            "n_steps": _POSINT,
            "n_paths": _POSINT,
            "write_paths": _BOOL,
            "binary": _BOOL,
        },
        ["dynamics", "x0", "horizon", "n_steps", "n_paths"],
    ),
    "risk-eval": _scenario(
        "risk-eval",
        {
            "measure": _MEASURE,
            "samples": {"type": "array", "items": _NUM, "minItems": 1},
            "sample": _obj({"n": _POSINT, "mean": _NUM, "std": _NONNEG}, ["n"]),
            "write_xi": _BOOL,
        },
        ["measure"],
    ),
    "adjoint": _scenario(
        "adjoint",
        {
            "instance": _INSTANCE,
            "policy": _POLICY,
            "n_steps": _POSINT,
            "n_paths": _POSINT,
            "write_costates": _BOOL,
            "write_paths": _BOOL,
            "binary": _BOOL,
        },
        ["instance", "policy", "n_steps", "n_paths"],
    ),
    "certify": _scenario(
        "certify",
        {
            "instance": _INSTANCE,
            "policy": _POLICY,
            "tolerances": _TOLERANCES,
            "n_steps": _POSINT,
            "n_paths": _POSINT,
            "write_costates": _BOOL,
            "write_paths": _BOOL,
            "binary": _BOOL,
        },
        ["instance", "n_steps", "n_paths"],
    ),
    "sop-solve": _scenario(
        "sop-solve",
        {
            "instance": _INSTANCE,
            "tolerances": _TOLERANCES,
            "certify": _BOOL,
            "n_steps": _POSINT,
            "n_paths": _POSINT,
            "write_costates": _BOOL,
            "write_paths": _BOOL,
            "binary": _BOOL,
        },
        ["instance", "n_steps", "n_paths"],
    ),
    "counterexample": _scenario("counterexample", {}),
    "convergence": _scenario(
        "convergence",
        {
            "study": {"enum": ["linearization-rate", "strong-order"]},
            "problem": _DYNAMICS,
            "x0": {"anyOf": [_NUM, _NUMS]},
            "horizon": _POS,
            "n_steps": _POSINT,
            "n_paths": _POSINT,
            "u_star": _NUM,
            "w": _NUM,
            "epsilons": {"type": "array", "items": _UNIT, "minItems": 1},
            "n_steps_levels": {"type": "array", "items": _POSINT, "minItems": 2,
                               "uniqueItems": True},
        },
        ["study"],
    ),
}

_STUDY_FIELDS = {
    "linearization-rate": {
        "required": ["problem", "x0", "horizon", "n_steps", "n_paths", "u_star", "w", "epsilons"],
        "forbidden": ["n_steps_levels"],
    },
    "strong-order": {
        "required": ["problem", "x0", "horizon", "n_steps_levels", "n_paths"],
        "forbidden": ["u_star", "w", "epsilons", "n_steps"],
    },
}

_DYNAMICS_PARAMS = {
    "scalar-linear": {"a", "b"},
    "double-integrator": {"cubic", "noise"},
}


def _check_dynamics(cfg, where):
    extra = (set(cfg) - {"name"}) - _DYNAMICS_PARAMS[cfg["name"]]
    if extra:
        raise UsageError(
            f"{where}: {sorted(extra)} do not apply to dynamics {cfg['name']!r}"
        )


def _post_validate(cfg):
    kind = cfg["kind"]
    if kind == "simulate":
        _check_dynamics(cfg["dynamics"], "dynamics")
    elif kind == "risk-eval":
        if ("samples" in cfg) == ("sample" in cfg):
            raise UsageError("provide exactly one of 'samples' and 'sample'")
        m = cfg["measure"]
        if m["type"] == "avar" and "alpha" not in m:
            raise UsageError("avar measure needs an 'alpha'")
        if m["type"] == "mixture":
            if "alphas" not in m or "weights" not in m:
                raise UsageError("mixture measure needs 'alphas' and 'weights'")
        if m["type"] == "expectation" and len(m) > 1:
            raise UsageError("expectation measure takes no parameters")
    elif kind == "convergence":
        rules = _STUDY_FIELDS[cfg["study"]]
        missing = [k for k in rules["required"] if k not in cfg]
        if missing:
            raise UsageError(f"study {cfg['study']!r} needs {missing}")
        present = [k for k in rules["forbidden"] if k in cfg]
        if present:
            raise UsageError(f"study {cfg['study']!r} does not use {present}")
        _check_dynamics(cfg["problem"], "problem")
        if "epsilons" in cfg:
            eps = cfg["epsilons"]
            if any(b >= a for a, b in zip(eps, eps[1:])):
                raise UsageError("epsilons must be strictly decreasing")
        if cfg["study"] == "strong-order":
            if cfg["problem"]["name"] != "scalar-linear":
                raise UsageError("strong-order needs dynamics with a closed form: scalar-linear")
            levels = sorted(cfg["n_steps_levels"])
            if any(levels[-1] % k for k in levels):
                raise UsageError("every level in n_steps_levels must divide the finest level")


def _finite_number(token):
    value = float(token)
    if not np.isfinite(value):  # NaN and Infinity are not JSON; 1e400 overflows
        raise UsageError(f"config holds the non-finite number {token}")
    return value


# JSON Schema's "integer" admits 100.0; a config integer must be a JSON integer
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: isinstance(value, int) and not isinstance(value, bool)),
)


def load_scenario(path, kind):
    """Read, parse, and schema-validate a scenario config for the given verb."""
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
    try:
        jsonschema.validate(cfg, _SCHEMAS[kind], cls=_Validator)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "config"
        raise UsageError(f"config rejected at {where}: {exc.message}") from exc
    _post_validate(cfg)
    return cfg


# ---------------------------------------------------------------------------
# config -> domain objects


def _dynamics(cfg) -> DynamicsSpec:
    if cfg["name"] == "scalar-linear":
        return scalar_linear_dynamics(cfg.get("a", 0.8), cfg.get("b", 0.3))
    return double_integrator_dynamics(cfg.get("cubic", 0.0), cfg.get("noise", 1.0))


def _measure(cfg):
    try:
        if cfg["type"] == "expectation":
            return Expectation()
        if cfg["type"] == "avar":
            return AVaR(cfg["alpha"])
        return MixtureAVaR(cfg["alphas"], cfg["weights"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _instance(cfg) -> SopInstance:
    try:  # the schema's field names and noise default are SopInstance's
        return SopInstance(**cfg)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _policy_values(cfg, instance, grid):
    """Control values on the grid for an explicit candidate policy."""
    if "constant" in cfg:
        c = float(cfg["constant"])
        return None, np.full((grid.n_steps, 1), c)
    try:
        policy = BangBangPolicy(
            initial_sign=float(cfg["initial_sign"]),
            switches=tuple(float(s) for s in cfg.get("switches", ())),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    for s in policy.switches:
        if not 0.0 <= s <= instance.horizon:
            raise UsageError(f"switch time {s} lies outside [0, {instance.horizon}]")
    return policy, policy.on_grid(grid)


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


def _code_version():
    try:
        return metadata.version("riskpmp")
    except metadata.PackageNotFoundError:
        return "unknown"


def _costate_mean_rows(costates):
    p_y = costates.p[:, :, 0]
    stderr = sample_std(p_y) / np.sqrt(p_y.shape[0])
    return [
        {"t": t, "mean_p_y": mean, "stderr": s}
        for t, mean, s in zip(costates.grid.nodes, p_y.mean(axis=0), stderr)
    ]


def _gap_hist_rows(gaps, bins=32):
    flat = np.asarray(gaps).ravel()
    hi = max(float(flat.max()), 1e-12)
    counts, edges = np.histogram(flat, bins=bins, range=(0.0, hi))
    return [
        {"bin_lo": lo, "bin_hi": hi_, "count": int(c)}
        for lo, hi_, c in zip(edges[:-1], edges[1:], counts)
    ]


def _dump_block(cfg, ctx, label, grid, values):
    export.write_dump(
        ctx.file(f"{label}.bin"),
        values,
        state_dim=values.shape[2],
        noise_dim=1,
        n_steps=grid.n_steps,
        n_paths=values.shape[0],
        seed=cfg["seed"],
    )
    return f"{label}.bin"


def _write_bulk_artifacts(cfg, ctx, states, costates=None, paths_default=False):
    """Write the run's per-path CSVs in one export call, plus any dumps."""
    jobs, artifacts = [], {}
    if cfg.get("write_paths", paths_default):
        jobs.append((ctx.file("paths.csv"), states.grid.nodes, states.values, "x"))
        artifacts["paths_csv"] = "paths.csv"
        if cfg.get("binary", False):
            artifacts["paths_dump"] = _dump_block(cfg, ctx, "paths", states.grid, states.values)
    if costates is not None and cfg.get("write_costates", True):
        grid, q = costates.grid, costates.q
        jobs.append((ctx.file("costates.csv"), grid.nodes, costates.p, "p"))
        jobs.append((ctx.file("qcoef.csv"), grid.nodes[:-1],
                     q.reshape(q.shape[0], q.shape[1], -1), "q"))
        artifacts.update(costates_csv="costates.csv", martingale_integrand_csv="qcoef.csv")
        if cfg.get("binary", False):
            artifacts["costates_dump"] = _dump_block(cfg, ctx, "costates", grid, costates.p)
    export.write_csvs(jobs)
    return artifacts


# ---------------------------------------------------------------------------
# verb runners


class RunContext:
    def __init__(self, out_dir, threads):
        self.out_dir = Path(out_dir)
        self.threads = threads

    def file(self, name):
        """Path of an artifact; the output directory is made on first use, so a
        usage error raised before anything is written leaves no directory."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name


def _simulate_ensemble(dyn, law, x0, grid, n_paths, seed, threads):
    workers = min(threads, _usable_cpus())
    if workers <= 1:
        return euler_maruyama(dyn, law, x0, sample_brownian(grid, dyn.noise_dim, n_paths, seed))
    # paths are independent and the generator is counter-based in the global
    # path index, so disjoint chunks reproduce the single-pass ensemble
    # bit for bit in any chunking; each chunk runs its own step loop, so
    # there is one per worker
    values = np.empty((n_paths, grid.n_steps + 1, dyn.state_dim))
    failures = np.full(n_paths, -1, dtype=int)
    chunk = -(-n_paths // workers)
    spans = [(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]

    def work(span):
        lo, hi = span
        bm = sample_brownian(grid, dyn.noise_dim, hi - lo, seed, path_offset=lo)
        part = euler_maruyama(dyn, law, x0, bm)
        values[lo:hi] = part.values
        failures[lo:hi] = part.first_failure

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(work, spans))
    return StateEnsemble(grid, values, failures, law)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _run_simulate(cfg, ctx):
    dyn = _dynamics(cfg["dynamics"])
    x0 = np.asarray(cfg["x0"], dtype=float)
    if x0.shape != (dyn.state_dim,):
        raise UsageError(f"x0 must have {dyn.state_dim} components")
    if "control" in cfg:
        u = np.atleast_1d(np.asarray(cfg["control"]["constant"], dtype=float))
    else:
        u = np.zeros(dyn.control_dim)
    if u.shape != (dyn.control_dim,):
        raise UsageError(f"control must have {dyn.control_dim} components")
    grid = make_grid(cfg["horizon"], cfg["n_steps"])
    law = ControlLaw(np.tile(u, (grid.n_steps, 1)))
    states = _simulate_ensemble(dyn, law, x0, grid, cfg["n_paths"], cfg["seed"], ctx.threads)
    failed = states.failed_paths
    terminal = states.values[:, -1, :]
    results = {
        "n_paths": cfg["n_paths"],
        "n_steps": cfg["n_steps"],
        "failed_paths": int(failed.size),
        "terminal_mean": terminal.mean(axis=0),
        "terminal_std": sample_std(terminal),
    }
    artifacts = _write_bulk_artifacts(cfg, ctx, states, paths_default=True)
    return "completed", results, artifacts


def _run_risk_eval(cfg, ctx):
    measure = _measure(cfg["measure"])
    if "samples" in cfg:
        z = np.asarray(cfg["samples"], dtype=float)
    else:
        spec = cfg["sample"]
        draws = ensemble_normals(cfg["seed"], spec["n"], 1)[:, 0]
        z = spec.get("mean", 0.0) + spec.get("std", 1.0) * draws
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
    grid = make_grid(instance.horizon, cfg["n_steps"])
    brownian = sample_brownian(grid, 1, cfg["n_paths"], cfg["seed"])
    policy, values = _policy_values(cfg["policy"], instance, grid)
    return assemble_solution(instance, values, brownian, policy=policy)


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
    artifacts = _write_bulk_artifacts(cfg, ctx, sol.states, sol.costates)
    return ("pass" if mart.passed else "fail"), results, artifacts


def _certify_solution(cfg, ctx, sol):
    cert, gaps = certify(sol.problem, sol, CertifyConfig(**cfg.get("tolerances", {})))
    cert_text = json.dumps(cert.as_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"
    ctx.file("certificate.json").write_text(cert_text)
    results = {
        "certificate": cert.as_dict(),
        "max_gap": {
            "mean": gaps.mean,
            "max": gaps.max,
            "violating_fractions": {format(k, "g"): v for k, v in gaps.violating_fractions.items()},
        },
        "gap_hist": _gap_hist_rows(gaps.gaps),
        "costate_mean": _costate_mean_rows(sol.costates),
    }
    return cert.verdict, results, {"certificate": "certificate.json"}


def _solved(cfg):
    return solve_sop(
        _instance(cfg["instance"]),
        n_steps=cfg["n_steps"],
        n_paths=cfg["n_paths"],
        seed=cfg["seed"],
    )


def _run_certify(cfg, ctx):
    sol = _candidate_solution(cfg, ctx) if "policy" in cfg else _solved(cfg)
    status, results, artifacts = _certify_solution(cfg, ctx, sol)
    artifacts.update(_write_bulk_artifacts(cfg, ctx, sol.states, sol.costates))
    return status, results, artifacts


def _run_sop_solve(cfg, ctx):
    sol = _solved(cfg)
    necessity = bangbang_necessity(sol)
    # the necessity check ran the safety check unless the noise is zero
    safety = necessity.safety if necessity.safety is not None else safety_check(
        sol.instance, sol.states)
    refinement = sol.refinement
    start = {"initial_sign": refinement.start.initial_sign,
             "switches": list(refinement.start.switches)}
    results = {
        # an adapted candidate has no open-loop profile: name its shooting start
        "policy": ({"adapted": True, "sweeps": refinement.sweeps, "start": start}
                   if refinement.adapted else start),
        "cost": sol.cost,
        "refinement": {
            "sweeps": refinement.sweeps,
            "holdout_avar": [{"sweep": i, "avar": v} for i, v in enumerate(refinement.scores)],
        },
        "evaluations": len(sol.incumbents),
        "incumbents": [
            {"evaluation": i + 1, "best_cost": c} for i, c in enumerate(sol.incumbents)
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
    artifacts = {}
    status = "completed"
    if cfg.get("certify", True):
        status, cert_results, artifacts = _certify_solution(cfg, ctx, sol)
        cert_results.pop("costate_mean")
        results.update(cert_results)
    artifacts.update(_write_bulk_artifacts(cfg, ctx, sol.states, sol.costates))
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


def _run_convergence(cfg, ctx):
    dyn = _dynamics(cfg["problem"])
    x0 = np.atleast_1d(np.asarray(cfg["x0"], dtype=float))
    if x0.shape != (dyn.state_dim,):
        raise UsageError(f"x0 must have {dyn.state_dim} components")
    if cfg["study"] == "strong-order":
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
    grid = make_grid(cfg["horizon"], cfg["n_steps"])
    brownian = sample_brownian(grid, dyn.noise_dim, cfg["n_paths"], cfg["seed"])
    states = euler_maruyama(dyn, ControlLaw.constant(cfg["u_star"], grid.n_steps), x0, brownian)
    try:
        table = linearization_rate(
            dyn, states, ControlLaw.constant(cfg["w"], grid.n_steps), cfg["epsilons"])
    except ValueError as exc:  # aborted reference paths
        raise UsageError(str(exc)) from exc
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
            return 1
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
            help=f"worker threads; results do not depend on it (env {THREADS_ENV})",
        )
    return parser


def run(argv):
    args = build_parser().parse_args(argv)
    threads = _resolve_threads(args.threads)
    cfg = load_scenario(args.config, args.verb)
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise UsageError(f"seed must lie in [0, 2^64), got {args.seed}")
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out_dir"] = args.out
    out_dir = Path(cfg.get("out_dir", "riskpmp_out"))
    ctx = RunContext(out_dir, threads)

    status, results, artifacts = _RUNNERS[args.verb](cfg, ctx)
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
            "code_version": _code_version(),
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
