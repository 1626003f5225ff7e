"""Tracing for the benchmark's per-layer split.

Spans are recorded from outside the program: ``install`` replaces the
riskpmp functions at the module attributes their callers look up (for
example ``riskpmp.planner.solve_adjoint``) with wrappers that open a span,
so nothing in ``src/`` knows it is being traced.  Spans are kept in memory
and written out once, when the traced run ends.

Run as a script, this file is the traced child process:

    python3 perfbench/spans.py SPANS_JSON <riskpmp verb and flags...>

It imports ``riskpmp.cli`` under a span, installs the wrappers, calls
``riskpmp.cli.main`` in-process, and writes the spans to SPANS_JSON.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects (name, start, end, parent) spans and plain call counts.

    One stack of open spans: the traced workloads call riskpmp from a
    single thread.
    """

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._open = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name):
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "attrs": {},
        }
        self._open.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(span)

    def count(self, name):
        self.counts[name] = self.counts.get(name, 0) + 1


def _wrap(tracer, module, attr, name, attrs=None):
    original = getattr(module, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = original(*args, **kwargs)
            if attrs is not None:
                span["attrs"].update(attrs(result, args))
        return result

    setattr(module, attr, traced)


def _wrap_count(tracer, module, attr, name):
    original = getattr(module, attr)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        tracer.count(name)
        return original(*args, **kwargs)

    setattr(module, attr, counted)


def _csv_bytes(result, args):
    return {"bytes": Path(args[0]).stat().st_size}


# (span name, "module:attr" call sites, attrs read from the result)
SITES = [
    ("cli.load_scenario", ["cli:load_scenario"], None),
    ("rng.sample_brownian", ["cli:sample_brownian", "planner:sample_brownian"],
     lambda r, a: {"normals": int(r.increments.size)}),
    ("sde.euler_maruyama", ["cli:euler_maruyama", "planner:euler_maruyama"], None),
    ("sde.fundamental_matrices", ["planner:fundamental_matrices"],
     lambda r, a: {"bytes": int(r.phi.nbytes + r.psi.nbytes)}),
    ("risk.value", ["planner:risk_value", "certificate:risk_value"], None),
    ("risk.subgradient", ["planner:risk_subgradient"], None),
    ("planner.shoot", ["planner:shoot"], lambda r, a: {"evaluations": int(r.evaluations)}),
    ("planner.assemble_solution", ["planner:assemble_solution", "cli:assemble_solution"], None),
    ("planner.bangbang", ["cli:bangbang_necessity"], None),
    ("adjoint.solve_adjoint", ["planner:solve_adjoint"],
     lambda r, a: {"nodes": int(r.grid.n_steps)}),
    ("adjoint.martingale_check", ["certificate:martingale_check", "cli:martingale_check"], None),
    ("certificate.certify", ["cli:certify"], None),
    ("certificate.maximization_gap", ["certificate:maximization_gap"], None),
    ("certificate.normality", ["certificate:normality_certificate"], None),
    ("variational.tangent_from_control",
     ["cli:tangent_from_control", "certificate:tangent_from_control"], None),
    ("variational.linearization_rate", ["cli:linearization_rate"], None),
    ("export.write_csv", ["export:write_csv"], _csv_bytes),
]
COUNTED = [("certificate.hamiltonian", "certificate:hamiltonian")]


def install(tracer):
    """Wrap every call site in SITES and COUNTED; a missing name raises."""

    def resolve(site):
        module, attr = site.split(":")
        return importlib.import_module(f"riskpmp.{module}"), attr

    for name, sites, attrs in SITES:
        for site in sites:
            _wrap(tracer, *resolve(site), name, attrs)
    for name, site in COUNTED:
        _wrap_count(tracer, *resolve(site), name)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans):
    """Map span id -> duration minus the durations of its children.

    The single-stack Tracer nests every child inside its parent and never
    lets two children of one span overlap.
    """
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


# (metric name, unit); the order is the order printed
LAYER_METRICS = [
    ("cli.import_s", "s"),
    ("cli.load_scenario_s", "s"),
    ("cli.self_s", "s"),
    ("rng.sample_brownian_s", "s"),
    ("rng.normals_per_s", "1/s"),
    ("sde.euler_maruyama_s", "s"),
    ("sde.fundamental_matrices_s", "s"),
    ("sde.fundamental_mb", "MB"),
    ("risk.value_s", "s"),
    ("risk.value_calls", "count"),
    ("risk.subgradient_s", "s"),
    ("planner.shoot_s", "s"),
    ("planner.shoot_evals", "count"),
    ("planner.assemble_solution_s", "s"),
    ("planner.bangbang_s", "s"),
    ("adjoint.solve_adjoint_s", "s"),
    ("adjoint.solve_adjoint_s_per_node", "s"),
    ("adjoint.martingale_check_s", "s"),
    ("certificate.certify_s", "s"),
    ("certificate.maximization_gap_s", "s"),
    ("certificate.hamiltonian_calls", "count"),
    ("certificate.normality_s", "s"),
    ("variational.tangent_from_control_s", "s"),
    ("variational.linearization_rate_s", "s"),
    ("export.write_csv_s", "s"),
    ("export.mb", "MB"),
    ("export.mb_per_s", "MB/s"),
    ("export.artifact_mb", "MB"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
]


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(doc, untraced_wall_s):
    """Per-layer metrics from a traced run's span document.

    A layer the workload never calls reads 0.  ``trace.overhead_s`` is the
    traced child's spawn-to-exit wall minus the untraced median wall.
    """
    spans = doc["spans"]
    own = self_times(spans)
    self_s, calls, attrs = {}, {}, {}
    for s in spans:
        name = s["name"]
        self_s[name] = self_s.get(name, 0.0) + own[s["id"]]
        calls[name] = calls.get(name, 0) + 1
        for k, v in s["attrs"].items():
            attrs[(name, k)] = attrs.get((name, k), 0) + v

    def sum_s(name):
        return self_s.get(name, 0.0)

    (imp,) = [s for s in spans if s["name"] == "cli.import"]
    (main,) = [s for s in spans if s["name"] == "cli.main"]
    traced_wall = main["end"] - imp["start"]
    export_mb = attrs.get(("export.write_csv", "bytes"), 0) / 1e6

    values = {
        "cli.import_s": sum_s("cli.import"),
        "cli.load_scenario_s": sum_s("cli.load_scenario"),
        "cli.self_s": sum_s("cli.main"),
        "rng.sample_brownian_s": sum_s("rng.sample_brownian"),
        "rng.normals_per_s": _ratio(attrs.get(("rng.sample_brownian", "normals"), 0),
                                    sum_s("rng.sample_brownian")),
        "sde.euler_maruyama_s": sum_s("sde.euler_maruyama"),
        "sde.fundamental_matrices_s": sum_s("sde.fundamental_matrices"),
        "sde.fundamental_mb": attrs.get(("sde.fundamental_matrices", "bytes"), 0) / 1e6,
        "risk.value_s": sum_s("risk.value"),
        "risk.value_calls": calls.get("risk.value", 0),
        "risk.subgradient_s": sum_s("risk.subgradient"),
        "planner.shoot_s": sum_s("planner.shoot"),
        "planner.shoot_evals": attrs.get(("planner.shoot", "evaluations"), 0),
        "planner.assemble_solution_s": sum_s("planner.assemble_solution"),
        "planner.bangbang_s": sum_s("planner.bangbang"),
        "adjoint.solve_adjoint_s": sum_s("adjoint.solve_adjoint"),
        "adjoint.solve_adjoint_s_per_node": _ratio(sum_s("adjoint.solve_adjoint"),
                                                   attrs.get(("adjoint.solve_adjoint", "nodes"), 0)),
        "adjoint.martingale_check_s": sum_s("adjoint.martingale_check"),
        "certificate.certify_s": sum_s("certificate.certify"),
        "certificate.maximization_gap_s": sum_s("certificate.maximization_gap"),
        "certificate.hamiltonian_calls": doc["counts"].get("certificate.hamiltonian", 0),
        "certificate.normality_s": sum_s("certificate.normality"),
        "variational.tangent_from_control_s": sum_s("variational.tangent_from_control"),
        "variational.linearization_rate_s": sum_s("variational.linearization_rate"),
        "export.write_csv_s": sum_s("export.write_csv"),
        "export.mb": export_mb,
        "export.mb_per_s": _ratio(export_mb, sum_s("export.write_csv")),
        "export.artifact_mb": doc["artifact_mb"],
        "trace.coverage": _ratio(traced_wall - own[main["id"]], traced_wall),
        "trace.overhead_s": doc["wall_s"] - untraced_wall_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import riskpmp.cli
    install(tracer)
    with tracer.span("cli.main"):
        exit_code = riskpmp.cli.main(cli_args)
    Path(spans_path).write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
