import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskpmp
from riskpmp import cli, export, forked, sde
from riskpmp.cli import emit_plot_data, load_scenario, main
from riskpmp.risk import AVaR, risk_value
from riskpmp.sde import ControlLaw, double_integrator_dynamics, make_grid, sample_brownian
from riskpmp.variational import linearization_rate

SAFE_INSTANCE = {
    "y0": 0.0,
    "v0": 0.0,
    "y_target": 4.0,
    "horizon": 2.0,
    "alpha": 0.3,
    "noise": 1.0,
}
CALIBRATED = {"scale": 8.0, "bsde_residual_bound": 2.5, "gap_threshold": 1.0}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def strip_timestamp(text):
    return "\n".join(l for l in text.splitlines() if "created_utc" not in l)


def load_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


# ---------------------------------------------------------------------------
# usage errors: exit 1, nothing written


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "simulate", "seed": 1')
    assert main(["simulate", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_unknown_key_rejected_without_artifacts(tmp_path, capsys):
    out = tmp_path / "never"
    cfg = {
        "kind": "counterexample",
        "seed": 1,
        "out_dir": str(out),
        "bogus": 3,
    }
    assert main(["counterexample", "--config", write_cfg(tmp_path, cfg)]) == 1
    assert "bogus" in capsys.readouterr().err
    assert not out.exists()


def test_missing_seed_rejected(tmp_path, capsys):
    cfg = {"kind": "counterexample"}
    assert main(["counterexample", "--config", write_cfg(tmp_path, cfg)]) == 1
    assert "seed" in capsys.readouterr().err


def test_kind_verb_mismatch(tmp_path, capsys):
    cfg = {"kind": "certify", "seed": 1}
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 1
    assert "does not match verb" in capsys.readouterr().err


def test_unreadable_config(tmp_path, capsys):
    assert main(["counterexample", "--config", str(tmp_path / "nope.json")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_argparse_failures_map_to_one(tmp_path, capsys):
    # argparse would normally exit(2); 2 is reserved for failed checks
    assert main(["frobnicate", "--config", "x"]) == 1
    assert main([]) == 1
    assert main(["simulate"]) == 1
    capsys.readouterr()


def test_bad_thread_values(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, {"kind": "counterexample", "seed": 1, "out_dir": str(tmp_path / "o")})
    assert main(["counterexample", "--config", cfg, "--threads", "0"]) == 1
    monkeypatch.setenv("RISKPMP_THREADS", "soon")
    assert main(["counterexample", "--config", cfg]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("verb, fields, token", [
    ("simulate", {"dynamics": {"name": "scalar-linear"}, "x0": [float("nan")],
                  "horizon": 1.0, "n_steps": 4, "n_paths": 4}, "NaN"),
    ("risk-eval", {"measure": {"type": "expectation"}, "samples": [1.0, float("inf")]},
     "Infinity"),
])
def test_non_finite_config_numbers_rejected(tmp_path, capsys, verb, fields, token):
    # json.dumps writes NaN and Infinity, which are not JSON numbers
    cfg = dict(kind=verb, seed=1, out_dir=str(tmp_path / "o"), **fields)
    assert main([verb, "--config", write_cfg(tmp_path, cfg)]) == 1
    assert f"non-finite number {token}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field", ["n_paths", "n_steps", "seed"])
def test_integral_floats_rejected_where_config_wants_integers(tmp_path, capsys, field):
    # JSON Schema's "integer" admits 100.0; a config integer must be a JSON integer
    cfg = {"kind": "simulate", "seed": 1, "out_dir": str(tmp_path / "o"),
           "dynamics": {"name": "scalar-linear"}, "x0": [1.0], "horizon": 1.0,
           "n_steps": 10, "n_paths": 100}
    cfg[field] = float(cfg[field])
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert f"config rejected at {field}: {cfg[field]!r} is not of type 'integer'" in err
    assert not (tmp_path / "o").exists()


def test_integral_float_initial_sign_rejected(tmp_path, capsys):
    # the enum [-1, 1] compares numbers by value, so it alone admits 1.0
    cfg = {"kind": "adjoint", "seed": 1, "out_dir": str(tmp_path / "o"),
           "instance": SAFE_INSTANCE, "policy": {"initial_sign": 1.0},
           "n_steps": 10, "n_paths": 10}
    assert main(["adjoint", "--config", write_cfg(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert "config rejected at policy/initial_sign: 1.0 is not of type 'integer'" in err
    assert not (tmp_path / "o").exists()


def test_readme_example_configs_validate(tmp_path):
    # load_scenario checks structure and types; the values are checked by
    # building the library objects, as the verbs do before sampling
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.json"
        path.write_text(block)
        cfg = json.loads(block)
        assert load_scenario(path, cfg["kind"])["kind"] == cfg["kind"]
        if "measure" in cfg:
            cli._measure(cfg["measure"])
        if "instance" in cfg:
            instance = cli._instance(cfg["instance"])
        if "policy" in cfg:
            grid = cli.make_grid(instance.horizon, cfg["n_steps"])
            cli._policy_values(cfg["policy"], instance, grid)


_README_BLOCKS = re.findall(r"```json\n(.*?)```",
                            (Path(__file__).resolve().parents[1] / "README.md").read_text(),
                            flags=re.S)
# keys a README config may drop; the verb runs without them
_OPTIONAL = {"a", "b", "binary", "noise", "tolerances", "scale", "bsde_residual_bound",
             "gap_threshold", "policy", "switches"}


def _mutations(node, path=()):
    """(mutated copy maker, key path, messages) for every mutation below node."""
    where = "/".join(map(str, path))
    if isinstance(node, dict):
        yield (lambda n: n.__setitem__("bogus", 1)), path, [
            f"config rejected at {where or 'config'}: ", "'bogus'"]
        for key in node:
            if key not in _OPTIONAL and path + (key,) != ("kind",):
                yield (lambda n, k=key: n.pop(k)), path, [where, repr(key)]
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        at = "/".join(map(str, path + (key,)))
        if path + (key,) == ("kind",):
            continue
        if isinstance(child, (dict, list)):
            for mutate, p, messages in _mutations(child, path + (key,)):
                yield (lambda n, m=mutate, k=key: m(n[k])), p, messages
            continue
        wrong = 1 if isinstance(child, str) else "x"
        bad = [(wrong, f"config rejected at {at}: ")]
        if isinstance(child, (int, float)) and not isinstance(child, bool):
            bad.append((True, f"config rejected at {at}: True is not of type"))
        if isinstance(child, int) and not isinstance(child, bool):
            bad.append((float(child),
                        f"config rejected at {at}: {float(child)!r} is not of type 'integer'"))
        for value, message in bad:
            yield (lambda n, k=key, v=value: n.__setitem__(k, v)), path + (key,), [message]


@pytest.mark.parametrize("block", range(len(_README_BLOCKS)))
def test_readme_config_mutations_are_usage_errors_naming_the_key(tmp_path, capsys, block):
    # a dropped required key, an unknown key at any level, a wrong-typed leaf,
    # true for a number and 1.0 for an integer: each is refused before
    # anything runs, with the key path in the message
    original = json.loads(_README_BLOCKS[block])
    out = tmp_path / "o"
    cases = list(_mutations(original))
    assert len(cases) > 10
    for mutate, path, messages in cases:
        cfg = json.loads(_README_BLOCKS[block])
        mutate(cfg)
        code = main([original["kind"], "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1, (path, cfg)
        for message in messages:
            assert message in err, (path, err)
        assert "Traceback" not in err
        assert not out.exists()


def _candidate(**over):
    cfg = {"kind": "adjoint", "instance": SAFE_INSTANCE, "policy": {"initial_sign": 1},
           "n_steps": 10, "n_paths": 10}
    cfg.update(over)
    return cfg


_STRONG = {"kind": "convergence", "study": "strong-order", "problem": {"name": "scalar-linear"},
           "x0": 1.0, "horizon": 1.0, "n_steps_levels": [8, 16], "n_paths": 10}
_RATE = {"kind": "convergence", "study": "linearization-rate",
         "problem": {"name": "double-integrator"}, "x0": [0.0, 0.0], "horizon": 1.0,
         "n_steps": 8, "n_paths": 8, "u_star": 0.0, "w": 0.5, "epsilons": [0.2, 0.1]}
_SIMULATE = {"kind": "simulate", "dynamics": {"name": "scalar-linear"}, "x0": [1.0],
             "horizon": 1.0, "n_steps": 4, "n_paths": 4}
_SOP = {"kind": "sop-solve", "instance": SAFE_INSTANCE, "n_steps": 10, "n_paths": 10}
_RISK = {"kind": "risk-eval", "measure": {"type": "expectation"}}


@pytest.mark.parametrize("cfg, flags, message", [
    (_candidate(instance=dict(SAFE_INSTANCE, alpha=2.0)), [], "instance: alpha must lie in (0, 1]"),
    (_candidate(instance=dict(SAFE_INSTANCE, horizon=0.0)), [],
     "instance: horizon must be positive"),
    (_candidate(instance=dict(SAFE_INSTANCE, noise=-1.0)), [], "instance: noise scale"),
    ({"kind": "sop-solve", "instance": dict(SAFE_INSTANCE, y0=4.0), "n_steps": 10, "n_paths": 10},
     [], "instance: the start must lie strictly left of the target"),
    (_candidate(policy={"initial_sign": 2}), [], "policy: initial_sign must be -1 or +1"),
    (_candidate(policy={"initial_sign": 1, "switches": [0.5, 1.0, 1.5]}), [],
     "policy: at most two switching times"),
    (_candidate(policy={"initial_sign": 1, "switches": [3.0]}), [],
     "policy: switch time 3.0 lies outside [0, 2.0]"),
    ({"kind": "risk-eval", "measure": {"type": "avar", "alpha": 1.5}, "sample": {"n": 5}}, [],
     "measure: alpha must lie in (0, 1]"),
    ({"kind": "risk-eval", "measure": {"type": "mixture", "alphas": [0.2, 0.5], "weights": [1.0]},
      "sample": {"n": 5}}, [], "measure: alphas and weights must be equal-length"),
    ({"kind": "risk-eval", "measure": {"type": "mixture", "alphas": [0.2, 0.5],
                                       "weights": [1.5, -0.5]}, "sample": {"n": 5}}, [],
     "measure: mixture weights must be nonnegative"),
    (dict(_STRONG, n_steps_levels=[8, 8]), [], "n_steps_levels repeat"),
    (dict(_STRONG, n_steps_levels=[16]), [], "n_steps_levels needs at least two levels"),
    (dict(_STRONG, n_steps_levels=[24, 64]), [], "n_steps_levels: level 24 must divide"),
    (dict(_STRONG, problem={"name": "double-integrator"}, x0=[0.0, 0.0]), [], "closed form"),
    (_candidate(), ["--seed=-1"], "seed must be in [0, 2**64), got -1"),
    (_candidate(seed=2**64), [], "seed must be in [0, 2**64)"),
    # the grid's rules, for each runner that builds one
    (dict(_SIMULATE, n_steps=0), [], "n_steps must be a positive integer, got 0"),
    (dict(_SIMULATE, horizon=-1.0), [], "horizon must be positive and finite, got -1.0"),
    (dict(_RATE, n_steps=0), [], "n_steps must be a positive integer, got 0"),
    (dict(_STRONG, horizon=0.0), [], "horizon must be positive and finite, got 0.0"),
    (_candidate(n_steps=0), [], "n_steps must be a positive integer, got 0"),
    (dict(_SOP, n_steps=0), [], "n_steps must be a positive integer, got 0"),
    # the ensemble size, also where the threaded simulation would split it
    (dict(_SIMULATE, n_paths=0), [], "n_paths must be >= 1"),
    (dict(_SIMULATE, n_paths=0), ["--threads", "2"], "n_paths must be >= 1"),
    (_candidate(n_paths=0), [], "n_paths must be >= 1"),
    (dict(_SOP, n_paths=0), [], "n_paths must be >= 1"),
    (dict(_RATE, n_paths=0), [], "n_paths must be >= 1"),
    (dict(_STRONG, n_paths=-3), [], "n_paths must be >= 1"),
    (dict(_SIMULATE, dynamics={"name": "double-integrator", "noise": -1.0}, x0=[0.0, 0.0]), [],
     "dynamics: noise scale must be nonnegative, got -1.0"),
    (dict(_RATE, epsilons=[0.1, 0.2]), [], "epsilons must be strictly decreasing"),
    (dict(_RATE, epsilons=[]), [], "epsilons must be a nonempty list inside (0, 1]"),
    (dict(_RATE, epsilons=[1.5, 0.5]), [], "epsilons must be a nonempty list inside (0, 1]"),
    (dict(_RISK, samples=[]), [], "samples: sample is empty"),
    (dict(_RISK, sample={"n": 0}), [], "sample: n must be at least 1"),
    (dict(_RISK, sample={"n": 5, "std": -1.0}), [], "std nonnegative, got 5 and -1.0"),
    (dict(_SOP, tolerances={"gap_threshold": 0.0}), [],
     "tolerances: gap_threshold must be positive, got 0.0"),
    (_candidate(kind="certify", tolerances={"scale": -8.0}), [],
     "tolerances: scale must be positive, got -8.0"),
    (_candidate(policy={"initial_sign": 1, "constant": 0.5}), [],
     "policy: give 'initial_sign' (with optional 'switches') or 'constant'"),
    (_candidate(policy={"constant": 0.5, "switches": [1.0]}), [],
     "policy: give 'initial_sign' (with optional 'switches') or 'constant'"),
    # the dynamics own the control set U = [-1, 1]
    (_candidate(policy={"constant": 5.0}), [],
     "policy: control 5.0 lies outside the control set [-1.0, 1.0]"),
    (_candidate(kind="certify", policy={"constant": -1.5}), [],
     "policy: control -1.5 lies outside the control set [-1.0, 1.0]"),
    # the integrator's shape rules for x0 and the control, as sde states them
    (dict(_SIMULATE, x0=[1.0, 2.0]), ["--threads", "2"],
     "x0 has shape (2,); the dynamics need (1,) or (paths, 1)"),
    (dict(_SIMULATE, control={"constant": 0.5}), [],
     "control has width 1; the dynamics take no control (control_dim 0)"),
    (dict(_SIMULATE, dynamics={"name": "double-integrator"}, x0=[0.0, 0.0],
          control={"constant": [0.5, 0.5]}), [],
     "control has width 2; the dynamics take control_dim 1"),
    (dict(_RATE, x0=[0.0]), [], "x0 has shape (1,); the dynamics need (2,) or (paths, 2)"),
    (dict(_RATE, problem={"name": "scalar-linear"}, x0=[1.0]), [],
     "the dynamics take no control (control_dim 0)"),
    (dict(_STRONG, x0=[1.0, 2.0]), [], "x0 has shape (2,); the dynamics need (1,) or (paths, 1)"),
])
def test_bad_values_are_refused_before_sampling(tmp_path, capsys, monkeypatch, cfg, flags, message):
    # each value rule lives in the library object the verb builds; the verb
    # builds it before drawing a normal, so a bad value writes nothing
    from riskpmp import planner, rng, sde

    draws = []
    for module, name in [(cli, "sample_brownian"), (planner, "sample_brownian"),
                         (sde, "sample_brownian"), (cli, "ensemble_normals"),
                         (sde, "ensemble_normals"), (rng, "ensemble_normals")]:
        monkeypatch.setattr(module, name, lambda *a, _name=name, **k: draws.append(_name))
    out = tmp_path / "o"
    cfg = dict({"seed": 1, "out_dir": str(out)}, **cfg)
    assert main([cfg["kind"], "--config", write_cfg(tmp_path, cfg)] + flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert draws == []


def test_cli_takes_the_zero_tolerances_certify_config_allows(tmp_path, capsys):
    # CertifyConfig allows normality_tol = 0 and violating_measure_tol = 0;
    # the tolerances block takes the same ranges
    out = tmp_path / "o"
    tolerances = dict(CALIBRATED, normality_tol=0.0, violating_measure_tol=0.0)
    cfg = dict(_SOP, seed=1, out_dir=str(out), tolerances=tolerances)
    assert main(["sop-solve", "--config", write_cfg(tmp_path, cfg)]) in (0, 2, 3)
    stanza = json.loads((out / "certificate.json").read_text())["tolerances"]
    assert stanza["normality"] == 0.0 and stanza["violating_measure"] == 0.0
    capsys.readouterr()


def test_mixture_weight_zero_is_accepted(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = {"kind": "risk-eval", "seed": 1, "out_dir": str(out), "samples": [0.1, -1.2, 3.4, 0.0],
           "measure": {"type": "mixture", "alphas": [0.25, 1.0], "weights": [1.0, 0.0]}}
    assert main(["risk-eval", "--config", write_cfg(tmp_path, cfg)]) == 0
    value = load_report(out)["results"]["value"]
    assert value == pytest.approx(risk_value(AVaR(0.25), np.array([0.1, -1.2, 3.4, 0.0])))
    capsys.readouterr()


def test_simulate_shape_mismatch_is_usage_error(tmp_path, capsys):
    cfg = {
        "kind": "simulate",
        "seed": 2,
        "out_dir": str(tmp_path / "o"),
        "dynamics": {"name": "scalar-linear"},
        "x0": [1.0, 2.0],
        "horizon": 1.0,
        "n_steps": 4,
        "n_paths": 4,
    }
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 1
    assert "x0 has shape (2,); the dynamics need (1,) or (paths, 1)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_dynamics_param_ownership(tmp_path, capsys):
    cfg = {
        "kind": "simulate",
        "seed": 2,
        "out_dir": str(tmp_path / "o"),
        "dynamics": {"name": "scalar-linear", "cubic": 0.1},
        "x0": [1.0],
        "horizon": 1.0,
        "n_steps": 4,
        "n_paths": 4,
    }
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 1
    assert "do not apply" in capsys.readouterr().err


def test_risk_eval_cross_field_rules(tmp_path, capsys):
    base = {"kind": "risk-eval", "seed": 1, "out_dir": str(tmp_path / "o")}
    both = dict(base, measure={"type": "avar", "alpha": 0.3}, samples=[1.0], sample={"n": 3})
    assert main(["risk-eval", "--config", write_cfg(tmp_path, both, "a.json")]) == 1
    neither = dict(base, measure={"type": "avar", "alpha": 0.3})
    assert main(["risk-eval", "--config", write_cfg(tmp_path, neither, "b.json")]) == 1
    lengths = dict(base, measure={"type": "mixture", "alphas": [0.2, 0.5], "weights": [1.0]},
                   samples=[1.0, 2.0])
    assert main(["risk-eval", "--config", write_cfg(tmp_path, lengths, "c.json")]) == 1
    capsys.readouterr()


def test_convergence_study_field_rules(tmp_path, capsys):
    base = {
        "kind": "convergence",
        "seed": 1,
        "out_dir": str(tmp_path / "o"),
        "study": "strong-order",
        "problem": {"name": "double-integrator"},
        "x0": [0.0, 0.0],
        "horizon": 1.0,
        "n_steps_levels": [8, 16],
        "n_paths": 8,
    }
    assert main(["convergence", "--config", write_cfg(tmp_path, base, "a.json")]) == 1
    assert "closed form" in capsys.readouterr().err
    rate = {
        "kind": "convergence",
        "seed": 1,
        "out_dir": str(tmp_path / "o"),
        "study": "linearization-rate",
        "problem": {"name": "double-integrator"},
        "x0": [0.0, 0.0],
        "horizon": 1.0,
        "n_steps": 8,
        "n_paths": 8,
        "u_star": 0.0,
        "w": 0.5,
        "epsilons": [0.1, 0.2],
    }
    assert main(["convergence", "--config", write_cfg(tmp_path, rate, "b.json")]) == 1
    assert "decreasing" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["certify", "sop-solve"])
def test_shoot_block_is_refused(tmp_path, capsys, verb):
    # the shooting search has no settings: a 'shoot' block is a usage error
    cfg = {
        "kind": verb,
        "seed": 1,
        "out_dir": str(tmp_path / "o"),
        "instance": SAFE_INSTANCE,
        "shoot": {"lattice": 5},
        "n_steps": 4,
        "n_paths": 4,
    }
    assert main([verb, "--config", write_cfg(tmp_path, cfg)]) == 1
    assert "'shoot'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_report(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {"kind": "counterexample", "seed": 0, "out_dir": str(out)}
    assert main(["counterexample", "--config", write_cfg(tmp_path, cfg)]) == 0
    rep = load_report(out)
    assert rep["version"] == "riskpmp_report_v1"
    assert rep["status"] == "pass"
    assert rep["results"]["ito_gap_lower_bound"] == pytest.approx(0.2, abs=1e-12)
    assert rep["results"]["pointwise_min_sq_dist"] == pytest.approx(0.2, abs=1e-9)
    assert rep["results"]["lebesgue_gap"] == 0.0
    assert rep["reproduction"]["config"] == cfg
    assert rep["reproduction"]["code_version"] == riskpmp.__version__
    capsys.readouterr()


# ---------------------------------------------------------------------------
# simulate


def simulate_cfg(out, **over):
    cfg = {
        "kind": "simulate",
        "seed": 7,
        "out_dir": str(out),
        "dynamics": {"name": "scalar-linear", "a": 0.5, "b": 0.2},
        "x0": [1.0],
        "horizon": 1.0,
        "n_steps": 25,
        "n_paths": 120,
        "binary": True,
    }
    cfg.update(over)
    return cfg


def test_simulate_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = simulate_cfg(out)
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg)]) == 0
    lines = (out / "paths.csv").read_text().splitlines()
    assert lines[0] == "path,step,t,x_0"
    assert len(lines) == 1 + 120 * 26
    header, payload = export.read_dump(out / "paths.bin")
    assert header == {"state_dim": 1, "noise_dim": 1, "n_steps": 25, "n_paths": 120, "seed": 7}
    rep = load_report(out)
    assert rep["status"] == "completed"
    assert rep["results"]["failed_paths"] == 0
    # dump payload and csv describe the same ensemble
    first_csv_value = float(lines[2].split(",")[-1])
    assert payload[1] == pytest.approx(first_csv_value, rel=1e-15)
    capsys.readouterr()


def test_simulate_thread_count_does_not_change_bytes(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, simulate_cfg(out))
    assert main(["simulate", "--config", cfg_path, "--threads", "1"]) == 0
    one = {name: (out / name).read_bytes() for name in ("paths.csv", "paths.bin")}
    rep_one = strip_timestamp((out / "report.json").read_text())
    assert main(["simulate", "--config", cfg_path, "--threads", "3"]) == 0
    assert (out / "paths.csv").read_bytes() == one["paths.csv"]
    assert (out / "paths.bin").read_bytes() == one["paths.bin"]
    assert strip_timestamp((out / "report.json").read_text()) == rep_one
    capsys.readouterr()


def test_simulate_workers_capped_at_usable_cpus(tmp_path, capsys, monkeypatch):
    # the worker count is --threads (or the env var) capped at the usable
    # CPUs, and one per usable CPU when neither is set: 120 paths in three
    # spans of 40, the first run by the verb's own process
    started = []

    def serial(calls):  # records the spans handed to children and runs them here
        calls = list(calls)
        started.append([name for name, _, _ in calls])
        for _, fn, args in calls:
            fn(*args)
        return lambda: None

    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, simulate_cfg(out))
    assert main(["simulate", "--config", cfg_path, "--threads", "1"]) == 0
    one = {name: (out / name).read_bytes() for name in ("paths.csv", "paths.bin")}
    monkeypatch.setattr(forked, "start", serial)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.delenv("RISKPMP_THREADS", raising=False)
    for flags in (["--threads", "1000"], []):
        assert main(["simulate", "--config", cfg_path] + flags) == 0
        assert {name: (out / name).read_bytes() for name in one} == one
    # the CSV writer starts through the same owner
    assert started == [["paths 40..79", "paths 80..119"], [f"writing {out / 'paths.csv'}"]] * 2
    capsys.readouterr()


def _worker_cfg(verb, out, n_paths):
    if verb == "simulate":
        return simulate_cfg(out, n_paths=n_paths)
    return dict(_RATE, seed=9, out_dir=str(out), problem={"name": "double-integrator", "cubic": 0.1},
                n_steps=40, n_paths=n_paths, u_star=0.3, w=-0.8, epsilons=[0.2, 0.1, 0.05])


@pytest.mark.parametrize("verb", ["simulate", "convergence"])
@pytest.mark.parametrize("n_paths", [121, 2])
def test_outputs_do_not_depend_on_worker_count(tmp_path, capsys, monkeypatch, verb, n_paths):
    # forked workers over spans of 41, 41 and a ragged 39 paths, or over 2
    # paths on 3 workers (2 spans); blocks of at most 16 paths, so a span
    # draws several
    monkeypatch.setattr(cli, "RATE_BLOCK", 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, _worker_cfg(verb, out, n_paths))
    runs = []
    for workers in ("1", "2", "3"):
        code = main([verb, "--config", cfg_path, "--threads", workers])
        assert not multiprocessing.active_children()
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "report.json"}
        runs.append((code, files, strip_timestamp((out / "report.json").read_text())))
    assert runs[0][0] in (0, 2) and runs[0][1]
    assert runs[1] == runs[0] and runs[2] == runs[0]
    capsys.readouterr()


@pytest.mark.parametrize("verb", ["simulate", "convergence"])
def test_a_failed_worker_is_named_and_leaves_no_process(tmp_path, capsys, monkeypatch, verb):
    parent = os.getpid()

    def sample(*args, sample_brownian=sde.sample_brownian, **kwargs):
        if os.getpid() != parent:
            raise OSError("worker lost")
        return sample_brownian(*args, **kwargs)

    monkeypatch.setattr(sde, "sample_brownian", sample)  # the sources draw through it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match=r"^paths 60\.\.119 failed in a child process$"):
        main([verb, "--config", write_cfg(tmp_path, _worker_cfg(verb, out, 120)), "--threads", "2"])
    assert not multiprocessing.active_children()
    assert not (out / "report.json").exists()
    capsys.readouterr()


def test_simulate_env_threads_matches_flag(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, simulate_cfg(out))
    assert main(["simulate", "--config", cfg_path, "--threads", "2"]) == 0
    flagged = (out / "paths.csv").read_bytes()
    monkeypatch.setenv("RISKPMP_THREADS", "2")
    assert main(["simulate", "--config", cfg_path]) == 0
    assert (out / "paths.csv").read_bytes() == flagged
    capsys.readouterr()


def test_simulate_names_aborted_paths_once_at_any_thread_count(tmp_path, capsys, monkeypatch):
    # dv = (u - 50 y^3) dt blows up on some paths of both halves of the ensemble
    out = tmp_path / "out"
    cfg = simulate_cfg(out, seed=3, dynamics={"name": "double-integrator", "cubic": 50.0},
                       x0=[0.0, 0.0], horizon=2.0, n_steps=200, binary=False)
    cfg_path = write_cfg(tmp_path, cfg)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    texts = {}
    for threads in ("1", "2"):
        with pytest.warns(RuntimeWarning) as record:
            assert main(["simulate", "--config", cfg_path, "--threads", threads]) == 0
        texts[threads] = [(w.category, str(w.message), Path(w.filename).name) for w in record]
    assert len(texts["1"]) == 1
    assert re.fullmatch(r"\d+ path\(s\) aborted on non-finite state \(first at step \d+\)",
                        texts["1"][0][1])
    assert texts["2"] == texts["1"]
    capsys.readouterr()


def test_simulate_seed_override_changes_draws(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, simulate_cfg(out))
    assert main(["simulate", "--config", cfg_path]) == 0
    base = (out / "paths.csv").read_bytes()
    assert main(["simulate", "--config", cfg_path, "--seed", "8"]) == 0
    assert (out / "paths.csv").read_bytes() != base
    assert load_report(out)["seed"] == 8
    assert load_report(out)["reproduction"]["config"]["seed"] == 8
    capsys.readouterr()


# ---------------------------------------------------------------------------
# risk-eval


def test_risk_eval_matches_library_values(tmp_path, capsys):
    out = tmp_path / "out"
    rng = np.random.default_rng(1)
    samples = rng.normal(size=400).tolist()
    cfg = {
        "kind": "risk-eval",
        "seed": 1,
        "out_dir": str(out),
        "measure": {"type": "avar", "alpha": 0.25},
        "samples": samples,
        "write_xi": True,
    }
    assert main(["risk-eval", "--config", write_cfg(tmp_path, cfg)]) == 0
    rep = load_report(out)
    assert rep["status"] == "pass"
    assert rep["results"]["value"] == pytest.approx(
        risk_value(AVaR(0.25), np.asarray(samples)), abs=1e-12
    )
    sub = rep["results"]["subgradient"]
    assert sub["mean_xi"] == pytest.approx(1.0, abs=1e-9)
    assert sub["pairing"] == pytest.approx(rep["results"]["value"], abs=1e-9)
    xi_lines = (out / "xi.csv").read_text().splitlines()
    assert xi_lines[0] == "index,z,xi"
    assert len(xi_lines) == 1 + 400
    capsys.readouterr()


def test_risk_eval_sampled_normal_deterministic(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {
        "kind": "risk-eval",
        "seed": 12,
        "out_dir": str(out),
        "measure": {"type": "mixture", "alphas": [0.1, 1.0], "weights": [0.5, 0.5]},
        "sample": {"n": 2000, "mean": 1.0, "std": 2.0},
    }
    cfg_path = write_cfg(tmp_path, cfg)
    assert main(["risk-eval", "--config", cfg_path]) == 0
    first = strip_timestamp((out / "report.json").read_text())
    assert main(["risk-eval", "--config", cfg_path]) == 0
    assert strip_timestamp((out / "report.json").read_text()) == first
    capsys.readouterr()


# ---------------------------------------------------------------------------
# adjoint


def test_adjoint_artifacts_and_martingale(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {
        "kind": "adjoint",
        "seed": 5,
        "out_dir": str(out),
        "instance": SAFE_INSTANCE,
        "policy": {"constant": 1.0},
        "n_steps": 40,
        "n_paths": 600,
        "binary": True,
    }
    assert main(["adjoint", "--config", write_cfg(tmp_path, cfg)]) == 0
    rep = load_report(out)
    assert rep["results"]["martingale"]["passed"] is True
    assert rep["results"]["regression"]["bsde_residual_max"] > 0.0
    assert (out / "costates.csv").read_text().splitlines()[0] == "path,step,t,p_0,p_1"
    assert (out / "qcoef.csv").read_text().splitlines()[0] == "path,step,t,q_0,q_1"
    header, _ = export.read_dump(out / "costates.bin")
    assert header["state_dim"] == 2 and header["n_paths"] == 600
    plot = (out / "costate_mean.csv").read_text().splitlines()
    assert plot[0] == "t,mean_p_y,stderr"
    assert len(plot) == 1 + 41
    assert not (out / "paths.csv").exists()
    capsys.readouterr()


def test_adjoint_costate_dump_header_comes_from_the_costates(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {"kind": "adjoint", "seed": 4, "out_dir": str(out), "instance": SAFE_INSTANCE,
           "policy": {"initial_sign": 1, "switches": [1.0]}, "n_steps": 10, "n_paths": 50,
           "binary": True}
    assert main(["adjoint", "--config", write_cfg(tmp_path, cfg)]) == 0
    header, payload = export.read_dump(out / "costates.bin")
    assert header == {"state_dim": 2, "noise_dim": 1, "n_steps": 10, "n_paths": 50, "seed": 4}
    rows = np.loadtxt(out / "costates.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(payload.reshape(50 * 11, 2), rows[:, 3:])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# certify and sop-solve


def certify_cfg(out, **over):
    cfg = {
        "kind": "certify",
        "seed": 11,
        "out_dir": str(out),
        "instance": SAFE_INSTANCE,
        "policy": {"initial_sign": 1},
        "n_steps": 60,
        "n_paths": 1500,
        "tolerances": dict(CALIBRATED),
    }
    cfg.update(over)
    return cfg


def test_certify_pass_exit_zero(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["certify", "--config", write_cfg(tmp_path, certify_cfg(out))]) == 0
    rep = load_report(out)
    assert rep["status"] == "pass"
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["version"] == "pmp_certificate_v1"
    assert cert["verdict"] == "pass"
    assert rep["results"]["certificate"] == cert
    capsys.readouterr()


def test_certify_flipped_control_exit_two(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = certify_cfg(out, policy={"constant": -1.0})
    assert main(["certify", "--config", write_cfg(tmp_path, cfg)]) == 2
    rep = load_report(out)
    assert rep["status"] == "fail"
    conditions = rep["results"]["certificate"]["conditions"]
    assert conditions["maximization"]["status"] == "fail"
    capsys.readouterr()


def test_certify_unattainable_bound_exit_three(tmp_path, capsys):
    out = tmp_path / "out"
    tol = dict(CALIBRATED, bsde_residual_bound=1e-12)
    cfg = certify_cfg(out, tolerances=tol)
    assert main(["certify", "--config", write_cfg(tmp_path, cfg)]) == 3
    assert load_report(out)["status"] == "inconclusive"
    capsys.readouterr()


def test_sop_solve_end_to_end_byte_identical(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {
        "kind": "sop-solve",
        "seed": 11,
        "out_dir": str(out),
        "instance": SAFE_INSTANCE,
        "n_steps": 60,
        "n_paths": 1200,
        "tolerances": dict(CALIBRATED),
    }
    cfg_path = write_cfg(tmp_path, cfg)
    assert main(["sop-solve", "--config", cfg_path]) == 0
    names = [
        "certificate.json",
        "costates.csv",
        "qcoef.csv",
        "costate_mean.csv",
        "gap_hist.csv",
        "incumbents.csv",
    ]
    first = {n: (out / n).read_bytes() for n in names}
    first_report = strip_timestamp((out / "report.json").read_text())
    assert main(["sop-solve", "--config", cfg_path]) == 0
    for n in names:
        assert (out / n).read_bytes() == first[n], n
    assert strip_timestamp((out / "report.json").read_text()) == first_report

    rep = load_report(out)
    assert rep["status"] == "pass"
    assert rep["results"]["policy"]["switches"] == []
    assert rep["results"]["policy"]["initial_sign"] == 1.0
    assert rep["results"]["safety"]["safe"] is True
    assert rep["results"]["bangbang"]["status"] == "consistent"
    assert rep["results"]["bangbang"]["saturation_fraction"] == 1.0
    incumbents = [r["best_cost"] for r in rep["results"]["incumbents"]]
    assert incumbents == sorted(incumbents, reverse=True)
    capsys.readouterr()


def small_sop_cfg(out):
    return {"kind": "sop-solve", "seed": 11, "out_dir": str(out), "instance": SAFE_INSTANCE,
            "n_steps": 30, "n_paths": 400, "tolerances": dict(CALIBRATED)}


def test_sop_solve_bytes_do_not_depend_on_forked_writers(tmp_path, capsys, monkeypatch):
    # the CSV writers run while the certificate does; written in order
    # (a platform without fork) every artifact has the same bytes
    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    outs = [tmp_path / "forked", tmp_path / "serial"]
    for out in outs:
        if out.name == "serial":
            monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        assert main(["sop-solve", "--config", write_cfg(tmp_path, small_sop_cfg(out))]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert {"costates.csv", "qcoef.csv"} <= set(names)
    for name in names:
        if name != "report.json":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    reports = [load_report(out) for out in outs]
    for rep in reports:
        del rep["created_utc"], rep["reproduction"]["config"]["out_dir"]
    assert reports[0] == reports[1]
    capsys.readouterr()


@pytest.mark.parametrize("verb_fails, writer_fails, match", [
    (True, False, "certificate broke"),
    (True, True, "certificate broke"),  # the verb's error, not the writer's
    (False, True, "costates.csv"),
])
def test_verb_that_raises_leaves_no_writer_running(tmp_path, capsys, monkeypatch,
                                                   verb_fails, writer_fails, match):
    started = []

    def recording(jobs, write_csvs=export.write_csvs):
        started.append([Path(job[0]).name for job in jobs])
        return write_csvs(jobs)

    def certify(*args, certify=cli.certify, **kwargs):
        assert started == [["costates.csv", "qcoef.csv"]]  # the CSV writers started first
        if verb_fails:
            raise RuntimeError("certificate broke")
        return certify(*args, **kwargs)

    def failing(path, *args):
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr(export, "write_csvs", recording)
    monkeypatch.setattr(cli, "certify", certify)
    if writer_fails:  # in the forked children only: the parent writes no CSV
        monkeypatch.setattr(export, "write_csv", failing)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match=match):
        main(["sop-solve", "--config", write_cfg(tmp_path, small_sop_cfg(out))])
    assert not multiprocessing.active_children()
    assert not (out / "report.json").exists()
    capsys.readouterr()


def test_sop_solve_loads_no_scipy(tmp_path):
    cfg = {
        "kind": "sop-solve",
        "seed": 42,
        "out_dir": str(tmp_path / "out"),
        "instance": SAFE_INSTANCE,
        "n_steps": 20,
        "n_paths": 500,
        "write_costates": False,
        "tolerances": CALIBRATED,
    }
    code = (
        "import sys\n"
        "from riskpmp.cli import main\n"
        f"main(['sop-solve', '--config', {write_cfg(tmp_path, cfg)!r}])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
        "             ('scipy', 'jsonschema', 'referencing', 'rpds', 'attrs', 'attr')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"  # no scipy or jsonschema module loaded
    assert (tmp_path / "out" / "report.json").exists()


def test_sop_solve_reports_adapted_candidate(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {
        "kind": "sop-solve",
        "seed": 11,
        "out_dir": str(out),
        "instance": dict(SAFE_INSTANCE, y_target=1.0),
        "n_steps": 40,
        "n_paths": 2000,
        "write_costates": False,
        "tolerances": {"scale": 0.5, "bsde_residual_bound": 2.5, "gap_threshold": 1.0},
    }
    cfg_path = write_cfg(tmp_path, cfg)
    code = main(["sop-solve", "--config", cfg_path])
    first = {n: (out / n).read_bytes() for n in ("certificate.json", "incumbents.csv")}
    first_report = strip_timestamp((out / "report.json").read_text())
    assert main(["sop-solve", "--config", cfg_path]) == code
    for n, data in first.items():
        assert (out / n).read_bytes() == data, n
    assert strip_timestamp((out / "report.json").read_text()) == first_report

    res = load_report(out)["results"]
    refinement = res["refinement"]
    assert res["policy"]["adapted"] is True
    assert res["policy"]["sweeps"] == refinement["sweeps"] >= 1
    assert set(res["policy"]["start"]) == {"initial_sign", "switches"}
    scores = [r["avar"] for r in refinement["holdout_avar"]]
    assert [r["sweep"] for r in refinement["holdout_avar"]] == list(range(len(scores)))
    assert len(scores) == refinement["sweeps"] + 2
    assert min(scores) == scores[refinement["sweeps"]] < scores[0]
    # the shooting search's record rides along with the adapted candidate
    incumbents = [r["best_cost"] for r in res["incumbents"]]
    assert res["evaluations"] == len(incumbents) > 0
    assert incumbents == sorted(incumbents, reverse=True)
    capsys.readouterr()


def _strict_json(path):
    def reject(token):
        raise ValueError(f"{path.name} holds {token}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def test_reports_are_strict_json_with_null_for_undefined_values(tmp_path, capsys):
    # an unsafe instance skips the bang-bang analysis, and one path has no
    # standard error: those values are undefined and written as null
    out = tmp_path / "sop"
    cfg = {"kind": "sop-solve", "seed": 1, "out_dir": str(out), "instance": SAFE_INSTANCE,
           "n_steps": 10, "n_paths": 50}
    main(["sop-solve", "--config", write_cfg(tmp_path, cfg, "sop.json")])
    bangbang = _strict_json(out / "report.json")["results"]["bangbang"]
    assert bangbang["status"] == "skipped_unsafe"
    assert bangbang["pairing_mean"] is None and bangbang["pairing_band"] is None
    _strict_json(out / "certificate.json")
    out = tmp_path / "adj"
    cfg = {"kind": "adjoint", "seed": 1, "out_dir": str(out), "instance": SAFE_INSTANCE,
           "policy": {"constant": 1.0}, "n_steps": 10, "n_paths": 1}
    main(["adjoint", "--config", write_cfg(tmp_path, cfg, "adj.json")])
    rows = _strict_json(out / "report.json")["results"]["costate_mean"]
    assert [row["stderr"] for row in rows] == [None] * 11
    capsys.readouterr()


@pytest.mark.filterwarnings("error")
def test_one_path_standard_errors_are_null(tmp_path, capsys):
    adj = {"kind": "adjoint", "seed": 1, "out_dir": str(tmp_path / "adj"),
           "instance": SAFE_INSTANCE, "policy": {"constant": 1.0}, "n_steps": 10, "n_paths": 1}
    main(["adjoint", "--config", write_cfg(tmp_path, adj, "adj.json")])
    martingale = _strict_json(tmp_path / "adj" / "report.json")["results"]["martingale"]
    assert martingale["max_stderr"] is None and martingale["passed"] is False
    sim = {"kind": "simulate", "seed": 1, "out_dir": str(tmp_path / "sim"),
           "dynamics": {"name": "scalar-linear"}, "x0": [1.0], "horizon": 1.0,
           "n_steps": 10, "n_paths": 1}
    assert main(["simulate", "--config", write_cfg(tmp_path, sim, "sim.json")]) == 0
    results = _strict_json(tmp_path / "sim" / "report.json")["results"]
    assert results["terminal_std"] == [None]
    capsys.readouterr()


@pytest.mark.filterwarnings("error")
def test_one_path_runs_print_no_warnings(tmp_path, capsys):
    # one path has no standard error: it is reported as null, not computed
    # through std(ddof=1) and its NumPy warnings
    adj = {"kind": "adjoint", "seed": 1, "out_dir": str(tmp_path / "adj"),
           "instance": SAFE_INSTANCE, "policy": {"constant": 1.0}, "n_steps": 10, "n_paths": 1}
    assert main(["adjoint", "--config", write_cfg(tmp_path, adj, "adj.json")]) == 2
    sop = {"kind": "sop-solve", "seed": 1, "out_dir": str(tmp_path / "sop"),
           "instance": dict(SAFE_INSTANCE, alpha=1.0), "n_steps": 10, "n_paths": 1}
    assert main(["sop-solve", "--config", write_cfg(tmp_path, sop, "sop.json")]) == 3
    results = _strict_json(tmp_path / "sop" / "report.json")["results"]
    # one terminal position has no band, so it does not attest safety
    assert results["safety"]["band"] is None and results["safety"]["safe"] is False
    bangbang = results["bangbang"]
    assert bangbang["status"] == "skipped_unsafe" and bangbang["pairing_band"] is None
    assert not any("nan" in line for line in bangbang["chain"])
    assert "vs no band (one path): not safe" in bangbang["chain"][0]
    capsys.readouterr()


def test_sop_solve_runs_the_safety_check_once(tmp_path, capsys, monkeypatch):
    from riskpmp import planner

    calls = []
    original = planner.safety_check

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(planner, "safety_check", counted)
    cfg = {"kind": "sop-solve", "seed": 1, "out_dir": str(tmp_path / "sop"),
           "instance": SAFE_INSTANCE, "n_steps": 10, "n_paths": 200, "certify": False}
    assert main(["sop-solve", "--config", write_cfg(tmp_path, cfg)]) == 0
    assert len(calls) == 1
    safety = load_report(tmp_path / "sop")["results"]["safety"]
    assert safety["band"] > 0.0
    capsys.readouterr()


def test_sop_solve_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The costate regression runs through BLAS and LAPACK: the README
    instance must write the same bytes on one BLAS thread as on two."""
    cfg = {
        "kind": "sop-solve",
        "seed": 42,
        "instance": SAFE_INSTANCE,
        "n_steps": 100,
        "n_paths": 10000,
        "write_costates": False,
        "tolerances": dict(CALIBRATED),
    }
    cfg_path = write_cfg(tmp_path, cfg)
    outs = [tmp_path / "blas1", tmp_path / "blas2"]
    for threads, out in zip(("1", "2"), outs):
        proc = subprocess.run(
            [sys.executable, "-m", "riskpmp", "sop-solve", "--config", cfg_path, "--out", str(out)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        if name != "report.json":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    reports = [load_report(out) for out in outs]
    for rep in reports:
        del rep["created_utc"], rep["reproduction"]["config"]["out_dir"]
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# convergence


def test_convergence_rate_table_sorted_descending(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {
        "kind": "convergence",
        "seed": 9,
        "out_dir": str(out),
        "study": "linearization-rate",
        "problem": {"name": "double-integrator", "cubic": 0.1},
        "x0": [0.0, 0.0],
        "horizon": 1.0,
        "n_steps": 120,
        "n_paths": 300,
        "u_star": 0.3,
        "w": -0.8,
        "epsilons": [0.2, 0.1, 0.05],
    }
    assert main(["convergence", "--config", write_cfg(tmp_path, cfg)]) == 0
    lines = (out / "rates.csv").read_text().splitlines()
    assert lines[0] == "eps,r"
    eps = [float(l.split(",")[0]) for l in lines[1:]]
    assert eps == sorted(eps, reverse=True)
    rep = load_report(out)
    assert rep["status"] == "pass"
    assert rep["results"]["passed"] is True
    capsys.readouterr()


def test_convergence_rate_over_sampled_blocks_equals_one_pass(tmp_path, capsys, monkeypatch):
    # five blocks of 60 (the fewest of at most 64), each drawn at its path
    # offset: the report's rates are those of one pass over the whole ensemble
    monkeypatch.setattr(cli, "RATE_BLOCK", 64)
    out = tmp_path / "out"
    cfg = dict(_RATE, seed=9, out_dir=str(out), problem={"name": "double-integrator", "cubic": 0.1},
               n_steps=40, n_paths=300, u_star=0.3, w=-0.8, epsilons=[0.2, 0.1, 0.05])
    assert main(["convergence", "--config", write_cfg(tmp_path, cfg)]) == 0
    grid = make_grid(1.0, 40)
    whole = linearization_rate(double_integrator_dynamics(cubic=0.1), ControlLaw.constant(0.3, 40),
                               np.zeros(2), sample_brownian(grid, 1, 300, 9),
                               ControlLaw.constant(-0.8, 40), cfg["epsilons"])
    assert [row["r"] for row in load_report(out)["results"]["rates"]] == whole.rates.tolist()
    capsys.readouterr()


def test_convergence_aborted_reference_paths_is_usage_error(tmp_path, capsys):
    cfg = {
        "kind": "convergence",
        "seed": 3,
        "out_dir": str(tmp_path / "o"),
        "study": "linearization-rate",
        "problem": {"name": "double-integrator", "cubic": -2.0},
        "x0": [1.5, 0.0],
        "horizon": 1.0,
        "n_steps": 50,
        "n_paths": 1000,
        "u_star": 0.0,
        "w": 0.5,
        "epsilons": [0.5, 0.25],
    }
    with pytest.warns(RuntimeWarning):
        code = main(["convergence", "--config", write_cfg(tmp_path, cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert "reference state is not finite on 168 of 1000 paths (first at path 1)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_convergence_names_aborted_reference_paths_once_at_any_worker_count(tmp_path, capsys,
                                                                          monkeypatch):
    # the workers' abort nodes are joined first: one warning and one refusal
    # for the whole ensemble, the serial pass's, on any number of workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    cfg = dict(_RATE, seed=3, out_dir=str(tmp_path / "o"),
               problem={"name": "double-integrator", "cubic": -2.0}, x0=[1.5, 0.0], n_steps=50,
               n_paths=1000, w=0.5, epsilons=[0.5, 0.25])
    cfg_path = write_cfg(tmp_path, cfg)
    runs = []
    for workers in ("1", "2", "3"):
        with pytest.warns(RuntimeWarning) as record:
            assert main(["convergence", "--config", cfg_path, "--threads", workers]) == 1
        runs.append(([(w.category, str(w.message)) for w in record], capsys.readouterr().err))
    assert len(runs[0][0]) == 1
    assert re.fullmatch(r"\d+ path\(s\) aborted on non-finite state \(first at step \d+\)",
                        runs[0][0][0][1])
    assert "reference state is not finite on 168 of 1000 paths (first at path 1)" in runs[0][1]
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert not (tmp_path / "o").exists()


def test_convergence_rate_refuses_a_control_free_problem(tmp_path, capsys):
    # u_star and w move nothing in scalar-linear: every rate would read 0, a pass on no evidence
    cfg = dict(_RATE, seed=1, out_dir=str(tmp_path / "o"), problem={"name": "scalar-linear"},
               x0=[1.0], epsilons=[0.5])
    assert main(["convergence", "--config", write_cfg(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert "the dynamics take no control (control_dim 0)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error")
def test_convergence_strong_order_refuses_repeated_levels(tmp_path, capsys):
    cfg = {
        "kind": "convergence",
        "seed": 9,
        "out_dir": str(tmp_path / "o"),
        "study": "strong-order",
        "problem": {"name": "scalar-linear"},
        "x0": 1.0,
        "horizon": 1.0,
        "n_steps_levels": [8, 8],
        "n_paths": 50,
    }
    assert main(["convergence", "--config", write_cfg(tmp_path, cfg)]) == 1
    assert "n_steps_levels" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_convergence_strong_order(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {
        "kind": "convergence",
        "seed": 9,
        "out_dir": str(out),
        "study": "strong-order",
        "problem": {"name": "scalar-linear", "a": 0.8, "b": 0.4},
        "x0": 1.0,
        "horizon": 1.0,
        "n_steps_levels": [8, 16, 32, 64],
        "n_paths": 400,
    }
    assert main(["convergence", "--config", write_cfg(tmp_path, cfg)]) == 0
    rep = load_report(out)
    assert rep["status"] == "completed"
    assert 0.3 <= rep["results"]["estimate"] <= 0.7
    lines = (out / "strong_order.csv").read_text().splitlines()
    assert lines[0] == "n_steps,rms_error"
    errs = [float(l.split(",")[1]) for l in lines[1:]]
    assert errs == sorted(errs, reverse=True)
    capsys.readouterr()


# ---------------------------------------------------------------------------
# plot data contract


def test_emit_plot_data_empty_section_keeps_header(tmp_path):
    report = {"results": {"rates": [], "gap_hist": []}}
    written = emit_plot_data(report, tmp_path)
    assert sorted(written) == ["gap_hist.csv", "rates.csv"]
    assert (tmp_path / "rates.csv").read_text() == "eps,r\n"
    assert (tmp_path / "gap_hist.csv").read_text() == "bin_lo,bin_hi,count\n"
    assert not (tmp_path / "costate_mean.csv").exists()


def test_module_entry_point(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, {"kind": "counterexample", "seed": 0, "out_dir": str(out)})
    proc = subprocess.run(
        [sys.executable, "-m", "riskpmp", "counterexample", "--config", cfg],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "counterexample: pass" in proc.stdout
    assert (out / "report.json").exists()
