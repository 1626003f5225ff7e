import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskpmp import export
from riskpmp.cli import emit_plot_data, load_scenario, main
from riskpmp.risk import AVaR, risk_value

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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme_{i}.json"
        path.write_text(block)
        cfg = json.loads(block)
        assert load_scenario(path, cfg["kind"])["kind"] == cfg["kind"]


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
    assert "x0 must have 1 components" in capsys.readouterr().err
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
    assert rep["reproduction"]["code_version"]
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


def test_simulate_thread_pool_capped_at_usable_cpus(tmp_path, capsys, monkeypatch):
    from riskpmp import cli

    pools = []

    class SerialPool:
        # records the requested pool and maps in this thread: no thread starts
        def __init__(self, max_workers):
            self.max_workers, self.chunks = max_workers, 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            self.chunks += len(items)
            return map(fn, items)

    out = tmp_path / "out"
    cfg_path = write_cfg(tmp_path, simulate_cfg(out))
    assert main(["simulate", "--config", cfg_path]) == 0
    serial = {name: (out / name).read_bytes() for name in ("paths.csv", "paths.bin")}
    monkeypatch.setattr(cli, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert main(["simulate", "--config", cfg_path, "--threads", "1000"]) == 0
    # 120 paths in one chunk per worker, on 3 workers
    assert [(p.max_workers, p.chunks) for p in pools] == [(3, 3)]
    assert {name: (out / name).read_bytes() for name in serial} == serial
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
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"  # no scipy module loaded
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
    from riskpmp import cli, planner

    calls = []
    original = planner.safety_check

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(planner, "safety_check", counted)
    monkeypatch.setattr(cli, "safety_check", counted)
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
