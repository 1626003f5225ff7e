"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import copy
import json
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS, artifact_digest, check_run, load_reference

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def sop_report(outputs):
    """A report.json body carrying the given sop-solve named outputs."""
    conditions = {k: {"status": v} for k, v in outputs["conditions"].items()}
    conditions["adjoint_residual"]["residual_max"] = outputs["bsde_residual_max"]
    return {
        "status": outputs["status"],
        "results": {
            "certificate": {"conditions": conditions},
            "max_gap": {"violating_fractions": outputs["violating_fractions"]},
            "cost": outputs["cost"],
            "policy": outputs["policy"],
        },
        "created_utc": "2000-01-01T00:00:00Z",
    }


def write_report(out_dir, report):
    out_dir.mkdir(exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return out_dir


@pytest.fixture
def sop():
    wl = WORKLOADS["sop-readme"]
    return wl, load_reference()[wl.name]


def test_reference_outputs_pass_the_check(tmp_path, sop):
    wl, ref = sop
    out = write_report(tmp_path / "out", sop_report(ref))
    assert check_run(wl, wl.default_seed, wl.expected_exit, out, load_reference()) == []


@pytest.mark.parametrize("path", [("cost",), ("bsde_residual_max",), ("violating_fractions", "1")])
def test_check_flags_a_value_perturbed_by_1e8_relative(tmp_path, sop, path):
    wl, ref = sop
    outputs = copy.deepcopy(ref)
    node = outputs
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= 1 + 1e-8
    out = write_report(tmp_path / "out", sop_report(outputs))
    problems = check_run(wl, wl.default_seed, wl.expected_exit, out, load_reference())
    where = "outputs" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    assert len(problems) == 1 and problems[0].startswith(where + ":")


def test_check_tolerates_roundoff_below_1e10_relative(tmp_path, sop):
    wl, ref = sop
    outputs = copy.deepcopy(ref)
    outputs["cost"] *= 1 + 1e-12
    out = write_report(tmp_path / "out", sop_report(outputs))
    assert check_run(wl, wl.default_seed, wl.expected_exit, out, load_reference()) == []


def test_check_flags_a_wrong_exit_code_and_a_missing_report(tmp_path, sop):
    wl, ref = sop
    out = write_report(tmp_path / "out", sop_report(ref))
    problems = check_run(wl, wl.default_seed, 2, out, load_reference())
    assert problems == ["exit code 2, expected 0"]
    problems = check_run(wl, wl.default_seed, 0, tmp_path / "absent", load_reference())
    assert problems == ["report.json is missing"]


def test_other_seeds_check_only_seed_independent_outputs(tmp_path, sop):
    wl, ref = sop
    outputs = copy.deepcopy(ref)
    outputs["cost"] *= 1.5
    out = write_report(tmp_path / "out", sop_report(outputs))
    assert check_run(wl, 1, 0, out, load_reference()) == []
    outputs["status"] = "inconclusive"
    out = write_report(tmp_path / "out", sop_report(outputs))
    assert check_run(wl, 1, 0, out, load_reference()) == ["status 'inconclusive', expected 'pass'"]

    lin = WORKLOADS["linrate-cubic"]
    report = {"status": "pass", "results": {"passed": False, "rates": []}}
    out = write_report(tmp_path / "lin", report)
    assert check_run(lin, 1, 0, out, load_reference()) == ["passed is False, expected True"]


def test_digest_ignores_only_the_timestamp(tmp_path, sop):
    _, ref = sop
    report = sop_report(ref)
    a = write_report(tmp_path / "a", report)
    report["created_utc"] = "2999-12-31T23:59:59Z"
    b = write_report(tmp_path / "b", report)
    assert artifact_digest(a) == artifact_digest(b)
    (b / "extra.csv").write_text("x\n")
    assert artifact_digest(a) != artifact_digest(b)


def span(id_, name, start, end, parent=None, **attrs):
    return {"id": id_, "name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


def test_self_time_subtracts_the_children():
    tree = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 4.5, 6.0, parent=0),
        span(3, "c", 8.0, 9.5, parent=0),
        span(4, "a1", 2.0, 3.0, parent=1),
        span(5, "a2", 3.0, 3.5, parent=1),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({0: 4.0, 1: 1.5, 2: 1.5, 3: 1.5, 4: 1.0, 5: 0.5})


def test_layer_metrics_on_a_hand_built_trace():
    doc = {
        "spans": [
            span(0, "cli.import", 0.0, 1.0),
            span(1, "cli.main", 1.0, 11.0),
            span(2, "planner.assemble_solution", 2.0, 6.0, parent=1),
            span(3, "sde.euler_maruyama", 2.0, 5.0, parent=2),
            span(4, "sde.euler_maruyama", 5.0, 6.0, parent=2),
            span(5, "rng.sample_brownian", 7.0, 9.0, parent=1, normals=1000),
            span(6, "export.write_csv", 9.0, 10.0, parent=1, bytes=2_000_000),
        ],
        "counts": {"certificate.hamiltonian": 7},
        "wall_s": 11.5,
        "artifact_mb": 2.5,
    }
    m = {k: v["value"] for k, v in spans.layer_metrics(doc, untraced_wall_s=11.0).items()}
    assert m["cli.import_s"] == 1.0
    assert m["cli.self_s"] == pytest.approx(3.0)   # 10 - 4 - 2 - 1
    assert m["planner.assemble_solution_s"] == pytest.approx(0.0)
    assert m["sde.euler_maruyama_s"] == 4.0
    assert m["rng.normals_per_s"] == pytest.approx(500.0)
    assert m["export.mb_per_s"] == pytest.approx(2.0)
    assert m["certificate.hamiltonian_calls"] == 7
    assert m["adjoint.solve_adjoint_s"] == 0.0
    assert m["trace.coverage"] == pytest.approx(8.0 / 11.0)
    assert m["trace.overhead_s"] == pytest.approx(0.5)


def test_tracer_nests_spans_by_call():
    tracer = spans.Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    with tracer.span("next") as after:
        pass
    assert (inner["parent"], outer["parent"], after["parent"]) == (outer["id"], None, None)
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"] <= after["start"]


def names(entries):
    return [(e["name"], e["unit"]) for e in entries]


def test_printed_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert names(BENCHMARK["end_to_end"]) == run.END_TO_END
    assert names(BENCHMARK["per_layer"]) == spans.LAYER_METRICS

    runs = [run.Run("run 1", 1.0, 0, 100.0, 0.5, "d")]
    printed = run.end_to_end_metrics(runs, setup_s=0.9)
    assert [(k, v["unit"]) for k, v in printed.items()] == run.END_TO_END
    doc = {"spans": [span(0, "cli.import", 0.0, 1.0), span(1, "cli.main", 1.0, 2.0)],
           "counts": {}, "wall_s": 2.0, "artifact_mb": 0.1}
    printed = spans.layer_metrics(doc, untraced_wall_s=2.0)
    assert [(k, v["unit"]) for k, v in printed.items()] == spans.LAYER_METRICS
