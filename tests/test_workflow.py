"""The CI workflow must parse: a workflow file that is not valid YAML runs
no job at all, and nothing else in the suite would notice."""

from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_workflow_parses_with_its_jobs_and_steps():
    doc = yaml.safe_load(WORKFLOW.read_text())
    assert {"tests", "runtime-only"} <= set(doc["jobs"])
    for name, job in doc["jobs"].items():
        assert job["steps"], name
        for step in job["steps"]:
            assert isinstance(step.get("run"), str) or "uses" in step, (name, step)
