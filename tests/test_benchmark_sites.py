"""The benchmark's tracer (perfbench/spans.py) wraps riskpmp functions at the
module attributes their callers look up.  A rename or removal in the program
would only show when a traced benchmark run fails to install, so every call
site is resolved here, in a child process that the wrappers cannot outlive."""

import json
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

CHILD = """
import importlib, importlib.util, json, sys
spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
spans.install(spans.Tracer())
sites = [s for _, group, _ in spans.SITES for s in group] + [s for _, s in spans.COUNTED]
wrapped = [s for s in sites if hasattr(
    getattr(importlib.import_module("riskpmp." + s.split(":")[0]), s.split(":")[1]), "__wrapped__")]
print(json.dumps({"sites": sites, "wrapped": wrapped}))
"""


def test_benchmark_span_sites_resolve():
    proc = subprocess.run([sys.executable, "-c", CHILD, str(SPANS)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["sites"] and out["wrapped"] == out["sites"]
