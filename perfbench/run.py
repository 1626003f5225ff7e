"""Benchmark of the riskpmp command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  A closed loop with one client runs the workload as a
``python -m riskpmp <verb>`` child process, the next run starting after the
previous one exits, until ``--seconds`` have passed and at least three
runs were made (reruns are compared byte for byte; three give a median).
Every run gets a fresh output directory, is checked (see workloads.py) and
then deleted.

With ``--trace 0`` the last line reports the end-to-end metrics, each the
median over the runs.  With ``--trace 1`` only three untraced runs are made,
whatever ``--seconds`` says (they give the rerun check and the untraced
wall behind ``trace.overhead_s``), then one traced in-process run
(spans.py), and the last line reports the per-layer metrics.  Earlier lines
give the environment, one line per run and every metric by name and unit,
including ``error_rate``, which the result carries as ``failed`` /
``attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, artifact_bytes, artifact_digest, check_run, load_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
MIN_RUNS = 3

END_TO_END = [
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


class BenchError(Exception):
    """The benchmark cannot measure at all; it exits without a result."""


@dataclass
class Run:
    label: str
    wall_s: float
    exit_code: int
    peak_rss_mb: float
    artifact_mb: float
    digest: str | None
    problems: list = field(default_factory=list)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv, cwd, env):
    """Run a child to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6


def measure_setup(env, cwd, repeats):
    """Median wall time of a fresh interpreter that only imports riskpmp.cli.

    Each import also reports where riskpmp came from, which must be this
    checkout's src/.
    """
    argv = [sys.executable, "-c", "import riskpmp.cli, sys; sys.stdout.write(riskpmp.cli.__file__)"]
    expected = (SRC / "riskpmp" / "cli.py").resolve()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        probe = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
        times.append(time.perf_counter() - start)
        if probe.returncode != 0 or Path(probe.stdout).resolve() != expected:
            raise BenchError(f"cannot import riskpmp.cli from {SRC}: {probe.stderr.strip()[-500:]}")
    return statistics.median(times)


def run_once(label, wl, seed, work, env, reference, spans_path=None):
    """One checked run of the workload; its output directory is removed after."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    args = wl.argv("scenario.json", "out")
    if spans_path is None:
        argv = [sys.executable, "-m", "riskpmp"] + args
    else:
        argv = [sys.executable, str(Path(spans.__file__).resolve()), str(spans_path)] + args
    wall, code, rss = spawn(argv, work, env)
    problems = check_run(wl, seed, code, out, reference)
    digest = artifact_digest(out) if out.is_dir() else None
    size = artifact_bytes(out) / 1e6 if out.is_dir() else 0.0
    shutil.rmtree(out, ignore_errors=True)
    if problems:
        tail = (work / "stderr.txt").read_text(errors="replace").strip()[-2000:]
        print(f"{label}: {'; '.join(problems)}\n{tail}", file=sys.stderr)
    return Run(label, wall, code, rss, size, digest, problems)


def require_same_artifacts(run, like, why):
    if run.digest != like.digest:
        run.problems.append(f"artifacts differ from {like.label} ({why})")


def timed_runs(wl, seed, seconds, work, env, reference):
    runs = []
    start = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
        run = run_once(f"run {len(runs) + 1}", wl, seed, work, env, reference)
        if runs:
            require_same_artifacts(run, runs[0], "rerun")
        runs.append(run)
    return runs


def end_to_end_metrics(runs, setup_s):
    values = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_pass(wl, seed, work, env, reference, untraced):
    """One traced run; it must leave the same artifacts as the untraced runs."""
    spans_path = work / "spans.json"
    spans_path.unlink(missing_ok=True)
    traced = run_once("traced", wl, seed, work, env, reference, spans_path=spans_path)
    require_same_artifacts(traced, untraced[0], "traced")
    if not spans_path.is_file():
        raise BenchError("the traced run wrote no spans")
    doc = json.loads(spans_path.read_text())
    doc["wall_s"] = traced.wall_s
    doc["artifact_mb"] = traced.artifact_mb
    return traced, spans.layer_metrics(doc, statistics.median(r.wall_s for r in untraced))


def _openblas():
    import numpy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except FileNotFoundError:
        return None
    return out.stdout.strip() or None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
        "src_riskpmp_lines": sum(len(p.read_text().splitlines())
                                 for p in sorted((SRC / "riskpmp").glob("*.py"))),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="scenario seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(args):
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    if not (SRC / "riskpmp" / "cli.py").is_file():
        raise BenchError(f"no riskpmp sources under {SRC}")
    work = WORK / wl.name
    work.mkdir(parents=True, exist_ok=True)
    (work / "scenario.json").write_text(json.dumps(wl.scenario(seed), indent=2) + "\n")
    env = child_env()
    print(json.dumps({"environment": environment(), "workload": wl.name, "seed": seed}))
    reference = load_reference()
    setup_s = measure_setup(env, work, 1 if args.trace else SETUP_REPEATS)
    runs = timed_runs(wl, seed, 0.0 if args.trace else args.seconds, work, env, reference)
    if args.trace:
        traced, metrics = traced_pass(wl, seed, work, env, reference, runs)
        runs.append(traced)
    else:
        metrics = end_to_end_metrics(runs, setup_s)

    for r in runs:
        verdict = "ok" if not r.problems else "FAILED: " + "; ".join(r.problems)
        print(f"{r.label}: wall {r.wall_s:.3f} s, exit {r.exit_code}, "
              f"peak rss {r.peak_rss_mb:.1f} MB, artifacts {r.artifact_mb:.6f} MB, {verdict}")
    failed = sum(1 for r in runs if r.problems)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    if not args.trace:
        print(f"artifact_mb = {runs[0].artifact_mb!r} MB")
    print(f"error_rate = {failed / len(runs)!r} ratio ({failed} of {len(runs)} runs failed)")
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        result = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
