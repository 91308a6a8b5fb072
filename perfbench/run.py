"""Benchmark of the moninf command line: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the workload's instances from the seed, then starts
one single-threaded worker process (worker.py) that imports `moninf`
from this checkout's `src/` and drives `moninf.cli.main(argv)` over the
workload's calls, pass after pass, for S seconds. Every report goes
through the output gate below. With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it runs an untraced and a traced
worker, S/2 seconds each, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full record (digests
of every report, per-call times, sample counts and the environment) goes
to .perfbench/results/. A missing source tree or a worker that dies
exits 1 without a result. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from reference import REFERENCE_S, mean_wall, time_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Interpreter starts timed for setup_s, half before and half after the
# worker: the host's speed drifts, and two groups a run apart see more of it.
SETUP_SAMPLES = 16
DEADLINE_S = 170
OK_STATUSES = {"pass", "not_applicable"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def measure_setup(samples: int) -> list[tuple[float, float]]:
    """Seconds from spawning a fresh interpreter to `import moninf.cli`
    done, raw and normalized by `reference()` timed around each start."""
    argv = [sys.executable, "-c",
            f"import sys; sys.path.insert(0, {str(SRC)!r}); import moninf.cli"]
    subprocess.run(argv, check=True)  # writes the bytecode cache, untimed
    times = []
    for _ in range(samples):
        before = time_reference()
        began = time.perf_counter()
        subprocess.run(argv, check=True)
        took = time.perf_counter() - began
        ref = mean_wall(before + time_reference())
        times.append((took, took * REFERENCE_S / ref))
    return times


def run_worker(plan: Path, out_dir: Path, seconds: float, traced: bool,
               deadline: float) -> dict:
    out_dir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "worker.py"), str(plan), str(out_dir),
            str(seconds), "1" if traced else "0"]
    with open(out_dir / "stdout.txt", "w") as out, \
            open(out_dir / "stderr.txt", "w") as err:
        try:
            proc = subprocess.run(argv, stdout=out, stderr=err, cwd=ROOT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker ran past the deadline: {exc}") from exc
    if proc.returncode != 0:
        tail = (out_dir / "stderr.txt").read_text()[-2000:]
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads((out_dir / "results.json").read_text())


def report_problems(call: dict, path: Path) -> list[str]:
    """Why a report fails the output gate (empty when it passes)."""
    text = path.read_text()
    if call["format"] == "text":
        statuses = re.findall(r"^  \[([a-z_]+)\] ", text, re.M)
        doc = None
    else:
        doc = json.loads(text)
        statuses = [check["status"] for check in doc.get("checks", [])]
    problems = [f"check status {s}" for s in statuses if s not in OK_STATUSES]
    if call["argv"][0] == "compute" and not statuses:
        problems.append("report lists no checks")
    if "oracle_trials" in call:
        if doc["counterexamples"]:
            problems.append(f"{len(doc['counterexamples'])} counterexamples")
        if doc["comparisons"] != call["oracle_trials"]:
            problems.append(f"{doc['comparisons']} comparisons, expected "
                            f"{call['oracle_trials']}")
    if "collinear" in call:
        line = call["collinear"]
        least = line["j"] - (line["q"] + 1)
        if doc["beta_used"][line["s"]] < least:
            problems.append(f"beta[{line['s']}] = {doc['beta_used'][line['s']]}"
                            f" below {least} forced by {line['j']} collinear"
                            " nodes")
    if call.get("canary") == "six_cusp_sextic":
        problems += sextic_problems(doc)
    return problems


def sextic_problems(doc: dict) -> list[str]:
    """The six-cusp sextic: 113 dimensions, five size-2 blocks at each
    primitive 6th root of unity, six size-1 blocks at each primitive 30th."""
    blocks = {row["eigenvalue"]: row["blocks"] for row in doc["jordan"]}
    problems = []
    if doc["total_dim"] != 113:
        problems.append(f"sextic dimension {doc['total_dim']}, expected 113")
    for root in ("1/6", "5/6"):
        if blocks.get(root, []).count(2) != 5:
            problems.append(f"sextic blocks at {root}: {blocks.get(root)}")
    for k in (1, 7, 11, 13, 17, 19, 23, 29):
        if blocks.get(f"{k}/30") != [1] * 6:
            problems.append(f"sextic blocks at {k}/30: {blocks.get(f'{k}/30')}")
    return problems


def gate(calls: list[dict], executions: list[list[dict]],
         reports: list[Path]) -> tuple[int, int, list[str], list[str]]:
    """Attempted and failed counts, problems and digests, call by call.

    A call fails when its exit code is not 0, when its report differs
    from the first one it produced, or on every execution when that
    report fails `report_problems`.
    """
    attempted = failed = 0
    problems, digests = [], []
    for index, (call, runs, report) in enumerate(zip(calls, executions, reports)):
        digest = runs[0]["sha256"]
        digests.append(digest)
        attempted += len(runs)
        bad = [r for r in runs if r["code"] != 0 or r["sha256"] != digest]
        found = [f"exit code {r['code']}" for r in bad if r["code"] != 0]
        if len(bad) > len(found):
            found.append("report bytes differ between executions")
        if runs[0]["code"] == 0 and report.exists():
            content = report_problems(call, report)
            if content:
                bad = runs
            found += content
        failed += len(bad)
        problems += [f"call {index} ({' '.join(call['argv'][:1])}): {p}"
                     for p in dict.fromkeys(found)]
    return attempted, failed, problems, digests


def call_medians(results: list[dict], key: str,
                 ref_key: str | None = None) -> list[float]:
    """Each call's median of `key` over the passes of `results`.

    With `ref_key`, each execution's `key` is first normalized: divided
    by its `ref_key`, the time of `reference()` around that execution, and
    multiplied by REFERENCE_S (see reference.py).
    """
    passes = [p for r in results for p in r["passes"]]
    scale = (lambda c: REFERENCE_S / c[ref_key]) if ref_key else \
        (lambda c: 1.0)
    return [statistics.median(p["calls"][i][key] * scale(p["calls"][i])
                              for p in passes)
            for i in range(len(passes[0]["calls"]))]


def per_pass(results: list[dict], key: str,
             ref_key: str | None = None) -> float:
    """A pass's total of `key`, as the sum over calls of each call's median."""
    return sum(call_medians(results, key, ref_key))


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "bytes" if metric.endswith("_bytes") else "count"


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        small: bool = False) -> dict:
    """One benchmark run; returns the full record."""
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "moninf" / "cli.py").is_file():
        raise BenchError(f"no moninf source tree at {SRC}")
    tag = f"{workload}-seed{seed}-trace{int(trace)}" + ("-small" if small else "")
    work = ROOT / ".perfbench" / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    (work / "instances").mkdir(parents=True)
    calls = workloads.build(workload, seed, work / "instances", small=small)
    untimed = [workloads.canary_call(ROOT)]
    plan = work / "plan.json"
    plan.write_text(json.dumps({"src": str(SRC), "untimed": untimed,
                                "calls": calls}, indent=1))

    setup = [] if trace else measure_setup(SETUP_SAMPLES // 2)
    sides = [False, True] if trace else [False]
    share = seconds / len(sides)
    results = [run_worker(plan, work / ("traced" if traced else "untraced"),
                          share, traced, deadline) for traced in sides]
    if not trace:
        setup += measure_setup(SETUP_SAMPLES - len(setup))

    executions = [[r["untimed"][i] for r in results] for i in range(len(untimed))]
    executions += [[p["calls"][i] for r in results for p in r["passes"]]
                   for i in range(len(calls))]
    reports = [work / "untraced" / f"untimed{i}.out" for i in range(len(untimed))]
    reports += [work / "untraced" / f"call{i}.out" for i in range(len(calls))]
    attempted, failed, problems, digests = gate(untimed + calls, executions,
                                                reports)

    if trace:
        layers = [p["layers"] for p in results[1]["passes"]]
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        values["trace.overhead_s"] = (
            per_pass(results[1:], "wall_s", "ref_wall_s")
            - per_pass(results[:1], "wall_s", "ref_wall_s"))
        samples = dict.fromkeys(values, len(layers))
    else:
        values = {"norm_wall_s": per_pass(results, "wall_s", "ref_wall_s"),
                  "norm_cpu_s": per_pass(results, "cpu_s", "ref_cpu_s"),
                  "peak_rss_mb": results[0]["peak_rss_mb"],
                  "setup_s": statistics.median(norm for _, norm in setup)}
        samples = {"norm_wall_s": len(results[0]["passes"]),
                   "norm_cpu_s": len(results[0]["passes"]),
                   "peak_rss_mb": 1, "setup_s": len(setup)}
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in values.items()},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "samples": samples,
        "problems": problems,
        "digests": [{"argv": [a.replace(str(work) + os.sep, "").replace(
                         str(ROOT) + os.sep, "") for a in c["argv"]],
                     "sha256": d} for c, d in zip(untimed + calls, digests)],
        "wall_s": [per_pass([r], "wall_s") for r in results],
        "cpu_s": [per_pass([r], "cpu_s") for r in results],
        "reference_wall_s": [statistics.median(
            c["ref_wall_s"] for p in r["passes"] for c in p["calls"])
            for r in results],
        "call_wall_s": [call_medians([r], "wall_s") for r in results],
        "call_cpu_s": [call_medians([r], "cpu_s") for r in results],
        "setup_s": [norm for _, norm in setup],
        "raw_setup_s": [raw for raw, _ in setup],
        "patched": results[-1]["patched"],
        "environment": {"git_sha": git_sha(), "python": results[0]["python"],
                        "nproc": os.cpu_count()},
    }
    if not problems:
        shutil.rmtree(work)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out = ROOT / ".perfbench" / "results" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"full record: {out.relative_to(ROOT)}")
    for problem in record["problems"]:
        print(f"gate: {problem}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
