"""Run one workload's CLI calls in this process, pass after pass.

Usage: python3 worker.py PLAN_JSON OUT_DIR SECONDS TRACE

The plan (written by run.py) names the source tree to import `moninf`
from, the untimed calls to make first and the calls of one pass. Each
call goes through `moninf.cli.main(argv)` with `--output` set to a file
in OUT_DIR; the worker times it, times `reference.reference()` just
before and just after it, then hashes the report outside the timed
region. Passes repeat until the next one would overrun SECONDS, but at
least MIN_PASSES of them unless that takes over 2 * SECONDS. With
TRACE = 1 the calls run under a Tracer and each pass records its
per-layer totals. The results go to OUT_DIR/results.json; run.py
checks them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import mean_cpu, mean_wall, time_reference

MIN_PASSES = 3


def _call(cli, call: dict, report: Path) -> dict:
    argv = call["argv"] + ["--output", str(report)]
    report.unlink(missing_ok=True)
    gc.collect()
    before = time_reference()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        code = cli.main(argv)
    except Exception:  # a crash fails this call's gate; the pass goes on
        traceback.print_exc()
        code = None
    cpu = time.process_time() - cpu
    wall = time.perf_counter() - wall
    around = before + time_reference()
    digest, size = hashlib.sha256(), 0
    if report.exists():
        with report.open("rb") as stream:
            for chunk in iter(lambda: stream.read(1 << 20), b""):
                digest.update(chunk)
                size += len(chunk)
    return {"code": code, "wall_s": wall, "cpu_s": cpu,
            "ref_wall_s": mean_wall(around), "ref_cpu_s": mean_cpu(around),
            "sha256": digest.hexdigest(), "bytes": size}


def main(argv: list[str]) -> int:
    plan_path, out_dir, seconds, traced = (
        Path(argv[0]), Path(argv[1]), float(argv[2]), argv[3] == "1")
    plan = json.loads(plan_path.read_text())
    src = Path(plan["src"])
    sys.path.insert(0, str(src))
    from moninf import cli
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"moninf imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = [out_dir / f"call{i}.out" for i in range(len(plan["calls"]))]

    untimed = [_call(cli, call, out_dir / f"untimed{i}.out")
               for i, call in enumerate(plan["untimed"])]
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
        began = time.perf_counter()
        calls = [_call(cli, call, report)
                 for call, report in zip(plan["calls"], reports)]
        record = {"wall_s": time.perf_counter() - began, "calls": calls}
        if tracer:
            record["layers"] = dict(tracer.totals,
                                    **{"cli.report_bytes": sum(
                                        c["bytes"] for c in calls)})
        passes.append(record)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        enough = len(passes) >= MIN_PASSES or elapsed > 2 * seconds
        if enough and elapsed + typical > seconds:
            break
    results = {
        "python": sys.version.split()[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "untimed": untimed,
        "passes": passes,
        "patched": tracer.patched if tracer else [],
    }
    (out_dir / "results.json").write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
