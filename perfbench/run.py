#!/usr/bin/env python3
"""End-to-end benchmark of the EL-Rec reproduction.

One run measures one workload:

    python3 perfbench/run.py --workload train-tt --seed 1 --seconds 20 --trace 0

It builds perfbench/ (and through it the repository's libraries) with CMake
into $CARGO_TARGET_DIR/cmake (default .bench_build/cmake), runs the program
with a pinned thread budget, and prints as its last stdout line one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics. The
line before it ("meta: {...}") records seed, thread counts, nproc and build
flags; the full report, chrome traces and the build log go to
<build dir>/out/.

    python3 perfbench/run.py --smoke

runs every workload at tiny sizes, traced and untraced, and checks the
output schema against BENCHMARK.json. It is the benchmark's own test.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build(build_dir, jobs):
    """Configures once, then builds elrec_perfbench (a no-op when up to date)."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "elrec_perfbench", "-j", str(jobs)])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-25:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({' '.join(cmd[:2])}); see {log_path}")
    binary = build_dir / "elrec_perfbench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def build_flags(build_dir):
    """The compile flags of one library source, from compile_commands.json."""
    try:
        entries = json.loads((build_dir / "compile_commands.json").read_text())
    except (OSError, ValueError):
        return "unknown"
    for entry in entries:
        if entry.get("file", "").endswith("core/eff_tt_table.cpp"):
            words = entry.get("command", "").split()
            keep = [w for w in words[1:] if w.startswith(("-O", "-m", "-f", "-D", "-g", "-std"))]
            return " ".join(keep)
    return "unknown"


def thread_budget():
    """Worker OpenMP team and scheduler workers, each plus one more thread
    (the server thread, the request generator), kept within nproc."""
    nproc = len(os.sched_getaffinity(0))
    per_role = max(1, min(2, nproc - 2))
    return nproc, per_role, per_role


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC_PATH}: {e}")


def run_program(binary, workload, seed, seconds, trace, tiny, out_dir):
    nproc, omp, workers = thread_budget()
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--omp", str(omp), "--serve-workers", str(workers),
           "--out", str(out_dir)]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, OMP_NUM_THREADS=str(omp))
    env.pop("ELREC_TRACING", None)
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{workload} exited with code {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail(f"{workload} printed no report")
    report = json.loads(lines[-1])
    report["meta"]["nproc"] = nproc
    return report


def select_metrics(spec, report, trace):
    """Exactly the metrics BENCHMARK.json declares for this mode, each with
    its declared unit. Returns (metrics, problems)."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, problems = {}, []
    for m in declared:
        got = report["metrics"].get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
            continue
        value = got["value"]
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not finite")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, problems


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec_problems(spec):
    """BENCHMARK.json against the benchmark contract."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys {sorted(spec)} != {sorted(keys)}")
        return problems
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad or repeated name {n}" for n in names
                 if not NAME.match(n) or names.count(n) > 1]
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("need 2 to 8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w.get('name')}: bad keys or why")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end_to_end {m.get('name')}: bad keys or bound")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per_layer {m.get('name')}: bad keys")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"{m['name']}: bad unit or better")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (unit s, lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    if not 1 <= len(spec["end_to_end"]) <= 16 or not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("metric counts out of range")
    return problems


def smoke(spec, binary, out_dir):
    problems = spec_problems(spec)
    for w in spec["workloads"]:
        for trace in (False, True):
            report = run_program(binary, w["name"], 1, 2, trace, True, out_dir)
            _, missing = select_metrics(spec, report, trace)
            bad = [c["name"] for c in report["checks"] if not c["ok"]]
            tag = f"{w['name']} trace={int(trace)}"
            problems += [f"{tag}: {p}" for p in missing]
            problems += [f"{tag}: check {c} failed" for c in bad]
            if not report["correct"] or report["attempted"] < 1:
                problems.append(f"{tag}: not correct")
            print(f"smoke {tag}: {len(report['metrics'])} metrics, "
                  f"{len(report['checks'])} checks", file=sys.stderr)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    root = build_root()
    binary = build(root / "cmake", jobs=len(os.sched_getaffinity(0)))
    out_dir = root / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        return smoke(spec, binary, out_dir)

    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"--workload must be one of {workloads}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    report = run_program(binary, args.workload, args.seed, seconds,
                        bool(args.trace), False, out_dir)
    report["meta"]["build_flags"] = build_flags(root / "cmake")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1))

    metrics, problems = select_metrics(spec, report, bool(args.trace))
    failed_checks = [c for c in report["checks"] if not c["ok"]]
    for c in failed_checks:
        print(f"perfbench: check {c['name']} failed: {c['detail']}", file=sys.stderr)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    for m, v in sorted(metrics.items()):
        print(f"{args.workload} {m} = {v['value']:.6g} {v['unit']}")
    print("meta: " + json.dumps(report["meta"], sort_keys=True))
    print(json.dumps({
        "correct": bool(report["correct"]) and not problems,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]) + len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
