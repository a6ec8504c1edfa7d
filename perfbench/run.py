#!/usr/bin/env python3
"""One benchmark run of one workload: build, run, check, report.

    python3 perfbench/run.py --workload serve-meanfield-1m --seed 7 \
        --seconds 10 --trace 0

Run from the repository root.  The first run builds olevd and the harness
from source into .bench_build/perfbench (CMake, Release); later runs only
re-check the build.  The workload's options come from perfbench/workloads.json
and the metric names from BENCHMARK.json: --trace 0 reports every end-to-end
metric, --trace 1 every per-layer metric.

Output: one line per metric (name, value, unit, sample count), one
provenance line, and as the last line a JSON object with the keys correct,
attempted, failed and metrics.  The full record (failure breakdown, phases,
admin-plane snapshots) is written under .bench_build/perfbench/records/.

Exit status: 0 when every output check passed; 1 on a failed check (the
result line is still printed, with "correct": false) or a build failure;
3 when the generator fell behind its schedule and the run is not scored (no
result line).
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = Path(".bench_build") / "perfbench"
HARNESS_TIMEOUT_S = 165


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds olevd and the harness; quiet unless it fails."""
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "olevd", "olev_perfbench"])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                # A failed configure must not leave a cache that skips it next time.
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                tail = build_log.read_text(errors="replace").splitlines()[-25:]
                log("build failed:\n" + "\n".join(tail))
                return None, None
    olevd = BUILD / "olev" / "tools" / "olevd"
    harness = BUILD / "olev_perfbench"
    if not olevd.exists() or not harness.exists():
        log("build produced no olevd / olev_perfbench")
        return None, None
    return olevd, harness


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout may not be
    a git repository, so the commit is identified by content)."""
    digest = hashlib.sha256()
    roots = [Path("src"), Path("tools"), HERE]
    files = [Path("CMakeLists.txt")]
    for root in roots:
        files.extend(p for p in root.rglob("*") if p.is_file())
    for path in sorted(set(files)):
        digest.update(str(path).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not Path(".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return done.stdout.strip() or None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def compiler():
    cache = BUILD / "CMakeCache.txt"
    match = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$",
                      cache.read_text(errors="replace"), re.M)
    if not match:
        return "unknown"
    done = subprocess.run([match.group(1), "--version"], capture_output=True,
                          text=True)
    return (done.stdout.splitlines() or ["unknown"])[0]


def histogram_p50(hist):
    """Median of an obs histogram snapshot (upper bucket bounds + counts),
    interpolated linearly inside the bucket that holds it."""
    bounds, counts = hist.get("bounds", []), hist.get("counts", [])
    total = sum(counts)
    if total == 0:
        return 0.0
    target, seen, lower = total / 2.0, 0, 0.0
    for i, count in enumerate(counts):
        upper = bounds[i] if i < len(bounds) else lower
        if count and seen + count >= target:
            return lower + (upper - lower) * (target - seen) / count
        seen += count
        lower = upper
    return lower


def admin_layer_metrics(details):
    """Per-layer numbers from olevd's own admin plane (end of run)."""
    metrics = details.get("admin_metrics")
    engine = details.get("admin_engine")
    if metrics is None or engine is None:  # offline-solve: no server
        return {name: (0.0, unit, 0) for name, unit in (
            ("svc.write_p50_us", "us"), ("svc.batch_size_mean", "count"),
            ("svc.batches", "count"), ("svc.retry_later", "count"),
            ("svc.deadline_expired", "count"))}
    hists = metrics.get("histograms", {})
    counters = metrics.get("counters", {})
    write = hists.get("svc.phase.write_us", {})
    size = hists.get("svc.batch.size", {})
    size_count = size.get("count", 0)
    return {
        "svc.write_p50_us": (histogram_p50(write), "us", write.get("count", 0)),
        "svc.batch_size_mean": (size.get("sum", 0.0) / size_count if size_count else 0.0,
                                "count", size_count),
        "svc.batches": (float(engine.get("batches", 0)), "count", 1),
        "svc.retry_later": (float(counters.get("svc.requests.retry_later", 0)), "count", 1),
        "svc.deadline_expired": (float(counters.get("svc.requests.expired", 0)), "count", 1),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    try:
        bench = json.loads(Path("BENCHMARK.json").read_text())
        spec = json.loads((HERE / "workloads.json").read_text())["workloads"][args.workload]
    except (OSError, KeyError, ValueError) as error:
        log(f"cannot load workload {args.workload!r}: {error!r}")
        return 1
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    olevd, harness = build()
    if harness is None:
        return 1
    build_s = time.monotonic() - started

    workdir = BUILD / "work"
    records = BUILD / "records"
    workdir.mkdir(parents=True, exist_ok=True)
    records.mkdir(parents=True, exist_ok=True)
    for stale in workdir.glob("*journal-*.bin"):  # left by a killed run
        stale.unlink()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = workdir / f"{tag}.json"
    out.unlink(missing_ok=True)
    command = [str(harness), "--kind", spec["kind"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(out), "--workdir", str(workdir)]
    if spec["kind"] == "serve":
        command += ["--olevd", str(olevd)]
    for key, value in spec.get("options", {}).items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        command += [f"--{key}", str(value)]
    try:
        done = subprocess.run(command, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {HARNESS_TIMEOUT_S} s")
        return 1
    if done.returncode != 0 or not out.exists():
        log(f"harness failed with status {done.returncode}")
        return 1
    result = json.loads(out.read_text())
    details = result["details"]

    metrics = {name: (m["value"], m["unit"], m["samples"])
               for name, m in result["metrics"].items()}
    if args.trace:
        metrics.update(admin_layer_metrics(details))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        log(f"harness did not report: {', '.join(missing)}")
        return 1
    mismatched = [m["name"] for m in wanted if metrics[m["name"]][1] != m["unit"]]
    if mismatched:
        log(f"unit differs from BENCHMARK.json: {', '.join(mismatched)}")
        return 1

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "build_type": "Release",
        "compiler": compiler(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "valid": result["valid"],
        "lateness_p99_us": details.get("lateness_p99_us"),
        "samples": {name: metrics[name][2] for name in (m["name"] for m in wanted)},
        "build_s": round(build_s, 3),
        "run_s": round(time.monotonic() - started - build_s, 3),
    }
    record = {"provenance": provenance, "result": result}
    (records / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for m in wanted:
        value, unit, samples = metrics[m["name"]]
        print(f"{m['name']:<28} {value:>16.6g} {unit:<6} (n={samples})")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({"provenance": provenance}))

    if not result["valid"]:
        log("generator fell behind its schedule; run not scored")
        return 3
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
