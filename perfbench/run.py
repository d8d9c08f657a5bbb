#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package from source (release profile, offline)
into $CARGO_TARGET_DIR (default `.bench_build`), runs one workload in a
process of its own for `--seconds` seconds, and prints two JSON lines:

* a stamp: commit, source digest, host core count, seed, sample counts
  and every metric's median and quartiles (also written under
  `<target>/perfbench/results/`);
* the result, always the last line: `correct`, `attempted`, `failed`
  and `metrics` (the end-to-end metrics of BENCHMARK.json untraced, the
  per-layer metrics traced).

Exits 0 only when the build succeeded, every metric was measured and the
correctness gate passed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names
    the code it measured even where there is no git metadata."""
    h = hashlib.sha256()
    paths = []
    for top in ("crates", "shims", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in files]
    paths += [os.path.join(ROOT, f) for f in ("Cargo.toml", "Cargo.lock")]
    for p in sorted(paths):
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; expected one of {', '.join(names)}")
        return 2
    expected = bench["per_layer"] if args.trace else bench["end_to_end"]

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # A cargo home inside the build directory keeps cargo's caches and
    # locks inside the checkout; the build needs no registry.
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_HOME=os.path.join(target, "cargo-home"))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 2
    if build.returncode != 0:
        log("build failed")
        return 2
    built_s = time.monotonic() - started

    work = os.path.join(target, "perfbench")
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work,
        "--reference-dir", os.path.join(HERE, "reference"),
    ]
    # 180 s per run, 900 s for the run that also compiled everything.
    limit = (890 if built_s > 30 else 175) - (time.monotonic() - started)
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {limit:.0f} s")
        return 2
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        log(f"workload exited with code {run.returncode}")
        return 2
    report = json.loads(lines[-1])

    measured = report["metrics"]
    for m in expected:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} ({m['unit']}) was not measured")
            return 2

    stamp = {
        "commit": commit(),
        "source_digest": source_digest(),
        "host_nproc": os.cpu_count(),
        "host_threads_seen": report["host_threads"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": report["rounds"],
        "traced_rounds": report["traced_rounds"],
        "trials_per_round": report["trials_per_round"],
        "timed_trials": report["timed_trials"],
        "measured_s": report["measured_s"],
        "digest": report["digest"],
        "reference": report["reference"],
        "problems": report["problems"],
        "trace_file": report["trace_file"],
        "metrics": {m["name"]: measured[m["name"]] for m in expected},
    }
    os.makedirs(os.path.join(work, "results"), exist_ok=True)
    out = os.path.join(
        work, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(out, "w") as f:
        json.dump(stamp, f, indent=1)
        f.write("\n")
    print(json.dumps({"stamp": stamp}))

    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {
            m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
            for m in expected
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
