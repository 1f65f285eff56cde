#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <sweep-cold|sweep-warm|broker>
                             --seed N --seconds S --trace <0|1>

Run it from the repository root. It builds the `arcs-perfbench` package
(into $CARGO_TARGET_DIR, default `.bench_build`), runs one workload for
S seconds, stamps the result with the host it ran on, appends both to
`perfbench/out/results.jsonl`, and prints the result JSON as the last
line of standard output. Any build or run failure exits non-zero
without printing a result.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["sweep-cold", "sweep-warm", "broker"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")
    return args


def steal_ticks():
    """Steal ticks summed over all CPUs, from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def command_output(argv, env=None):
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=30, cwd=ROOT, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_stamp(steal_delta):
    # Stop git at the checkout root so an enclosing repository never
    # lends this checkout its revision.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "steal_ticks": steal_delta,
        "rustc": command_output(["rustc", "-V"]),
        "git_rev": command_output(["git", "rev-parse", "--short", "HEAD"], env=git_env),
    }


def main():
    args = parse_args()
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build did not finish: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    out_dir = os.path.join(ROOT, "perfbench", "out")
    tmp = os.path.join(out_dir, f"tmp-{os.getpid()}")
    binary = os.path.join(target, "release", "arcs-perfbench")
    argv = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp,
    ]
    # One malloc arena: short-lived worker threads otherwise draw arenas
    # in whatever order earlier threads exited, and peak RSS would vary
    # by several MB between identical runs. Large blocks come from the
    # heap and freed memory stays there, so a pass does not fault in
    # fresh pages for what the last pass freed: page faults cost what
    # the hypervisor happens to charge, and made `sweep-cold`, which
    # builds a new memo cache every pass, twice as unsteady.
    run_env = dict(
        os.environ,
        MALLOC_ARENA_MAX="1",
        MALLOC_MMAP_THRESHOLD_=str(32 << 20),
        MALLOC_TRIM_THRESHOLD_=str(4 << 30),
    )
    steal0 = steal_ticks()
    started = time.time()
    try:
        run = subprocess.run(
            argv, cwd=ROOT, env=run_env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: run did not finish: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    steal1 = steal_ticks()
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run exited with {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(run.stdout)
        print("perfbench: the run printed no result line", file=sys.stderr)
        return 1

    steal = None if steal0 is None or steal1 is None else steal1 - steal0
    host = host_stamp(steal)
    record = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "result": result,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print("\n".join(lines[:-1]))
    print("  host " + json.dumps(host, sort_keys=True))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
