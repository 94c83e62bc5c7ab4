#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The script mirrors the library sources
(lib/, bin/, dune-project) and the harness (perfbench/harness/) into a
private dune workspace under the build directory ($CARGO_TARGET_DIR,
default .bench_build), builds them in release mode, and runs the harness.
The harness measures the workload, runs its output checks and prints one
JSON result object as its last stdout line; this script checks that the
object names exactly the metrics BENCHMARK.json declares for the mode,
then passes it through.  Exit status: the harness's (0 = correct), 2 for
a checkout it cannot build, 3 for a run past its deadline, 4 for a
result that does not match BENCHMARK.json.
"""

import argparse
import filecmp
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = ["dune-project", "lib", "bin"]
RUN_DEADLINE_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def mirror(sources, dst):
    """Make directory dst hold exactly `sources` (entry name -> source
    path), rewriting only files whose bytes changed (so dune's
    incremental build stays incremental) and deleting entries the
    sources no longer have.  dune's own _build directory is left alone."""
    os.makedirs(dst, exist_ok=True)
    for name in os.listdir(dst):
        if name not in sources and name != "_build":
            path = os.path.join(dst, name)
            if os.path.isdir(path) and not os.path.islink(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    for name, src in sources.items():
        path = os.path.join(dst, name)
        if os.path.isdir(src):
            mirror({n: os.path.join(src, n) for n in os.listdir(src)}, path)
        elif not (os.path.isfile(path) and filecmp.cmp(src, path, shallow=False)):
            shutil.copyfile(src, path)


def build(workspace):
    missing = [s for s in SOURCES + ["docs/metrics.schema"] if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        fail(2, f"not a repository checkout (missing {', '.join(missing)})")
    if shutil.which("dune") is None:
        fail(2, "dune not found on PATH")
    sources = {s: os.path.join(ROOT, s) for s in SOURCES}
    sources["harness"] = os.path.join(HERE, "harness")
    mirror(sources, workspace)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "-j", "2",
           "./harness/bench.exe", "./bin/ripple_cli.exe"]
    proc = subprocess.run(cmd, cwd=workspace, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(2, "build failed")
    exe = os.path.join(workspace, "_build", "default")
    return os.path.join(exe, "harness", "bench.exe"), os.path.join(exe, "bin", "ripple_cli.exe")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail(4, "harness printed no result object")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(4, f"result keys {sorted(result)}")
    expected = expected_metrics(trace)
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            diff = sorted(set(got.items()) ^ set(expected.items()))
            fail(4, f"metrics differ from BENCHMARK.json: {diff}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bench, daemon = build(os.path.join(build_dir, "ws"))
    work = os.path.join(build_dir, "run")
    os.makedirs(work, exist_ok=True)

    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--work", work, "--daemon", daemon]
    # Own session, so a deadline can take down the harness and any
    # daemon it started in one signal.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_DEADLINE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(3, f"run exceeded {RUN_DEADLINE_S}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of a crashed harness
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if not lines:
        fail(4, f"harness printed nothing (exit {proc.returncode})")
    validate(lines[-1], args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
