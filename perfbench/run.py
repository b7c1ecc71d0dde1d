#!/usr/bin/env python3
"""Run one benchmark workload against the checkout this file sits in.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run builds the program and the
benchmark runner with sbt (offline) into the checkout's build directories;
later runs reuse that build while no source file has changed. The runner
itself is a forked JVM (`perfbench.Main`), because in-process Spark under
sbt mis-parses core-default.xml.

The metrics reported are those BENCHMARK.json lists: end_to_end with
--trace 0, per_layer with --trace 1. The JVM prints a report (environment
record, per-op times and digests, every metric by name and unit, failed
checks) and, as its last line, one JSON object with the keys correct,
attempted, failed and metrics. This script checks that object against
BENCHMARK.json, relays the report, and prints the object as the last line.
Exit status: 0 if every check passed, 1 if a check failed, 2 if the run
could not be made (bad arguments, no program sources, build failure,
timeout).
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent

WORKLOADS = ("spark-query", "abae-trials", "ext-trials")
HEAP = ["-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch"]
TIME_LIMIT_S = 175
RESCALING_VARS = ("ABAE_BENCH_SF", "ABAE_BENCH_TRIALS")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp(root):
    """Hash of every file the build reads: program, build files, runner."""
    h = hashlib.sha256()
    paths = [root / "build.sbt"]
    for d in (root / "project", root / "src" / "main", root / "jobs", HERE / "src", HERE / "project"):
        paths += sorted(p for p in d.rglob("*") if p.is_file() and "target" not in p.relative_to(root).parts)
    paths += [HERE / "build.sbt"]
    for p in paths:
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def sbt_opts():
    opts = os.environ.get("SBT_OPTS", "").split()
    repos = pathlib.Path.home() / ".sbt" / "repositories"
    if not any(o.startswith("-Dsbt.offline") for o in opts):
        opts.append("-Dsbt.offline=true")
    if repos.is_file() and not any(o.startswith("-Dsbt.repository.config") for o in opts):
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    return " ".join(opts)


def build(root, out, deadline):
    """Compile with sbt unless the stamp matches; return the classpath."""
    stamp_file, cp_file = out / "stamp", out / "classpath"
    stamp = source_stamp(root)
    if stamp_file.is_file() and cp_file.is_file() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    env = dict(os.environ, SBT_OPTS=sbt_opts(), COURSIER_MODE="offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={out / 'sbt-global'}", "export Runtime/fullClasspath"]
    print("perfbench: building with sbt", file=sys.stderr)
    code, stdout = run_child(cmd, HERE, env, deadline)
    sys.stderr.write(stdout)
    if code != 0:
        fail(f"sbt build failed with exit code {code}")
    classpath = stdout.strip().splitlines()[-1].strip() if stdout.strip() else ""
    if "perfbench" not in classpath:
        fail("sbt did not print the runner's classpath")
    cp_file.write_text(classpath)
    stamp_file.write_text(stamp)
    return classpath


def run_child(cmd, cwd, env, deadline):
    """Run a child in its own process group; kill the group at the deadline.
    Child stderr passes through. Returns (exit code, captured stdout)."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish before the time limit")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    started = time.monotonic()

    for var in RESCALING_VARS:
        if var in os.environ:
            fail(f"{var} is set; it silently rescales the program's Harness, so the benchmark refuses to run")
    root = pathlib.Path.cwd()
    if not (root / "build.sbt").is_file() or not (root / "src" / "main" / "scala").is_dir():
        fail(f"{root} holds no program to build (no build.sbt or src/main/scala); run from a checkout root")
    if not (root / "BENCHMARK.json").is_file():
        fail(f"{root} has no BENCHMARK.json")

    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]}

    out = root / ".bench_build" / "perfbench"
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    classpath = build(root, out, started + 900)

    java = pathlib.Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    cmd = [str(java), *HEAP, "-XX:-UsePerfData", f"-Djava.io.tmpdir={out / 'tmp'}",
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out", str(out),
           "--metrics", ",".join(f"{k}:{u}" for k, u in wanted.items())]
    code, stdout = run_child(cmd, root, os.environ, time.monotonic() + TIME_LIMIT_S)

    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(stdout)
        fail(f"the runner exited with code {code} and printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result keys: {sorted(result)}")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    if got != wanted:
        fail(f"reported metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(wanted.items()))}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
