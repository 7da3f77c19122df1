#!/usr/bin/env python3
"""Benchmark of the Hercules pipeline (repro.spark.Distributed over repro.core).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run builds the program and the harness from source with sbt into
.bench_build/ (later runs reuse that build while the sources are unchanged),
then launches one JVM that sets up the workload, measures it and prints the
result; its last line of standard output is one JSON object. Workloads and
metrics are listed in BENCHMARK.json; perfbench/README.md explains them.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
PROGRAM = ROOT / "src" / "main" / "scala"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# The parallel collector's short young pauses keep call latencies steadier
# from run to run than the default G1 does.
JVM_OPTS = ["-Xmx3g", "-XX:+UseParallelGC"]
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash():
    """Hash of every input of the build: program sources and harness."""
    h = hashlib.sha256()
    inputs = [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for tree in (PROGRAM, BENCH / "src"):
        inputs += sorted(p for p in tree.rglob("*") if p.is_file())
    for p in inputs:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build():
    """Compile with sbt unless the sources match the last build; return the classpath."""
    stamp, cp_file = BUILD / "stamp", BUILD / "classpath"
    digest = source_hash()
    if stamp.exists() and cp_file.exists() and stamp.read_text() == digest:
        return cp_file.read_text().strip()
    tmp = BUILD / "tmp" / "sbt"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false",
           f"-Dsbt.global.base={BUILD / 'sbt-global'}", f"-Djava.io.tmpdir={tmp}",
           "compile", "export Runtime/fullClasspath"]
    code, out = run_bounded(cmd, BUILD_TIMEOUT_S, cwd=BENCH, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    (BUILD / "build.log").write_text(out)
    lines = [l for l in out.splitlines() if "classes" in l and os.pathsep in l and not l.startswith("[")]
    if code != 0 or not lines:
        sys.stderr.write(out[-4000:])
        fail(f"build failed (exit {code}); log in {BUILD / 'build.log'}")
    cp_file.write_text(lines[-1].strip())
    stamp.write_text(digest)
    return lines[-1].strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--scale", type=float, default=1.0, help="dataset size multiplier (smoke runs)")
    args = ap.parse_args()

    if not (PROGRAM / "repro" / "spark" / "Distributed.scala").is_file():
        fail(f"program sources not found under {PROGRAM}; run from a full checkout")
    BUILD.mkdir(exist_ok=True)
    classpath = build()

    work = BUILD / "tmp" / f"run-{os.getpid()}"
    (work / "jvm").mkdir(parents=True, exist_ok=True)
    java = Path(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [str(java), *JVM_OPTS, f"-Djava.io.tmpdir={work / 'jvm'}",
           *[f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS],
           "-cp", classpath, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--scale", str(args.scale),
           "--work-dir", str(work), "--out-dir", str(BUILD / "results")]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(work / "spark"))
    try:
        code, _ = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        fail(f"benchmark JVM exited with {code}")


if __name__ == "__main__":
    main()
