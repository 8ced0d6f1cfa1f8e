#!/usr/bin/env python3
"""Run one SLIM benchmark workload.

    python3 perfbench/run.py --workload cab-brute --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run builds the repository and the
harness with sbt (offline) and caches the runtime classpath under
`.bench_build/`; later runs start the JVM directly. The harness prints a
human-readable report, then one JSON result line, which this script checks
and prints last.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A run, including a first-run build, must end well inside the caller's limits.
BUILD_TIMEOUT_S = 840
RUN_LIMIT_S = 170
# The Spark runs use the C1 compiler only. Under the default tiered JIT, C2
# compiles Spark's code for minutes (143 s of C2 time in a 110 s run on 4
# cores), so each call is faster than the one before (8.1 s to 4.9 s over ten
# cab-brute calls) and no timed window fits in a run; under C1 the calls are
# flat after one warm-up. So end-to-end and span times cannot show a gain that
# needs C2. The in-core kernels run in a child JVM under the default JIT
# (Kernels.scala). A pre-touched fixed heap keeps first-touch page faults out
# of the timed calls.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch", "-XX:TieredStopAtLevel=1"]
# Java 17 module openings Spark needs (the same set spark-submit passes).
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")
]
BUILD_INPUTS = ["build.sbt", "project/build.properties", "src/main", "jobs",
                "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src/main"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_stamp():
    h = hashlib.sha256()
    for rel in BUILD_INPUTS:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def classpath():
    """Build if the sources changed since the cached classpath, and return it."""
    stamp = source_stamp()
    stamp_file = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath")
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as f, open(cp_file) as g:
            if f.read() == stamp:
                return g.read()
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
    if "SBT_OPTS" not in env and os.path.isfile(repos):
        # Resolve offline through the user's sbt repositories file.
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.offline=true "
                           "-Dsbt.repository.config=" + repos)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "export perfbench/Runtime/fullClasspath"]
    try:
        out = subprocess.run(cmd, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
                             capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        fail("build failed")
    cp = lines[-1].strip()
    if not all(os.path.exists(p) for p in cp.split(os.pathsep)):
        fail("build did not produce a usable classpath: " + cp[:200])
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    start = time.monotonic()
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        fail("no SLIM sources next to the benchmark (expected build.sbt and src/main/scala)")
    cp = classpath()

    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Spark set-up is pinned inside the harness; SPARK_* variables must not change it.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPARK_")}
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java] + JVM_OPTS + JAVA_OPENS + ["-Djava.io.tmpdir=" + tmp, "-cp", cp, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--build-dir", BUILD]
    limit = max(RUN_LIMIT_S - (time.monotonic() - start), 30)
    # Its own process group, so a timeout also stops the kernel-timing child JVM.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % limit, 1)
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("harness exited with %d" % proc.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("harness printed no result line", 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.stdout.write(out)
        fail("malformed result line", 1)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
