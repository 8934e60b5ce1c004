"""Runs one workload of the (k,h)-core benchmark and prints its result.

    python3 perfbench/run.py --workload comm-dense-h3 --seed 1 --seconds 30 --trace 0

from the repository root. It builds the program and the benchmark from
source (see build.py), runs perfbench.Main in one JVM and checks its result:
the last stdout line is one JSON object with the keys correct, attempted,
failed and metrics, whose metric names and units must be exactly the
end-to-end (--trace 0) or per-layer (--trace 1) metrics of BENCHMARK.json.
The exit code is 0 only for a correct, complete result.
"""
import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import build  # noqa: E402

ROOT = build.ROOT
TIMEOUT_S = 170
HEAP = "3g"

# The add-opens set spark-class passes on JDK 17 (as in build.sbt).
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
         "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
         "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--graph-seed", type=int, help="generator seed (default: the Datasets analog's)")
    a = ap.parse_args()

    try:
        build.build()
        cp = build.classpath()
    except build.BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2
    out = build.OUT / "run"
    (out / "tmp").mkdir(parents=True, exist_ok=True)

    # -UsePerfData: the JVM would otherwise write its counters to /tmp.
    cmd = ["java", "-XX:-UsePerfData", f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={out / 'tmp'}",
           f"-Dlog4j2.configurationFile={ROOT / 'perfbench' / 'log4j2.properties'}"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
    cmd += ["-cp", cp, "perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", a.trace, "--out", str(out)]
    if a.graph_seed is not None:
        cmd += ["--graph-seed", str(a.graph_seed)]

    env = dict(os.environ, SPARK_LOCAL_DIRS=str(out / "spark" / "local"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"benchmark exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").splitlines()
    if not lines:
        print(f"benchmark printed nothing (exit {proc.returncode})", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"last line is not JSON: {lines[-1]!r}", file=sys.stderr)
        return 1

    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if a.trace == "1" else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(k for k in set(wanted) & set(got) if wanted[k] != got[k])
        print(f"result does not match BENCHMARK.json: missing {missing}, extra {extra}, "
              f"unit differs {units}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    if proc.returncode != 0 or result["correct"] is not True or result["failed"] != 0:
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
