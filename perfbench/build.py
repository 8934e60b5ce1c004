"""Build file of the benchmark package.

Compiles the program's main sources (src/main/scala) together with the
benchmark's own sources (perfbench/src) into .bench_build/perfbench/classes,
using the Scala compiler and the jars of the Spark distribution that the
main build (build.sbt) compiles against. Spark is found through SPARK_HOME,
or else through `spark-submit` on PATH. Recompiles only when a source
changed.

    python3 perfbench/build.py        # from the repository root
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAIN_SOURCES = ROOT / "src" / "main" / "scala"
BENCH_SOURCES = ROOT / "perfbench" / "src"
OUT = ROOT / ".bench_build" / "perfbench"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    home = os.environ.get("SPARK_HOME")
    if not home:
        exe = shutil.which("spark-submit")
        if not exe:
            raise BuildError("Spark not found: set SPARK_HOME or put spark-submit on PATH")
        home = str(Path(exe).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not list(jars.glob("scala-compiler-*.jar")):
        raise BuildError(f"no Scala compiler among the Spark jars in {jars}")
    return jars


def classpath() -> str:
    return f"{OUT / 'classes'}{os.pathsep}{spark_jars() / '*'}"


def sources() -> list:
    if not MAIN_SOURCES.is_dir():
        raise BuildError(f"{MAIN_SOURCES} is missing: run from a full checkout of the repository")
    files = sorted(MAIN_SOURCES.rglob("*.scala")) + sorted(BENCH_SOURCES.rglob("*.scala"))
    if not files:
        raise BuildError("no Scala sources found")
    return files


def build() -> Path:
    """Returns the classes directory, compiling first if a source changed."""
    files = sources()
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    stamp = digest.hexdigest()
    classes = OUT / "classes"
    stamp_file = OUT / "classes.sha256"
    if classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return classes

    jars = spark_jars()
    tmp = OUT / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    argfile = OUT / "sources.txt"
    argfile.write_text("\n".join(str(f) for f in files) + "\n")
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx1g", f"-Djava.io.tmpdir={OUT}",
           "-cp", str(jars / "*"), "scala.tools.nsc.Main", "-nowarn",
           "-d", str(tmp), "-cp", str(jars / "*"), f"@{argfile}"]
    print(f"compiling {len(files)} sources ...", file=sys.stderr)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BuildError("scalac failed")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp_file.write_text(stamp)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(2)
