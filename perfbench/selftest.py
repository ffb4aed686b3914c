"""Self-test of the benchmark's checks: each must be able to fail.

    python3 perfbench/selftest.py

For every workload, runs run.py with one expected verdict flipped and
requires exit code 1 and a result line with "correct": false.  Then copies
only BENCHMARK.json and perfbench/*.py into perfbench/out/bare/ and requires
run.py there to exit non-zero without printing a result, since there is no
program to measure.  Takes about half a minute (sweep7 runs its full sweep).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 180


def bench(cwd, workload, *extra):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "0", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main():
    failures = []
    for workload in WORKLOAD_NAMES:
        proc = bench(ROOT, workload, "--flip", "0")
        result = last_json(proc.stdout)
        ok = proc.returncode == 1 and result is not None and result["correct"] is False \
            and result["failed"] >= 1
        print("%-14s flipped verdict -> exit %d, result %s: %s"
              % (workload, proc.returncode, result and {k: result[k] for k in
                                                        ("correct", "attempted", "failed")},
                 "ok" if ok else "NOT DETECTED"))
        if not ok:
            failures.append(workload)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy2(path, bare / "perfbench")
    proc = bench(bare, WORKLOAD_NAMES[0])
    ok = proc.returncode != 0 and last_json(proc.stdout) is None
    print("%-14s without the program -> exit %d, stdout %r: %s"
          % ("bare", proc.returncode, proc.stdout[-80:], "ok" if ok else "NOT DETECTED"))
    shutil.rmtree(bare)
    if not ok:
        failures.append("bare")

    if failures:
        print("selftest FAILED: %s" % ", ".join(failures))
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
