#!/usr/bin/env python3
"""Quick self-test of the benchmark (about a minute on 4 cores):

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at scale 1, from the repository root
like a normal run, and checks that
  * an untraced run prints exactly the end_to_end metrics, with their units,
    and a traced run exactly the per_layer metrics, all checks passing;
  * an injected corrupt stats digest and an injected truncated run each
    make the run report failures (failed > 0, failed_frac > 0).
Exits non-zero on the first violation.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def run(workload: str, trace: int, *extra: str) -> tuple[dict, str]:
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "0.1",
                 "--trace", str(trace), "--scale", "1", *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.exit(f"FAIL {' '.join(cmd)} exited {out.returncode}:\n"
                 f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


def expect(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"FAIL {what}")
    print(f"ok   {what}")


def failed_frac(stdout: str) -> float:
    m = re.search(r"^check .*failed_frac=(\S+)", stdout, re.M)
    return float(m.group(1)) if m else -1.0


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, stdout = run(name, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={trace} prints every {key} "
                                f"metric with its unit")
            expect(result["correct"] and result["failed"] == 0
                   and failed_frac(stdout) == 0,
                   f"{name} trace={trace} passes its output checks")
            expect(re.search(r"^digest \S+ 0x[0-9a-f]{16} ", stdout, re.M)
                   is not None, f"{name} trace={trace} prints its digest")
        for fault in ("digest", "truncate"):
            result, stdout = run(name, 0, "--inject", fault)
            expect(not result["correct"] and result["failed"] > 0
                   and failed_frac(stdout) > 0,
                   f"{name} injected {fault} fault raises failed_frac")


if __name__ == "__main__":
    main()
