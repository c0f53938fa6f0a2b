"""Benchmark self-test: every workload in both modes, at a tiny size by default.

    python3 perfbench/selftest.py [--size full]

Checks that BENCHMARK.json is well formed, that the generator is a pure
function of the seed, and that each run is correct: its output checks pass
and it measured exactly the metrics BENCHMARK.json declares (run.py marks a
run incorrect otherwise). Prints every metric by name with its unit.
Tiny runs measure for 1 s; ``--size full`` runs the real workloads for
BENCHMARK.json's run_seconds (minutes). Exits 1 if any check failed, after
reporting all of them.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEED = 3
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> list[str]:
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"workloads {names} differ from the generator's {list(workloads.WORKLOADS)}")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload entry {w}")
    seen = set()
    for m in spec["end_to_end"] + spec["per_layer"]:
        keys = {"name", "unit", "better", "bound"} if m in spec["end_to_end"] else {"name", "unit", "better"}
        if set(m) != keys or not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            problems.append(f"metric entry {m}")
        if m["name"] in seen:
            problems.append(f"metric {m['name']} declared twice")
        seen.add(m["name"])
        if "bound" in m and not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']} is {m['bound']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    return problems


def check_generator() -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        configs = {workloads.build(name, seed).ini for seed in range(20)}
        if len(configs) != 20:
            problems.append(f"{name}: seeds do not vary the config")
        if workloads.build(name, 7).ini != workloads.build(name, 7).ini:
            problems.append(f"{name}: one seed gives two configs")
        for seed in range(200):
            H = workloads.build(name, seed).params.get("H")
            # existence of the arc: n |H| d / 2 < 1 with n = 2, d = 1
            if H is not None and not abs(H) < 1:
                problems.append(f"{name} seed {seed}: H = {H} outside the existence range")
    return problems


def check_run(name: str, trace: int, size: str, seconds: int) -> list[str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", str(trace), "--size", size]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{name} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: not correct: {proc.stderr[-2000:]}")
    for metric, v in result["metrics"].items():
        print(f"  {metric} = {v['value']:.6g} {v['unit']}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=("tiny", "full"), default="tiny")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.size == "full" else 1
    problems = check_spec(spec) + check_generator()
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            found = check_run(name, trace, args.size, seconds)
            print(f"{name} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
