"""diriter benchmark: end-to-end CLI runs plus a separate traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from ./src).
Closed loop: one fresh CLI process at a time, each calling diriter.cli.main
on the seed's generated config. With --trace 0 it reports the end-to-end
metrics, with --trace 1 the per-layer ones (untraced and traced commands
alternate, so the tracing overhead is measured in the same run). The last line
of stdout is the result JSON; the line before it is the environment record.
Per-run records (and the spans of traced commands) go to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PROBES_PER_COMMAND = 4  # timed set-up runs before each untraced command, after one warm-up
MIN_COMMANDS = 2  # however long a command takes (one of each mode when tracing)
START_LIMIT_S = 120.0  # no command starts later than this, so a run ends well within 180 s
KILL_LIMIT_S = 170.0
THREAD_CAP = 1  # BLAS/OpenMP threads per command: the single-threaded baseline
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _llc_bytes() -> int | None:
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
        best = int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    return best


def environment(wl: workloads.Workload) -> dict:
    import numpy
    import scipy

    llc = _llc_bytes()
    array_bytes = 8 * wl.max_array_nodes
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_cap": {var: THREAD_CAP for var in THREAD_VARS},
        "llc_bytes": llc,
        "max_array_bytes": array_bytes,
        "bandwidth_note": "no bandwidth metric: the largest field is far below 4x the LLC"
        if llc and array_bytes < 4 * llc else "largest field reaches 4x the LLC",
    }


class Bench:
    def __init__(self, wl: workloads.Workload, seed: int, trace: int):
        self.wl = wl
        self.t_begin = time.monotonic()
        self.dir = ROOT / ".perfbench_runs" / f"{wl.name}-seed{seed}-trace{trace}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.ini"
        self.config.write_text(wl.ini, encoding="utf-8")
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update({var: str(THREAD_CAP) for var in THREAD_VARS})
        self.count = 0
        self.arc_cache: dict = {}  # solution digest -> arc error, so each output is parsed once
        self.first_digests: dict | None = None

    def child(self, mode: str) -> dict:
        """One fresh process; returns its result with the reaped peak RSS."""
        work = self.dir / f"cmd{self.count:03d}-{mode}"
        self.count += 1
        work.mkdir()
        result_path = work / "result.json"
        argv = [sys.executable, str(HERE / "child.py"), str(ROOT), str(result_path), mode, "--",
                self.wl.command, "--config", str(self.config), "--out", str(work / "out")]
        with open(work / "log.txt", "wb") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() - self.t_begin > KILL_LIMIT_S:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            log_tail = (work / "log.txt").read_text(errors="replace")[-2000:]
            result = {"mode": mode, "problems": [f"child exited {proc.returncode}: {log_tail}"]}
        result.update(work=work, t_spawn=t_spawn, peak_rss_mb=usage.ru_maxrss / 1024.0)
        result.setdefault("problems", [])
        return result

    def setup_probe(self) -> dict:
        res = self.child("setup")
        if "t_setup" in res:
            res["setup_s"] = res["t_setup"] - res["t_spawn"]
        elif not res["problems"]:
            res["problems"].append("the command never reached the solver")
        shutil.rmtree(res["work"])
        return res

    def command(self, mode: str) -> dict:
        res = self.child(mode)
        out = res["work"] / "out"
        if "rc" in res:
            try:
                problems, found = checks.check_command(self.wl, out, res["rc"], self.arc_cache)
            except (OSError, ValueError, KeyError) as exc:
                problems, found = [f"output check failed: {exc!r}"], {}
            res["problems"] += problems
            res.update(found)
            res["digests"] = checks.digests(out, self.wl.compared)
            if self.first_digests is None:
                self.first_digests = res["digests"]
            if res["digests"] != self.first_digests:
                res["problems"].append("outputs differ from the first run of this seed")
            res["out_bytes"] = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        if mode == "trace" and "spans" in res:
            res["layers"] = spans.derive(res)
        if not res["problems"]:
            shutil.rmtree(res["work"])
        return res


def _median(values):
    if not values:
        return 0.0
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def measure(wl: workloads.Workload, seed: int, seconds: float, trace: int) -> dict:
    bench = Bench(wl, seed, trace)
    modes = ("run", "trace") if trace else ("run",)
    # set-up probes only where setup_s is reported, spread between the timed
    # commands so that they sample the same host state as wall_s
    warmup = [] if trace else [bench.setup_probe()]
    probes: list[dict] = []
    results: list[dict] = []
    t0 = time.monotonic()
    while True:
        if not trace:
            probes += [bench.setup_probe() for _ in range(PROBES_PER_COMMAND)]
        results.append(bench.command(modes[len(results) % len(modes)]))
        elapsed = time.monotonic() - t0
        projected = elapsed + elapsed / len(results)
        if len(results) >= MIN_COMMANDS and projected > seconds:
            break
        if time.monotonic() - bench.t_begin + elapsed / len(results) > START_LIMIT_S:
            break

    everything = warmup + probes + results
    failed = sum(1 for r in everything if r["problems"])
    untraced = [r for r in results if r["mode"] == "run" and "wall_s" in r]
    traced = [r for r in results if "layers" in r]
    arc_errs = [r["arc_err"] for r in results if "arc_err" in r]
    if trace:
        keys = traced[0]["layers"] if traced else {}
        metrics = {k: _median([r["layers"][k] for r in traced]) for k in keys}
        metrics["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                       - _median([r["wall_s"] for r in untraced]))
        metrics["cli.out_bytes"] = _median([r.get("out_bytes", 0) for r in traced])
        metrics["check.arc_err"] = _median(arc_errs)
    else:
        metrics = {
            "wall_s": _median([r["wall_s"] for r in untraced]),
            "setup_s": _median([r["setup_s"] for r in probes if "setup_s" in r]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
            "pass_frac": 1.0 - failed / len(everything),
        }
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "config": wl.ini, "env": environment(wl), "metrics": metrics,
        "commands": [
            {k: v for k, v in r.items() if k not in ("spans", "events", "work")} for r in everything
        ],
    }
    record_path = bench.dir.with_suffix(".json")
    record_path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    if traced:
        rows = [[j, *s] for j, r in enumerate(results) if "spans" in r for s in r["spans"]]
        bench.dir.with_suffix(".spans.json").write_text(json.dumps(rows), encoding="utf-8")
    if not any(r["problems"] for r in everything):
        shutil.rmtree(bench.dir)
    return {"attempted": len(everything), "failed": failed, "metrics": metrics,
            "env": record["env"], "problems": [p for r in everything for p in r["problems"]]}


def declared(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks the workload for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "diriter" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'diriter'}", file=sys.stderr)
        return 2
    unit_of = declared(args.trace)
    wl = workloads.build(args.workload, args.seed, args.size)
    out = measure(wl, args.seed, args.seconds, args.trace)
    mismatch = sorted(set(unit_of) ^ set(out["metrics"]))
    if mismatch:
        out["problems"].append(f"measured metrics differ from BENCHMARK.json: {mismatch}")
    for problem in out["problems"][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"env": out["env"]}))
    print(json.dumps({
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        # a metric a failed run could not measure reads 0; the run is then not correct
        "metrics": {k: {"value": out["metrics"].get(k, 0.0), "unit": u} for k, u in unit_of.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
