#!/usr/bin/env python3
"""spiralbox benchmark harness.

    python3 perfbench/run.py --workload {fit,oracle,tables} --seed N --seconds S --trace {0,1}

Run from the repository root.  Each round of a workload is a fixed list of
`spiralbox` command lines generated from (workload, seed, round); it runs in a
fresh single-threaded worker process (worker.py), so every round starts with
the empty caches a CLI user starts with.  Rounds repeat while the next one is
expected to end within S seconds (at least one round).  Outputs are checked
against mpmath or against properties of the method (workloads.py) outside the
timed region.

--trace 0 prints the end-to-end metrics: medians over rounds, and for setup_s
over every worker started.  Times are given at a reference CPU speed, which
the worker samples as it runs (worker.SpeedProbe); the times as measured are
printed too.  --trace 1 runs each round twice on the inputs of
round 0, once plain and once with every public function wrapped
(tracer.py), and prints the per-layer metrics.  Metric names and units come
from BENCHMARK.json.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 7
COMMANDS = ("curve", "spectrum", "wavefunction", "oracle", "fit", "report", "hydrogen")


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Rounds of one workload: generation, workers, checks and the tallies."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        import workloads  # imports mpmath and spiralbox; SRC must be on sys.path

        self.workloads = workloads
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.start = time.monotonic()
        self.env = _worker_env()
        self.work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
        self.setups: list[float] = []
        self.attempted = 0
        self.failures: list[tuple[str, str, str | None]] = []  # (command, reason, known fault)

    def _remaining(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 0.0:
            raise HarnessError(f"run exceeded {DEADLINE_S:.0f} s")
        return left

    def _spawn(self, args: list[str], cwd: Path, stdout) -> tuple[float, subprocess.CompletedProcess]:
        """Start a worker, wait for it, and return its start time and the finished process."""
        with open(cwd / "stderr.txt", "w", encoding="utf-8") as err:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=cwd,
                                      env=self.env, stdout=stdout, stderr=err,
                                      timeout=self._remaining(), text=True)
            except subprocess.TimeoutExpired:
                raise HarnessError("worker did not finish before the run deadline") from None
        if proc.returncode != 0:
            tail = (cwd / "stderr.txt").read_text(encoding="utf-8")[-2000:]
            raise HarnessError(f"worker exited with {proc.returncode}:\n{tail}")
        return t_spawn, proc

    def probe_setup(self) -> None:
        probe_dir = self.work / "probe"
        probe_dir.mkdir(parents=True, exist_ok=True)
        t_spawn, proc = self._spawn(["--probe"], probe_dir, subprocess.PIPE)
        self._add_setup(json.loads(proc.stdout), t_spawn)

    def _add_setup(self, report: dict, t_spawn: float) -> None:
        self.setups.append((report["setup_end"] - t_spawn) * report["setup_speed_ratio"])

    def make_ops(self, round_index: int) -> list:
        rng = random.Random(f"{self.workload}:{self.seed}:{round_index}")
        return self.workloads.ROUNDS[self.workload](rng)

    def run_ops(self, ops: list, name: str, trace: bool, sweep_points: int = 0) -> dict:
        """Run one round in a fresh worker, then check every output."""
        d = self.work / name
        d.mkdir(parents=True)
        for op in ops:
            for fname, text in op.inputs.items():
                (d / fname).write_text(text, encoding="utf-8")
        spec = {"ops": [{"id": i, "argv": op.argv} for i, op in enumerate(ops)],
                "sweep_points": sweep_points}
        (d / "ops.json").write_text(json.dumps(spec), encoding="utf-8")
        t_spawn, _ = self._spawn([str(d), "1" if trace else "0"], d, subprocess.DEVNULL)
        result = json.loads((d / "result.json").read_text(encoding="utf-8"))
        if not Path(result["spiralbox"]).resolve().is_relative_to(SRC.resolve()):
            raise HarnessError(f"worker imported spiralbox from {result['spiralbox']}")
        self._add_setup(result, t_spawn)
        for op, res in zip(ops, result["ops"]):
            self.attempted += 1
            reason = self._check(op, res, d)
            if reason is not None:
                self.failures.append((" ".join(op.argv[:3]), reason, op.known_fault))
        if trace:
            for suffix in (".json", ".bin"):
                shutil.copyfile(d / f"spans{suffix}", OUT / f"trace-{self.workload}{suffix}")
        shutil.rmtree(d)
        return result

    def _check(self, op, res: dict, d: Path) -> str | None:
        if res["error"] is not None:
            return f"raised {res['error']}"
        if res["rc"] != 0:
            return f"exit code {res['rc']}"
        try:
            op.check(d)
        except self.workloads.CheckFailed as exc:
            return str(exc)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None

    def rounds(self):
        """Yield round indices while the next round is expected to end in time."""
        t0 = time.monotonic()
        n = 0
        while True:
            yield n
            n += 1
            elapsed = time.monotonic() - t0
            per_round = elapsed / n
            if elapsed + per_round > self.seconds or per_round > self._remaining() - 5.0:
                return

    def measure(self) -> dict[str, float]:
        for _ in range(SETUP_PROBES):
            self.probe_setup()
        runs = [self.run_ops(self.make_ops(r), f"round{r}", trace=False) for r in self.rounds()]
        values = {"setup_s": statistics.median(self.setups)}
        for key in ("wall_s", "cpu_s", "peak_rss_mb", "raw_wall_s", "raw_cpu_s", "speed_kernel_ms"):
            values[key] = statistics.median(r[key] for r in runs)
        print(f"as measured: wall {values['raw_wall_s']:.6g} s, cpu {values['raw_cpu_s']:.6g} s; "
              f"speed kernel {values['speed_kernel_ms']:.4g} ms "
              f"(reference {runs[0]['speed_reference_ms']:.4g} ms)")
        return values

    def measure_layers(self) -> dict[str, float]:
        ops = self.make_ops(0)
        sweep_points = max(op.fd_points for op in ops)
        plain, traced = [], []
        for r in self.rounds():
            plain.append(self.run_ops(ops, f"round{r}", trace=False, sweep_points=sweep_points))
            traced.append(self.run_ops(ops, f"round{r}t", trace=True))
        values: dict[str, float] = {}
        for key, first in traced[0]["layers"].items():
            # counts repeat exactly on the same inputs; keep them whole numbers
            pick = statistics.median_low if isinstance(first, int) else statistics.median
            values[key] = pick(t["layers"][key] for t in traced)
        for cmd in COMMANDS:
            idx = [i for i, op in enumerate(ops) if op.kind == cmd]
            values[f"cli.{cmd}.samples"] = len(idx)
            values[f"cli.{cmd}.p50_ms"] = statistics.median(
                statistics.median(p["ops"][i]["ms"] for i in idx) for p in plain
            ) if idx else 0.0
        values["fdsolver.sturm_count.sweep_ms"] = (
            statistics.median(p["sweep_ms"] for p in plain) if sweep_points else 0.0
        )
        values["trace.overhead_s"] = (statistics.median(t["wall_s"] for t in traced)
                                      - statistics.median(p["wall_s"] for p in plain))
        return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "spiralbox" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: run from a spiralbox checkout; {SRC / 'spiralbox'} not found", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        values = runner.measure_layers() if args.trace else runner.measure()
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    metrics = {}
    for m in bench["per_layer" if args.trace else "end_to_end"]:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value if isinstance(value, int) else format(value, '.6g')} {m['unit']}")
    print(f"attempted = {runner.attempted} operations, failed = {len(runner.failures)}")
    for cmd, reason, known in dict.fromkeys(runner.failures):
        print(f"failed: {cmd} ...: {reason}" + (f" [known fault: {known}]" if known else " [UNEXPECTED]"))
    result = {
        "correct": all(known for _, _, known in runner.failures),
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
