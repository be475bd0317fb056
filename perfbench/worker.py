"""One round of a workload in a fresh single-threaded interpreter.

Usage: python3 worker.py ROUND_DIR TRACE   (TRACE is 0 or 1)
       python3 worker.py --probe            (set-up only)

Set-up ends when `import spiralbox` is done.  The worker then times a few
runs of the speed kernel (see SpeedProbe), reads ROUND_DIR/ops.json, runs
each command line through `spiralbox.cli.main` with ROUND_DIR as working
directory, and writes ROUND_DIR/result.json.  Wall and CPU time cover the
operation list only; they are given as measured and at the reference CPU
speed.  With TRACE = 1 the public functions are wrapped first (see
tracer.py) and the spans go to ROUND_DIR/spans.{json,bin}.
"""

import sys
import time

import spiralbox

SETUP_END = time.monotonic()

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

from spiralbox import cli, fdsolver  # noqa: E402

SPEED_PERIOD_S = 0.05
REFERENCE_KERNEL_S = 2.2e-4  # the speed kernel on a quiet 2.1 GHz Xeon vCPU, Python 3.11


def _speed_kernel() -> float:
    """3000 steps of a plane rotation: pure interpreter float work, bounded."""
    x, y = 1.0, 0.0
    for _ in range(3000):
        x, y = 0.8 * x - 0.6 * y, 0.6 * x + 0.8 * y
    return x


class SpeedProbe:
    """Samples the speed of this CPU while the operation list runs.

    The host shares its cores, and their speed drifts in phases of seconds to
    minutes: the same operation list took from 1.9 s to 3.0 s within three
    minutes.  Every SPEED_PERIOD_S a timer signal runs `_speed_kernel` on the
    same thread and records its wall and CPU time.  The timed totals, less
    the samples, divided by the mean sample time relative to
    REFERENCE_KERNEL_S, give the time the list takes at the reference speed.
    """

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def _sample(self, signum, frame) -> None:
        t, c = time.perf_counter(), time.process_time()
        _speed_kernel()
        self.wall.append(time.perf_counter() - t)
        self.cpu.append(time.process_time() - c)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def speed_ratio(samples: int = 20) -> float:
    """REFERENCE_KERNEL_S over the mean of a few kernel runs made now."""
    times = []
    for _ in range(samples):
        t = time.perf_counter()
        _speed_kernel()
        times.append(time.perf_counter() - t)
    return REFERENCE_KERNEL_S / statistics.mean(times)


def at_reference_speed(total: float, samples: list[float]) -> float:
    """`total` less the speed samples, scaled to the reference kernel time."""
    if not samples:  # a list shorter than one period
        return total
    return (total - sum(samples)) * REFERENCE_KERNEL_S / statistics.mean(samples)


def _sweep_ms(points: int, repeats: int = 5) -> float:
    """Median time of one direct Sturm sweep over an operator of `points` nodes."""
    op = fdsolver.discretize(lambda s: 60.0 / (s * s), 1.0, points)
    lam = 0.5 * sum(op.gershgorin_bounds())
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fdsolver.sturm_count(op, lam)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def main(round_dir: Path, trace: bool, setup_speed: float) -> None:
    spec = json.loads((round_dir / "ops.json").read_text(encoding="utf-8"))
    os.chdir(round_dir)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    probe = SpeedProbe()
    gc.collect()
    with probe:
        t0, c0 = time.perf_counter(), time.process_time()
        for op in spec["ops"]:
            if tracer is not None:
                tracer.op = op["id"]
            t = time.perf_counter()
            rc, error = None, None
            try:
                rc = cli.main(op["argv"])
            except Exception as exc:  # recorded as the operation's failure; the round goes on
                error = f"{type(exc).__name__}: {exc}"
            results.append({"id": op["id"], "rc": rc, "error": error,
                            "ms": (time.perf_counter() - t) * 1e3})
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    out = {
        "setup_end": SETUP_END,
        "setup_speed_ratio": setup_speed,
        "spiralbox": spiralbox.__file__,
        "raw_wall_s": wall - sum(probe.wall),
        "raw_cpu_s": cpu - sum(probe.cpu),
        "wall_s": at_reference_speed(wall, probe.wall),
        "cpu_s": at_reference_speed(cpu, probe.cpu),
        "speed_kernel_ms": statistics.mean(probe.wall) * 1e3 if probe.wall else None,
        "speed_reference_ms": REFERENCE_KERNEL_S * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }
    if spec.get("sweep_points"):
        out["sweep_ms"] = _sweep_ms(spec["sweep_points"])
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        tracer.write(round_dir / "spans.json")
    (round_dir / "result.json").write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    # the speed right after set-up, to give set-up time at the reference speed
    ratio = speed_ratio()
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps({"setup_end": SETUP_END, "setup_speed_ratio": ratio}))
    else:
        main(Path(sys.argv[1]), sys.argv[2] == "1", ratio)
