"""One workload in its own process: closed loop, one client, one thread.

Runs passes of the workload's operations back to back until the next pass
would end after ``--seconds``, judges every operation against the recorded
reference without aborting on a mismatch, and prints one JSON object with
the per-pass measurements.  With ``--trace 1`` it alternates untraced and
traced passes and writes the spans of the traced ones when it ends.  Before
each untraced pass it times fresh starts with ``--setup-only``, which stop
once the package is imported and the inputs are built: what ``run.py``
reports as set-up.  During each untraced pass it times ``probe``, a fixed
piece of work whose time follows only the speed the shared host gives the
process, and ``run.py`` rescales the pass by it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# fresh starts timed before each untraced pass: spread through the run, so
# that a slow spell of the host moves few of them
SETUP_STARTS_PER_PASS = 2
START_LIMIT_S = 60.0
# seconds between two samples of the host's speed during a pass
PROBE_INTERVAL_S = 0.2


def import_package():
    """Import affinevis from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import affinevis

    origin = Path(affinevis.__file__).resolve()
    if not origin.is_relative_to(SRC.resolve()):
        raise ImportError(f"affinevis imported from {origin}, not from {SRC}")
    return affinevis


@contextlib.contextmanager
def _chdir(path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def setup_seconds(args) -> list[float]:
    """Wall time of fresh interpreters that import affinevis and build the
    workload's inputs."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--setup-only"]
    samples = []
    for _ in range(SETUP_STARTS_PER_PASS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantize the measurement
        watchdog = threading.Timer(START_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return samples


@functools.cache
def _probe_rows():
    import numpy as np

    return np.random.default_rng(0).integers(0, 1 << 20, size=(8000, 2))


def probe() -> float:
    """Wall time of a fixed piece of interpreter and numpy work (about 10 ms
    on a quiet 2.1 GHz Xeon core).  Its input never changes, so its time
    follows only the speed the host gives this process at that moment."""
    import numpy as np

    rows = _probe_rows()
    t0 = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    np.unique(rows, axis=0)
    return time.perf_counter() - t0


class HostProbe:
    """Samples the host's speed while a pass runs: a SIGALRM handler times
    ``probe`` every PROBE_INTERVAL_S of wall time, also in the middle of a
    long operation, and ``clock`` leaves out the time the samples took."""

    def __init__(self):
        self.samples: list[float] = []
        self._wall = 0.0
        self._cpu = 0.0

    def _sample(self, *_signal) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(probe())
        self._wall += time.perf_counter() - w0
        self._cpu += time.process_time() - c0

    def clock(self) -> tuple[float, float]:
        """(wall, CPU) seconds, less the time spent sampling."""
        return time.perf_counter() - self._wall, time.process_time() - self._cpu

    @contextlib.contextmanager
    def running(self):
        self._sample()  # one sample even in a pass shorter than the interval
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def run_pass(inputs, reference, tracer=None) -> tuple[dict, list]:
    """Run and judge one pass.  Returns the pass record and, per operation,
    (name, outcome or None).  An untraced pass also samples the host's
    speed; a traced one does not, so that no span holds a sample."""
    ops = workloads.pass_ops(inputs)
    record = {"traced": tracer is not None, "wall_s": 0.0, "cpu_s": 0.0, "attempted": 0,
              "failed": 0, "digest_mismatch": 0, "slope_err": None, "op_wall_s": [],
              "commands": {}, "failures": []}
    outcomes = []
    host = HostProbe()
    sampling = host.running() if tracer is None else contextlib.nullcontext()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp, _chdir(tmp), sampling:
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            for op in ops:
                record["attempted"] += 1
                w0, c0 = host.clock()
                try:
                    result = op.run()
                    error = None
                except Exception as exc:  # counted as a failed operation
                    result, error = None, f"{type(exc).__name__}: {exc}"
                w1, c1 = host.clock()
                wall, cpu = w1 - w0, c1 - c0
                record["wall_s"] += wall
                record["cpu_s"] += cpu
                record["op_wall_s"].append(wall)
                if op.command:
                    record["commands"][op.command] = record["commands"].get(op.command, 0.0) + wall
                outcome = None
                if error is None:
                    try:
                        outcome = op.judge(result)
                    except Exception as exc:
                        error = f"judge {type(exc).__name__}: {exc}"
                if outcome is None:
                    reasons, mismatched = [error], 0
                else:
                    if reference is None:
                        reasons, mismatched = ([] if outcome.ok else ["assertion failed"]), 0
                    else:
                        reasons, mismatched = workloads.compare(outcome, reference.get(op.name))
                    for fitted, target in outcome.slopes:
                        err = abs(fitted - target)
                        record["slope_err"] = max(record["slope_err"] or 0.0, err)
                if reasons:
                    record["failed"] += 1
                    record["failures"].append(f"{op.name}: {'; '.join(reasons)}")
                record["digest_mismatch"] += mismatched
                outcomes.append((op.name, outcome))
        finally:
            if tracer is not None:
                tracer.uninstall()
    record["probe_s"] = host.samples
    return record, outcomes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_package()
    inputs = workloads.build_inputs(args.workload, args.size, args.seed)
    if args.setup_only:
        return 0
    key = workloads.reference_key(args.workload, args.size, inputs.program_seed)
    reference = workloads.load_reference().get(key, {})

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    passes, spans = [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        setup = setup_seconds(args) if tracer is None else []
        record, _ = run_pass(inputs, reference, tracer if traced else None)
        record["setup_s"] = setup
        if traced:
            record["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
            spans.append(tracer.spans)
        passes.append(record)
        elapsed = time.perf_counter() - start
        # stop when one more iteration of the average length would overrun
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds and (
                tracer is None or len(passes) >= 2):
            break

    if spans:
        out = WORK / f"spans-{args.workload}-{args.size}-seed{args.seed}.json"
        out.write_text(json.dumps(spans))
    print(json.dumps({
        "workload": args.workload,
        "program_seed": inputs.program_seed,
        "reference": key if reference else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
