"""qchar benchmark: run one verify workload, check every result, print metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from src/ next to this directory.
Workloads are defined in workloads.py, and the reasons each was chosen are in
BENCHMARK.json.  The seed only permutes the order of the verifies in each
pass.  Everything runs in this one process with sequential code:
QSERIES_THREADS is removed from the environment before qchar is imported.

Speed normalization.  On a small shared machine the processor's speed drifts
by up to 1.6x for tens of seconds at a time, longer than a pass.  So every
verify runs between runs of a fixed pure-Python reference of 1 to 2 ms, and
its time is scaled by the reference's nominal time over the median of the
reference times around it (class Clock).  The reported verify times are
therefore seconds at the reference's nominal speed; the raw medians go to
the info line.  The reference is part of the benchmark, not of qchar, so a
change to qchar moves only the scaled time.  Set-up time is spent in child
processes, which reference runs in this process do not track well, so it is
reported raw.

--trace 0 prints the end-to-end metrics:
  wall_s          median over passes of the pass's summed verify times
  verify_p50_ms   median over the workload's verifies of each one's median
                  time over the passes
  verify_tail_ms  the highest percentile of all verify times with at least
                  ten samples beyond it (percentile and sample count go to
                  the info line)
  setup_s         median time of a fresh interpreter that imports qchar and
                  builds the workload's inputs, probed SETUP_PROBES times
                  before the passes
  peak_rss_mb     peak resident memory of this process
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of layers.py (raw span seconds and exact counts), plus
trace.overhead_s: traced minus untraced wall_s.  The spans of the traced
passes are written to perfbench/traces/.

Every verify must match through exactly its requested order, and each
pass's canonical reports must hash to the digest recorded in workloads.py.
A verify that raises, misses, or belongs to a pass with a wrong digest
counts as failed.  The last line of stdout is the result object; the line
before it holds run information that is not a metric (fail_ratio among it,
since a metric must never read 0).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Seconds of one untraced pass at the seed commit, on a 2-core x86-64 Linux
# machine with Python 3.11.  The pass count comes from --seconds and these
# figures, not from the clock, so every run and every commit measures the
# same verifies and takes the tail at the same rank.
NOMINAL_PASS_S = {"sweep": 9.0, "families": 2.2, "classical-hi": 4.0}
SETUP_PROBES = 11
TAIL_BEYOND = 10
PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; "
    "import workloads; workloads.inputs(sys.argv[3])"
)
REF_WINDOW = 3
REF_OPERAND = tuple((i * 7919) % 1000003 for i in range(1, 161))


def _convolution() -> None:
    """Schoolbook convolution of small integers: lattice sums, short products."""
    out = [0] * (2 * len(REF_OPERAND))
    for i, x in enumerate(REF_OPERAND):
        for j, y in enumerate(REF_OPERAND):
            out[i + j] += x * y


def _euler_sweep() -> None:
    """In-place Euler-factor updates over a 3000-slot list: long products."""
    out = [0] * 3000
    out[0] = 1
    for e in range(1, 8):
        for i in range(len(out) - 1, e - 1, -1):
            c = out[i - e]
            if c:
                out[i] -= c


# Per workload, the reference whose slowdown follows the workload's own mix
# of work most closely, and its seconds at full speed on the machine above.
REFERENCES = {
    "sweep": (_convolution, 0.0022),
    "families": (_convolution, 0.0022),
    "classical-hi": (_euler_sweep, 0.00105),
}


class Clock:
    """Times calls in seconds at reference speed (see the module docstring)."""

    def __init__(self, reference, nominal_s: float) -> None:
        self.reference = reference
        self.nominal_s = nominal_s

    def _reference_s(self) -> float:
        start = time.perf_counter()
        self.reference()
        return time.perf_counter() - start

    def time(self, calls) -> tuple[list[float], list[float]]:
        """Run each call between reference runs; return (raw, scaled) seconds.

        Each raw time is scaled by nominal_s over the median of the
        REF_WINDOW reference times on each side of it: one reference run is
        noisy, and the median of its neighbours still follows a drift that
        lasts longer than a few calls.
        """
        raw: list[float] = []
        refs = [self._reference_s()]
        for call in calls:
            start = time.perf_counter()
            call()
            raw.append(time.perf_counter() - start)
            refs.append(self._reference_s())
        w = REF_WINDOW
        scaled = [
            t * self.nominal_s / statistics.median(refs[max(0, i - w + 1) : i + w + 1])
            for i, t in enumerate(raw)
        ]
        return raw, scaled


def probe_setup(workload: str) -> float:
    """Seconds for a fresh interpreter to import qchar and build the inputs."""
    cmd = [sys.executable, "-I", "-c", PROBE, str(SRC), str(BENCH), workload]
    start = time.perf_counter()
    # No timeout: with one, the wait polls on a 50 ms tick and rounds the time.
    subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With too few samples for that, the maximum stands in at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n


class Pass:
    """One pass over a workload's verifies in a given order, then checked."""

    def __init__(self, workloads, workload, cases, order, clock, tracer=None):
        self.reports: dict[tuple, str] = {}
        index = {case: i for i, case in enumerate(cases)}

        def verify(case):
            if tracer is not None:
                tracer.case = index[case]
            try:
                self.reports[case] = workloads.run_case(case)
            except Exception:
                traceback.print_exc()

        gc.collect()
        self.raw, self.times = clock.time([functools.partial(verify, case) for case in order])
        self.by_case = dict(zip(order, self.times))
        self.wall = sum(self.times)
        self.failed = sum(
            1
            for case in cases
            if case not in self.reports
            or not workloads.check_report(case, self.reports[case])
        )
        self.digest_ok = (
            len(self.reports) == len(cases)
            and workloads.digest(cases, self.reports)
            == workloads.EXPECTED_DIGESTS[workload]
        )
        if not self.digest_ok:
            self.failed = len(cases)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "qchar" / "__init__.py").is_file():
        print(f"error: no qchar sources under {SRC}", file=sys.stderr)
        return 2
    threads_env = os.environ.pop("QSERIES_THREADS", None)
    sys.path.insert(0, str(SRC))
    import qchar
    import layers
    import workloads

    if not Path(qchar.__file__).resolve().is_relative_to(SRC):
        print(f"error: qchar imported from {qchar.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cases = workloads.inputs(args.workload)
    rng = random.Random(args.seed)
    clock = Clock(*REFERENCES[args.workload])
    passes = max(1, int(args.seconds / NOMINAL_PASS_S[args.workload]))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "verifies_per_pass": len(cases),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "QSERIES_THREADS": threads_env,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }

    def run_pass(tracer=None) -> Pass:
        order = list(cases)
        rng.shuffle(order)
        return Pass(workloads, args.workload, cases, order, clock, tracer)

    correct = True
    if args.trace == 0:
        setup = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
        done = [run_pass() for _ in range(passes)]
        samples = [t for p in done for t in p.times]
        per_case = [statistics.median(p.by_case[c] for p in done) for c in cases]
        tail_s, tail_pct = tail(samples)
        values = {
            "wall_s": (statistics.median(p.wall for p in done), "s"),
            "verify_p50_ms": (1000 * statistics.median(per_case), "ms"),
            "verify_tail_ms": (1000 * tail_s, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB",
            ),
        }
        info.update(
            passes=passes,
            tail_percentile=tail_pct,
            tail_samples=len(samples),
            raw_wall_s=statistics.median(sum(p.raw) for p in done),
            raw_verify_p50_ms=1000 * statistics.median(t for p in done for t in p.raw),
        )
    else:
        plain: list[Pass] = []
        traced: list[tuple[Pass, layers.Tracer]] = []
        for i in range(max(4, passes)):
            if i % 2 == 0:
                plain.append(run_pass())
                continue
            tracer = layers.Tracer()
            tracer.install()
            try:
                traced.append((run_pass(tracer), tracer))
            finally:
                tracer.uninstall()
        done = plain + [p for p, _ in traced]
        per_pass = [layers.layer_metrics(t) for _, t in traced]
        values = {}
        for name, (value, unit) in per_pass[0].items():
            if unit == "s":
                value = statistics.median(m[name][0] for m in per_pass)
            elif any(m[name][0] != value for m in per_pass):
                print(f"error: counter {name} differs between passes", file=sys.stderr)
                correct = False
            values[name] = (value, unit)
        values["trace.overhead_s"] = (
            statistics.median(p.wall for p, _ in traced)
            - statistics.median(p.wall for p in plain),
            "s",
        )
        info.update(passes=len(done), spans_file=write_spans(args, traced))

    attempted = len(cases) * len(done)
    failed = sum(p.failed for p in done)
    correct = correct and failed == 0
    info.update(fail_ratio=failed / attempted, digests_ok=all(p.digest_ok for p in done))
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def write_spans(args, traced) -> str:
    out = BENCH / "traces" / f"{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(exist_ok=True)
    data = {
        "fields": ["name", "start", "end", "parent", "case"],
        "passes": [
            {"spans": t.spans, "work": {str(i): w for i, w in t.work.items()}}
            for _, t in traced
        ],
    }
    out.write_text(json.dumps(data))
    return str(out.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
