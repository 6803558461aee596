"""treedegree benchmark: one workload per run, timed against a reference kernel.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 20 --trace 0

The workload's operation types run round robin, one caller in a closed
loop, until ``--seconds`` have passed (at least three rounds). Every
operation is bracketed by a fixed pure-Python reference kernel, and its
time is reported as ``op_time / mean(ref before, ref after)`` converted
back to seconds with REF_NOMINAL_S. That ratio cancels most of the
host's speed drift, which on small shared VMs moves raw times by 15-25 %
within seconds. Every output is checked. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs half the time untraced and half
with spans around the program's public functions, and prints the
per-layer metrics. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = Path(__file__).resolve().parent / "out"

# The reference kernel's loop count and its median time on the calibration
# host (2-vCPU x86-64 VM, Python 3.11.7). Ratios to the kernel are
# multiplied by REF_NOMINAL_S, so reported times keep their "_s" units.
REF_LOOPS = 72_000
REF_NOMINAL_S = 0.028

MIN_ROUNDS = 3
SETUP_LAUNCHES = 31
SETUP_COMMAND = ["-m", "treedegree", "count", "plane", "-n", "5", "-i", "2"]
SETUP_EXPECTED = "35"  # C(2n-i-1, n-1) at n=5, i=2


def reference_kernel() -> int:
    """Fixed int, tuple and dict work; does not touch the program."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for j in range(REF_LOOPS):
        key = (j % 97, j % 89)
        value = table.get(key, 0) + j * 7 % 1009
        table[key] = value
        acc = (acc * 31 + value) & 0xFFFFFFFF
    return acc


def load_program():
    """Import treedegree from this checkout's ``src`` and the benchmark modules.

    Raises FileNotFoundError when the checkout holds no program sources.
    """
    if not (SRC / "treedegree" / "__init__.py").is_file():
        raise FileNotFoundError(f"no treedegree sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import treedegree

    if Path(treedegree.__file__).resolve().parent != (SRC / "treedegree").resolve():
        raise FileNotFoundError(f"treedegree was imported from {treedegree.__file__}")
    import spans
    import workloads

    return workloads, spans


class Record:
    """Times, outcomes and counts of one run's operations.

    Outcomes are kept per distinct input (operation type and input index),
    not per execution: ``attempted`` is the number of distinct inputs run
    and ``failed`` the number that failed at least once. A seed fixes the
    inputs, so these counts do not depend on how many rounds fit in the
    time.
    """

    def __init__(self, wrong_output: type[Exception]) -> None:
        self.wrong_output = wrong_output
        self.ref_s: list[float] = []
        # operation type -> input index -> corrected times in reference units
        self.ratios: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.raw_s: dict[str, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.roundtrip_ms: dict[str, list[float]] = defaultdict(list)
        self.outcomes: dict[tuple[str, int], bool] = {}  # input -> failed at least once
        self.wrong = 0
        self.recursion_errors = 0
        self.checks_failed = 0
        self.vertices_ok = 0
        self.codec_s = 0.0
        self.messages: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(self.outcomes.values())

    def reference(self) -> float:
        start = time.perf_counter_ns()
        reference_kernel()
        seconds = (time.perf_counter_ns() - start) / 1e9
        self.ref_s.append(seconds)
        return seconds

    def bracket(self, call) -> tuple[object, Exception | None, float, float]:
        """Run ``call`` between two reference kernels.

        Returns its result or exception, raw seconds, and the scale that
        turns raw seconds into corrected ones.
        """
        gc.collect()
        before = self.reference()
        error = None
        result = None
        start = time.perf_counter_ns()
        try:
            result = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        raw = (time.perf_counter_ns() - start) / 1e9
        after = self.reference()
        return result, error, raw, REF_NOMINAL_S / ((before + after) / 2)

    def outcome(self, key: tuple[str, int], failure: tuple[str, bool] | None) -> bool:
        """Record one execution of input ``key``; ``failure`` is (message, wrong).

        Returns True when this is the input's first failure, which is the
        only one that counts.
        """
        if failure is None:
            self.outcomes.setdefault(key, False)
            return False
        if self.outcomes.get(key):
            return False
        self.outcomes[key] = True
        message, wrong = failure
        self.wrong += wrong
        if len(self.messages) < 5:
            self.messages.append(message)
        return True

    def operation(self, name: str, index: int, attempt, call) -> float:
        """Time, check and record one execution; returns its correction scale."""
        result, error, raw, scale = self.bracket(call)
        self.ratios[name][index].append(raw * scale / REF_NOMINAL_S)
        self.raw_s[name][index].append(raw)
        if attempt.kind:
            self.roundtrip_ms[attempt.kind].append(raw * scale * 1e3)
            self.codec_s += raw * scale
        key = (name, index)
        if isinstance(error, RecursionError):
            if self.outcome(key, (f"{name}: RecursionError", False)):
                self.recursion_errors += 1
        elif isinstance(error, AssertionError):
            self.outcome(key, (f"{name}: consistency failure: {error}", True))
        elif error is not None:
            self.outcome(key, (f"{name}: {type(error).__name__}: {error}", False))
        else:
            try:
                attempt.check(result)
            except self.wrong_output as exc:
                if self.outcome(key, (str(exc), True)):
                    self.checks_failed += exc.checks_failed
            else:
                self.outcome(key, None)
                self.vertices_ok += attempt.vertices
        return scale

    def op_s(self, raw: bool = False) -> dict[str, float]:
        """Per operation type, the median over its inputs of each input's median time."""
        table = self.raw_s if raw else self.ratios
        scale = 1.0 if raw else REF_NOMINAL_S
        return {
            name: scale * statistics.median(statistics.median(v) for v in inputs.values())
            for name, inputs in table.items()
        }

    def job_s(self, raw: bool = False) -> float:
        """Sum over operation types of the median time of one operation."""
        return sum(self.op_s(raw).values())


def prepare_inputs(ops, rng: random.Random) -> list[list]:
    """Each operation type's fixed attempts for this run, drawn before any timing."""
    return [[op.prepare(rng) for _ in range(op.inputs)] for op in ops]


def measure(ops, inputs, seconds: float, record: Record, tracer=None, between=None):
    """Run rounds of every operation type until ``seconds`` have passed,
    not counting time spent in ``between``, which runs before each operation.

    Round r runs input r mod ``len(inputs[j])`` of operation type j, and
    the loop runs at least until every input has run once, so the seed
    alone decides which inputs are attempted. Returns the number of
    rounds and, when traced, the corrected self seconds per span name.
    """
    self_s: Counter[str] = Counter()
    deadline = time.monotonic() + seconds
    min_rounds = max(MIN_ROUNDS, *map(len, inputs))
    rounds = 0
    while rounds < min_rounds or time.monotonic() < deadline:
        for op, attempts in zip(ops, inputs):
            if between is not None:
                started = time.monotonic()
                between()
                deadline += time.monotonic() - started
            index = rounds % len(attempts)
            attempt = attempts[index]
            call = attempt.run if tracer is None else partial(tracer.op, "bench.op", attempt.run)
            scale = record.operation(op.name, index, attempt, call)
            if tracer is not None:
                for name, ns in tracer.take_self_ns().items():
                    self_s[name] += ns * scale / 1e9
        rounds += 1
    return rounds, self_s


class ColdStart:
    """Launches of ``python -m treedegree count ...``, spread over the run.

    Launch times drift in phases of a few seconds, so the launches are
    spaced evenly through the measured loop instead of made in one burst.
    Launches are not workload operations, so they keep a record of their own.
    """

    def __init__(self, wrong_output: type[Exception], launches: int, seconds: float):
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        env["PYTHONPATH"] = str(SRC)
        self.launch = partial(
            subprocess.run,
            [sys.executable, *SETUP_COMMAND],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        self.launch()  # untimed: writes the bytecode cache
        self.record = Record(wrong_output)
        self.launches = launches
        self.interval = seconds / launches
        self.next_at = time.monotonic()
        self.raw_s: list[float] = []
        self.corrected_s: list[float] = []

    def timed_launch(self) -> None:
        result, error, raw, scale = self.record.bracket(self.launch)
        key = ("cold start", len(self.raw_s))
        if error is not None:
            self.record.outcome(key, (f"cold start: {type(error).__name__}: {error}", False))
        elif result.returncode != 0 or result.stdout.strip() != SETUP_EXPECTED:
            message = f"cold start: exit {result.returncode}, {result.stdout!r}"
            self.record.outcome(key, (message, True))
        else:
            self.record.outcome(key, None)
        self.raw_s.append(raw)
        self.corrected_s.append(raw * scale)

    def when_due(self) -> None:
        if len(self.raw_s) < self.launches and time.monotonic() >= self.next_at:
            self.timed_launch()
            self.next_at += self.interval

    def finish(self) -> None:
        while len(self.raw_s) < self.launches:
            self.timed_launch()


def git_sha() -> str:
    """HEAD of the checkout, read from its own .git; "unknown" without one.

    Running git instead would report an enclosing repository's HEAD when
    the checkout is a plain copy inside one.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_info(
    workload: str, seed: int, seconds: float, trace: bool, ignored_guard: str | None
) -> dict:
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git": git_sha(),
        "recursion_limit": sys.getrecursionlimit(),
        "TREEDEGREE_GUARD": "unset",
    }
    if ignored_guard is not None:
        info["TREEDEGREE_GUARD_ignored"] = ignored_guard
    return info


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def per_layer_metrics(spans, untraced: Record, traced: Record, self_s, tracer, rounds: int):
    metrics: dict[str, tuple[float, str]] = {}
    for key, span in spans.SPAN_NAMES.items():
        metrics[spans.time_metric(span)] = (self_s[span] / rounds, "s")
        count = spans.TARGETS[key]
        if count == "calls":
            metrics[f"{span}.calls"] = (tracer.calls[span] / rounds, "count")
        elif count is not None:
            metrics[f"{span}.{count}"] = (tracer.items[span] / rounds, "count")
    trips = untraced.roundtrip_ms
    metrics["plane_trees.roundtrip_ms.p50"] = (percentile(trips["plane"], 0.5), "ms")
    metrics["plane_trees.roundtrip_ms.p90"] = (percentile(trips["plane"], 0.9), "ms")
    metrics["kary_trees.roundtrip_ms.k2.p50"] = (percentile(trips["k2"], 0.5), "ms")
    metrics["kary_trees.roundtrip_ms.k3.p50"] = (percentile(trips["k3"], 0.5), "ms")
    both = untraced.attempted + traced.attempted
    metrics["kary_trees.recursion_errors"] = (
        untraced.recursion_errors + traced.recursion_errors, "count"
    )
    metrics["verification.checks_failed"] = (
        untraced.checks_failed + traced.checks_failed, "count"
    )
    metrics["failed_ops_ratio"] = ((untraced.failed + traced.failed) / both, "ratio")
    metrics["codec_vertices_per_s"] = (codec_rate(untraced), "vertices/s")
    untraced_job, traced_job = untraced.job_s(), traced.job_s()
    metrics["bench.job_untraced_s"] = (untraced_job, "s")
    metrics["bench.job_traced_s"] = (traced_job, "s")
    metrics["bench.tracing_overhead_s"] = (traced_job - untraced_job, "s")
    metrics["bench.job_raw_s"] = (untraced.job_s(raw=True), "s")
    metrics["bench.unattributed_s"] = (self_s["bench.op"] / rounds, "s")
    metrics["bench.ref_kernel_ms"] = (statistics.median(untraced.ref_s) * 1e3, "ms")
    return metrics


def codec_rate(record: Record) -> float:
    """Vertices in successful round trips per corrected second of all attempts."""
    return record.vertices_ok / record.codec_s if record.codec_s else 0.0


def write_spans(tracer, info: dict) -> Path:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{info['workload']}-seed{info['seed']}.csv"
    with path.open("w") as out:
        out.write(f"# {json.dumps(info)}\n")
        if tracer.dropped:
            out.write(f"# {tracer.dropped} later spans not written\n")
        out.write("id,parent,name,start_ns,end_ns\n")
        for row in tracer.records:
            out.write(",".join(map(str, row)) + "\n")
    return path


def run_workload(
    workloads,
    spans,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    launches: int = SETUP_LAUNCHES,
) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run information)."""
    ignored_guard = os.environ.pop("TREEDEGREE_GUARD", None)
    info = run_info(workload, seed, seconds, trace, ignored_guard)
    rng = random.Random(seed)
    ops = workloads.WORKLOADS[workload](tiny)
    rng.shuffle(ops)
    inputs = prepare_inputs(ops, rng)
    record = Record(workloads.WrongOutput)
    if trace:
        rounds, _ = measure(ops, inputs, seconds / 2, record)
        traced = Record(workloads.WrongOutput)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced_rounds, self_s = measure(ops, inputs, seconds / 2, traced, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer_metrics(spans, record, traced, self_s, tracer, traced_rounds)
        info.update(rounds=rounds, traced_rounds=traced_rounds)
        info["spans_file"] = str(write_spans(tracer, info).relative_to(ROOT))
        records = [record, traced]
    else:
        setup = ColdStart(workloads.WrongOutput, launches, seconds)
        rounds, _ = measure(ops, inputs, seconds, record, between=setup.when_due)
        setup.finish()
        metrics = {
            "setup_s": (statistics.median(setup.corrected_s), "s"),
            "job_s": (record.job_s(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        info.update(
            rounds=rounds,
            setup_raw_s=statistics.median(setup.raw_s),
            job_raw_s=record.job_s(raw=True),
            ref_kernel_ms=statistics.median(record.ref_s) * 1e3,
            failed_ops_ratio=record.failed / record.attempted,
            launches_failed=setup.record.failed,
            op_s=record.op_s(),
        )
        if record.codec_s:
            info["codec_vertices_per_s"] = codec_rate(record)
        records = [record, setup.record]
    info["failures"] = [m for r in records for m in r.messages][:5]
    result = {
        "correct": all(r.wrong == 0 for r in records),
        "attempted": sum(r.attempted for r in records),
        "failed": sum(r.failed for r in records),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads, spans = load_program()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    result, info = run_workload(
        workloads, spans, args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(f"# run {json.dumps(info)}")
    for name, metric in result["metrics"].items():
        print(f"# {name:40s} {metric['value']:.6g} {metric['unit']}")
    for name, unit in (("failed_ops_ratio", "ratio"), ("codec_vertices_per_s", "vertices/s")):
        if name in info:
            print(f"# {name:40s} {info[name]:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
