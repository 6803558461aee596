"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload runs, checks its outputs and emits exactly the
metrics named in BENCHMARK.json with their units; that span self times
account for the traced operation time; and that a wrong closed form
shows up as failed operations and ``correct: false``. Takes about half a
minute, most of it in the reference-kernel brackets.
"""

from __future__ import annotations

import json
import math
import random
import sys

import run


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def units(entries: list[dict]) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


def patch_everywhere(spans, module_name: str, name: str, replacement) -> list:
    """Rebind ``name`` wherever a treedegree module binds the original."""
    original = getattr(sys.modules[f"treedegree.{module_name}"], name)
    sites = spans.binding_sites(original)
    for module, key in sites:
        setattr(module, key, replacement)
    return [(module, key, original) for module, key in sites]


def main() -> int:
    workloads, spans = run.load_program()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end, per_layer = units(spec["end_to_end"]), units(spec["per_layer"])
    names = [w["name"] for w in spec["workloads"]]
    expect(sorted(names) == sorted(workloads.WORKLOADS), "workload names differ")

    for workload in names:
        for trace, wanted in ((False, end_to_end), (True, per_layer)):
            result, info = run.run_workload(
                workloads, spans, workload, seed=7, seconds=0, trace=trace, tiny=True, launches=2
            )
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            expect(result["correct"] and result["failed"] == 0, f"{workload}: {info['failures']}")
            expect(result["attempted"] >= 1, "nothing attempted")
            values = {name: m["value"] for name, m in result["metrics"].items()}
            if not trace:
                expect(all(v > 0 for v in values.values()), f"{workload}: a zero metric")
            elif workload == "codec-large":
                expect(values["codec_vertices_per_s"] > 0, "no codec throughput")
        print(f"ok {workload}: end-to-end and per-layer metrics emitted, outputs checked")

    # Span self times plus the unattributed remainder add up to the traced time.
    record = run.Record(workloads.WrongOutput)
    tracer = spans.Tracer()
    tracer.install()
    try:
        ops = workloads.codec_large(tiny=True)
        _, self_s = run.measure(
            ops, run.prepare_inputs(ops, random.Random(1)), 0, record, tracer
        )
    finally:
        tracer.uninstall()
    traced = run.REF_NOMINAL_S * sum(
        sum(v) for inputs in record.ratios.values() for v in inputs.values()
    )
    accounted = sum(self_s.values())
    expect(math.isclose(accounted, traced, rel_tol=0.05), f"spans {accounted} vs ops {traced}")
    expect(all(row[1] == 0 or row[1] < row[0] for row in tracer.records), "span parents")
    print(f"ok span self times account for {accounted / traced:.1%} of the traced time")

    # A wrong closed form must surface as failed operations.
    def wrong_count(n: int, i: int) -> int:
        return workloads.comb(2 * n - i - 1, n - 1) + (n == 2)

    restore = patch_everywhere(spans, "exact_math", "count_plane_outdegree", wrong_count)
    try:
        for workload in ("oracle-sweep", "series-deep"):
            result, info = run.run_workload(
                workloads, spans, workload, seed=7, seconds=0, trace=False, tiny=True, launches=1
            )
            ratio = info["failed_ops_ratio"]
            expect(ratio > 0 and not result["correct"], f"{workload}: wrong closed form passed")
            print(f"ok {workload}: a wrong closed form gives failed_ops_ratio {ratio:.3f}")
    finally:
        for module, key, original in restore:
            setattr(module, key, original)
    return 0


if __name__ == "__main__":
    sys.exit(main())
