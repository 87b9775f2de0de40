"""tagrec benchmark entry point.

    python3 perfbench/run.py --workload paper-both --seed 42 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

Runs from the root of a tagrec checkout and imports tagrec from its ``src``.
With ``--trace 0`` it prints the end-to-end metrics declared in
BENCHMARK.json, with ``--trace 1`` the per-layer ones; ``--workload all``
runs every workload both ways. Each metric is printed as ``name value unit``
and the last line of standard output is the JSON result. The full record
(raw samples, quartiles, output digests, spans) goes to
``perfbench/_work/results/``. See perfbench/README.md.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"


def declared_metrics() -> tuple[dict, dict, int]:
    """(end-to-end units, per-layer units, run_seconds) from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    return e2e, layer, doc["run_seconds"]


def result_line(record: dict, units: dict) -> dict:
    """The result object printed last: every declared metric, 0 for a layer the workload never runs."""
    metrics = {name: {"value": record["values"].get(name, 0), "unit": unit} for name, unit in units.items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def self_time_table(record: dict) -> str:
    """Median self time per layer over the traced repeats, and the benchmark's own glue."""
    values = record["values"]
    rows = [(name.split(".")[0], values[name]) for name in values if name.endswith(".self_s")]
    rows.append(("(outside)", values["trace.unaccounted_s"]))
    total = sum(v for _, v in rows) or 1.0
    n = record["summary"]["trace.unaccounted_s"]["n"]
    lines = [f"# self time per layer, {record['workload']}, median of {n} traced repeats"]
    lines += [f"#   {layer:<11} {v:9.4f} s  {100 * v / total:5.1f}%" for layer, v in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tagrec benchmark")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=42, help="corpus seed (default 42)")
    parser.add_argument("--seconds", type=float, help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tagrec" / "__init__.py").is_file():
        print(f"perfbench: no tagrec sources under {SRC}; run from a tagrec checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    from workloads import WORKLOADS

    e2e_units, layer_units, run_seconds = declared_metrics()
    seconds = args.seconds if args.seconds is not None else run_seconds
    if args.workload == "all":
        plan = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    elif args.workload in WORKLOADS:
        plan = [(args.workload, bool(args.trace))]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    lines, records = {}, []
    for name, trace in plan:
        record = bench.run_workload(WORKLOADS[name], args.seed, seconds, trace, SRC, WORK)
        line = result_line(record, layer_units if trace else e2e_units)
        record["result"] = line
        stem = f"{name}-seed{args.seed}-trace{int(trace)}"
        (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        for msg, count in record["failures"].items():
            print(f"perfbench: {name}: {count}x {msg}", file=sys.stderr)
        if trace:
            print(self_time_table(record), file=sys.stderr)
        for metric, entry in line["metrics"].items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        lines[f"{name}/trace{int(trace)}"] = line
        records.append({k: v for k, v in record.items() if k != "spans"})
    if args.workload == "all":
        (results_dir / f"all-seed{args.seed}.json").write_text(json.dumps(records, indent=1) + "\n",
                                                               encoding="utf-8")
    print(json.dumps(lines if args.workload == "all" else lines.popitem()[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
