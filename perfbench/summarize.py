"""Summarise untraced benchmark records across seeds.

    python3 perfbench/summarize.py [results dir] > summary.json

For each workload and end-to-end metric it gives every value (one per run,
in seed order), their median and quartiles (``statistics.quantiles(n=4)``),
and the spread (q3 - q1) / median that the benchmark's bounds are checked
against. The results dir defaults to ``perfbench/_work/results``.
"""

import json
import statistics
import sys
from pathlib import Path


def summarize(results: Path) -> dict:
    runs: dict[str, list[dict]] = {}
    for path in results.glob("*-trace0.json"):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(record["workload"], []).append(record)
    out = {}
    for workload, records in sorted(runs.items()):
        records.sort(key=lambda r: r["seed"])
        metrics = {}
        for name in records[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in records]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            median = statistics.median(values)
            metrics[name] = {"values": values, "median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else None}
        out[workload] = {
            "seeds": [r["seed"] for r in records],
            "seconds": records[0]["seconds"],
            "python": records[0]["python"],
            "nproc": records[0]["nproc"],
            "repeats_per_run": [r["attempted"] for r in records],
            "all_correct": all(r["correct"] for r in records),
            "metrics": metrics,
        }
    return out


if __name__ == "__main__":
    default = Path(__file__).resolve().parent / "_work" / "results"
    print(json.dumps(summarize(Path(sys.argv[1]) if len(sys.argv) > 1 else default), indent=1))
