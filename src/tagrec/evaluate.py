"""Recall/precision/F1 at k, the report types and the report writers."""

import json
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import _atomic_open

__all__ = [
    "MetricsAtK",
    "EvalReport",
    "recall_at_k",
    "precision_at_k",
    "f1_at_k",
    "metrics_at_k",
    "report_text",
    "report_dict",
    "write_json",
    "write_report",
]


@dataclass(frozen=True)
class MetricsAtK:
    k: int
    recall: float
    precision: float
    f1: float


def recall_at_k(ranklists, test_sets, k: int) -> float:
    """Mean over users of |top-k hits| / |test set|.

    Users whose ranklist is shorter than k are scored on what they have.
    """
    return metrics_at_k(ranklists, test_sets, k).recall


def precision_at_k(ranklists, test_sets, k: int) -> float:
    """Total top-k hits divided by (number of users * k).

    The denominator stays k even when fewer than k items were recommendable.
    """
    return metrics_at_k(ranklists, test_sets, k).precision


def f1_at_k(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def metrics_at_k(ranklists, test_sets, k: int) -> MetricsAtK:
    """Recall, precision and F1 at ``k`` from one count of each user's hits, in ascending user order."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not ranklists:
        raise ValueError("no ranklists to score")
    recall, total_hits = 0.0, 0
    for u in sorted(ranklists):
        ts = test_sets.get(u)
        if ts is None or len(ts) == 0:
            raise ValueError(f"user {u} has an empty or missing test set")
        items = ts.items
        hits = sum(1 for item, _ in ranklists[u].entries[:k] if item in items)
        recall += hits / len(ts)
        total_hits += hits
    recall /= len(ranklists)
    precision = total_hits / (len(ranklists) * k)
    return MetricsAtK(k=k, recall=recall, precision=precision, f1=f1_at_k(precision, recall))


@dataclass
class EvalReport:
    """Per-k metrics plus timing, work counters, and the configuration echo."""

    mode: str
    per_k: list[MetricsAtK]
    timing: dict[str, float] = field(default_factory=dict)
    work: dict[str, int] = field(default_factory=dict)
    config: dict = field(default_factory=dict)


def report_text(report: EvalReport) -> str:
    """One record per k (k, recall, precision, f1), metrics at 5 decimals."""
    lines = [f"# mode={report.mode}", "# k\trecall\tprecision\tf1"]
    for m in report.per_k:
        lines.append(f"{m.k}\t{m.recall:.5f}\t{m.precision:.5f}\t{m.f1:.5f}")
    return "\n".join(lines) + "\n"


def report_dict(report: EvalReport) -> dict:
    """JSON-ready document; metrics at 5 decimals, timing at millisecond resolution."""
    return {
        "mode": report.mode,
        "config": report.config,
        "metrics": [
            {
                "k": m.k,
                "recall": round(m.recall, 5),
                "precision": round(m.precision, 5),
                "f1": round(m.f1, 5),
            }
            for m in report.per_k
        ],
        "work": report.work,
        "timing": {key: round(value, 3) for key, value in report.timing.items()},
    }


def write_json(path, doc) -> Path:
    """Write ``doc`` as indented, key-sorted JSON; return the path."""
    path = Path(path)
    with _atomic_open(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_report(report: EvalReport, directory, stem: str) -> list[Path]:
    """Write ``<stem>.report.txt`` and ``<stem>.report.json``; return the paths."""
    directory = Path(directory)
    txt_path = directory / f"{stem}.report.txt"
    with _atomic_open(txt_path) as fh:
        fh.write(report_text(report))
    return [txt_path, write_json(directory / f"{stem}.report.json", report_dict(report))]
