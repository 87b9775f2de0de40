"""End-to-end experiment pipeline: ingest, filter, split, cluster, rank, evaluate.

``run_experiment`` executes the whole pipeline for one configuration. In
``mode="both"`` the baseline and the clustered recommender share one split
and one profile build, so their metrics and timings are directly
comparable; the combined report then also carries their ratios.
"""

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path

from .clustering import choose_k, cluster_tag_count, coarse_cluster
from .corpus import DataError, filter_by_degree, read_graph, temporal_split
from .evaluate import EvalReport, metrics_at_k, report_dict, write_json, write_report
from .profiles import build_profiles
from .recommend import rank_fcum, rank_ucf, write_ranklists

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "sweep",
    "SWEEPABLE",
    "ucf_scored_work",
    "fcum_scored_work",
]

MODES = ("ucf", "fcum", "both")
SWEEPABLE = ("iterations", "avg_cluster_size", "degree_threshold", "beta", "gamma")


@dataclass(frozen=True)
class ExperimentConfig:
    """Pipeline parameters; the defaults are the reference settings."""

    input: str
    mode: str = "both"
    degree_threshold: int = 5
    split_ratio: float = 0.8
    beta: float = 0.5
    gamma: float = 0.5
    avg_cluster_size: int = 90
    iterations: int = 2
    k_list: tuple[int, ...] = tuple(range(1, 21))
    seed: int = 42
    output: str | None = None
    dump_ranklists: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.degree_threshold < 0:
            raise ValueError("degree_threshold must be non-negative")
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError("split_ratio must be strictly between 0 and 1")
        for name in ("beta", "gamma"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.avg_cluster_size < 1 or self.iterations < 1:
            raise ValueError("avg_cluster_size and iterations must be positive")
        ks = tuple(sorted(set(int(k) for k in self.k_list)))
        if not ks or ks[0] < 1:
            raise ValueError("k_list must contain positive integers")
        object.__setattr__(self, "k_list", ks)

    def echo(self) -> dict:
        out = dataclasses.asdict(self)
        out["input"] = str(out["input"])
        out["output"] = None if out["output"] is None else str(out["output"])
        out["k_list"] = list(out["k_list"])
        return out


@dataclass
class ExperimentResult:
    """Per-mode reports, plus fcum/ucf ratios when both modes ran."""

    reports: dict[str, EvalReport]
    ratios: dict | None = None
    written: list[Path] = field(default_factory=list)


def ucf_scored_work(train) -> int:
    """Work counter for the baseline: users * (users * items + tags)."""
    return train.n_users * (train.n_users * train.n_items + train.n_tags)


def fcum_scored_work(clustering, train) -> int:
    """Per-cluster work counter summed over non-empty clusters."""
    total = 0
    for j, members in enumerate(clustering.user_clusters):
        n_j = len(members)
        if n_j == 0:
            continue
        total += n_j * (n_j * len(clustering.item_clusters[j]) + cluster_tag_count(clustering, train, j))
    return total


def _run_mode(mode, split, profiles, cfg, kmax):
    """Time one run of one mode and evaluate its ranklists.

    ``fcum`` clusters the users and then ranks within each cluster, and its
    report carries the clustering's work counters; ``ucf`` ranks every user
    against all users, so its clustering time is 0 and its score time is its
    total time.
    """
    train = split.train
    k_clusters = choose_k(train.n_users, cfg.avg_cluster_size) if mode == "fcum" else None
    start = mid = time.perf_counter()
    if mode == "fcum":
        clustering = coarse_cluster(train, profiles, k_clusters, cfg.iterations, cfg.gamma, cfg.seed)
        mid = time.perf_counter()
        ranklists = rank_fcum(clustering, train, profiles, cfg.beta, kmax)
    else:
        clustering, ranklists = None, rank_ucf(train, profiles, cfg.beta, kmax)
    end = time.perf_counter()
    timing = {"cluster_seconds": mid - start, "score_seconds": end - mid, "total_seconds": end - start}
    work = {
        "users": train.n_users,
        "items": train.n_items,
        "tags": train.n_tags,
        "scored_work": ucf_scored_work(train),
        "ucf_scored_work": ucf_scored_work(train),
    }
    if clustering is not None:
        work.update(
            scored_work=fcum_scored_work(clustering, train),
            clusters=clustering.k,
            nonempty_clusters=clustering.nonempty_clusters(),
            member_total=sum(len(m) for m in clustering.user_clusters),
            clustering_coordinate_ops=clustering.coordinate_ops,
        )
    report = EvalReport(
        mode=mode,
        per_k=[metrics_at_k(ranklists, split.test_sets, k) for k in cfg.k_list],
        timing=timing,
        work=work,
        config=dict(cfg.echo(), k_clusters=k_clusters),
    )
    return report, ranklists


def _ratios(reports, k_list) -> dict:
    ucf, fcum = reports["ucf"], reports["fcum"]
    ucf_total = ucf.timing["total_seconds"]
    out = {
        "total_seconds": (fcum.timing["total_seconds"] / ucf_total) if ucf_total > 0 else None,
        "recall": {},
        "precision": {},
        "f1": {},
    }
    by_k_ucf = {m.k: m for m in ucf.per_k}
    by_k_fcum = {m.k: m for m in fcum.per_k}
    for k in k_list:
        mu, mf = by_k_ucf[k], by_k_fcum[k]
        for name in ("recall", "precision", "f1"):
            base = getattr(mu, name)
            out[name][str(k)] = (getattr(mf, name) / base) if base > 0 else None
    return out


def split_corpus(cfg: ExperimentConfig):
    """Parse, filter and split the corpus; return ``(filtered, split)``."""
    graph = read_graph(cfg.input)
    filtered = filter_by_degree(graph, cfg.degree_threshold)
    if filtered.n_triples == 0:
        raise DataError(
            f"degree threshold {cfg.degree_threshold} removed every triple; try a lower --degree-threshold"
        )
    return filtered, temporal_split(filtered, cfg.split_ratio)


def prepare_corpus(cfg: ExperimentConfig):
    """Shared front half of the pipeline: ``split_corpus``, then the profiles."""
    filtered, split = split_corpus(cfg)
    return filtered, split, build_profiles(split.train)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the configured pipeline and (optionally) write the reports.

    Returns one report per requested mode; with ``mode="both"`` the result
    also carries fcum/ucf timing and metric ratios, and both algorithms see
    the identical split and profiles.
    """
    _, split, profiles = prepare_corpus(cfg)
    kmax = max(cfg.k_list)

    reports: dict[str, EvalReport] = {}
    ranklists_by_mode = {}
    for mode in ("ucf", "fcum"):
        if cfg.mode in (mode, "both"):
            reports[mode], ranklists_by_mode[mode] = _run_mode(mode, split, profiles, cfg, kmax)

    ratios = _ratios(reports, cfg.k_list) if len(reports) == 2 else None
    result = ExperimentResult(reports=reports, ratios=ratios)

    if cfg.output is not None:
        directory = Path(cfg.output)
        directory.mkdir(parents=True, exist_ok=True)
        for mode, report in reports.items():
            result.written.extend(write_report(report, directory, mode))
        if cfg.dump_ranklists:
            for mode, ranklists in ranklists_by_mode.items():
                path = directory / f"{mode}.ranklists.tsv"
                write_ranklists(ranklists, split.train, path)
                result.written.append(path)
        if ratios is not None:
            docs, timing = _result_docs(result)
            combined = {"config": cfg.echo(), **docs, "timing": timing}
            result.written.append(write_json(directory / "combined.json", combined))
    return result


def _result_docs(result: ExperimentResult) -> tuple[dict, dict]:
    """A run's untimed documents and its timing, for ``combined.json`` and ``sweep.json``.

    The first maps each mode to its ``report_dict`` without timing, plus
    ``ratios`` when both modes ran; the second maps each mode to its timing,
    plus the fcum/ucf ``total_seconds_ratio``, which is a timing too.
    """
    docs = {mode: report_dict(report) for mode, report in result.reports.items()}
    timing = {mode: doc.pop("timing") for mode, doc in docs.items()}
    if result.ratios is not None:
        docs["ratios"] = {k: v for k, v in result.ratios.items() if k != "total_seconds"}
        timing["total_seconds_ratio"] = result.ratios["total_seconds"]
    return docs, timing


def sweep(cfg: ExperimentConfig, param: str, values) -> list[ExperimentResult]:
    """Re-run the experiment once per value of one swept parameter.

    Everything else, including the seed, stays fixed. Every value is checked
    before the first run. Individual runs do not write files; when
    ``cfg.output`` is set a combined sweep report keyed by value is written
    instead.
    """
    if param not in SWEEPABLE:
        raise ValueError(f"sweep parameter must be one of {SWEEPABLE}, got {param!r}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    if len(set(values)) < len(values):
        raise ValueError(f"sweep values must be distinct, got {values}")
    run_cfgs = [dataclasses.replace(cfg, **{param: value, "output": None}) for value in values]

    results = [run_experiment(run_cfg) for run_cfg in run_cfgs]

    if cfg.output is not None:
        directory = Path(cfg.output)
        directory.mkdir(parents=True, exist_ok=True)
        runs, timing = {}, {}
        for value, result in zip(values, results):
            runs[str(value)], timing[str(value)] = _result_docs(result)
        doc = {
            "param": param,
            "values": [_json_value(v) for v in values],
            "config": cfg.echo(),
            "runs": runs,
            "timing": timing,
        }
        results[0].written.append(write_json(directory / "sweep.json", doc))
    return results


def _json_value(v):
    return v if isinstance(v, (int, float, str)) else str(v)
