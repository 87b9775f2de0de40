"""End-to-end experiment pipeline: ingest, filter, split, cluster, rank, evaluate.

``run_experiment`` executes the whole pipeline for one configuration. In
``mode="both"`` the baseline and the clustered recommender share one split
and one profile build, so their metrics are directly comparable; the
combined report then also carries their ratios. When the process may use
two or more CPUs, the two modes run at the same time: a forked child ranks
UCF's target users from one end while this process runs FCUM and then
ranks UCF's remaining users from the other end. Each mode's timing is thus
taken while the other process runs, and UCF's is the sum of both
processes' ranking seconds, its cost on one core. With one CPU the modes
run in turn. Each call of a ranking function stays single-threaded either
way. ``run_experiment`` and ``sweep`` pause Python's cyclic garbage
collector, and restore its state on exit: a run leaves a fixed handful of
reference cycles whatever the corpus size, and the forked child inherits
the pause.
"""

import contextlib
import dataclasses
import gc
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .clustering import choose_k, coarse_cluster
from .corpus import DataError, _check_integer, filter_by_degree, read_graph, temporal_split
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
        object.__setattr__(self, "k_list", tuple(self.k_list))  # any iterable: the checks below read it twice
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        try:  # a run's config echo is written to JSON, so a value JSON cannot write would fail after the work
            json.dumps(self.echo())
        except TypeError as exc:
            raise ValueError(f"config values must be JSON-writable: {exc}") from None
        for name in ("degree_threshold", "avg_cluster_size", "iterations", "seed"):
            _check_integer(name, getattr(self, name))
        for k in self.k_list:
            _check_integer(f"k_list entry {k!r}", k)
        if self.degree_threshold < 0:
            raise ValueError("degree_threshold must be non-negative")
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError("split_ratio must be strictly between 0 and 1")
        for name in ("beta", "gamma"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.avg_cluster_size < 1 or self.iterations < 1:
            raise ValueError("avg_cluster_size and iterations must be positive")
        if self.seed < 0:  # random.Random seeds with abs(seed), so -s would deal s's clusters
            raise ValueError("seed must be non-negative")
        ks = tuple(sorted(set(self.k_list)))
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
    """Per-mode reports, fcum/ucf ratios when both modes ran, and the modes' wall time."""

    reports: dict[str, EvalReport]
    ratios: dict | None = None
    modes_wall_seconds: float = 0.0
    written: list[Path] = field(default_factory=list)


def ucf_scored_work(train) -> int:
    """Work counter for the baseline: users * (users * items + tags)."""
    return train.n_users * (train.n_users * train.n_items + train.n_tags)


def fcum_scored_work(clustering, train) -> int:
    """Per-cluster work counter summed over clusters: n_j * (n_j * pool size + distinct tags), 0 if empty.

    The pool sizes and tag counts are the final centroids' key counts; ``train`` is not read.
    """
    return sum(len(members) * (len(members) * len(c.item_part) + len(c.tag_part))
               for members, c in zip(clustering.user_clusters, clustering.centroids) if c is not None)


def _rank(mode, train, profiles, cfg, kmax, users=None):
    """Time one mode's ranking; return ``(ranklists, timing, work)``.

    ``fcum`` clusters the users and then ranks within each cluster; ``ucf``
    ranks the given target ``users`` (every user by default) against all
    users, so its clustering time is 0 and its score time is its total time.
    This is the one timer of both modes. ``work`` holds the counters, the
    clustering's read after the clock stops; no ``Clustering`` outlives it.
    """
    k_clusters = choose_k(train.n_users, cfg.avg_cluster_size) if mode == "fcum" else None
    start = mid = time.perf_counter()
    if mode == "fcum":
        clustering = coarse_cluster(train, profiles, k_clusters, cfg.iterations, cfg.gamma, cfg.seed)
        mid = time.perf_counter()
        ranklists = rank_fcum(clustering, train, profiles, cfg.beta, kmax)
    else:
        clustering, ranklists = None, rank_ucf(train, profiles, cfg.beta, kmax, users)
    end = time.perf_counter()
    ucf_work = ucf_scored_work(train)
    work = {
        "users": train.n_users,
        "items": train.n_items,
        "tags": train.n_tags,
        "scored_work": ucf_work,
        "ucf_scored_work": ucf_work,
    }
    if clustering is not None:
        work.update(
            scored_work=fcum_scored_work(clustering, train),
            clusters=clustering.k,
            nonempty_clusters=clustering.nonempty_clusters(),
            member_total=sum(len(m) for m in clustering.user_clusters),
            clustering_coordinate_ops=clustering.coordinate_ops,
        )
    timing = {"cluster_seconds": mid - start, "score_seconds": end - mid, "total_seconds": end - start}
    return ranklists, timing, work


def _report(mode, test_sets, cfg, ranklists, timing, work) -> EvalReport:
    """Evaluate one mode's ranklists against the test sets; ``_rank``'s timing and work pass through."""
    return EvalReport(
        mode=mode,
        per_k=[metrics_at_k(ranklists, test_sets, k) for k in cfg.k_list],
        timing=timing,
        work=work,
        config=dict(cfg.echo(), k_clusters=work.get("clusters")),
    )


def _ratios(reports) -> dict:
    """fcum/ucf ratios, None where ucf's value is 0; both reports' ``per_k`` follow ``cfg.k_list``."""
    ucf, fcum = reports["ucf"], reports["fcum"]
    ucf_total = ucf.timing["total_seconds"]
    out = {
        "total_seconds": (fcum.timing["total_seconds"] / ucf_total) if ucf_total > 0 else None,
        "recall": {},
        "precision": {},
        "f1": {},
    }
    for mu, mf in zip(ucf.per_k, fcum.per_k):
        for name in ("recall", "precision", "f1"):
            base = getattr(mu, name)
            out[name][str(mu.k)] = (getattr(mf, name) / base) if base > 0 else None
    return out


def split_corpus(cfg: ExperimentConfig):
    """Parse, filter and split the corpus; return ``(filtered, split)``."""
    filtered = filter_by_degree(read_graph(cfg.input), cfg.degree_threshold)  # frees the parsed graph
    if filtered.n_triples == 0:
        raise DataError(
            f"degree threshold {cfg.degree_threshold} removed every triple; try a lower --degree-threshold"
        )
    return filtered, temporal_split(filtered, cfg.split_ratio)


def prepare_corpus(cfg: ExperimentConfig):
    """Shared front half of the pipeline: ``split_corpus``, then the profiles; returns all three."""
    filtered, split = split_corpus(cfg)
    return filtered, split, build_profiles(split.train)


def _prepared(cfg: ExperimentConfig):
    """What the modes read of ``prepare_corpus(cfg)``: ``(train graph, test sets, profiles)``.

    No name outlives this call, so the filtered graph and the held-out
    quads are freed before the modes run.
    """
    split, profiles = prepare_corpus(cfg)[1:]
    return split.train, split.test_sets, profiles


@contextlib.contextmanager
def _collector_paused():
    """Disable Python's cyclic garbage collector for the block, then restore the state it had."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _claim_front(lo, hi):
    """Claim indices upwards from ``lo.value`` until they meet ``hi.value``, writing ``lo`` only."""
    i = lo.value
    while i < hi.value:
        lo.value = i + 1
        yield i
        i += 1


def _claim_back(lo, hi):
    """Claim indices downwards from ``hi.value - 1`` until they meet ``lo.value``, writing ``hi`` only."""
    j = hi.value - 1
    while j >= lo.value:
        hi.value = j
        yield j
        j -= 1


def _ucf_child(sender, train, profiles, cfg, kmax, lo, hi):
    """Body of the forked child: rank UCF's users from the back and send the outcome.

    The message is ``_rank``'s ``(ranklists, timing, work)``, or the exception that ranking raised.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C and terminates this child
    try:
        message = _rank("ucf", train, profiles, cfg, kmax, _claim_back(lo, hi))
    except Exception as exc:
        message = exc
    sender.send(message)


def _run_side_by_side(train, profiles, cfg, kmax) -> dict:
    """Rank FCUM here while a forked child ranks UCF's users; return ``{mode: _rank's triple}``.

    UCF's target users are shared through two integers in shared memory:
    the child claims users from the back as soon as it starts (``hi``
    falls), this process from the front once its FCUM is done (``lo``
    rises). Each process writes only its own end, and as the ends only move
    towards each other, a stale read of the other's end only makes a process
    stop later. So no user is skipped, only where the ends meet can a user
    be ranked twice (to the same ranklist), and there is no lock that a
    dying child could leave held. UCF's ranklists are both processes'
    merged, and its timing is the sum of their timings, its cost on one core.

    The child inherits the train graph and profiles and sends ``_rank``'s
    triple back over a one-way pipe, or the exception that stopped it,
    which is raised here with its type and message. A child that exits
    without a result raises ``ChildProcessError`` once this process has
    ranked its share. The child is always joined, and is terminated if
    anything here fails, ``KeyboardInterrupt`` included.
    """
    import multiprocessing  # here only: at module level it adds ~1 MiB to the peak RSS of every run

    context = multiprocessing.get_context("fork")
    lo, hi = context.RawValue("q", 0), context.RawValue("q", train.n_users)
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_ucf_child, args=(sender, train, profiles, cfg, kmax, lo, hi))
    child.start()
    sender.close()  # so the child's exit without a result reads as end of file
    try:
        fcum = _rank("fcum", train, profiles, cfg, kmax)
        ranklists, timing, work = _rank("ucf", train, profiles, cfg, kmax, _claim_front(lo, hi))
        try:
            outcome = receiver.recv()
        except EOFError:
            child.join()
            message = f"the ucf child exited with code {child.exitcode} without a result"
            raise ChildProcessError(message) from None
        if isinstance(outcome, Exception):
            raise outcome
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        receiver.close()
    child_ranklists, child_timing, _ = outcome
    ranklists.update(child_ranklists)
    timing = {key: seconds + child_timing[key] for key, seconds in timing.items()}
    return {"ucf": (ranklists, timing, work), "fcum": fcum}


def _run_prepared(cfg: ExperimentConfig, train, test_sets, profiles) -> ExperimentResult:
    """``run_experiment`` on the train graph, test sets and profiles of ``_prepared(cfg)``."""
    kmax = max(cfg.k_list)
    modes = [mode for mode in ("ucf", "fcum") if cfg.mode in (mode, "both")]

    # fork copies only this thread: a lock that another thread holds would stay held in the child
    side_by_side = (len(modes) == 2 and _usable_cpus() >= 2 and hasattr(os, "fork")
                    and threading.active_count() == 1)
    start = time.perf_counter()
    if side_by_side:
        runs = _run_side_by_side(train, profiles, cfg, kmax)
    else:
        runs = {mode: _rank(mode, train, profiles, cfg, kmax) for mode in modes}
    modes_wall_seconds = time.perf_counter() - start

    reports = {mode: _report(mode, test_sets, cfg, *run) for mode, run in runs.items()}
    ratios = _ratios(reports) if len(reports) == 2 else None
    result = ExperimentResult(reports=reports, ratios=ratios, modes_wall_seconds=modes_wall_seconds)

    if cfg.output is not None:
        directory = Path(cfg.output)
        for mode, report in reports.items():
            result.written.extend(write_report(report, directory, mode))
        if cfg.dump_ranklists:
            for mode in reports:
                path = directory / f"{mode}.ranklists.tsv"
                write_ranklists(runs[mode][0], train, path)
                result.written.append(path)
        if ratios is not None:
            docs, timing = _result_docs(result)
            combined = {"config": cfg.echo(), **docs, "timing": timing}
            result.written.append(write_json(directory / "combined.json", combined))
    return result


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the configured pipeline and (optionally) write the reports.

    Returns one report per requested mode; with ``mode="both"`` the result
    also carries fcum/ucf timing and metric ratios, and both algorithms see
    the identical split and profiles. ``modes_wall_seconds`` is the time
    from the start of the modes until all have finished ranking; the
    reports are built after it. It covers the sum of the modes' ranking
    times when they ran in turn. Side by side, where a forked child ranks
    UCF's users while this process ranks FCUM and then helps with UCF, it
    covers FCUM's time and half the sum, as both processes' timed spans lie
    in it.
    """
    with _collector_paused():
        return _run_prepared(cfg, *_prepared(cfg))


def _result_docs(result: ExperimentResult) -> tuple[dict, dict]:
    """A run's untimed documents and its timing, for ``combined.json`` and ``sweep.json``.

    The first maps each mode to its ``report_dict`` without timing, plus
    ``ratios`` when both modes ran; the second maps each mode to its timing,
    plus ``modes_wall_seconds`` and the fcum/ucf ``total_seconds_ratio``,
    which are timings too.
    """
    docs = {mode: report_dict(report) for mode, report in result.reports.items()}
    timing = {mode: doc.pop("timing") for mode, doc in docs.items()}
    timing["modes_wall_seconds"] = round(result.modes_wall_seconds, 3)
    if result.ratios is not None:
        docs["ratios"] = {k: v for k, v in result.ratios.items() if k != "total_seconds"}
        timing["total_seconds_ratio"] = result.ratios["total_seconds"]
    return docs, timing


def sweep(cfg: ExperimentConfig, param: str, values) -> list[ExperimentResult]:
    """Re-run the experiment once per value of one swept parameter.

    Everything else, including the seed, stays fixed. Every value is checked
    before the first run. The corpus is prepared once and shared, unless the
    swept parameter is ``degree_threshold``, the only one that changes it;
    then each value prepares its own. Individual runs do not write files;
    when ``cfg.output`` is set a combined sweep report keyed by value is
    written instead, once every value has run, and its path is in the last
    result's ``written``. Its ``values`` are written as given, as in each
    run's config echo.
    """
    if param not in SWEEPABLE:
        raise ValueError(f"sweep parameter must be one of {SWEEPABLE}, got {param!r}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    if len(set(values)) < len(values):
        raise ValueError(f"sweep values must be distinct, got {values}")
    run_cfgs = [dataclasses.replace(cfg, **{param: value, "output": None}) for value in values]

    with _collector_paused():
        shared = None if param == "degree_threshold" else _prepared(cfg)
        results = [_run_prepared(run_cfg, *(shared or _prepared(run_cfg))) for run_cfg in run_cfgs]

        if cfg.output is not None:
            directory = Path(cfg.output)
            runs, timing = {}, {}
            for value, result in zip(values, results):
                runs[str(value)], timing[str(value)] = _result_docs(result)
            doc = {
                "param": param,
                "values": values,
                "config": cfg.echo(),
                "runs": runs,
                "timing": timing,
            }
            results[-1].written.append(write_json(directory / "sweep.json", doc))
        return results
