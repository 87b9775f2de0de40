"""One benchmark run of one workload: set-up, reference, closed loop, gate, metrics.

Load is a closed loop with a single caller: each repeat starts when the
previous one has returned, all in this one process. An untraced run
(``trace=False``) yields the end-to-end metrics. ``wall_s`` and ``setup_s``
are means over the whole run: the host's speed changes level in spells of
seconds to a minute, and a mean weighs every spell of the run by its length
where a median of a few samples reads one level. A traced run
alternates an untraced and a traced repeat, so the difference of their
medians is the tracing overhead. It yields the per-layer metrics: stage times
from the reports' timing (every repeat) and the traced repeats' spans, and
exact work counters computed after the loop.
"""

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import time
from pathlib import Path

import counters
import gate
from tagrec.synthetic import generate_synthetic
from tracing import Tracer, durations, no_span, self_times, top_level_seconds
from workloads import Workload, run_repeat

SETUP_BEFORE = 2  # corpus generations before the loop; one more follows each round
MIN_ROUNDS = {False: 3, True: 1}  # untraced repeats, or traced pairs
LAYERS = ("corpus", "profiles", "clustering", "recommend", "evaluate", "experiment", "cli")
MODES = ("ucf", "fcum")

# per-layer metric -> (report, timing key), sampled from every repeat's reports
REPORT_METRICS = {
    "recommend.ucf_s": ("ucf", "total_seconds"),
    "recommend.fcum_s": ("fcum", "score_seconds"),
    "clustering.cluster_s": ("fcum", "cluster_seconds"),
    "experiment.fcum_s": ("fcum", "total_seconds"),
}

# per-layer metric -> the span names whose durations it sums, from traced repeats
SPAN_METRICS = {
    "recommend.write_ranklists_s": ("recommend.write_ranklists",),
    "corpus.read_s": ("corpus.read_triples",),
    "corpus.build_s": ("corpus.build_graph",),
    "corpus.filter_s": ("corpus.filter_by_degree",),
    "corpus.split_s": ("corpus.temporal_split",),
    "profiles.build_s": ("profiles.build_profiles",),
    "evaluate.metrics_s": ("evaluate.metrics_at_k",),
    "evaluate.write_report_s": ("evaluate.write_report",),
}


def quartiles(values) -> dict:
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"mean": statistics.fmean(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _report_docs(out: Path) -> dict:
    """``{mode: report document}`` from the ``<mode>.report.json`` files a repeat wrote."""
    return {mode: json.loads((out / f"{mode}.report.json").read_text(encoding="utf-8"))
            for mode in MODES if (out / f"{mode}.report.json").is_file()}


def _reset(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()


def _check(out: Path, work: Path, first, reference):
    """(first repeat's snapshot, error or None) for the files a repeat wrote in ``out``."""
    try:
        snap = gate.snapshot(out, work)
    except (OSError, ValueError) as exc:
        return first, f"outputs unreadable: {exc}"
    if first is None:
        first = snap
    if snap != first:
        return first, "outputs differ from the first repeat's"
    if reference is None:
        return first, "no CLI reference to compare with"
    if bad := gate.mismatches(snap, reference):
        return first, f"outputs differ from the CLI's: {', '.join(bad)}"
    return first, None


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, src: Path, work_root: Path) -> dict:
    """Run one workload; return the results record (raw samples, summary, metric values)."""
    work = work_root / f"{w.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(w, seed, seconds, trace, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(w, seed, seconds, trace, src, work) -> dict:
    corpus, out = work / "corpus.tsv", work / "out"
    failures: dict[str, int] = {}

    def fail(msg):
        failures[msg] = failures.get(msg, 0) + 1

    # Set-up: generate the corpus before the loop and again after each round,
    # so the samples span the run; every copy must be identical.
    spec = dataclasses.replace(w.spec, seed=seed)
    setup_s, corpus_sha = [], set()

    def set_up(path):
        gc.collect()
        start = time.perf_counter()
        generate_synthetic(spec, path)
        setup_s.append(time.perf_counter() - start)
        corpus_sha.add(hashlib.sha256(path.read_bytes()).hexdigest())

    for _ in range(SETUP_BEFORE):
        set_up(corpus)

    # Reference output from the CLI in a fresh process; its peak RSS is peak_rss_mb.
    _reset(out)
    code, rss_mb, err_tail = gate.run_cli(w.cli_args(str(corpus), str(out)), src, work)
    reference = gate.snapshot(out, work) if code == 0 else None
    if reference is None:
        fail(f"tagrec CLI exited with {code}: {err_tail.strip()}")

    walls = {False: [], True: []}
    traces, timings, first = [], [], None
    reports = None
    attempted = failed = 0
    kinds = (False, True) if trace else (False,)
    loop_s = 0.0
    while True:
        round_start = time.perf_counter()
        for traced in kinds:
            _reset(out)
            tracer = Tracer(f"{w.name}-seed{seed}-repeat{attempted}") if traced else None
            gc.collect()
            start = time.perf_counter()
            try:
                with tracer.installed() if traced else contextlib.nullcontext():
                    run_repeat(w, str(corpus), str(out), tracer.span if traced else no_span)
                error = None
            except Exception as exc:  # a failing repeat is counted and the loop goes on
                error = f"repeat raised {type(exc).__name__}: {exc}"
            walls[traced].append(time.perf_counter() - start)
            attempted += 1
            if error is None:
                first, error = _check(out, work, first, reference)
            if error is None:
                reports = _report_docs(out)
                timings.append({mode: doc["timing"] for mode, doc in reports.items()})
            else:
                failed += 1
                fail(error)
            if traced:
                traces.append(tracer.spans)
        loop_s += time.perf_counter() - round_start
        set_up(work / "setup.tsv")
        rounds = len(walls[False])
        if rounds >= MIN_ROUNDS[trace] and loop_s * (rounds + 1) / rounds > seconds:
            break
    if len(corpus_sha) != 1:
        fail("generate_synthetic wrote different corpora for one seed")

    samples = {"setup_s": setup_s, "wall_s": walls[False]}
    values = {
        "setup_s": statistics.fmean(setup_s),
        "wall_s": statistics.fmean(walls[False]),
        "peak_rss_mb": rss_mb,
        "pass_rate": (attempted - failed) / attempted,
    }
    if trace:
        layer_samples, layer_values = _layer_times(walls, traces, timings)
        samples.update(layer_samples)
        values.update(layer_values)
        values.update(_work_counters(w, corpus, out, work, reports, first, fail))
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "attempted": attempted,
        "failed": failed,
        "correct": not failures,
        "failures": failures,
        "values": values,
        "samples": samples,
        "summary": {name: quartiles(vals) for name, vals in samples.items() if vals},
        "digests": gate.digests(first) if first else {},
        "cli_digests": gate.digests(reference) if reference else {},
        "spans": [s for spans in traces for s in spans],
    }


def _layer_times(walls, traces, timings):
    samples: dict[str, list[float]] = {name: [] for name in SPAN_METRICS}
    samples.update({f"{layer}.self_s": [] for layer in LAYERS})
    samples["trace.unaccounted_s"] = []
    for spans, wall in zip(traces, walls[True]):
        dur, own = durations(spans), self_times(spans)
        for name, span_names in SPAN_METRICS.items():
            samples[name].append(sum(dur.get(s, 0.0) for s in span_names))
        for layer in LAYERS:
            samples[f"{layer}.self_s"].append(own.get(layer, 0.0))
        samples["trace.unaccounted_s"].append(wall - top_level_seconds(spans))
    for name, (mode, key) in REPORT_METRICS.items():
        samples[name] = [t[mode][key] for t in timings if mode in t]
    samples["experiment.fcum_ucf_ratio"] = [t["fcum"]["total_seconds"] / t["ucf"]["total_seconds"]
                                            for t in timings if "ucf" in t]
    values = {name: statistics.median(vals) for name, vals in samples.items() if vals}
    samples["trace.wall_s"] = walls[True]
    values["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    return samples, values


def _work_counters(w, corpus, out, work, reports, outputs, fail) -> dict:
    records_in = corpus.read_bytes().count(b"\n")
    values = {"corpus.records_in": records_in}
    if reports is None:
        fail("no successful repeat to count work from")
        return values
    found, problems = counters.experiment_counters(w.config(str(corpus), str(out)), reports, outputs,
                                                   work / "per-cluster.ranklists.tsv")
    for msg in problems:
        fail(msg)
    values.update(found)
    values["corpus.keep_ratio"] = values["corpus.triples_kept"] / records_in
    return values
