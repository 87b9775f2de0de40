import dataclasses
import gc
import json
import multiprocessing
import os
import random
import threading
import time
import weakref
from enum import IntEnum
from fractions import Fraction
from itertools import count, cycle, repeat
from pathlib import Path
from types import SimpleNamespace

import pytest

from tagrec import corpus, experiment
from tagrec.corpus import DataError, TripartiteGraph
from tagrec.evaluate import EvalReport, MetricsAtK
from tagrec.experiment import ExperimentConfig, run_experiment, sweep
from tagrec.synthetic import SyntheticSpec, generate_synthetic

from conftest import wrong_kinds


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "small.tsv"
    spec = SyntheticSpec(
        n_users=60,
        n_items=300,
        n_tags=100,
        n_communities=4,
        triples_per_user=24,
        in_community_prob=0.9,
        seed=3,
    )
    generate_synthetic(spec, path)
    return path


class Level(IntEnum):
    ONE = 1
    TWO = 2


def config(corpus_path, **overrides):
    params = dict(
        input=str(corpus_path),
        mode="both",
        degree_threshold=2,
        avg_cluster_size=15,
        k_list=(1, 5, 10),
    )
    params.update(overrides)
    return ExperimentConfig(**params)


class TestConfigValidation:
    def test_defaults_match_reference_settings(self):
        cfg = ExperimentConfig(input="x")
        assert cfg.mode == "both"
        assert cfg.degree_threshold == 5
        assert cfg.split_ratio == 0.8
        assert cfg.beta == 0.5 and cfg.gamma == 0.5
        assert cfg.avg_cluster_size == 90
        assert cfg.iterations == 2
        assert cfg.k_list == tuple(range(1, 21))
        assert cfg.seed == 42

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ExperimentConfig(input="x", mode="hybrid")
        with pytest.raises(ValueError):
            ExperimentConfig(input="x", split_ratio=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(input="x", beta=-0.5)
        with pytest.raises(ValueError):
            ExperimentConfig(input="x", k_list=())
        with pytest.raises(ValueError):
            ExperimentConfig(input="x", k_list=(0, 5))
        with pytest.raises(ValueError):
            ExperimentConfig(input="x", iterations=0)
        with pytest.raises(ValueError, match="seed"):  # random.Random(-3) would deal seed 3's clusters
            ExperimentConfig(input="x", seed=-3)
        ExperimentConfig(input="x", seed=0)
        # a run writes its config echo to JSON, so a value that JSON cannot write is refused up front, by its kind
        for field, value, kind in (("beta", Fraction(1, 2), "a number"), ("iterations", Fraction(2), "an integer"),
                                   ("degree_threshold", Fraction(3), "an integer")):
            with pytest.raises(ValueError, match=f"^{field} must be {kind}$"):
                ExperimentConfig(input="x", **{field: value})
        with pytest.raises(ValueError, match="^k_list must be an iterable of integers$"):  # was a TypeError
            ExperimentConfig(input="x", k_list=5)
        # a float count raised TypeError only once clustering began, a bool ran, and a float k was truncated
        for field, value in (("iterations", 2.0), ("iterations", True), ("avg_cluster_size", 90.0),
                             ("degree_threshold", False), ("seed", 42.0)):
            with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
                ExperimentConfig(input="x", **{field: value})
        # a bad path ran the whole pipeline before Path(output) raised TypeError, or read_graph raised it
        for field, value, noun in (("output", 123, "a path or None"), ("output", b"out", "a path or None"),
                                   ("input", None, "a path")):
            with pytest.raises(ValueError, match=f"^{field} must be {noun}$"):
                ExperimentConfig(**{"input": "x", field: value})
        for k_list in ((2.5, 5), (1, True), (5, 5.0)):
            with pytest.raises(ValueError, match="k_list entry .* must be an integer"):
                ExperimentConfig(input="x", k_list=k_list)

    def test_every_field_has_a_kind_the_rule_knows(self):
        assert all(f.type in corpus._KINDS for f in dataclasses.fields(ExperimentConfig))

    @pytest.mark.parametrize("field, make", wrong_kinds(ExperimentConfig))
    def test_each_wrong_kind_is_refused_naming_the_field(self, field, make):
        # a str float raised TypeError from the range check, a bool float or a str bool was accepted
        with pytest.raises(ValueError, match=f"^{field}( entry .*)? must be "):
            ExperimentConfig(**{"input": "x", field: make()})  # so that ``field`` may be ``input`` itself

    @pytest.mark.parametrize("with_numpy", [False, True])
    def test_accepted_values_have_a_json_writable_echo(self, with_numpy):
        ints, ratios = [0, 1, 2, Level.ONE, Level.TWO], [0.25, 0.5, 0.75]
        if with_numpy:
            ratios.append(pytest.importorskip("numpy").float64(0.6))
        unit = [*ratios, 0, 1, 0.0, 1.0, Level.ONE]  # integer floats and ints are numbers too
        rng = random.Random(27)
        for _ in range(60):
            cfg = ExperimentConfig(
                input=rng.choice(["x", Path("x")]), mode=rng.choice(experiment.MODES),
                degree_threshold=rng.choice(ints), split_ratio=rng.choice(ratios), beta=rng.choice(unit),
                gamma=rng.choice(unit), avg_cluster_size=rng.choice(ints[1:]), iterations=rng.choice(ints[1:]),
                k_list=rng.sample(ints[1:], 2), seed=rng.choice(ints), output=rng.choice([None, "out", Path("o")]),
                dump_ranklists=rng.choice([False, True]),
            )
            echo = cfg.echo()
            assert json.loads(json.dumps(echo)) == echo

    def test_k_list_sorted_and_deduplicated(self):
        cfg = ExperimentConfig(input="x", k_list=(10, 5, 5, 1))
        assert cfg.k_list == (1, 5, 10)
        assert ExperimentConfig(input="x", k_list=(k for k in (10, 5, 5, 1))).k_list == (1, 5, 10)


class TestRunExperiment:
    def test_both_modes_share_one_split(self, corpus_path):
        result = run_experiment(config(corpus_path))
        assert set(result.reports) == {"ucf", "fcum"}
        ucf, fcum = result.reports["ucf"], result.reports["fcum"]
        assert ucf.work["users"] == fcum.work["users"]
        assert [m.k for m in ucf.per_k] == [1, 5, 10]
        assert result.ratios is not None
        assert result.ratios["total_seconds"] > 0

    def test_cluster_sizes_sum_to_user_count(self, corpus_path):
        result = run_experiment(config(corpus_path, mode="fcum"))
        work = result.reports["fcum"].work
        assert work["member_total"] == work["users"]

    def test_fcum_work_strictly_below_ucf_work(self, corpus_path):
        result = run_experiment(config(corpus_path, mode="fcum"))
        work = result.reports["fcum"].work
        assert work["nonempty_clusters"] >= 2
        assert work["scored_work"] < work["ucf_scored_work"]

    def test_single_cluster_fcum_equals_ucf_metrics(self, corpus_path):
        cfg = config(corpus_path, avg_cluster_size=10_000)
        result = run_experiment(cfg)
        ucf, fcum = result.reports["ucf"], result.reports["fcum"]
        assert fcum.config["k_clusters"] == 1
        assert fcum.per_k == ucf.per_k

    def test_standalone_ucf_matches_both_mode_ucf(self, corpus_path):
        both = run_experiment(config(corpus_path))
        alone = run_experiment(config(corpus_path, mode="ucf"))
        assert alone.reports["ucf"].per_k == both.reports["ucf"].per_k

    def test_reports_deterministic_excluding_timing(self, corpus_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(config(corpus_path, output=str(out_a)))
        run_experiment(config(corpus_path, output=str(out_b)))
        for name in ("ucf.report.txt", "fcum.report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("ucf.report.json", "fcum.report.json"):
            doc_a = json.loads((out_a / name).read_text())
            doc_b = json.loads((out_b / name).read_text())
            doc_a.pop("timing"), doc_b.pop("timing")
            doc_a["config"].pop("output"), doc_b["config"].pop("output")
            assert doc_a == doc_b
        combined_a = json.loads((out_a / "combined.json").read_text())
        assert set(combined_a) == {"config", "ucf", "fcum", "ratios", "timing"}

    def test_ratios_pair_the_modes_metrics_at_the_same_k(self, corpus_path, tmp_path):
        result = run_experiment(config(corpus_path, k_list=(10, 5, 5, 20), output=str(tmp_path)))
        ratios = json.loads((tmp_path / "combined.json").read_text())["ratios"]
        ucf = {m.k: m for m in result.reports["ucf"].per_k}
        fcum = {m.k: m for m in result.reports["fcum"].per_k}
        for name in ("recall", "precision", "f1"):
            assert list(ratios[name]) == ["10", "20", "5"]  # key-sorted JSON
            for k in (5, 10, 20):
                base = getattr(ucf[k], name)
                assert ratios[name][str(k)] == (getattr(fcum[k], name) / base if base > 0 else None)

    def test_a_ratio_over_a_zero_baseline_is_none(self):
        def report(mode, seconds, *per_k):
            return EvalReport(mode, [MetricsAtK(k, *values) for k, values in per_k], {"total_seconds": seconds})

        ratios = experiment._ratios({
            "ucf": report("ucf", 0.0, (1, (0.0, 0.0, 0.0)), (5, (0.5, 0.25, 0.2))),
            "fcum": report("fcum", 1.0, (1, (0.1, 0.1, 0.1)), (5, (0.25, 0.5, 0.1))),
        })
        assert ratios == {"total_seconds": None, "recall": {"1": None, "5": 0.5},
                          "precision": {"1": None, "5": 2.0}, "f1": {"1": None, "5": 0.5}}

    def test_overaggressive_threshold_is_a_data_error(self, corpus_path):
        with pytest.raises(DataError, match="lower"):
            run_experiment(config(corpus_path, degree_threshold=10_000))

    def test_missing_input_file(self, tmp_path):
        with pytest.raises(DataError):
            run_experiment(config(tmp_path / "absent.tsv"))


class TestSweep:
    def test_singleton_sweep_equals_plain_run(self, corpus_path):
        cfg = config(corpus_path, mode="fcum")
        swept = sweep(cfg, "iterations", [2])
        direct = run_experiment(dataclasses.replace(cfg, output=None))
        assert swept[0].reports["fcum"].per_k == direct.reports["fcum"].per_k

    def test_sweep_varies_one_parameter(self, corpus_path):
        results = sweep(config(corpus_path, mode="fcum"), "iterations", [1, 2, 3])
        assert len(results) == 3
        echoes = [r.reports["fcum"].config["iterations"] for r in results]
        assert echoes == [1, 2, 3]
        seeds = {r.reports["fcum"].config["seed"] for r in results}
        assert seeds == {42}

    def test_sweep_writes_combined_report(self, corpus_path, tmp_path):
        cfg = config(corpus_path, mode="fcum", output=str(tmp_path / "sweepout"))
        sweep(cfg, "avg_cluster_size", [10, 20])
        doc = json.loads((tmp_path / "sweepout" / "sweep.json").read_text())
        assert doc["param"] == "avg_cluster_size"
        assert doc["values"] == [10, 20]
        assert set(doc["runs"]) == {"10", "20"}

    @pytest.mark.parametrize("param, values, preparations", [
        ("iterations", [1, 2, 3], 1),
        ("degree_threshold", [1, 2, 3], 3),
    ])
    def test_corpus_is_prepared_once_unless_the_threshold_is_swept(self, param, values, preparations,
                                                                  corpus_path, monkeypatch):
        calls = []
        real = experiment.prepare_corpus

        def counting(cfg):
            calls.append(cfg.degree_threshold)
            return real(cfg)

        monkeypatch.setattr(experiment, "prepare_corpus", counting)
        results = sweep(config(corpus_path), param, values)
        assert len(calls) == preparations
        for value, result in zip(values, results):
            direct = run_experiment(config(corpus_path, **{param: value}))
            for mode in ("ucf", "fcum"):
                assert result.reports[mode].per_k == direct.reports[mode].per_k

    @pytest.mark.parametrize("param, values, message", [
        ("beta", [Fraction(1, 4), Fraction(1, 2)], "^beta must be a number$"),
        ("iterations", [1, 2.0], "integer"),
    ])
    def test_value_json_cannot_write_is_refused_before_any_run(self, param, values, message, corpus_path, tmp_path,
                                                               monkeypatch):
        def fail(cfg):
            raise AssertionError("the sweep started a run")

        monkeypatch.setattr(experiment, "prepare_corpus", fail)
        cfg = config(corpus_path, output=str(tmp_path / "out"))
        with pytest.raises(ValueError, match=message):
            sweep(cfg, param, values)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_parameter_rejected(self, corpus_path):
        with pytest.raises(ValueError):
            sweep(config(corpus_path), "threads", [1, 2])
        with pytest.raises(ValueError):
            sweep(config(corpus_path), "iterations", [])


def _record_pids(monkeypatch, directory):
    """Make each ``_rank`` call append the pid that ran it to ``<directory>/<mode>.pids``."""
    real = experiment._rank

    def recording(mode, *args):
        with open(directory / f"{mode}.pids", "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(mode, *args)

    monkeypatch.setattr(experiment, "_rank", recording)


def _pids(directory, mode):
    """The pids that ranked ``mode``, as ``_record_pids`` recorded them, and forget them."""
    path = directory / f"{mode}.pids"
    pids = list(map(int, path.read_text().split()))
    path.unlink()
    return pids


def _untimed_outputs(directory):
    """Every file a run wrote: JSON documents without ``timing``, other files as bytes."""
    out = {}
    for path in sorted(directory.iterdir()):
        if path.suffix == ".json":
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc.pop("timing")
            out[path.name] = doc
        else:
            out[path.name] = path.read_bytes()
    return out


class TestSideBySide:
    def test_one_or_two_cpus_write_identical_outputs(self, corpus_path, tmp_path, usable_cpus, monkeypatch):
        out = tmp_path / "out"
        cfg = config(corpus_path, output=str(out), dump_ranklists=True)
        _record_pids(monkeypatch, tmp_path)
        outputs, pids = {}, {}
        for cpus in (1, 2):
            usable_cpus(cpus)
            result = run_experiment(cfg)
            outputs[cpus] = _untimed_outputs(out)
            pids[cpus] = {mode: _pids(tmp_path, mode) for mode in ("ucf", "fcum")}
            ucf_total, fcum_total = (result.reports[mode].timing["total_seconds"] for mode in ("ucf", "fcum"))
            if cpus == 1:  # the modes' wall time covers their sum when they ran in turn
                assert result.modes_wall_seconds >= ucf_total + fcum_total
            else:  # the child's timed spans lie inside the modes' wall time, as do the parent's
                assert fcum_total <= result.modes_wall_seconds
                assert ucf_total + fcum_total <= 2 * result.modes_wall_seconds
            timing = json.loads((out / "combined.json").read_text(encoding="utf-8"))["timing"]
            assert timing["modes_wall_seconds"] == round(result.modes_wall_seconds, 3)
            for path in out.iterdir():
                path.unlink()
        assert set(outputs[1]) == {
            "combined.json", *(f"{mode}.{kind}" for mode in ("ucf", "fcum")
                               for kind in ("report.txt", "report.json", "ranklists.tsv")),
        }
        assert outputs[1] == outputs[2]
        assert pids[1] == {"ucf": [os.getpid()], "fcum": [os.getpid()]}
        assert pids[2]["fcum"] == [os.getpid()]  # FCUM runs here; a forked child and this process share UCF
        assert len(pids[2]["ucf"]) == len(set(pids[2]["ucf"])) == 2 and os.getpid() in pids[2]["ucf"]

    def test_both_processes_rank_ucf_users_and_every_user_is_ranked(self, corpus_path, tmp_path, usable_cpus,
                                                                     ucf_share, no_hang):
        def record(user):
            with open(tmp_path / f"{os.getpid()}.users", "a", encoding="utf-8") as fh:
                fh.write(f"{user}\n")

        ucf_share(record)
        usable_cpus(1)
        alone = run_experiment(config(corpus_path))
        usable_cpus(2)
        shared = run_experiment(config(corpus_path))
        assert shared.reports["ucf"].per_k == alone.reports["ucf"].per_k
        ranked = {int(path.stem): list(map(int, path.read_text().split())) for path in tmp_path.glob("*.users")}
        front = ranked.pop(os.getpid())
        (back,) = ranked.values()
        n_users = shared.reports["ucf"].work["users"]
        assert front == list(range(len(front))) and back == list(range(n_users - 1, n_users - 1 - len(back), -1))
        assert front and back and set(front) | set(back) == set(range(n_users))

    def test_single_mode_never_forks(self, corpus_path, tmp_path, usable_cpus, monkeypatch):
        usable_cpus(2)
        _record_pids(monkeypatch, tmp_path)
        for mode in ("ucf", "fcum"):
            run_experiment(config(corpus_path, mode=mode))
            assert _pids(tmp_path, mode) == [os.getpid()]

    def test_no_fork_while_another_thread_runs(self, corpus_path, tmp_path, usable_cpus, monkeypatch):
        usable_cpus(2)
        _record_pids(monkeypatch, tmp_path)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            run_experiment(config(corpus_path))
        finally:
            release.set()
            waiter.join()
        assert _pids(tmp_path, "ucf") == _pids(tmp_path, "fcum") == [os.getpid()]

    def test_interrupt_terminates_and_joins_the_child(self, corpus_path, tmp_path, usable_cpus, monkeypatch,
                                                      no_hang):
        usable_cpus(2)
        started = tmp_path / "ucf.pid"

        def slow_ucf_and_interrupted_fcum(mode, *args):
            if mode == "ucf":  # only the child gets here: this process fails in FCUM first
                started.write_text(str(os.getpid()))
                time.sleep(120)
            while not started.exists():  # interrupt only once the child is busy
                time.sleep(0.01)
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "_rank", slow_ucf_and_interrupted_fcum)
        _assert_child_reaped_after(KeyboardInterrupt, config(corpus_path), started)

    def test_parent_error_in_its_ucf_share_terminates_and_joins_the_child(self, corpus_path, tmp_path,
                                                                          usable_cpus, ucf_share, no_hang):
        usable_cpus(2)
        parent, started = os.getpid(), tmp_path / "child.pid"

        def busy_child_and_failing_parent(user):
            if os.getpid() != parent:
                started.write_text(str(os.getpid()))
                time.sleep(120)
            while not started.exists():
                time.sleep(0.01)
            raise RuntimeError("planted fault in the parent's share")

        ucf_share(busy_child_and_failing_parent)
        _assert_child_reaped_after(RuntimeError, config(corpus_path), started)


def _assert_child_reaped_after(error, cfg, pid_file):
    """Run ``cfg``, expect ``error`` promptly, and check that the child whose pid ``pid_file`` holds is gone."""
    start = time.monotonic()
    with pytest.raises(error):
        run_experiment(cfg)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []
    child = int(pid_file.read_text())
    assert child != os.getpid()
    with pytest.raises(ProcessLookupError):  # terminated and reaped
        os.kill(child, 0)


ENTRIES = {
    "run": run_experiment,
    "sweep": lambda cfg: sweep(cfg, "iterations", [1, 2]),
    "threshold-sweep": lambda cfg: sweep(cfg, "degree_threshold", [cfg.degree_threshold, 1]),
}


class TestCollectorPause:
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_paused_while_ranking_here_and_in_the_child(self, entry, corpus_path, tmp_path, usable_cpus,
                                                       monkeypatch):
        usable_cpus(2)
        real = experiment._rank

        def recording(mode, *args):
            with open(tmp_path / f"{os.getpid()}.enabled", "a", encoding="utf-8") as fh:
                fh.write(f"{gc.isenabled()}\n")
            return real(mode, *args)

        monkeypatch.setattr(experiment, "_rank", recording)
        assert gc.isenabled()
        ENTRIES[entry](config(corpus_path))
        assert gc.isenabled()
        states = {int(path.stem): path.read_text().split() for path in tmp_path.glob("*.enabled")}
        runs = 1 if entry == "run" else 2
        assert states.pop(os.getpid()) == ["False"] * 2 * runs  # FCUM, then this process's UCF share
        assert list(states.values()) == [["False"]] * runs  # a forked child per run ranks UCF once

    @pytest.mark.parametrize("outcome", ["success", "data-error", "interrupt"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_an_enabled_collector_is_enabled_again(self, entry, outcome, corpus_path, usable_cpus, monkeypatch):
        usable_cpus(1)
        cfg = config(corpus_path)
        if outcome == "data-error":
            cfg = config(corpus_path, degree_threshold=10_000)
        elif outcome == "interrupt":
            monkeypatch.setattr(experiment, "_rank", _interrupt)
        assert gc.isenabled()
        if outcome == "success":
            ENTRIES[entry](cfg)
        else:
            with pytest.raises(DataError if outcome == "data-error" else KeyboardInterrupt):
                ENTRIES[entry](cfg)
        assert gc.isenabled()

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_a_disabled_collector_stays_disabled(self, entry, corpus_path, usable_cpus):
        usable_cpus(2)
        gc.disable()
        try:
            ENTRIES[entry](config(corpus_path))
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_run_leaves_as_many_cycles_on_a_small_corpus_as_on_a_large_one(self, cpus, tmp_path, usable_cpus):
        """The pause is safe only while a run leaves no reference cycle per record, user or target."""
        usable_cpus(cpus)
        cycles = []
        for n_users in (120, 120, 480):  # the first run also imports what a run needs
            path = tmp_path / f"{n_users}.tsv"
            generate_synthetic(SyntheticSpec(n_users=n_users, n_items=5 * n_users, n_tags=2 * n_users,
                                             n_communities=4, triples_per_user=24, seed=5), path)
            cfg = config(path, output=str(tmp_path / "out"), dump_ranklists=True)
            gc.collect()
            gc.disable()
            try:
                run_experiment(cfg)
                cycles.append(gc.collect())
            finally:
                gc.enable()
        assert cycles[1] == cycles[2]


class _Tracked(TripartiteGraph):
    """A graph that can be weakly referenced, as it has no ``__slots__`` of its own."""


class TestGraphsReleased:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_parsed_graph_is_gone_before_the_split_and_filtered_graph_before_clustering(
            self, entry, cpus, corpus_path, usable_cpus, monkeypatch):
        usable_cpus(cpus)
        graphs = {"read_graph": [], "filter_by_degree": []}
        released = {"temporal_split": [], "coarse_cluster": []}

        def tracking(name):
            real = getattr(experiment, name)

            def made(*args):
                graph = real(*args)
                tracked = _Tracked(graph.users, graph.items, graph.tags, graph.triples)
                graphs[name].append(weakref.ref(tracked))
                return tracked

            monkeypatch.setattr(experiment, name, made)

        def checking(name, made_by):
            real = getattr(experiment, name)

            def checked(*args):
                released[name].append([ref() is None for ref in graphs[made_by]])
                return real(*args)

            monkeypatch.setattr(experiment, name, checked)

        tracking("read_graph")
        tracking("filter_by_degree")
        checking("temporal_split", "read_graph")
        checking("coarse_cluster", "filter_by_degree")
        ENTRIES[entry](config(corpus_path))
        runs = 1 if entry == "run" else 2
        splits = 2 if entry == "threshold-sweep" else 1
        assert [len(seen) for seen in released["temporal_split"]] == list(range(1, splits + 1))
        assert len(released["coarse_cluster"]) == runs
        assert all(all(seen) for seen in released["temporal_split"] + released["coarse_cluster"])

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_no_clustering_is_alive_while_metrics_or_this_process_ucf_share_run(
            self, entry, cpus, corpus_path, usable_cpus, monkeypatch):
        usable_cpus(cpus)
        clusterings, released = [], []
        real_cluster = experiment.coarse_cluster

        def clustered(*args):
            clustering = real_cluster(*args)
            clusterings.append(weakref.ref(clustering))
            return clustering

        def checking(name):
            real = getattr(experiment, name)

            def checked(*args):  # a forked child's records stay in the child, so only this process's count
                released.append((name, all(ref() is None for ref in clusterings)))
                return real(*args)

            monkeypatch.setattr(experiment, name, checked)

        monkeypatch.setattr(experiment, "coarse_cluster", clustered)
        checking("metrics_at_k")
        checking("rank_ucf")
        cfg = config(corpus_path)
        ENTRIES[entry](cfg)
        runs = 1 if entry == "run" else 2
        assert len(clusterings) == runs
        assert [name for name, _ in released].count("metrics_at_k") == 2 * len(cfg.k_list) * runs
        assert [name for name, _ in released].count("rank_ucf") == runs
        assert all(dead for _, dead in released)


def _interrupt(mode, *args):
    raise KeyboardInterrupt


def _interleave(n, sides):
    """Drive the front and back claimers over ``range(n)`` one claim at a time, as ``sides`` names them.

    When the named claimer has stopped, the other one claims; returns each
    one's claims once both have stopped.
    """
    lo, hi = SimpleNamespace(value=0), SimpleNamespace(value=n)
    live = {"front": experiment._claim_front(lo, hi), "back": experiment._claim_back(lo, hi)}
    claims = {"front": [], "back": []}
    for side in sides:
        if not live:
            return claims
        side = side if side in live else next(iter(live))
        try:
            claims[side].append(next(live[side]))
        except StopIteration:
            del live[side]


def _claim_back_and_send(sender, lo, hi, ready):
    ready.value = 1
    sender.send(list(experiment._claim_back(lo, hi)))


class TestClaims:
    @pytest.mark.parametrize("n", [0, 1, 2, 9, 60])
    def test_sequential_interleavings_claim_every_index_once(self, n):
        rng = random.Random(n)
        interleavings = {
            "all-front": repeat("front"),
            "all-back": repeat("back"),
            "alternating": cycle(("front", "back")),
            **{f"seeded-{i}": (rng.choice(("front", "back")) for _ in count()) for i in range(20)},
        }
        for name, sides in interleavings.items():
            claims = _interleave(n, sides)
            front, back = claims["front"], claims["back"]
            assert front == list(range(len(front))), name
            assert back == list(range(n - 1, n - 1 - len(back), -1)), name
            assert len(front) + len(back) == n, name
        assert _interleave(n, repeat("front"))["front"] == list(range(n))
        assert _interleave(n, repeat("back"))["back"] == list(range(n - 1, -1, -1))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="this platform cannot fork")
    def test_two_processes_claiming_at_once_skip_no_index(self, no_hang):
        context = multiprocessing.get_context("fork")
        n = 200_000
        for _ in range(3):
            lo, hi, ready = context.RawValue("q", 0), context.RawValue("q", n), context.RawValue("q", 0)
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_claim_back_and_send, args=(sender, lo, hi, ready))
            child.start()
            sender.close()
            try:
                while not ready.value:  # start claiming together
                    pass
                front = list(experiment._claim_front(lo, hi))
                back = receiver.recv()
            finally:
                child.join()
                receiver.close()
            assert front == list(range(len(front)))
            assert back == list(range(n - 1, n - 1 - len(back), -1))
            assert len(front) > 0 and set(front) | set(back) == set(range(n))
