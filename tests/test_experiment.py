import dataclasses
import json
import multiprocessing
import os
import threading
import time

import pytest

from tagrec import experiment
from tagrec.corpus import DataError
from tagrec.experiment import ExperimentConfig, run_experiment, sweep
from tagrec.synthetic import SyntheticSpec, generate_synthetic


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

    def test_k_list_sorted_and_deduplicated(self):
        cfg = ExperimentConfig(input="x", k_list=(10, 5, 5, 1))
        assert cfg.k_list == (1, 5, 10)


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

    def test_unknown_parameter_rejected(self, corpus_path):
        with pytest.raises(ValueError):
            sweep(config(corpus_path), "threads", [1, 2])
        with pytest.raises(ValueError):
            sweep(config(corpus_path), "iterations", [])


def _record_pids(monkeypatch, directory):
    """Make each ``_run_mode`` call write the pid that ran it to ``<directory>/<mode>.pid``."""
    real = experiment._run_mode

    def recording(mode, *args):
        (directory / f"{mode}.pid").write_text(str(os.getpid()))
        return real(mode, *args)

    monkeypatch.setattr(experiment, "_run_mode", recording)


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
            pids[cpus] = {mode: int((tmp_path / f"{mode}.pid").read_text()) for mode in ("ucf", "fcum")}
            totals = [report.timing["total_seconds"] for report in result.reports.values()]
            # the modes' wall time covers their sum when they ran in turn, their maximum when not
            assert result.modes_wall_seconds >= (sum(totals) if cpus == 1 else max(totals))
            timing = json.loads((out / "combined.json").read_text(encoding="utf-8"))["timing"]
            assert timing["modes_wall_seconds"] == round(result.modes_wall_seconds, 3)
            for path in out.iterdir():
                path.unlink()
        assert set(outputs[1]) == {
            "combined.json", *(f"{mode}.{kind}" for mode in ("ucf", "fcum")
                               for kind in ("report.txt", "report.json", "ranklists.tsv")),
        }
        assert outputs[1] == outputs[2]
        assert pids[1] == {"ucf": os.getpid(), "fcum": os.getpid()}
        assert pids[2]["ucf"] == os.getpid() != pids[2]["fcum"]

    def test_single_mode_never_forks(self, corpus_path, tmp_path, usable_cpus, monkeypatch):
        usable_cpus(2)
        _record_pids(monkeypatch, tmp_path)
        for mode in ("ucf", "fcum"):
            run_experiment(config(corpus_path, mode=mode))
            assert int((tmp_path / f"{mode}.pid").read_text()) == os.getpid()

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
        assert int((tmp_path / "fcum.pid").read_text()) == os.getpid()

    def test_interrupt_terminates_and_joins_the_child(self, corpus_path, tmp_path, usable_cpus, monkeypatch,
                                                      no_hang):
        usable_cpus(2)
        started = tmp_path / "fcum.pid"

        def slow_fcum_and_interrupted_ucf(mode, *args):
            if mode == "fcum":
                started.write_text(str(os.getpid()))
                time.sleep(120)
            while not started.exists():  # interrupt only once the child is busy
                time.sleep(0.01)
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "_run_mode", slow_fcum_and_interrupted_ucf)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config(corpus_path))
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []
        child = int(started.read_text())
        assert child != os.getpid()
        with pytest.raises(ProcessLookupError):  # terminated and reaped
            os.kill(child, 0)
