import dataclasses
import json

import pytest

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

    def test_unknown_parameter_rejected(self, corpus_path):
        with pytest.raises(ValueError):
            sweep(config(corpus_path), "threads", [1, 2])
        with pytest.raises(ValueError):
            sweep(config(corpus_path), "iterations", [])
