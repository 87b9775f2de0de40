import dataclasses
import json
import multiprocessing
import os
import re

import pytest

from tagrec import cli, experiment
from tagrec.cli import main
from tagrec.corpus import DataError, build_graph, read_triples
from tagrec.experiment import ExperimentConfig
from tagrec.synthetic import SyntheticSpec, generate_synthetic


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("clicorpus") / "corpus.tsv"
    spec = SyntheticSpec(
        n_users=50,
        n_items=250,
        n_tags=90,
        n_communities=5,
        triples_per_user=20,
        in_community_prob=0.9,
        seed=8,
    )
    generate_synthetic(spec, path)
    return path


RUN_FLAGS = ["--degree-threshold", "2", "--avg-cluster-size", "12", "--k-list", "1,5,10"]


class TestExitCodes:
    def test_successful_run_returns_zero(self, corpus_path, capsys):
        code = main(["run", "--input", str(corpus_path), "--mode", "fcum", *RUN_FLAGS])
        assert code == 0
        out = capsys.readouterr().out
        assert "fcum:" in out and "recall@10=" in out

    def test_unknown_flag_is_usage_error(self, corpus_path, tmp_path, capsys):
        sweep = ["sweep", "--param", "iterations", "--values", "1,2"]
        for argv, flag in (
            (["run", "--threads", "4"], "--threads"),
            (["run", "--degree-mode", "triples"], "--degree-mode"),
            (["run", "--timing-runs", "3"], "--timing-runs"),
            ([*sweep, "--degree-mode", "triples"], "--degree-mode"),
            ([*sweep, "--timing-runs", "3"], "--timing-runs"),
            (["split", "--output", str(tmp_path / "out"), "--degree-mode", "triples"], "--degree-mode"),
            (["cluster", "--output", str(tmp_path / "c.tsv"), "--degree-mode", "triples"], "--degree-mode"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main([*argv, "--input", str(corpus_path)])
            assert excinfo.value.code == 1
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_bad_k_list_is_usage_error_naming_the_flag(self, corpus_path, capsys):
        for bad in ("5..", "1,x", "3..1"):
            with pytest.raises(SystemExit) as excinfo:
                main(["run", "--input", str(corpus_path), "--k-list", bad])
            assert excinfo.value.code == 1
            assert f"error: argument --k-list: invalid k_list value: {bad!r}" in capsys.readouterr().err

    def test_bad_flag_value_is_usage_error(self, corpus_path):
        code = main(["run", "--input", str(corpus_path), "--mode", "fcum", "--beta", "7"])
        assert code == 1

    def test_missing_input_flag_is_usage_error(self):
        assert main(["run", "--mode", "ucf"]) == 1

    def test_unknown_sweep_param_is_usage_error(self, corpus_path):
        code = main(
            ["sweep", "--input", str(corpus_path), "--param", "threads", "--values", "1,2"]
        )
        assert code == 1

    def test_malformed_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("u1\tr1\tt1\n", encoding="utf-8")
        code = main(["run", "--input", str(bad), "--mode", "ucf"])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["run", "--input", str(tmp_path / "ghost.tsv"), "--mode", "ucf"]) == 2

    def test_overfiltered_corpus_is_data_error(self, corpus_path, capsys):
        code = main(["run", "--input", str(corpus_path), "--degree-threshold", "9999"])
        assert code == 2
        assert "lower" in capsys.readouterr().err


def _raising(exc):
    def action():
        raise exc
    return action


class TestChildFailures:
    """A both-mode run whose forked UCF child fails."""

    @pytest.mark.parametrize("action, code, line", [
        (_raising(DataError("planted data fault")), 2, "tagrec: data error: planted data fault"),
        (_raising(ValueError("planted value fault")), 1, "tagrec: error: planted value fault"),
        (lambda: os._exit(3), 2, "tagrec: error: the ucf child exited with code 3 without a result"),
    ], ids=["data-error", "value-error", "exit-3"])
    def test_maps_to_its_exit_code_with_one_line(self, action, code, line, corpus_path, tmp_path,
                                                 usable_cpus, monkeypatch, capsys, no_hang):
        usable_cpus(2)
        parent, real = os.getpid(), experiment._rank

        def failing_in_child(mode, *args):
            if mode == "ucf" and os.getpid() != parent:
                action()
            return real(mode, *args)

        monkeypatch.setattr(experiment, "_rank", failing_in_child)
        out = tmp_path / "out"
        assert main(["run", "--input", str(corpus_path), "--output", str(out), *RUN_FLAGS]) == code
        assert capsys.readouterr().err.splitlines() == [line]
        assert multiprocessing.active_children() == []
        assert not (out / "combined.json").exists()


    def test_child_exit_during_its_ucf_share_is_one_line(self, corpus_path, tmp_path, usable_cpus, ucf_share,
                                                         capsys, no_hang):
        usable_cpus(2)
        parent = os.getpid()

        def exit_in_child(user):
            if os.getpid() != parent:
                os._exit(3)

        ucf_share(exit_in_child)
        out = tmp_path / "out"
        assert main(["run", "--input", str(corpus_path), "--output", str(out), *RUN_FLAGS]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "tagrec: error: the ucf child exited with code 3 without a result"]
        assert multiprocessing.active_children() == []
        assert not (out / "combined.json").exists()


class TestRunCommand:
    def test_modes_wall_time_printed_only_when_both_modes_ran(self, corpus_path, capsys):
        for mode in ("both", "ucf"):
            assert main(["run", "--input", str(corpus_path), "--mode", mode, *RUN_FLAGS]) == 0
            lines = capsys.readouterr().out.splitlines()
            walls = [i for i, line in enumerate(lines) if line.startswith("modes wall time: ")]
            if mode == "both":
                (i,) = walls
                assert lines[i - 1].startswith("fcum/ucf total time ratio: ")
                assert re.fullmatch(r"modes wall time: \d+\.\d{3}s", lines[i])
            else:
                assert walls == []

    def test_writes_reports(self, corpus_path, tmp_path):
        out = tmp_path / "reports"
        code = main(["run", "--input", str(corpus_path), "--output", str(out), *RUN_FLAGS])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "ucf.report.txt",
            "ucf.report.json",
            "fcum.report.txt",
            "fcum.report.json",
            "combined.json",
        }
        combined = json.loads((out / "combined.json").read_text())
        assert combined["timing"]["total_seconds_ratio"] > 0
        assert "recall" in combined["ratios"]

    def test_config_file_supplies_defaults_and_flags_override(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"input={corpus_path}\nmode=ucf\ndegree_threshold=2\nk_list=1,5\nseed=9\n",
            encoding="utf-8",
        )
        assert main(["run", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "ucf:" in out and "fcum:" not in out
        assert main(["run", "--config", str(cfg), "--mode", "fcum", "--avg-cluster-size", "12"]) == 0
        out = capsys.readouterr().out
        assert "fcum:" in out and "ucf:" not in out

    def test_config_file_and_flags_give_the_same_config(self, corpus_path, tmp_path):
        values = {
            "input": str(corpus_path), "mode": "fcum", "degree_threshold": "2", "split_ratio": "0.75",
            "beta": "0.4", "gamma": "0.6", "avg_cluster_size": "12", "iterations": "3",
            "k_list": "1,5,10", "seed": "9", "output": str(tmp_path / "out"), "dump_ranklists": "yes",
        }
        assert set(values) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
        flags = ["--dump-ranklists"]
        for key, value in values.items():
            if key != "dump_ranklists":
                flags += [f"--{key.replace('_', '-')}", value]

        seen = []
        for argv in (["run", "--config", str(cfg)], ["run", *flags]):
            assert main(argv) == 0
            out = tmp_path / "out"
            report = json.loads((out / "fcum.report.json").read_text(encoding="utf-8"))
            seen.append((report["config"], (out / "fcum.ranklists.tsv").read_bytes()))
        assert seen[0] == seen[1]
        echo = seen[0][0]
        defaults = ExperimentConfig(input="").echo()
        assert all(echo[key] != default for key, default in defaults.items())

    def test_unknown_config_key_rejected(self, corpus_path, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for key, value in (("inpt", "x"), ("degree_mode", "triples"), ("timing_runs", "1")):
            cfg.write_text(f"input={corpus_path}\n{key}={value}\n", encoding="utf-8")
            assert main(["run", "--config", str(cfg)]) == 1
            assert f"line 2: unknown config key {key!r}" in capsys.readouterr().err


class TestSweepCommand:
    def test_sweep_prints_and_writes(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "sweepdir"
        code = main(
            [
                "sweep",
                "--input",
                str(corpus_path),
                "--mode",
                "fcum",
                *RUN_FLAGS,
                "--param",
                "iterations",
                "--values",
                "1,2",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "--- iterations=1" in text and "--- iterations=2" in text
        lines, wrote = text.splitlines(), f"wrote {out / 'sweep.json'}"
        assert lines.count(wrote) == 1 and lines[-1] == wrote  # once, after the last value's block
        doc = json.loads((out / "sweep.json").read_text())
        assert doc["values"] == [1, 2]

    @pytest.mark.parametrize("param, values, message", [
        ("beta", "0.5,2", "beta must be in [0, 1]"),
        ("iterations", "1,1", "sweep values must be distinct"),
    ])
    def test_every_value_is_checked_before_the_first_run(self, param, values, message, corpus_path,
                                                         tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sweep ran before it had checked every value")

        monkeypatch.setattr(experiment, "run_experiment", fail)
        argv = ["sweep", "--input", str(corpus_path), "--param", param, "--values", values,
                "--output", str(tmp_path / "out")]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestGenCommand:
    def test_gen_deterministic(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        args = ["--users", "20", "--items", "80", "--tags", "30", "--communities", "2",
                "--triples-per-user", "10", "--seed", "4"]
        assert main(["gen", "--output", str(a), *args]) == 0
        assert main(["gen", "--output", str(b), *args]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(read_triples(a)) == 200

    def test_omitted_flags_are_the_spec_defaults(self, tmp_path):
        out = tmp_path / "gen.tsv"
        assert main(["gen", "--output", str(out), "--users", "20", "--items", "80", "--tags", "30",
                     "--communities", "2", "--triples-per-user", "10"]) == 0
        spec = SyntheticSpec(n_users=20, n_items=80, n_tags=30, n_communities=2, triples_per_user=10)
        assert out.read_bytes() == generate_synthetic(spec, tmp_path / "spec.tsv").read_bytes()

    def test_gen_validation_error(self, tmp_path):
        code = main(["gen", "--output", str(tmp_path / "x.tsv"), "--communities", "0"])
        assert code == 1


class TestSplitCommand:
    def test_split_roundtrip(self, corpus_path, tmp_path):
        out = tmp_path / "splitdir"
        code = main(
            ["split", "--input", str(corpus_path), "--output", str(out), "--degree-threshold", "2"]
        )
        assert code == 0
        train = read_triples(out / "train.tsv")
        test = read_triples(out / "test.tsv")
        summary = dict(
            line.split("=", 1) for line in (out / "summary.txt").read_text().splitlines()
        )
        assert int(summary["train_triples"]) == len(train)
        assert int(summary["test_triples"]) == len(test)
        assert int(summary["total_triples"]) == len(train) + len(test)
        assert int(summary["train_users"]) == int(summary["test_users"])
        rebuilt = build_graph(train)
        assert rebuilt.n_users == int(summary["train_users"])

    @pytest.mark.parametrize("command", ["split", "cluster"])
    @pytest.mark.parametrize("flags, code", [
        (["--split-ratio", "1.5"], 1),
        (["--degree-threshold", "-1"], 1),
        (["--degree-threshold", "9999"], 2),
    ])
    def test_bad_flags_and_data_keep_their_exit_codes(self, command, flags, code, corpus_path, tmp_path, capsys):
        argv = [command, "--input", str(corpus_path), "--output", str(tmp_path / "out"), *flags]
        assert main(argv) == code
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_missing_input_is_data_error(self, tmp_path):
        argv = ["split", "--input", str(tmp_path / "ghost.tsv"), "--output", str(tmp_path / "out")]
        assert main(argv) == 2

    def test_split_builds_no_profiles(self, corpus_path, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("split built user profiles it never writes")

        monkeypatch.setattr(experiment, "build_profiles", fail)
        argv = ["split", "--input", str(corpus_path), "--output", str(tmp_path / "out"), "--degree-threshold", "2"]
        assert main(argv) == 0


class TestClusterCommand:
    def test_cluster_dump(self, corpus_path, tmp_path):
        dump = tmp_path / "clusters.tsv"
        code = main(
            [
                "cluster",
                "--input",
                str(corpus_path),
                "--output",
                str(dump),
                "--degree-threshold",
                "2",
                "--avg-cluster-size",
                "12",
            ]
        )
        assert code == 0
        lines = dump.read_text().splitlines()
        assert len(lines) == 50
        assert all(len(line.split("\t")) == 2 for line in lines)
        labels = {int(line.split("\t")[1]) for line in lines}
        assert labels and max(labels) < 50 // 12 + 1

    def test_omitted_flags_are_the_config_defaults(self, tmp_path):
        corpus = tmp_path / "corpus.tsv"
        generate_synthetic(SyntheticSpec(n_users=240, n_items=600, n_tags=150, n_communities=4,
                                         triples_per_user=30, in_community_prob=0.9, seed=3), corpus)
        defaults = ExperimentConfig(input=str(corpus))
        spelled = []
        for name in ("degree_threshold", "split_ratio", "gamma", "avg_cluster_size", "iterations", "seed"):
            spelled += [f"--{name.replace('_', '-')}", str(getattr(defaults, name))]
        dumps = []
        for extra in ([], spelled):
            dump = tmp_path / f"clusters{len(dumps)}.tsv"
            assert main(["cluster", "--input", str(corpus), "--output", str(dump), *extra]) == 0
            dumps.append(dump.read_bytes())
        assert dumps[0] == dumps[1]
        assert len({line.split(b"\t")[1] for line in dumps[0].splitlines()}) > 1


class TestOutputPath:
    COMMANDS = {
        "run": ["run", *RUN_FLAGS],
        "sweep": ["sweep", *RUN_FLAGS, "--param", "iterations", "--values", "1,2"],
        "split": ["split", "--degree-threshold", "2"],
        "cluster": ["cluster", "--degree-threshold", "2"],
        "gen": ["gen", "--users", "20"],
    }
    FILE_OUTPUTS = ("cluster", "gen")

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the command started work despite an unusable --output")

        for name in ("run_experiment", "sweep", "prepare_corpus", "split_corpus", "generate_synthetic"):
            monkeypatch.setattr(cli, name, fail)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unusable_output_is_io_error_before_any_work(self, command, corpus_path, tmp_path, capsys, no_work):
        taken = tmp_path / "taken"
        if command in self.FILE_OUTPUTS:
            taken.mkdir()  # a directory where the output file should go
        else:
            taken.write_text("keep\n", encoding="utf-8")
        argv = [*self.COMMANDS[command], "--output", str(taken)]
        if command != "gen":
            argv += ["--input", str(corpus_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"tagrec: error: --output {taken}: " + (
            "is a directory" if command in self.FILE_OUTPUTS else "exists and is not a directory")]
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        if command in self.FILE_OUTPUTS:
            assert list(taken.iterdir()) == []
        else:
            assert taken.read_text(encoding="utf-8") == "keep\n"

    def test_output_below_a_file_is_io_error(self, corpus_path, tmp_path, capsys, no_work):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        argv = ["run", "--input", str(corpus_path), "--output", str(blocker / "reports")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"tagrec: error: --output {blocker / 'reports'}: {blocker} is not a directory\n"

    def test_cluster_dump_needs_existing_directory(self, corpus_path, tmp_path, capsys, no_work):
        dump = tmp_path / "missing" / "clusters.tsv"
        assert main(["cluster", "--input", str(corpus_path), "--output", str(dump)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()
