import json
import random
from types import SimpleNamespace

import pytest

from tagrec.clustering import write_clustering
from tagrec.corpus import TestSet as HeldOutSet, write_summary, write_triples
from tagrec.evaluate import (
    EvalReport,
    MetricsAtK,
    f1_at_k,
    metrics_at_k,
    precision_at_k,
    recall_at_k,
    report_dict,
    report_text,
    write_json,
    write_report,
)
from tagrec.recommend import RankList, write_ranklists

from conftest import make_graph
from oracles import naive_f1, naive_hit_total, naive_precision, naive_recall


def ranklist(user, items):
    return RankList(user, tuple((r, 1.0) for r in items))


def held_out(items, unreachable=()):
    return HeldOutSet(frozenset(items), frozenset(unreachable))


class TestRecall:
    def test_full_coverage(self):
        rl = {0: ranklist(0, [1, 2, 3]), 1: ranklist(1, [4, 5])}
        ts = {0: held_out({1, 2}), 1: held_out({5})}
        assert recall_at_k(rl, ts, 3) == 1.0

    def test_half_of_test_set_found(self):
        rl = {0: ranklist(0, [7, 1, 9, 10, 11])}
        ts = {0: held_out({1, 2})}
        assert recall_at_k(rl, ts, 5) == 0.5

    def test_no_hits(self):
        rl = {0: ranklist(0, [7, 8])}
        ts = {0: held_out({1})}
        assert recall_at_k(rl, ts, 2) == 0.0

    def test_short_ranklist_uses_what_exists(self):
        rl = {0: ranklist(0, [1])}
        ts = {0: held_out({1, 2})}
        assert recall_at_k(rl, ts, 10) == 0.5

    def test_unreachable_items_inflate_denominator(self):
        rl = {0: ranklist(0, [1])}
        ts = {0: held_out({1}, unreachable={"ghost"})}
        assert recall_at_k(rl, ts, 1) == 0.5

    def test_k_validation(self):
        with pytest.raises(ValueError):
            recall_at_k({0: ranklist(0, [1])}, {0: held_out({1})}, 0)

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k({0: ranklist(0, [1])}, {0: held_out(set())}, 1)
        with pytest.raises(ValueError):
            recall_at_k({0: ranklist(0, [1])}, {}, 1)

    def test_no_ranklists_rejected(self):
        for metric in (metrics_at_k, recall_at_k, precision_at_k):
            with pytest.raises(ValueError, match="no ranklists"):
                metric({}, {0: held_out({1})}, 5)


class TestPrecision:
    def test_one_hit_in_five(self):
        rl = {0: ranklist(0, [1, 7, 8, 9, 10])}
        ts = {0: held_out({1, 99})}
        assert precision_at_k(rl, ts, 5) == pytest.approx(0.2)

    def test_all_hits(self):
        rl = {0: ranklist(0, [1, 2]), 1: ranklist(1, [3, 4])}
        ts = {0: held_out({1, 2, 9}), 1: held_out({3, 4})}
        assert precision_at_k(rl, ts, 2) == 1.0

    def test_empty_ranklists_score_zero(self):
        rl = {0: RankList(0, ()), 1: RankList(1, ())}
        ts = {0: held_out({1}), 1: held_out({2})}
        assert precision_at_k(rl, ts, 5) == 0.0

    def test_denominator_stays_k_for_short_lists(self):
        rl = {0: ranklist(0, [1])}
        ts = {0: held_out({1})}
        assert precision_at_k(rl, ts, 4) == pytest.approx(0.25)


class TestF1:
    def test_equal_inputs_fixed_point(self):
        for x in (0.1, 0.5, 0.9):
            assert f1_at_k(x, x) == pytest.approx(x)

    def test_reference_value(self):
        assert f1_at_k(0.05244, 0.11916) == pytest.approx(0.07283, abs=5e-5)

    def test_zero_convention(self):
        assert f1_at_k(0.0, 0.0) == 0.0
        assert f1_at_k(0.0, 0.5) == 0.0

    def test_bounded_by_twice_the_minimum(self):
        rng = random.Random(8)
        for _ in range(200):
            p, r = rng.random(), rng.random()
            f1 = f1_at_k(p, r)
            assert 0.0 <= f1 <= 2.0 * min(p, r) + 1e-15


def random_eval_instance(rng, max_users=10, max_items=30):
    n_users = rng.randint(1, max_users)
    ranklists, test_sets = {}, {}
    for u in range(n_users):
        items = rng.sample(range(max_items), rng.randint(0, max_items // 2))
        ranklists[u] = RankList(u, tuple((r, rng.random()) for r in items))
        size = rng.randint(1, 6)
        test_sets[u] = held_out(set(rng.sample(range(max_items), size)))
    return ranklists, test_sets


class TestAgainstBruteForce:
    def test_metrics_match_naive_counting_exactly(self):
        rng = random.Random(100)
        for _ in range(150):
            ranklists, test_sets = random_eval_instance(rng)
            k = rng.randint(1, 12)
            assert recall_at_k(ranklists, test_sets, k) == naive_recall(ranklists, test_sets, k)
            p = precision_at_k(ranklists, test_sets, k)
            r = recall_at_k(ranklists, test_sets, k)
            assert p == naive_precision(ranklists, test_sets, k)
            assert f1_at_k(p, r) == naive_f1(p, r)

    def test_hit_count_identity(self):
        rng = random.Random(101)
        for _ in range(150):
            ranklists, test_sets = random_eval_instance(rng)
            k = rng.randint(1, 12)
            p = precision_at_k(ranklists, test_sets, k)
            hits = naive_hit_total(ranklists, test_sets, k)
            assert round(len(ranklists) * k * p) == hits
            assert abs(len(ranklists) * k * p - hits) < 1e-9
            assert p == hits / (len(ranklists) * k)

    def test_recall_monotone_in_k(self):
        rng = random.Random(102)
        for _ in range(50):
            ranklists, test_sets = random_eval_instance(rng)
            values = [recall_at_k(ranklists, test_sets, k) for k in range(1, 15)]
            assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_all_metrics_in_unit_interval(self):
        rng = random.Random(103)
        for _ in range(50):
            ranklists, test_sets = random_eval_instance(rng)
            m = metrics_at_k(ranklists, test_sets, rng.randint(1, 10))
            assert 0.0 <= m.recall <= 1.0
            assert 0.0 <= m.precision <= 1.0
            assert 0.0 <= m.f1 <= 1.0


class TestReportSerialization:
    def make_report(self):
        return EvalReport(
            mode="ucf",
            per_k=[MetricsAtK(5, 0.119164, 0.052444, 0.072834), MetricsAtK(10, 0.2, 0.1, 0.13333333)],
            timing={"cluster_seconds": 0.0, "score_seconds": 1.23456, "total_seconds": 1.23456},
            work={"users": 3},
            config={"beta": 0.5},
        )

    def test_text_has_one_record_per_k_at_five_decimals(self):
        text = report_text(self.make_report())
        lines = text.strip().splitlines()
        assert lines[-2] == "5\t0.11916\t0.05244\t0.07283"
        assert lines[-1] == "10\t0.20000\t0.10000\t0.13333"

    def test_json_document_round_trips(self, tmp_path):
        report = self.make_report()
        paths = write_report(report, tmp_path, "ucf")
        assert [p.name for p in paths] == ["ucf.report.txt", "ucf.report.json"]
        doc = json.loads(paths[1].read_text())
        assert doc["mode"] == "ucf"
        assert doc["metrics"][0] == {"k": 5, "recall": 0.11916, "precision": 0.05244, "f1": 0.07283}
        assert doc["timing"]["score_seconds"] == 1.235
        assert doc["config"] == {"beta": 0.5}

    def test_json_is_indented_and_key_sorted(self, tmp_path):
        doc = {"b": [1, 2], "a": {"y": None, "x": 0.5}}
        path = write_json(tmp_path / "doc.json", doc)
        assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def writer_cases():
        """``(file name, writer, good document, bad document, the bad one's error)`` per file writer."""
        class Unformattable:
            def __format__(self, spec):
                raise ValueError("cannot format")

        g = make_graph([("u1", "r1", "t1", 1), ("u2", "r2", "t1", 2)])
        records = list(g.interactions())
        # every bad document fails after the writer has written its first line
        return (
            ("doc.json", lambda doc, path: write_json(path, doc),
             {"a": 1}, {"a": 2, "b": object()}, TypeError),
            ("triples.tsv", write_triples, records, [records[0], None], TypeError),
            ("summary.txt", write_summary, {"a": 1}, {"a": 2, "b": Unformattable()}, ValueError),
            ("clusters.tsv", lambda doc, path: write_clustering(doc, g, path),
             SimpleNamespace(assignment=[0, 1]), SimpleNamespace(assignment=[1, 0, 0]), IndexError),
            ("ranklists.tsv", lambda doc, path: write_ranklists(doc, g, path),
             {0: ranklist(0, [1])}, {0: ranklist(0, [1]), 2: ranklist(2, [0])}, IndexError),
        )

    def test_failed_write_keeps_the_earlier_file_and_no_temp_file(self, tmp_path):
        cases = self.writer_cases()
        for name, write, good, bad, error in cases:
            path = tmp_path / name
            write(good, path)
            before = path.read_bytes()
            with pytest.raises(error):
                write(bad, path)
            assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(case[0] for case in cases)

    def test_writer_creates_a_missing_directory_and_no_temp_file(self, tmp_path):
        for name, write, good, _, _ in self.writer_cases():
            write(good, tmp_path / name)
            directory = tmp_path / "missing" / name
            write(good, directory / name)
            assert [p.name for p in directory.iterdir()] == [name]
            assert (directory / name).read_bytes() == (tmp_path / name).read_bytes()
