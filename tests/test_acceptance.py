"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The benchmark-corpus
criteria (4-7) take a few minutes because the baseline is timed three times
at full size; everything runs single-threaded.
"""

import os
import random
import statistics
import time
from pathlib import Path

import pytest

from tagrec.clustering import choose_k, coarse_cluster
from tagrec.corpus import build_graph, filter_by_degree, read_triples, temporal_split
from tagrec.evaluate import f1_at_k, metrics_at_k, precision_at_k, recall_at_k
from tagrec.experiment import (
    ExperimentConfig,
    fcum_scored_work,
    run_experiment,
    ucf_scored_work,
)
from tagrec.profiles import build_profiles
from tagrec.recommend import rank_fcum, rank_ucf
from tagrec.synthetic import SyntheticSpec, generate_synthetic

from oracles import (
    naive_coarse_cluster,
    naive_f1,
    naive_hit_total,
    naive_precision,
    naive_recall,
    random_graph,
)
from test_evaluate import random_eval_instance

PARITY_SEEDS = (1, 2, 3)
TIMING_SEED = 1
BENCH_AVG_CLUSTER_SIZE = 90
BENCH_ITERATIONS = 2


def check(num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(f"\n[acceptance] {line}")
    assert ok, line


def _fcum_run(split, profiles, iterations, seed):
    k_c = choose_k(split.train.n_users, BENCH_AVG_CLUSTER_SIZE)
    start = time.perf_counter()
    clustering = coarse_cluster(split.train, profiles, k_c, iterations, 0.5, seed)
    ranklists = rank_fcum(clustering, split.train, profiles, 0.5, 20)
    total = time.perf_counter() - start
    return clustering, ranklists, total


@pytest.fixture(scope="module")
def timed_pairs(benchmark_corpus):
    """UCF then FCUM, three pairs, so a slow spell of the host falls on both sides.

    Returns the first UCF ranklists, the UCF times, the first FCUM
    (clustering, ranklists) at ``TIMING_SEED`` and the FCUM times.
    """
    split, profiles = benchmark_corpus
    ucf_times, fcum_times = [], []
    for i in range(3):
        start = time.perf_counter()
        ranklists = rank_ucf(split.train, profiles, 0.5, 20)
        ucf_times.append(time.perf_counter() - start)
        clustering, fcum_ranklists, total = _fcum_run(split, profiles, BENCH_ITERATIONS, TIMING_SEED)
        fcum_times.append(total)
        if i == 0:
            first_ucf, first_fcum = ranklists, (clustering, fcum_ranklists)
    return first_ucf, ucf_times, first_fcum, fcum_times


@pytest.fixture(scope="module")
def ucf_bench(timed_pairs):
    ranklists, times, _, _ = timed_pairs
    return ranklists, times


@pytest.fixture(scope="module")
def fcum_bench(benchmark_corpus, timed_pairs):
    split, profiles = benchmark_corpus
    _, _, first, times = timed_pairs
    runs = {TIMING_SEED: first}
    for seed in PARITY_SEEDS:
        if seed not in runs:
            clustering, ranklists, _ = _fcum_run(split, profiles, BENCH_ITERATIONS, seed)
            runs[seed] = (clustering, ranklists)
    return runs, times


class TestCriterion1:
    def test_single_cluster_equals_baseline_on_100_graphs(self):
        rng = random.Random(20260809)
        start = time.perf_counter()
        worst = 0.0
        for i in range(100):
            g = random_graph(rng, max_users=20, max_items=50, max_tags=20)
            profiles = build_profiles(g)
            baseline = rank_ucf(g, profiles, 0.5, 10)
            clustering = coarse_cluster(g, profiles, 1, 1, 0.5, seed=i)
            clustered = rank_fcum(clustering, g, profiles, 0.5, 10)
            assert set(baseline) == set(clustered)
            for u in baseline:
                b, c = baseline[u].entries, clustered[u].entries
                assert [r for r, _ in b] == [r for r, _ in c]
                for (_, sb), (_, sc) in zip(b, c):
                    worst = max(worst, abs(sb - sc))
                    assert abs(sb - sc) <= 1e-12
        elapsed = time.perf_counter() - start
        check(
            1,
            elapsed < 10.0,
            f"single-cluster ranking identical to baseline on 100 random graphs "
            f"(max score delta {worst:.1e}, {elapsed:.1f}s)",
        )


class TestCriterion2:
    def test_clustering_matches_dense_oracle_on_50_instances(self):
        rng = random.Random(424242)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(50):
            g = random_graph(rng, max_users=15, max_items=30, max_tags=12)
            profiles = build_profiles(g)
            k = rng.randint(1, 5)
            iterations = rng.randint(1, 3)
            seed = rng.randrange(100_000)
            mine = coarse_cluster(g, profiles, k, iterations, 0.5, seed)
            assignment, centroids, item_clusters = naive_coarse_cluster(g, k, iterations, 0.5, seed)
            assert list(mine.assignment) == assignment
            assert mine.item_clusters == tuple(item_clusters)
            for j in range(k):
                dense = centroids[j]
                sparse = mine.centroids[j]
                if dense is None:
                    assert sparse is None
                    continue
                dense_items, dense_tags = dense
                for idx, value in enumerate(dense_items):
                    delta = abs(sparse.item_part.get(idx, 0.0) - value)
                    worst = max(worst, delta)
                    assert delta <= 1e-12
                for idx, value in enumerate(dense_tags):
                    delta = abs(sparse.tag_part.get(idx, 0.0) - value)
                    worst = max(worst, delta)
                    assert delta <= 1e-12
        elapsed = time.perf_counter() - start
        check(
            2,
            elapsed < 10.0,
            f"coarse clustering equals dense no-cache oracle on 50 instances "
            f"(identical assignments and item clusters, max centroid delta {worst:.1e}, "
            f"{elapsed:.1f}s)",
        )


class TestCriterion3:
    def test_metrics_match_brute_force_on_100_instances(self):
        rng = random.Random(777)
        for _ in range(120):
            ranklists, test_sets = random_eval_instance(rng)
            k = rng.randint(1, 12)
            r = recall_at_k(ranklists, test_sets, k)
            p = precision_at_k(ranklists, test_sets, k)
            assert r == naive_recall(ranklists, test_sets, k)
            assert p == naive_precision(ranklists, test_sets, k)
            assert f1_at_k(p, r) == naive_f1(p, r)
            hits = naive_hit_total(ranklists, test_sets, k)
            product = len(ranklists) * k * p
            assert round(product) == hits
            assert abs(product - hits) < 1e-9
            assert p == hits / (len(ranklists) * k)
        check(3, True, "recall/precision/f1 match brute-force counting on 120 instances; "
                       "hit-count identity integer-exact")


class TestCriterion4:
    def test_fcum_wall_time_within_quarter_of_ucf(self, ucf_bench, fcum_bench):
        _, ucf_times = ucf_bench
        _, fcum_times = fcum_bench
        ucf_median = statistics.median(ucf_times)
        fcum_median = statistics.median(fcum_times)
        ratio = fcum_median / ucf_median
        check(
            4,
            ratio <= 0.25,
            f"median-of-3 clustered total {fcum_median:.2f}s vs baseline {ucf_median:.2f}s, "
            f"ratio {ratio:.3f} (bar 0.25, single-threaded both)",
        )


class TestCriterion5:
    def test_accuracy_parity_at_k10(self, benchmark_corpus, ucf_bench, fcum_bench):
        split, _ = benchmark_corpus
        ucf_ranklists, _ = ucf_bench
        runs, _ = fcum_bench
        ucf_m = metrics_at_k(ucf_ranklists, split.test_sets, 10)
        recalls, f1s = [], []
        for seed in PARITY_SEEDS:
            _, ranklists = runs[seed]
            m = metrics_at_k(ranklists, split.test_sets, 10)
            recalls.append(m.recall)
            f1s.append(m.f1)
        med_recall = statistics.median(recalls)
        med_f1 = statistics.median(f1s)
        ok = med_recall >= 0.95 * ucf_m.recall and med_f1 >= 0.95 * ucf_m.f1
        check(
            5,
            ok,
            f"median recall@10 {med_recall:.5f} vs baseline {ucf_m.recall:.5f} "
            f"(ratio {med_recall / ucf_m.recall:.3f}), median f1@10 {med_f1:.5f} vs "
            f"{ucf_m.f1:.5f} (ratio {med_f1 / ucf_m.f1:.3f}); bar 0.95 over seeds {PARITY_SEEDS}",
        )


class TestCriterion6:
    def test_recall_insensitive_to_iteration_count(self, benchmark_corpus, ucf_bench, fcum_bench):
        split, profiles = benchmark_corpus
        ucf_ranklists, _ = ucf_bench
        runs, _ = fcum_bench
        recalls = {}
        for iterations in (2, 4, 6, 8, 10):
            if iterations == BENCH_ITERATIONS:
                _, ranklists = runs[TIMING_SEED]
            else:
                _, ranklists, _ = _fcum_run(split, profiles, iterations, TIMING_SEED)
            recalls[iterations] = recall_at_k(ranklists, split.test_sets, 10)
        spread = max(recalls.values()) - min(recalls.values())
        ucf_recall = recall_at_k(ucf_ranklists, split.test_sets, 10)
        gap = abs(ucf_recall - recalls[BENCH_ITERATIONS])
        bound = max(0.15 * gap, 0.01)
        check(
            6,
            spread <= bound,
            f"recall@10 spread {spread:.5f} over iterations {sorted(recalls)} "
            f"(values {[f'{recalls[n]:.5f}' for n in sorted(recalls)]}), bound {bound:.5f}",
        )


class TestCriterion7:
    def test_clustered_work_counter_dominated(self, benchmark_corpus, fcum_bench):
        split, _ = benchmark_corpus
        runs, _ = fcum_bench
        ucf_work = ucf_scored_work(split.train)
        details = []
        ok = True
        for seed, (clustering, _) in sorted(runs.items()):
            fcum_work = fcum_scored_work(clustering, split.train)
            nonempty = clustering.nonempty_clusters()
            if nonempty >= 2:
                ok = ok and fcum_work < ucf_work
            details.append(f"seed {seed}: {fcum_work:.3e} vs {ucf_work:.3e} ({nonempty} clusters)")
        check(7, ok, "scored-work counter strictly below baseline on every benchmark run: "
                     + "; ".join(details))


class TestCriterion8:
    def test_reference_dataset_reproduction(self, tmp_path):
        candidate = os.environ.get("DELICIOUS_TSV", "data/delicious.tsv")
        path = Path(candidate)
        if not path.exists():
            print("\n[acceptance] criterion 8: SKIP - reference crawl not present "
                  f"(set DELICIOUS_TSV or place {candidate})")
            pytest.skip("reference dataset not available")
        graph = build_graph(read_triples(path))
        filtered = filter_by_degree(graph, 5)
        expected = {"users": 1617, "items": 21983, "tags": 5301, "triples": 236659}
        got = {
            "users": filtered.n_users,
            "items": filtered.n_items,
            "tags": filtered.n_tags,
            "triples": filtered.n_triples,
        }
        counts_ok = all(abs(got[key] - expected[key]) <= 0.01 * expected[key] for key in expected)
        split = temporal_split(filtered, 0.8)
        profiles = build_profiles(split.train)
        ranklists = rank_ucf(split.train, profiles, 0.5, 5)
        recall5 = recall_at_k(ranklists, split.test_sets, 5)
        recall_ok = abs(recall5 - 0.11146) <= 0.01
        check(
            8,
            counts_ok and recall_ok,
            f"filtered counts {got} within 1% of {expected}; baseline recall@5 {recall5:.5f} "
            f"within 0.01 of 0.11146 (split: {split.train.n_triples} train / "
            f"{len(split.test_triples)} test triples, reference 188671/47988)",
        )


class TestCriterion9:
    def test_reports_byte_identical_excluding_timing(self, tmp_path):
        corpus = tmp_path / "corpus.tsv"
        generate_synthetic(
            SyntheticSpec(
                n_users=60,
                n_items=300,
                n_tags=100,
                n_communities=4,
                triples_per_user=24,
                in_community_prob=0.9,
                seed=13,
            ),
            corpus,
        )
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            cfg = ExperimentConfig(
                input=str(corpus),
                mode="both",
                degree_threshold=2,
                avg_cluster_size=15,
                k_list=(1, 5, 10),
                output=str(out),
            )
            run_experiment(cfg)
            outputs.append(out)
        identical = True
        import json as _json

        for name in ("ucf.report.txt", "fcum.report.txt"):
            identical &= (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in ("ucf.report.json", "fcum.report.json", "combined.json"):
            docs = []
            for out in outputs:
                doc = _json.loads((out / name).read_text())
                doc.pop("timing", None)
                config = doc.get("config")
                if config:
                    config.pop("output", None)
                for mode_doc in (doc.get("ucf"), doc.get("fcum")):
                    if isinstance(mode_doc, dict):
                        mode_doc.get("config", {}).pop("output", None)
                docs.append(_json.dumps(doc, sort_keys=True))
            identical &= docs[0] == docs[1]
        check(9, identical, "two identical runs produce byte-identical reports "
                            "(timing fields and output paths excluded)")
