"""Self-tests of the benchmark on tiny corpora (a few seconds in total).

Run with: python3 -m pytest perfbench
"""

import dataclasses
import itertools

import pytest

import bench
import counters
import run
import workloads
from tagrec import experiment
from tagrec.corpus import build_graph
from tagrec.profiles import build_profiles, user_similarity
from tagrec.recommend import RankList
from tagrec.synthetic import SyntheticSpec, generate_interactions

TINY_SPEC = SyntheticSpec(n_users=60, n_items=150, n_tags=60, n_communities=4, triples_per_user=30)
TINY = {
    name: dataclasses.replace(w, spec=TINY_SPEC, avg_cluster_size=min(w.avg_cluster_size, 20))
    for name, w in workloads.WORKLOADS.items()
}
# metrics that must be nonzero on each tiny workload, so a renamed span or counter shows
RUNS_LAYER = {
    "paper-both": ("recommend.ucf_s", "recommend.nonzero_pairs", "clustering.cluster_s",
                   "clustering.moved_round2", "experiment.fcum_ucf_ratio", "corpus.split_s"),
    "fcum-fine": ("recommend.fcum_s", "clustering.coordinate_ops", "experiment.recall10_fcum",
                  "profiles.build_s", "evaluate.metrics_s", "corpus.read_s", "cli.self_s"),
}


@pytest.fixture(scope="module")
def declared():
    e2e, layer, _ = run.declared_metrics()
    return {False: e2e, True: layer}


@pytest.mark.parametrize("trace", [False, True], ids=["trace0", "trace1"])
@pytest.mark.parametrize("name", list(TINY))
def test_workload_emits_exactly_the_declared_metrics(name, trace, declared, tmp_path):
    record = bench.run_workload(TINY[name], 3, 0.01, trace, run.SRC, tmp_path)
    line = run.result_line(record, declared[trace])
    assert line["correct"], record["failures"]
    assert line["failed"] == 0 and line["attempted"] >= 2
    assert set(line["metrics"]) == set(declared[trace])
    assert set(record["values"]) <= set(declared[False]) | set(declared[True])
    if trace:
        assert all(record["values"][m] > 0 for m in RUNS_LAYER[name]), record["values"]
        assert record["spans"] and all(s["end"] >= s["start"] for s in record["spans"])
    else:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_gate_catches_one_swapped_ranklist_entry(monkeypatch, tmp_path):
    real = experiment.write_ranklists

    def swap_first_entries(ranklists, train, path):
        if str(path).endswith("fcum.ranklists.tsv"):
            u = min(ranklists)
            a, b, *rest = ranklists[u].entries
            ranklists = {**ranklists, u: RankList(u, (b, a, *rest))}
        real(ranklists, train, path)

    monkeypatch.setattr(experiment, "write_ranklists", swap_first_entries)
    record = bench.run_workload(TINY["paper-both"], 3, 0.01, False, run.SRC, tmp_path)
    assert record["failed"] == record["attempted"] > 0
    assert record["values"]["pass_rate"] == 0.0
    assert not record["correct"]
    assert any("fcum.ranklists.tsv" in msg for msg in record["failures"])


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_posting_list_counts_match_brute_force(beta):
    spec = SyntheticSpec(n_users=40, n_items=300, n_tags=90, n_communities=4, triples_per_user=15, seed=5)
    train = build_graph(generate_interactions(spec))
    profiles = build_profiles(train)
    groups = [range(40), [u for u in range(40) if u % 3 == 0]]
    pairs, nonzero, accumulations = counters.neighbour_counts(profiles, groups, beta)

    want_pairs = want_nonzero = want_acc = 0
    for group in groups:
        for u, v in itertools.permutations(group, 2):
            want_pairs += 1
            if user_similarity(profiles[u], profiles[v], beta) != 0.0:
                want_nonzero += 1
                want_acc += len(profiles[v].items_sorted)
    assert (pairs, nonzero, accumulations) == (want_pairs, want_nonzero, want_acc)
    assert 0 < nonzero < pairs
