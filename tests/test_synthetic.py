import dataclasses
import hashlib
import tracemalloc

import pytest
from oracles import naive_interactions

from tagrec.clustering import coarse_cluster
from tagrec.corpus import build_graph, write_triples
from tagrec.profiles import build_profiles
from tagrec.synthetic import SyntheticSpec, generate_interactions, generate_synthetic

# ``small_spec(n_communities=1, in_community_prob=1.0)``, taken when one community had its own draw branch
ONE_COMMUNITY_PINNED = "136a2084ca9795dbcdeaeeeb3cc9008590edafa018355de661038dedaa086cbd"

# The benchmark workloads' specs (perfbench/workloads.py), seed 42 by default
BENCHMARK_SPECS = {
    "paper-both": SyntheticSpec(n_users=560, n_items=7000, n_tags=1750, n_communities=16),
    "fcum-fine": SyntheticSpec(n_users=640, n_items=8000, n_tags=2000, n_communities=16),
}
PINNED_SPECS = {**BENCHMARK_SPECS, "default": SyntheticSpec()}
# ``PINNED_SPECS``' corpora, taken when every index was drawn by its own ``randrange`` call
CORPUS_PINNED = {
    "paper-both": "8e6dfe52d68a55c6db7716732af7c5cc14a4ee8f5cb23b283c1cb7f272c0fbb1",
    "fcum-fine": "2f3c48d039928e6bee2785fae5e4a276ab3177374b322e0ebf754960bd38bc19",
    "default": "352f933a5df595aeaffad8a4aff19a28f46ae73eb0469862c50a463fb91577e9",
}


def small_spec(**overrides):
    params = dict(
        n_users=30,
        n_items=120,
        n_tags=40,
        n_communities=3,
        triples_per_user=20,
        in_community_prob=0.9,
        seed=5,
    )
    params.update(overrides)
    return SyntheticSpec(**params)


class TestSpecValidation:
    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            small_spec(n_users=0)
        with pytest.raises(ValueError):
            small_spec(triples_per_user=0)

    def test_communities_bounded_by_entities(self):
        with pytest.raises(ValueError):
            small_spec(n_communities=50, n_tags=40)

    def test_probability_range(self):
        with pytest.raises(ValueError):
            small_spec(in_community_prob=1.2)

    def test_planted_signal_floor(self):
        # below 1/n_communities the "community" pools carry no signal
        with pytest.raises(ValueError):
            small_spec(n_communities=3, in_community_prob=0.2)
        small_spec(n_communities=3, in_community_prob=0.34)

    def test_single_community_requires_prob_one(self):
        small_spec(n_communities=1, in_community_prob=1.0)
        with pytest.raises(ValueError):
            small_spec(n_communities=1, in_community_prob=0.9)

    def test_seed_must_be_non_negative(self):
        # random.Random seeds with abs(seed): -7 would silently repeat seed 7's corpus
        small_spec(seed=0)
        with pytest.raises(ValueError, match="seed"):
            small_spec(seed=-7)


class TestGeneration:
    def test_deterministic_interactions(self):
        assert generate_interactions(small_spec()) == generate_interactions(small_spec())

    def test_same_seed_byte_identical_file(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        generate_synthetic(small_spec(), a)
        generate_synthetic(small_spec(), b)
        assert a.read_bytes() == b.read_bytes()
        generate_synthetic(small_spec(seed=6), b)
        assert a.read_bytes() != b.read_bytes()

    def test_file_holds_the_listed_interactions(self, tmp_path):
        spec = small_spec()
        generate_synthetic(spec, tmp_path / "streamed.tsv")
        write_triples(generate_interactions(spec), tmp_path / "listed.tsv")
        assert (tmp_path / "streamed.tsv").read_bytes() == (tmp_path / "listed.tsv").read_bytes()

    @pytest.mark.parametrize("spec", [small_spec(n_users=200, triples_per_user=60), BENCHMARK_SPECS["fcum-fine"]],
                             ids=["12k-records", "fcum-fine"])
    def test_file_is_written_without_holding_the_corpus(self, spec, tmp_path):
        # 12,000 and 76,800 records: a list of either alone would take several MiB
        tracemalloc.start()
        try:
            generate_synthetic(spec, tmp_path / "corpus.tsv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_record_count_and_sequential_timestamps(self):
        records = generate_interactions(small_spec())
        assert len(records) == 30 * 20
        assert [rec.timestamp for rec in records] == list(range(len(records)))

    def test_every_user_emits_its_quota(self):
        records = generate_interactions(small_spec())
        per_user = {}
        for rec in records:
            per_user[rec.user] = per_user.get(rec.user, 0) + 1
        assert set(per_user.values()) == {20}

    def test_fully_planted_communities_share_nothing(self):
        spec = small_spec(n_communities=2, in_community_prob=1.0)
        records = generate_interactions(spec)
        items_by_comm = {0: set(), 1: set()}
        tags_by_comm = {0: set(), 1: set()}
        for rec in records:
            comm = int(rec.user[1:]) % 2
            items_by_comm[comm].add(rec.item)
            tags_by_comm[comm].add(rec.tag)
        assert not items_by_comm[0] & items_by_comm[1]
        assert not tags_by_comm[0] & tags_by_comm[1]

    def test_clustering_recovers_fully_planted_communities(self):
        # dense profiles (40 draws over 40-item pools) separate in two rounds
        spec = small_spec(
            n_communities=2, in_community_prob=1.0, n_items=80, triples_per_user=40
        )
        graph = build_graph(generate_interactions(spec))
        profiles = build_profiles(graph)
        for seed in range(10):
            clustering = coarse_cluster(graph, profiles, 2, 2, 0.5, seed=seed)
            labels = {}
            for u, j in enumerate(clustering.assignment):
                comm = int(graph.users[u][1:]) % 2
                labels.setdefault(j, set()).add(comm)
            assert all(len(comms) == 1 for comms in labels.values())

    @pytest.mark.parametrize("spec", [
        *(pytest.param(dataclasses.replace(spec, seed=seed), id=f"{name}-seed{seed}")
          for name, spec in BENCHMARK_SPECS.items() for seed in (1, 2, 42)),
        pytest.param(small_spec(n_communities=1, in_community_prob=1.0), id="one-community"),
        pytest.param(small_spec(n_items=127, n_tags=41, n_communities=4), id="counts-not-multiples"),
        pytest.param(small_spec(n_items=3, n_tags=5, n_communities=3), id="pools-of-one-or-two"),
        pytest.param(small_spec(n_items=128, n_tags=32, n_communities=4), id="powers-of-two"),
        pytest.param(small_spec(in_community_prob=1 / 3), id="probability-at-floor"),
        pytest.param(small_spec(in_community_prob=1.0), id="probability-one"),
        pytest.param(small_spec(triples_per_user=1), id="one-triple-per-user"),
    ])
    def test_records_are_the_randrange_draws(self, spec):
        assert generate_interactions(spec) == naive_interactions(spec)

    @pytest.mark.parametrize("name", sorted(CORPUS_PINNED))
    def test_corpus_is_pinned(self, name, tmp_path):
        path = generate_synthetic(PINNED_SPECS[name], tmp_path / f"{name}.tsv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CORPUS_PINNED[name]

    def test_single_community_corpus_is_pinned(self, tmp_path):
        # with one community every draw is an own-pool draw over the whole range
        path = generate_synthetic(small_spec(n_communities=1, in_community_prob=1.0), tmp_path / "one.tsv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ONE_COMMUNITY_PINNED

    def test_single_community_is_uniform_noise(self):
        spec = small_spec(n_communities=1, in_community_prob=1.0)
        records = generate_interactions(spec)
        items = {rec.item for rec in records}
        # draws cover a healthy share of the item space instead of one pool
        assert len(items) > 100
