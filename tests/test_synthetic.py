import hashlib
import tracemalloc

import pytest

from tagrec.clustering import coarse_cluster
from tagrec.corpus import build_graph, write_triples
from tagrec.profiles import build_profiles
from tagrec.synthetic import SyntheticSpec, generate_interactions, generate_synthetic

# ``small_spec(n_communities=1, in_community_prob=1.0)``, taken when one community had its own draw branch
ONE_COMMUNITY_PINNED = "136a2084ca9795dbcdeaeeeb3cc9008590edafa018355de661038dedaa086cbd"


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

    def test_file_is_written_without_holding_the_corpus(self, tmp_path):
        # 12,000 records: a list of them alone would take a few MiB
        spec = small_spec(n_users=200, triples_per_user=60)
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
