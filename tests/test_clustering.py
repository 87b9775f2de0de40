import math
import random

import pytest

from tagrec.clustering import (
    Centroid,
    choose_k,
    coarse_cluster,
    compute_centroid,
    init_assignment,
    user_centroid_similarity,
    write_clustering,
)
from tagrec.experiment import fcum_scored_work
from tagrec.profiles import UserProfile, build_profiles

from conftest import make_graph
from oracles import naive_coarse_cluster, random_graph


class TestChooseK:
    def test_reference_sizing(self):
        assert choose_k(1617, 90) == 18

    def test_clamped_to_one(self):
        assert choose_k(10, 100) == 1

    def test_plain_rounding(self):
        assert choose_k(100, 25) == 4

    def test_never_exceeds_users(self):
        assert choose_k(5, 1) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_k(0, 10)
        with pytest.raises(ValueError):
            choose_k(10, 0)


class TestInitAssignment:
    def test_balanced(self):
        assignment = init_assignment(range(4), 2, seed=0)
        sizes = [sum(1 for c in assignment.values() if c == j) for j in range(2)]
        assert sizes == [2, 2]

    def test_sizes_differ_by_at_most_one(self):
        for n, k in ((10, 3), (11, 4), (7, 7), (23, 5)):
            assignment = init_assignment(range(n), k, seed=3)
            sizes = [sum(1 for c in assignment.values() if c == j) for j in range(k)]
            assert max(sizes) - min(sizes) <= 1

    def test_single_cluster(self):
        assert set(init_assignment(range(6), 1, seed=9).values()) == {0}

    def test_deterministic(self):
        a = init_assignment(range(50), 7, seed=123)
        b = init_assignment(range(50), 7, seed=123)
        assert a == b
        assert a != init_assignment(range(50), 7, seed=124)

    def test_documented_contract(self):
        # seeded shuffle, then position i of the shuffled order -> cluster i % k
        users, k, seed = list(range(9)), 4, 77
        order = list(users)
        random.Random(seed).shuffle(order)
        expected = {u: i % k for i, u in enumerate(order)}
        assert init_assignment(users, k, seed) == expected

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            init_assignment(range(4), 0, seed=0)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            init_assignment(range(4), 2, seed=-1)


class TestComputeCentroid:
    def test_singleton_is_all_ones(self):
        profiles = {0: UserProfile({3, 5}, {1})}
        cent = compute_centroid([0], profiles)
        assert cent.item_part == {3: 1.0, 5: 1.0}
        assert cent.tag_part == {1: 1.0}

    def test_two_member_mean(self):
        profiles = {0: UserProfile({0, 1}, {0}), 1: UserProfile({0}, {0})}
        cent = compute_centroid([0, 1], profiles)
        assert cent.item_part == {0: 1.0, 1: 0.5}
        assert cent.tag_part == {0: 1.0}

    def test_empty_cluster_absent(self):
        assert compute_centroid([], {}) is None

    def test_coordinates_in_unit_interval(self):
        rng = random.Random(4)
        g = random_graph(rng, max_users=10)
        profiles = build_profiles(g)
        cent = compute_centroid(list(profiles), profiles)
        for part in (cent.item_part, cent.tag_part):
            assert all(0.0 < v <= 1.0 for v in part.values())


class TestUserCentroidSimilarity:
    def test_sole_member_is_exactly_one(self):
        for items, tags in (({1, 2, 3}, {0, 5}), ({7}, {2}), ({0, 1, 2, 3, 4}, {9, 11, 13})):
            prof = UserProfile(items, tags)
            cent = compute_centroid([0], {0: prof})
            assert user_centroid_similarity(prof, cent, 0.5) == 1.0

    def test_absent_centroid_sentinel(self):
        assert user_centroid_similarity(UserProfile({1}, {1}), None, 0.5) == -1.0

    def test_hand_value(self):
        cent = Centroid({1: 1.0, 2: 0.5}, {1: 1.0})
        prof = UserProfile({1}, {1})
        expected = 0.5 * (1.0 / math.sqrt(1.25)) + 0.5
        assert user_centroid_similarity(prof, cent, 0.5) == pytest.approx(expected)
        assert user_centroid_similarity(prof, cent, 0.5) == pytest.approx(0.9472, abs=1e-4)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            user_centroid_similarity(UserProfile({1}, {1}), None, 1.5)

    def test_empty_side_has_zero_cosine(self):
        # an empty side, of the centroid or of the profile, makes that side's denominator zero
        items_only = Centroid({1: 1.0, 2: 0.5}, {})
        assert user_centroid_similarity(UserProfile({1}, {1}), items_only, 0.5) == 0.5 / math.sqrt(1.25)
        assert user_centroid_similarity(UserProfile((), {1}), Centroid({1: 1.0}, {1: 1.0}), 0.5) == 0.5


def planted_two_community_graph():
    """Six users in two communities with fully disjoint items and tags."""
    rows = []
    ts = 0
    for u in range(3):
        for r in range(3):
            rows.append((f"a{u}", f"ra{r}", f"ta{(u + r) % 3}", ts))
            ts += 1
    for u in range(3):
        for r in range(3):
            rows.append((f"b{u}", f"rb{r}", f"tb{(u + r) % 3}", ts))
            ts += 1
    return make_graph(rows)


class TestCoarseCluster:
    def test_single_cluster_contains_everything(self, tiny_split):
        split, profiles = tiny_split
        clustering = coarse_cluster(split.train, profiles, 1, 1, 0.5, seed=0)
        assert clustering.user_clusters == (tuple(range(split.train.n_users)),)
        assert clustering.item_clusters[0] == tuple(range(split.train.n_items))

    @pytest.mark.parametrize("seed", [0, 1, 7, 13, 42])
    def test_planted_communities_separate_in_two_iterations(self, seed):
        g = planted_two_community_graph()
        profiles = build_profiles(g)
        clustering = coarse_cluster(g, profiles, 2, 2, 0.5, seed=seed)
        groups = {}
        for u, j in enumerate(clustering.assignment):
            groups.setdefault(j, set()).add(g.users[u])
        communities = sorted(frozenset(v) for v in groups.values())
        assert communities == sorted(
            [frozenset({"a0", "a1", "a2"}), frozenset({"b0", "b1", "b2"})]
        )
        naive_assignment, _, naive_items = naive_coarse_cluster(g, 2, 2, 0.5, seed)
        assert list(clustering.assignment) == naive_assignment
        assert tuple(naive_items) == clustering.item_clusters

    def test_partition_invariant_after_run(self):
        rng = random.Random(31)
        for _ in range(25):
            g = random_graph(rng, max_users=12)
            profiles = build_profiles(g)
            k = rng.randint(1, 5)
            clustering = coarse_cluster(g, profiles, k, rng.randint(1, 3), 0.5, rng.randrange(1000))
            seen = [u for members in clustering.user_clusters for u in members]
            assert sorted(seen) == list(range(g.n_users))
            for j, members in enumerate(clustering.user_clusters):
                assert all(clustering.assignment[u] == j for u in members)

    def test_item_clusters_are_exact_unions(self):
        rng = random.Random(32)
        for _ in range(25):
            g = random_graph(rng, max_users=12)
            profiles = build_profiles(g)
            clustering = coarse_cluster(g, profiles, rng.randint(1, 4), 2, 0.5, rng.randrange(1000))
            for j, members in enumerate(clustering.user_clusters):
                expected = set()
                for u in members:
                    expected |= profiles[u].item_set
                assert clustering.item_clusters[j] == tuple(sorted(expected))

    def test_centroids_match_final_partition(self):
        rng = random.Random(33)
        g = random_graph(rng, max_users=10)
        profiles = build_profiles(g)
        clustering = coarse_cluster(g, profiles, 3, 2, 0.5, seed=5)
        for j, members in enumerate(clustering.user_clusters):
            expected = compute_centroid(members, profiles)
            assert clustering.centroids[j] == expected
            if expected is not None:
                n = len(members)
                for i, value in expected.item_part.items():
                    count = sum(1 for u in members if i in profiles[u].item_set)
                    assert value == pytest.approx(count / n, abs=1e-12)

    def test_deterministic_given_seed(self, tmp_path, tiny_split):
        split, profiles = tiny_split
        a = coarse_cluster(split.train, profiles, 4, 2, 0.5, seed=9)
        b = coarse_cluster(split.train, profiles, 4, 2, 0.5, seed=9)
        assert a == b
        pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_clustering(a, split.train, pa)
        write_clustering(b, split.train, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_matches_dense_oracle_on_random_instances(self):
        rng = random.Random(90)
        for _ in range(10):
            g = random_graph(rng, max_users=15, max_items=30, max_tags=12)
            profiles = build_profiles(g)
            k = rng.randint(1, 4)
            iterations = rng.randint(1, 3)
            seed = rng.randrange(10_000)
            mine = coarse_cluster(g, profiles, k, iterations, 0.5, seed)
            assignment, centroids, item_clusters = naive_coarse_cluster(g, k, iterations, 0.5, seed)
            assert list(mine.assignment) == assignment
            assert mine.item_clusters == tuple(item_clusters)

    def test_matches_dense_oracle_on_many_tiny_instances(self):
        # tiny item and tag universes make exactly equal user-centroid cosines
        # common; the float reference decides which cluster such a tie goes to
        rng = random.Random(2007)
        for _ in range(400):
            g = random_graph(rng, max_users=rng.choice((6, 12)), max_items=rng.choice((5, 12, 25)),
                             max_tags=rng.choice((3, 8)))
            profiles = build_profiles(g)
            k = rng.randint(1, 5)
            iterations = rng.randint(1, 3)
            gamma = rng.choice((0.0, 0.3, 0.5, 0.8, 1.0))
            seed = rng.randrange(10_000)
            # the second k exceeds the user count: some clusters are empty from the first round
            for k in (k, g.n_users + 2):
                mine = coarse_cluster(g, profiles, k, iterations, gamma, seed)
                assignment, _, item_clusters = naive_coarse_cluster(g, k, iterations, gamma, seed)
                assert list(mine.assignment) == assignment
                assert mine.item_clusters == tuple(item_clusters)

    def test_coordinate_ops_follow_per_round_formula(self):
        # per round: one touch per profile coordinate to build the centroids,
        # then every user against every non-empty centroid, coordinate by coordinate
        g = planted_two_community_graph()
        profiles = build_profiles(g)
        k, iterations, seed = 4, 3, 5
        clustering = coarse_cluster(g, profiles, k, iterations, 0.5, seed)
        cost = [len(profiles[u].item_set) + len(profiles[u].tag_set) for u in range(g.n_users)]
        init = init_assignment(range(g.n_users), k, seed)
        assignment = [init[u] for u in range(g.n_users)]
        expected, nonempty_per_round = 0, []
        for r in range(1, iterations + 1):
            nonempty = len(set(assignment))
            nonempty_per_round.append(nonempty)
            expected += sum(cost) + sum(c * nonempty for c in cost)
            assignment = coarse_cluster(g, profiles, k, r, 0.5, seed).assignment
        assert nonempty_per_round == [4, 2, 2]  # clusters empty out, and stop costing
        assert clustering.coordinate_ops == expected == 396

    def test_ops_counter_scales_linearly_in_iterations(self, tiny_split):
        split, profiles = tiny_split
        ops = {
            t: coarse_cluster(split.train, profiles, 4, t, 0.5, seed=2).coordinate_ops
            for t in (2, 4, 8)
        }
        assert 1.5 <= ops[4] / ops[2] <= 2.5
        assert 1.5 <= ops[8] / ops[4] <= 2.5

    def test_validation(self, tiny_split):
        split, profiles = tiny_split
        with pytest.raises(ValueError, match="k must be at least 1"):
            coarse_cluster(split.train, profiles, 0, 2, 0.5, seed=1)
        with pytest.raises(ValueError):
            coarse_cluster(split.train, profiles, 2, 0, 0.5, seed=1)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            coarse_cluster(split.train, profiles, 2, 2, 0.5, seed=-3)
        with pytest.raises(ValueError, match="gamma"):
            coarse_cluster(split.train, profiles, 2, 2, 1.5, seed=1)

    def test_iterations_run_recorded(self, tiny_split):
        split, profiles = tiny_split
        assert coarse_cluster(split.train, profiles, 3, 5, 0.5, 1).iterations_run == 5


def brute_force_work(clustering, profiles) -> int:
    """Sum over clusters of n_j * (n_j * |union of items| + |union of tags|), from the profiles."""
    work = 0
    for members in clustering.user_clusters:
        items = {i for u in members for i in profiles[u].items_sorted}
        tags = {t for u in members for t in profiles[u].tags_sorted}
        work += len(members) * (len(members) * len(items) + len(tags))
    return work


class TestFcumScoredWork:
    def test_singleton(self):
        g = make_graph([("u1", "r1", "t1", 1), ("u1", "r1", "t2", 2), ("u1", "r2", "t3", 3)])
        profiles = build_profiles(g)
        clustering = coarse_cluster(g, profiles, 1, 1, 0.5, 0)
        assert fcum_scored_work(clustering, g) == brute_force_work(clustering, profiles) == 1 * (1 * 2 + 3)

    def test_union_of_two_users(self):
        g = make_graph(
            [
                ("u1", "r1", "t1", 1),
                ("u1", "r1", "t2", 2),
                ("u2", "r2", "t2", 3),
                ("u2", "r2", "t3", 4),
            ]
        )
        profiles = build_profiles(g)
        clustering = coarse_cluster(g, profiles, 1, 1, 0.5, 0)
        assert fcum_scored_work(clustering, g) == brute_force_work(clustering, profiles) == 2 * (2 * 2 + 3)

    def test_empty_cluster_adds_nothing(self):
        g = make_graph([("u1", "r1", "t1", 1)])
        profiles = build_profiles(g)
        clustering = coarse_cluster(g, profiles, 2, 1, 0.5, 0)
        empty = [j for j, members in enumerate(clustering.user_clusters) if not members]
        assert empty and clustering.centroids[empty[0]] is None
        assert fcum_scored_work(clustering, g) == brute_force_work(clustering, profiles) == 1 * (1 * 1 + 1)

    def test_work_of_random_graphs_equals_the_brute_force_sum(self):
        rng = random.Random(99)
        for case in range(30):
            g = random_graph(rng, max_users=15)
            profiles = build_profiles(g)
            clustering = coarse_cluster(g, profiles, 1 + case % 4, 2, 0.5, case)
            # the work counter takes each cluster's distinct tags from its centroid's tag keys
            want_tags = [len({t for u in members for t in profiles[u].tags_sorted})
                         for members in clustering.user_clusters]
            assert [len(c.tag_part) if c is not None else 0 for c in clustering.centroids] == want_tags
            # the train graph is not read: the centroids carry every count
            assert fcum_scored_work(clustering, None) == brute_force_work(clustering, profiles)


class TestWriteClustering:
    def test_dump_format(self, tmp_path):
        g = make_graph([("alice", "r1", "t1", 1), ("bob", "r2", "t2", 2)])
        profiles = build_profiles(g)
        clustering = coarse_cluster(g, profiles, 1, 1, 0.5, 0)
        path = tmp_path / "clusters.tsv"
        write_clustering(clustering, g, path)
        assert path.read_text() == "alice\t0\nbob\t0\n"
