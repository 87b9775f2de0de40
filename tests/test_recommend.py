import dataclasses
import math
import random

import pytest

from tagrec.clustering import Clustering, coarse_cluster, compute_centroid
from tagrec.profiles import build_profiles, user_similarity
from tagrec.recommend import rank_fcum, rank_ucf, score, write_ranklists

from conftest import make_graph
from oracles import random_graph


class TestScore:
    def test_already_trained_item_is_sentinel(self):
        g = make_graph([("u1", "r1", "t1", 1), ("u2", "r1", "t1", 2)])
        profiles = build_profiles(g)
        assert score(0, g.items.index("r1"), {0, 1}, profiles, 0.5) == -1.0

    def test_item_nobody_has_scores_zero(self):
        g = make_graph([("u1", "r1", "t1", 1), ("u2", "r2", "t1", 2)])
        profiles = build_profiles(g)
        # u2 is the only neighbor and does not have r1... use a third item id space
        g2 = make_graph(
            [("u1", "r1", "t1", 1), ("u2", "r2", "t1", 2), ("u3", "r3", "t2", 3)]
        )
        profiles2 = build_profiles(g2)
        assert score(0, g2.items.index("r3"), {1}, profiles2, 0.5) == 0.0

    def test_sums_neighbor_similarities(self):
        # two neighbors both holding the item contribute their similarities
        g = make_graph(
            [
                ("u1", "r1", "t1", 1),
                ("u2", "r2", "t1", 2),
                ("u2", "r1", "t1", 3),
                ("u3", "r2", "t2", 4),
                ("u3", "r1", "t2", 5),
            ]
        )
        profiles = build_profiles(g)
        target = 0
        item = g.items.index("r2")
        expected = user_similarity(profiles[0], profiles[1], 0.5) + user_similarity(
            profiles[0], profiles[2], 0.5
        )
        assert score(target, item, {0, 1, 2}, profiles, 0.5) == pytest.approx(expected)
        assert expected > 0


class TestRankUcf:
    def test_single_user_gets_zero_scores_in_index_order(self):
        g = make_graph([("u1", "r1", "t1", 1), ("u1", "r2", "t1", 2)])
        # no other user: every unseen item scores 0; there are none besides trained ones
        profiles = build_profiles(g)
        out = rank_ucf(g, profiles, 0.5, 5)
        assert out[0].entries == ()

    def test_single_user_with_candidates(self):
        g = make_graph(
            [("u1", "r1", "t1", 1), ("u2", "r2", "t1", 2), ("u2", "r3", "t1", 3), ("u2", "r4", "t1", 4)]
        )
        profiles = build_profiles(g)
        out = rank_ucf(g, profiles, 0.0, 2)  # beta 0 ignores items; tags identical -> sim 1
        # u1's candidates are r2, r3, r4 each scored 1.0; top-2 by index
        assert [g.items[r] for r, _ in out[0].entries] == ["r2", "r3"]
        assert [s for _, s in out[0].entries] == [1.0, 1.0]

    def test_twin_users_extra_item(self):
        g = make_graph(
            [
                ("u1", "r1", "t1", 1),
                ("u1", "r2", "t2", 2),
                ("u2", "r1", "t1", 3),
                ("u2", "r2", "t2", 4),
                ("u2", "rX", "t1", 5),
            ]
        )
        profiles = build_profiles(g)
        out = rank_ucf(g, profiles, 0.5, 3)
        rx = g.items.index("rX")
        sim = user_similarity(profiles[0], profiles[1], 0.5)
        assert out[0].entries[0] == (rx, sim)
        expected = 0.5 * (2 / math.sqrt(2 * 3)) + 0.5 * 1.0
        assert sim == pytest.approx(expected)

    def test_matches_direct_score_evaluation(self):
        rng = random.Random(17)
        for _ in range(20):
            g = random_graph(rng, max_users=8, max_items=15, max_tags=6)
            profiles = build_profiles(g)
            out = rank_ucf(g, profiles, 0.5, k=10)
            neighbors = set(range(g.n_users))
            for u, ranklist in out.items():
                by_score = {}
                for r in range(g.n_items):
                    s = score(u, r, neighbors, profiles, 0.5)
                    if s >= 0.0:
                        by_score[r] = s
                expected = sorted(by_score.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
                assert list(ranklist.entries) == expected

    def test_matches_direct_scores_on_large_pools(self):
        # pools far larger than k, so selection bounds the k-th best score
        # from a sample before ordering; ties at that bound must survive
        rng = random.Random(71)
        for _ in range(6):
            g = random_graph(rng, max_users=30, max_items=400, max_tags=12, min_triples_per_user=30)
            profiles = build_profiles(g)
            out = rank_ucf(g, profiles, 0.5, k=20)
            neighbors = range(g.n_users)
            for u, ranklist in out.items():
                direct = [(r, score(u, r, neighbors, profiles, 0.5)) for r in range(g.n_items)]
                expected = sorted(((r, s) for r, s in direct if s >= 0.0), key=lambda e: (-e[1], e[0]))[:20]
                assert list(ranklist.entries) == expected

    def test_given_users_get_the_full_runs_ranklists_in_their_order(self):
        rng = random.Random(23)
        for _ in range(6):
            g = random_graph(rng, max_users=30, max_items=400, max_tags=12, min_triples_per_user=30)
            profiles = build_profiles(g)
            full = rank_ucf(g, profiles, 0.5, k=20)
            users = rng.sample(range(g.n_users), g.n_users // 2)
            some = rank_ucf(g, profiles, 0.5, 20, iter(users))
            assert list(some.items()) == [(u, full[u]) for u in users]

    def test_many_items_tied_at_the_kth_score_come_in_item_order(self):
        # 200 neighbours with identical similarity each add one unique item
        rows = [("u", "shared", "t", 0)]
        for v in range(200):
            rows += [(f"v{v:03d}", "shared", "t", 2 * v + 1), (f"v{v:03d}", f"only{v:03d}", "t", 2 * v + 2)]
        g = make_graph(rows)
        profiles = build_profiles(g)
        entries = rank_ucf(g, profiles, 0.5, 20)[g.users.index("u")].entries
        sim = user_similarity(profiles[g.users.index("u")], profiles[g.users.index("v000")], 0.5)
        assert entries == tuple((g.items.index(f"only{v:03d}"), sim) for v in range(20))

    def test_zero_score_items_padded_deterministically(self):
        g = make_graph(
            [
                ("u1", "r1", "t1", 1),
                ("u1", "r2", "t1", 2),
                ("u2", "r9", "t9", 3),
                ("u2", "r8", "t9", 4),
            ]
        )
        profiles = build_profiles(g)
        padded = rank_ucf(g, profiles, 0.5, 4)
        assert len(padded[0].entries) == 2  # r9, r8 score 0 but are still listed
        assert all(s == 0.0 for _, s in padded[0].entries)

    def test_beta_outside_unit_interval_rejected(self):
        g = make_graph([("u1", "r1", "t1", 1), ("u2", "r2", "t1", 2)])
        profiles = build_profiles(g)
        clustering = coarse_cluster(g, profiles, 1, 1, 0.5, seed=0)
        for beta in (-0.1, 1.5):
            with pytest.raises(ValueError, match="beta"):
                rank_ucf(g, profiles, beta, 2)
            with pytest.raises(ValueError, match="beta"):
                rank_fcum(clustering, g, profiles, beta, 2)


class TestRankFcum:
    def test_single_cluster_equals_baseline_exactly(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_graph(rng, max_users=12, max_items=25, max_tags=8)
            profiles = build_profiles(g)
            clustering = coarse_cluster(g, profiles, 1, 1, 0.5, seed=rng.randrange(100))
            baseline = rank_ucf(g, profiles, 0.5, 8)
            clustered = rank_fcum(clustering, g, profiles, 0.5, 8)
            assert baseline == clustered  # same items, same float scores, same order

    def test_multi_cluster_matches_direct_scores_exactly(self):
        # independent oracle: score() evaluates each candidate on its own, and
        # every entry must carry exactly the same float, in (-score, item) order
        rng = random.Random(61)
        zero_tails = short_lists = 0
        for _ in range(40):
            g = random_graph(rng, max_users=14, max_items=30, max_tags=10)
            profiles = build_profiles(g)
            clustering = coarse_cluster(g, profiles, rng.randint(2, 4), 2, 0.5, seed=rng.randrange(1000))
            beta = rng.choice((0.0, 0.3, 0.5, 1.0))
            for k in (3, 40):  # 40 exceeds every pool, so whole lists are compared
                out = rank_fcum(clustering, g, profiles, beta, k)
                assert sorted(out) == list(range(g.n_users))
                for members, pool in zip(clustering.user_clusters, clustering.item_clusters):
                    for u in members:
                        direct = [(r, score(u, r, members, profiles, beta)) for r in pool]
                        kept = [(r, s) for r, s in direct if s >= 0.0]
                        expected = sorted(kept, key=lambda e: (-e[1], e[0]))[:k]
                        assert list(out[u].entries) == expected
                        positive = sum(1 for _, s in kept if s > 0.0)
                        if positive < k < len(kept):
                            short_lists += 1
                        if len(expected) > positive + 1:
                            zero_tails += 1
        assert zero_tails and short_lists  # the zero-score tail was exercised

    def test_candidates_confined_to_cluster_pool(self):
        rng = random.Random(29)
        for _ in range(15):
            g = random_graph(rng, max_users=12)
            profiles = build_profiles(g)
            clustering = coarse_cluster(g, profiles, 3, 2, 0.5, seed=rng.randrange(100))
            out = rank_fcum(clustering, g, profiles, 0.5, 10)
            for u, ranklist in out.items():
                pool = set(clustering.item_clusters[clustering.assignment[u]])
                assert all(r in pool for r, _ in ranklist.entries)

    def test_never_recommends_trained_items(self):
        rng = random.Random(37)
        for _ in range(15):
            g = random_graph(rng, max_users=10)
            profiles = build_profiles(g)
            clustering = coarse_cluster(g, profiles, 2, 2, 0.5, seed=1)
            for ranker in (
                lambda: rank_ucf(g, profiles, 0.5, 10),
                lambda: rank_fcum(clustering, g, profiles, 0.5, 10),
            ):
                for u, ranklist in ranker().items():
                    trained = profiles[u].item_set
                    assert all(r not in trained for r, _ in ranklist.entries)

    def test_scores_non_negative_and_sorted(self):
        rng = random.Random(41)
        g = random_graph(rng, max_users=10)
        profiles = build_profiles(g)
        clustering = coarse_cluster(g, profiles, 2, 2, 0.5, seed=3)
        for ranklist in rank_fcum(clustering, g, profiles, 0.5, 10).values():
            entries = ranklist.entries
            assert all(s >= 0.0 for _, s in entries)
            keys = [(-s, r) for r, s in entries]
            assert keys == sorted(keys)

    def test_shorter_k_is_prefix_of_longer(self):
        rng = random.Random(43)
        for _ in range(10):
            g = random_graph(rng, max_users=10)
            profiles = build_profiles(g)
            clustering = coarse_cluster(g, profiles, 2, 2, 0.5, seed=4)
            long = rank_fcum(clustering, g, profiles, 0.5, 12)
            short = rank_fcum(clustering, g, profiles, 0.5, 5)
            for u in long:
                assert long[u].entries[:5] == short[u].entries
            long_u = rank_ucf(g, profiles, 0.5, 12)
            short_u = rank_ucf(g, profiles, 0.5, 5)
            for u in long_u:
                assert long_u[u].entries[:5] == short_u[u].entries

    def test_perfect_clustering_equals_baseline_filtered_to_community(self):
        # ten users, two fully separated communities: the clustered ranklist is
        # exactly the baseline list restricted to the user's community items
        rng = random.Random(53)
        rows = []
        ts = 0
        for comm, prefix in enumerate("ab"):
            for u in range(5):
                for _ in range(8):
                    rows.append(
                        (
                            f"{prefix}{u}",
                            f"r{prefix}{rng.randrange(12)}",
                            f"t{prefix}{rng.randrange(5)}",
                            ts,
                        )
                    )
                    ts += 1
        g = make_graph(rows)
        profiles = build_profiles(g)
        clustering = coarse_cluster(g, profiles, 2, 2, 0.5, seed=1)
        assert clustering.nonempty_clusters() == 2
        for members in clustering.user_clusters:
            assert len({g.users[u][0] for u in members}) == 1  # pure clusters
        baseline = rank_ucf(g, profiles, 0.5, 6)
        clustered = rank_fcum(clustering, g, profiles, 0.5, 6)
        for u in range(g.n_users):
            pool = set(clustering.item_clusters[clustering.assignment[u]])
            filtered = tuple(e for e in rank_ucf(g, profiles, 0.5, g.n_items)[u].entries if e[0] in pool)
            assert clustered[u].entries == filtered[:6]
            assert baseline[u].entries[0][1] == clustered[u].entries[0][1]

    def test_disjoint_clusters_never_cross_recommend(self):
        rows = []
        for u in range(3):
            for r in range(4):
                rows.append((f"a{u}", f"ra{r}", f"ta{r}", len(rows)))
        for u in range(3):
            for r in range(4):
                rows.append((f"b{u}", f"rb{r}", f"tb{r}", len(rows)))
        g = make_graph(rows)
        profiles = build_profiles(g)
        clustering = coarse_cluster(g, profiles, 2, 2, 0.5, seed=0)
        out = rank_fcum(clustering, g, profiles, 0.5, 10)
        a_items = {g.items.index(f"ra{r}") for r in range(4)}
        for u, ranklist in out.items():
            own = g.users[u][0]
            for r, _ in ranklist.entries:
                assert (r in a_items) == (own == "a")


class TestWriteRanklists:
    def test_dump_format(self, tmp_path):
        g = make_graph(
            [
                ("alice", "r1", "t1", 1),
                ("alice", "r2", "t2", 2),
                ("bob", "r1", "t1", 3),
                ("bob", "r2", "t2", 4),
                ("bob", "rX", "t1", 5),
            ]
        )
        profiles = build_profiles(g)
        out = rank_ucf(g, profiles, 0.5, 2)
        path = tmp_path / "ranks.tsv"
        write_ranklists(out, g, path)
        lines = path.read_text().splitlines()
        sim = user_similarity(profiles[0], profiles[1], 0.5)
        assert lines[0] == f"alice\t1\trX\t{sim:.6f}"
        assert all(len(line.split("\t")) == 4 for line in lines)


def direct_ranking(u, members, pool, profiles, beta, k):
    """The top k of ``pool`` for ``u`` by score(), by descending score and then item."""
    direct = [(r, score(u, r, members, profiles, beta)) for r in pool]
    return sorted(((r, s) for r, s in direct if s >= 0.0), key=lambda e: (-e[1], e[0]))[:k]


def ranked_both_ways(g, profiles, clusters, k, beta=0.5):
    """rank_ucf, and rank_fcum over ``clusters`` (lists of user names), each checked against direct_ranking."""
    everyone = range(g.n_users)
    ucf = rank_ucf(g, profiles, beta, k)
    for u in everyone:
        assert list(ucf[u].entries) == direct_ranking(u, everyone, range(g.n_items), profiles, beta, k)
    user_clusters = tuple(tuple(sorted(map(g.users.index, names))) for names in clusters)
    assignment = [0] * g.n_users
    for j, members in enumerate(user_clusters):
        for u in members:
            assignment[u] = j
    centroids = tuple(compute_centroid(members, profiles) for members in user_clusters)
    clustering = Clustering(k=len(clusters), assignment=tuple(assignment), user_clusters=user_clusters,
                            item_clusters=tuple(tuple(c.item_part) for c in centroids), centroids=centroids,
                            iterations_run=1, coordinate_ops=0)
    fcum = rank_fcum(clustering, g, profiles, beta, k)
    for members, pool in zip(clustering.user_clusters, clustering.item_clusters):
        for u in members:
            assert list(fcum[u].entries) == direct_ranking(u, members, pool, profiles, beta, k)
    return ucf, fcum


class TestTopKStop:
    """The kernel's walk in descending holder count, and its stop, give score()'s ranklists bit for bit."""

    def test_matches_direct_scores_on_random_graphs(self):
        rng = random.Random(83)
        for _ in range(40):
            g = random_graph(rng, max_users=25, max_items=60, max_tags=10, min_triples_per_user=rng.randint(1, 12))
            profiles = build_profiles(g)
            everyone = range(g.n_users)
            beta = rng.choice((0.0, 0.5, 1.0))
            for k in (1, 5, g.n_items + 3):  # the last exceeds every candidate count: whole lists, zero tails
                out = rank_ucf(g, profiles, beta, k)
                for u in everyone:
                    assert list(out[u].entries) == direct_ranking(u, everyone, range(g.n_items), profiles, beta, k)

    def test_matches_direct_scores_on_clusters_with_noncontiguous_members(self):
        rng = random.Random(89)
        gapped = zero_tails = 0
        for _ in range(30):
            g = random_graph(rng, max_users=30, max_items=50, max_tags=10, min_triples_per_user=4)
            profiles = build_profiles(g)
            clustering = coarse_cluster(g, profiles, rng.randint(2, 4), 2, 0.5, seed=rng.randrange(1000))
            gapped += sum(1 for m in clustering.user_clusters if m and len(m) < m[-1] - m[0] + 1)
            for k in (1, 60):  # 60 exceeds every pool
                out = rank_fcum(clustering, g, profiles, 0.5, k)
                for members, pool in zip(clustering.user_clusters, clustering.item_clusters):
                    for u in members:
                        assert list(out[u].entries) == direct_ranking(u, members, pool, profiles, 0.5, k)
                zero_tails += sum(1 for r in out.values() if r.entries and r.entries[-1][1] == 0.0)
        assert gapped and zero_tails

    def test_cluster_members_in_any_order_give_the_same_ranklists(self):
        # each item's holders are summed in ascending user order whatever
        # order a cluster lists its members in, so the floats do not change
        rng = random.Random(101)
        reordered = 0
        for _ in range(20):
            g = random_graph(rng, max_users=30, max_items=50, max_tags=10, min_triples_per_user=4)
            profiles = build_profiles(g)
            clustering = coarse_cluster(g, profiles, rng.randint(2, 4), 2, 0.5, seed=rng.randrange(1000))
            shuffled = dataclasses.replace(
                clustering, user_clusters=tuple(tuple(rng.sample(m, len(m))) for m in clustering.user_clusters))
            reordered += shuffled.user_clusters != clustering.user_clusters
            out = rank_fcum(shuffled, g, profiles, 0.5, 10)
            assert out == rank_fcum(clustering, g, profiles, 0.5, 10)
            for members, pool in zip(clustering.user_clusters, clustering.item_clusters):
                for u in members:
                    assert list(out[u].entries) == direct_ranking(u, members, pool, profiles, 0.5, 10)
        assert reordered

    def test_stop_matches_direct_scores(self):
        # many users and a pool far larger than k: half of the picks go to ten
        # popular items, so the walk stops long before the one-holder items
        rng = random.Random(97)
        rows = [(f"u{u}", f"r{rng.randrange(rng.choice((10, 300)))}", f"t{rng.randrange(8)}")
                for u in range(60) for _ in range(20)]
        g = make_graph(rows)
        profiles = build_profiles(g)
        everyone = range(g.n_users)
        out = rank_ucf(g, profiles, 0.5, 5)
        for u, ranklist in out.items():
            assert list(ranklist.entries) == direct_ranking(u, everyone, range(g.n_items), profiles, 0.5, 5)

    def test_an_item_whose_bound_equals_the_kth_score_is_still_ranked(self):
        # six identical neighbours v_i hold shared, only_i and w_i; z, who shares
        # nothing with u, also holds every w_i. Every candidate scores the one
        # similarity s: w_i (2 holders, bound 2s) is scored first, and then each
        # only_i has bound s before the float margin, equal to its own score and
        # to the 3rd best score, so the strict stop must still score it, and the
        # ranking is in item order
        rows = [("u", "shared", "t")]
        for i in range(6):
            rows += [(f"v{i}", "shared", "t"), (f"v{i}", f"only{i}", "t"), (f"v{i}", f"w{i}", "t")]
        rows += [("z", f"w{i}", "tz") for i in range(6)]
        g = make_graph(rows)
        profiles = build_profiles(g)
        u = g.users.index("u")
        sim = user_similarity(profiles[u], profiles[g.users.index("v0")], 0.5)
        expected = tuple((g.items.index(name), sim) for name in ("only0", "w0", "only1"))
        assert rank_ucf(g, profiles, 0.5, 3)[u].entries == expected

    # Items with one holder list share one walk entry. In each case below x,
    # in a cluster of its own and sharing nothing with u, also holds some of
    # those items, so that UCF splits the entries that FCUM keeps whole.

    def test_one_neighbour_alone_holds_more_than_k_items(self):
        rows = [("u", "shared", "t"), ("v", "shared", "t")]
        rows += [("w", "shared", "t2")] + [("w", f"other{i}", "t2") for i in range(3)]  # less similar than v
        rows += [("v", f"only{i}", "t") for i in range(7)]
        rows += [("x", f"only{i}", "tx") for i in (1, 4)]
        g = make_graph(rows)
        profiles = build_profiles(g)
        ucf, fcum = ranked_both_ways(g, profiles, [["u", "v", "w"], ["x"]], 3)
        u = g.users.index("u")
        sim = user_similarity(profiles[u], profiles[g.users.index("v")], 0.5)
        expected = tuple((g.items.index(f"only{i}"), sim) for i in range(3))
        assert ucf[u].entries == fcum[u].entries == expected

    def test_equal_neighbours_items_interleave_by_index_where_k_cuts(self):
        rows = [("u", "shared", "t"), ("v1", "shared", "t"), ("v2", "shared", "t")]
        for i in range(3):  # interned a0, b0, a1, b1, a2, b2
            rows += [("v1", f"a{i}", "t"), ("v2", f"b{i}", "t")]
        rows += [("x", "a1", "tx"), ("x", "b2", "tx")]
        g = make_graph(rows)
        profiles = build_profiles(g)
        u, v1, v2 = map(g.users.index, ("u", "v1", "v2"))
        sim = user_similarity(profiles[u], profiles[v1], 0.5)
        assert user_similarity(profiles[u], profiles[v2], 0.5) == sim
        ucf, fcum = ranked_both_ways(g, profiles, [["u", "v1", "v2"], ["x"]], 4)
        expected = tuple((g.items.index(name), sim) for name in ("a0", "b0", "a1", "b1"))
        assert ucf[u].entries == fcum[u].entries == expected

    def test_an_entry_the_target_holds_is_skipped_whole(self):
        # u and v hold p0..p3 and w holds p0 as well, so in their cluster p1..p3
        # share the holder list (u, v): u and v skip that entry whole, and w is
        # offered all three
        rows = [("u", f"p{i}", "t") for i in range(4)] + [("v", f"p{i}", "t") for i in range(4)]
        rows += [("v", "q", "t"), ("w", "p0", "t2"), ("w", "q", "t"), ("x", "p2", "tx")]
        g = make_graph(rows)
        profiles = build_profiles(g)
        ucf, fcum = ranked_both_ways(g, profiles, [["u", "v", "w"], ["x"]], 10)
        u, v, w = map(g.users.index, ("u", "v", "w"))
        p = {g.items.index(f"p{i}") for i in range(4)}
        for out in (ucf, fcum):
            assert not p & {r for r, _ in out[u].entries + out[v].entries}
            assert p - {g.items.index("p0")} <= {r for r, _ in out[w].entries}
