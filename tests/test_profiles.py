import random

import pytest

from tagrec.corpus import build_graph
from tagrec.profiles import UserProfile, build_profiles, cosine, user_similarity

from conftest import make_graph
from oracles import random_graph, user_sets


def profile(items, tags):
    return UserProfile(items, tags)


class TestBuildProfiles:
    def test_identity_copy(self):
        g = make_graph([("u1", "r1", "t1", 1), ("u1", "r2", "t1", 2)])
        profs = build_profiles(g)
        assert profs[0].item_set == {g.items.index("r1"), g.items.index("r2")}
        assert profs[0].tag_set == {g.tags.index("t1")}

    def test_empty_graph(self):
        assert build_profiles(build_graph([])) == {}

    def test_shared_item_appears_in_both(self):
        g = make_graph([("u1", "r1", "t1", 1), ("u2", "r1", "t2", 2)])
        profs = build_profiles(g)
        shared = g.items.index("r1")
        assert shared in profs[0].item_set and shared in profs[1].item_set


class TestOneCopy:
    def test_a_profile_holds_only_the_sorted_tuples(self):
        assert UserProfile.__slots__ == ("items_sorted", "tags_sorted")
        p = profile([3, 1, 3], {2, 0})
        assert (p.items_sorted, p.tags_sorted) == ((1, 3), (0, 2))
        with pytest.raises(AttributeError):
            p.item_set = frozenset()

    def test_sets_equal_the_sorted_tuples_on_random_graphs(self):
        rng = random.Random(8128)
        for _ in range(40):
            g = random_graph(rng, max_timestamp=rng.choice([None, 5]))
            items, tags = user_sets(g, 1), user_sets(g, 2)
            profs = build_profiles(g)
            assert list(profs) == list(range(g.n_users))
            for u, prof in profs.items():
                assert prof.items_sorted == tuple(sorted(items[u]))
                assert prof.tags_sorted == tuple(sorted(tags[u]))
                for got, want in ((prof.item_set, prof.items_sorted), (prof.tag_set, prof.tags_sorted)):
                    assert type(got) is frozenset and got == frozenset(want)


class TestCosine:
    def test_identical_sets(self):
        assert cosine({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint_sets(self):
        assert cosine({1, 2}, {3, 4}) == 0.0

    def test_half_overlap(self):
        assert cosine({1, 2}, {1, 3}) == pytest.approx(0.5)

    def test_zero_vectors(self):
        assert cosine(frozenset(), {1}) == 0.0


class TestUserSimilarity:
    def test_identical_profiles_any_beta(self):
        p = profile({1, 2}, {3})
        for beta in (0.0, 0.25, 0.5, 1.0):
            assert user_similarity(p, p, beta) == 1.0

    def test_hand_value(self):
        # item cosine 0.5, tag cosine 0.25 -> 0.5*0.5 + 0.5*0.25
        u = profile({1, 2}, {1, 2, 3, 4})
        v = profile({1, 3}, {1, 5, 6, 7})
        assert cosine(u.item_set, v.item_set) == pytest.approx(0.5)
        assert cosine(u.tag_set, v.tag_set) == pytest.approx(0.25)
        assert user_similarity(u, v, 0.5) == pytest.approx(0.375)

    def test_beta_one_is_item_side_only(self):
        u = profile({1, 2}, {9})
        v = profile({1, 3}, {8})
        assert user_similarity(u, v, 1.0) == cosine(u.item_set, v.item_set)

    def test_beta_out_of_range(self):
        p = profile({1}, {1})
        for beta in (-0.1, 1.1):
            with pytest.raises(ValueError):
                user_similarity(p, p, beta)

    def test_symmetry_and_range_on_random_profiles(self):
        rng = random.Random(5)
        for _ in range(200):
            u = profile(
                {rng.randrange(30) for _ in range(rng.randint(1, 10))},
                {rng.randrange(15) for _ in range(rng.randint(1, 6))},
            )
            v = profile(
                {rng.randrange(30) for _ in range(rng.randint(1, 10))},
                {rng.randrange(15) for _ in range(rng.randint(1, 6))},
            )
            beta = rng.random()
            forward, backward = user_similarity(u, v, beta), user_similarity(v, u, beta)
            assert forward == backward
            assert 0.0 <= forward <= 1.0
            assert user_similarity(u, u, beta) == 1.0

