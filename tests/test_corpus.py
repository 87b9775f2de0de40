import io
import random

import pytest

from tagrec.corpus import (
    DataError,
    Interaction,
    TripartiteGraph,
    build_graph,
    filter_by_degree,
    parse_triples,
    read_graph,
    read_triples,
    split_summary,
    temporal_split,
    write_triples,
)

from tagrec.experiment import ExperimentConfig, prepare_corpus
from tagrec.profiles import UserProfile, build_profiles
from tagrec.synthetic import SyntheticSpec, generate_synthetic

from conftest import make_graph
from oracles import naive_filter_by_degree, naive_temporal_split, random_graph, user_sets


class TestParseTriples:
    def test_single_record(self):
        assert parse_triples(io.StringIO("u1\tr1\tt1\t100\n")) == [Interaction("u1", "r1", "t1", 100)]
        assert Interaction("u1", "r1", "t1", 100) == ("u1", "r1", "t1", 100)

    def test_empty_input(self):
        assert parse_triples(io.StringIO("")) == []

    def test_wrong_field_count_names_line(self):
        with pytest.raises(DataError, match="line 1.*3"):
            parse_triples(io.StringIO("u1\tr1\tt1\n"))

    def test_error_line_number_counts_skipped_lines(self):
        data = "# comment\n\nu1\tr1\tt1\t1\nu2\tr2\n"
        with pytest.raises(DataError, match="line 4"):
            parse_triples(io.StringIO(data))

    def test_comments_and_blanks_skipped(self):
        data = "# header\n\nu1\tr1\tt1\t5\n   \nu2\tr2\tt2\t6\n"
        assert len(parse_triples(io.StringIO(data))) == 2

    def test_non_integer_timestamp(self):
        with pytest.raises(DataError, match="line 1.*timestamp"):
            parse_triples(io.StringIO("u1\tr1\tt1\tlater\n"))

    def test_negative_timestamp(self):
        with pytest.raises(DataError, match="negative"):
            parse_triples(io.StringIO("u1\tr1\tt1\t-3\n"))

    def test_empty_id(self):
        with pytest.raises(DataError, match="line 1"):
            parse_triples(io.StringIO("\tr1\tt1\t1\n"))

    def test_file_errors_name_the_file(self, tmp_path):
        missing = tmp_path / "nope.tsv"
        with pytest.raises(DataError, match="nope.tsv"):
            read_triples(missing)
        bad = tmp_path / "bad.tsv"
        bad.write_text("u1\tr1\n", encoding="utf-8")
        with pytest.raises(DataError, match="bad.tsv.*line 1"):
            read_triples(bad)

    @pytest.mark.parametrize("text", [
        "# header\n\nb\tr2\tt1\t3\na\tr1\tt1\t2\nb\tr2\tt1\t3\r\n  \na\tr2\tt2\t0\n",
        "u1\tr1\tt1\t1\n# note\nu2\tr2\n",
        "u1\tr1\tt1\t1\n\nu1\tr1\t\t2\n",
        "u1\tr1\tt1\tsoon\n",
        "u1\tr1\tt1\t-1\n",
    ])
    def test_read_graph_equals_building_the_parsed_records(self, tmp_path, text):
        path = tmp_path / "corpus.tsv"
        path.write_bytes(text.encode("utf-8"))
        try:
            records = read_triples(path)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                read_graph(path)
            assert str(got.value) == str(exc)
            return
        want = build_graph(records)
        assert read_graph(path) == want
        assert build_graph(tuple(rec) for rec in records) == want

    def test_a_byte_order_mark_is_not_part_of_the_first_id(self, tmp_path):
        text = "u1\tr1\tt1\t1\nu1\tr2\tt1\t2\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(text.encode("utf-8-sig"))
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_graph(marked) == read_graph(plain)
        assert read_graph(marked).users == ("u1",)
        assert read_triples(marked) == read_triples(plain)


class TestBuildGraph:
    def test_projections(self):
        g = make_graph([("u1", "r1", "t1", 1), ("u1", "r1", "t2", 2)])
        assert (g.n_users, g.n_items, g.n_tags, g.n_triples) == (1, 1, 2, 2)
        assert user_sets(g, 1)[0] == {0}
        assert user_sets(g, 2)[0] == {0, 1}

    def test_empty(self):
        g = build_graph([])
        assert (g.n_users, g.n_items, g.n_tags, g.n_triples) == (0, 0, 0, 0)

    def test_exact_duplicates_collapse(self):
        g = make_graph([("u1", "r1", "t1", 1), ("u1", "r1", "t1", 1)])
        assert g.n_triples == 1

    def test_same_triple_different_timestamp_kept(self):
        g = make_graph([("u1", "r1", "t1", 1), ("u1", "r1", "t1", 2)])
        assert g.n_triples == 2
        assert user_sets(g, 1)[0] == {0}

    def test_first_appearance_interning(self):
        g = make_graph([("b", "r2", "t1", 1), ("a", "r1", "t1", 2)])
        assert list(g.users) == ["b", "a"]
        assert list(g.items) == ["r2", "r1"]


class TestFilterByDegree:
    def test_threshold_zero_is_identity(self):
        g = make_graph([("u1", "r1", "t1"), ("u2", "r2", "t2"), ("u1", "r2", "t1")])
        assert filter_by_degree(g, 0) == g

    def test_cascade_to_empty(self):
        # u2 (degree 1) goes first, which drags r2, then u1, then everything
        g = make_graph([("u1", "r1", "t1"), ("u1", "r2", "t1"), ("u2", "r2", "t1")])
        out = filter_by_degree(g, 2)
        assert out.n_triples == 0
        assert (out.n_users, out.n_items, out.n_tags) == (0, 0, 0)

    def test_survivors_reindexed_compactly(self):
        g = make_graph(
            [
                ("u1", "r1", "t1"),
                ("u1", "r1", "t2"),
                ("u2", "r1", "t1"),
                ("u2", "r1", "t2"),
                ("u3", "r9", "t9"),
            ]
        )
        out = filter_by_degree(g, 2)
        assert list(out.users) == ["u1", "u2"]
        assert list(out.items) == ["r1"]
        assert list(out.tags) == ["t1", "t2"]
        assert out.n_triples == 4

    def test_fixpoint_and_idempotence_on_random_graphs(self):
        rng = random.Random(1234)
        for _ in range(40):
            g = random_graph(rng)
            threshold = rng.randint(0, 4)
            out = filter_by_degree(g, threshold)
            assert all(c >= threshold for c in _degree_counts(out))
            assert filter_by_degree(out, threshold) == out

    def test_degree_counts_triples_not_distinct_neighbours(self):
        # one user, one item, one tag, repeated at distinct timestamps:
        # each node is in 3 triples but has only 2 distinct neighbours
        g = make_graph([("u1", "r1", "t1", i) for i in range(3)])
        assert filter_by_degree(g, 3).n_triples == 3

    def test_bad_arguments(self):
        g = make_graph([("u1", "r1", "t1")])
        with pytest.raises(ValueError):
            filter_by_degree(g, -1)


def _degree_counts(graph):
    counts = []
    for kind in range(3):
        tally = {}
        for triple in graph.triples:
            tally[triple[kind]] = tally.get(triple[kind], 0) + 1
        counts.extend(tally.values())
    return counts


class TestTemporalSplit:
    def test_latest_triple_held_out(self):
        # every user shares r5 so the held-out item stays reachable
        rows = [("u1", f"r{i}", "t1", i) for i in range(1, 6)]
        rows += [("u2", "r5", "t1", 1), ("u2", "r2", "t1", 2)]
        g = make_graph(rows)
        split = temporal_split(g, 0.8)
        u1 = split.train.users.index("u1")
        held = split.test_sets[u1]
        assert held.items == {split.train.items.index("r5")}
        assert held.unreachable == frozenset()
        train_u1 = [rec for rec in split.train.interactions() if rec.user == "u1"]
        assert sorted(rec.timestamp for rec in train_u1) == [1, 2, 3, 4]

    def test_held_out_item_unseen_in_train_is_unreachable(self):
        rows = [("u1", f"r{i}", "t1", i) for i in range(1, 6)]
        rows += [("u2", "r1", "t1", 1), ("u2", "r2", "t1", 2)]
        g = make_graph(rows)
        split = temporal_split(g, 0.8)
        held = split.test_sets[split.train.users.index("u1")]
        assert held.items == frozenset()
        assert held.unreachable == {"r5"}
        assert len(held) == 1

    def test_unreachable_item_flagged(self):
        rows = [
            ("u1", "r1", "t1", 1),
            ("u1", "r2", "t1", 2),
            ("u1", "rX", "t1", 3),
            ("u2", "r1", "t1", 1),
            ("u2", "r2", "t1", 2),
        ]
        g = make_graph(rows)
        split = temporal_split(g, 0.7)
        u1 = split.train.users.index("u1")
        assert "rX" in split.test_sets[u1].unreachable
        assert len(split.test_sets[u1]) >= 1

    def test_fallback_when_test_items_already_trained(self):
        rows = [
            ("u1", "r1", "t1", 1),
            ("u1", "r2", "t1", 2),
            ("u1", "r1", "t2", 3),  # latest triple re-uses r1
            ("u2", "r1", "t1", 1),
            ("u2", "r2", "t1", 2),
        ]
        g = make_graph(rows)
        split = temporal_split(g, 0.8)
        u1 = split.train.users.index("u1")
        held = split.test_sets[u1]
        assert len(held) > 0
        assert held.items == {split.train.items.index("r1")}

    def test_single_triple_user_rejected(self):
        g = make_graph([("lonely", "r1", "t1", 1), ("u2", "r1", "t1", 1), ("u2", "r2", "t1", 2)])
        with pytest.raises(DataError, match="lonely"):
            temporal_split(g, 0.8)

    def test_bad_ratio(self):
        g = make_graph([("u1", "r1", "t1", 1), ("u1", "r2", "t1", 2)])
        for ratio in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                temporal_split(g, ratio)

    def test_partition_properties_on_random_graphs(self):
        rng = random.Random(77)
        for _ in range(30):
            g = random_graph(rng, min_triples_per_user=2)
            ratio = rng.choice([0.5, 0.7, 0.8, 0.9])
            split = temporal_split(g, ratio)
            train_recs = list(split.train.interactions())
            both = train_recs + split.test_triples
            original = list(g.interactions())
            assert sorted(both, key=_key) == sorted(original, key=_key)
            assert split.train.n_users == g.n_users
            assert set(split.test_sets) == set(range(split.train.n_users))
            assert all(len(ts) > 0 for ts in split.test_sets.values())
            assert 0.0 < split.realized_train_fraction < 1.0

    def test_tiny_ratio_still_keeps_users_in_train(self):
        g = make_graph([("u1", "r1", "t1", 1), ("u1", "r2", "t1", 2)])
        split = temporal_split(g, 0.1)
        assert split.train.n_users == 1
        assert len(split.test_triples) == 1


def _key(rec):
    return (rec.user, rec.item, rec.tag, rec.timestamp)


class TestAgainstStringOracle:
    def test_filter_and_split_match_oracle_on_random_graphs(self):
        rng = random.Random(4711)
        checked_splits = 0
        for case in range(240):
            g = random_graph(rng, max_users=25, max_items=30, max_tags=15,
                             min_triples_per_user=1 + case % 3,
                             max_timestamp=rng.choice([None, 4, 12]))
            threshold = case % 4
            filtered = filter_by_degree(g, threshold)
            want = naive_filter_by_degree(g, threshold)
            assert filtered == want
            if filtered.n_triples == 0:
                continue
            ratio = rng.choice([0.3, 0.5, 0.7, 0.8, 0.9])
            try:
                want_train, want_sets, want_test, want_fraction = naive_temporal_split(filtered, ratio)
            except DataError:
                with pytest.raises(DataError):
                    temporal_split(filtered, ratio)
                continue
            split = temporal_split(filtered, ratio)
            train = split.train
            assert train == want_train
            assert split.test_triples == want_test
            assert split.realized_train_fraction == want_fraction
            assert {
                train.users[u]: (frozenset(map(train.items.__getitem__, ts.items)), ts.unreachable)
                for u, ts in split.test_sets.items()
            } == want_sets
            checked_splits += 1
        assert checked_splits >= 100


class TestOneUserSideCopy:
    def test_profiles_of_read_filtered_and_split_graphs_match_triples(self, tmp_path):
        rng = random.Random(2718)
        path = tmp_path / "corpus.tsv"
        graphs = 0
        for case in range(60):
            g = random_graph(rng, max_users=25, max_items=30, max_tags=15, min_triples_per_user=2 + case % 3)
            write_triples(g.interactions(), path)
            read = read_graph(path)
            filtered = filter_by_degree(read, case % 3)
            built = [read, filtered]
            try:
                built.append(temporal_split(filtered, rng.choice([0.5, 0.8])).train)
            except DataError:
                pass
            for graph in built:
                items, tags = user_sets(graph, 1), user_sets(graph, 2)
                want = {u: UserProfile(items[u], tags[u]) for u in range(graph.n_users)}
                assert build_profiles(graph) == want
                graphs += 1
        assert graphs >= 150

    def test_prepare_corpus_keeps_user_data_in_the_profiles_only(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        generate_synthetic(SyntheticSpec(n_users=40, n_items=200, n_tags=80, triples_per_user=24, seed=7), path)
        filtered, split, profiles = prepare_corpus(ExperimentConfig(input=str(path), degree_threshold=2))
        assert TripartiteGraph.__slots__ == ("users", "items", "tags", "triples")
        graphs = (read_graph(path), filtered, split.train)
        assert not any(hasattr(graph, "__dict__") for graph in graphs)
        assert all(type(table) is tuple for graph in graphs for table in (graph.users, graph.items, graph.tags))
        train = split.train
        items, tags = user_sets(train, 1), user_sets(train, 2)
        assert profiles == {u: UserProfile(items[u], tags[u]) for u in range(train.n_users)}
        assert filtered.n_triples > train.n_triples


class TestRoundTrip:
    def test_write_parse_rebuild_identical(self, tmp_path, tiny_split):
        split, _ = tiny_split
        path = tmp_path / "train.tsv"
        write_triples(split.train.interactions(), path)
        reparsed = build_graph(read_triples(path))
        assert reparsed == split.train

    def test_summary_schema(self, tiny_split):
        split, _ = tiny_split
        graph = build_graph(list(split.train.interactions()) + split.test_triples)
        summary = split_summary(graph, split)
        for prefix in ("total", "train", "test"):
            for suffix in ("users", "items", "tags", "triples"):
                assert f"{prefix}_{suffix}" in summary
        assert summary["train_triples"] + summary["test_triples"] == summary["total_triples"]
