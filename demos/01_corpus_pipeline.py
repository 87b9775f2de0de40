"""Walkthrough of the corpus stage: parse, build, filter, split, persist.

Run with: python3 demos/01_corpus_pipeline.py
"""

import tempfile
from pathlib import Path

from tagrec import (
    build_graph,
    filter_by_degree,
    parse_triples,
    read_triples,
    split_summary,
    temporal_split,
    write_triples,
)

RAW = """\
# user  item        tag      timestamp
ann\tpython.org\tpython\t100
ann\tpython.org\tdocs\t140
ann\tdocs.rs\trust\t180
ann\tnews.site\tnews\t220
bob\tpython.org\tpython\t110
bob\tdocs.rs\trust\t150
bob\tdocs.rs\tdocs\t190
bob\tcrates.io\trust\t230
cat\tnews.site\tnews\t105
cat\tnews.site\tpolitics\t145
cat\tblog.net\tnews\t185
cat\tpython.org\tpython\t225
dan\toneshot.io\tmisc\t300
"""


def main():
    print("== 1. parse TSV records (comments and blank lines are skipped)")
    records = parse_triples(RAW.splitlines())
    print(f"parsed {len(records)} interactions; first: {records[0]}")

    print("\n== 2. build the tripartite graph (ids interned, duplicates collapsed)")
    graph = build_graph(records)
    print(graph)
    ann = graph.users.index("ann")
    anns = [quad for quad in graph.triples if quad[0] == ann]
    print("ann's items:", sorted({graph.items[r] for _, r, _, _ in anns}))
    print("ann's tags: ", sorted({graph.tags[t] for _, _, t, _ in anns}))

    print("\n== 3. iterative degree filtering (threshold 2)")
    print("dan has a single interaction, so dan, oneshot.io and the misc tag all go,")
    print("and anything that drops below the threshold afterwards goes too:")
    filtered = filter_by_degree(graph, 2)
    print(filtered)
    print("surviving users:", list(filtered.users))

    print("\n== 4. temporal 80/20 split (per user, latest interactions held out)")
    split = temporal_split(filtered, 0.8)
    print(f"train: {split.train}")
    print(f"requested train fraction 0.8, realized {split.realized_train_fraction:.3f}")
    for u in sorted(split.test_sets):
        ext = split.train.users[u]
        held = split.test_sets[u]
        names = sorted(split.train.items[r] for r in held.items)
        print(f"  {ext}: held-out items {names} unreachable {sorted(held.unreachable)}")

    print("\n== 5. persist and round-trip")
    with tempfile.TemporaryDirectory() as td:
        train_path = Path(td) / "train.tsv"
        write_triples(split.train.interactions(), train_path)
        rebuilt = build_graph(read_triples(train_path))
        print(f"wrote {train_path.name}; re-parsed graph equals original: {rebuilt == split.train}")
    print("\nsummary (key=value sidecar schema):")
    for key, value in split_summary(filtered, split).items():
        print(f"  {key}={value}")


if __name__ == "__main__":
    main()
