"""Pinned end-to-end output of ``tagrec run --mode both --dump-ranklists``,
``tagrec sweep``, ``tagrec cluster`` and ``tagrec split``.

The CLI runs in two child processes with different ``PYTHONHASHSEED`` values
on a small seeded corpus. Both ranklist dumps, and ``combined.json`` without
its ``timing`` section, must hash to the digests pinned below. The pins were
taken from the reference implementation before the scoring kernel and the
clustering pass were rewritten, so any change to a score's float bits, to a
tie order or to a cluster assignment shows up here.

The ``<mode>.report.txt`` pins, and the ``sweep.json`` pin (without its
``timing`` section), were taken before the two per-mode run bodies were
folded into one and the report writers were made atomic.

The ``combined.json`` and ``sweep.json`` pins were retaken when the
``degree_mode`` and ``timing_runs`` settings were removed, since every
configuration echo lost those two keys. Putting ``"degree_mode": "triples"``
and ``"timing_runs": 1`` back into each echo gives the earlier pins
(``0ce081c1...`` and ``608a91a6...``) exactly, so nothing else changed.

The ``--mode both`` sweep pin (``sweep.json`` without its ``timing``
section, over three average cluster sizes) was taken from the code as it
was before the graph, the user profile and the centroid were declared as
dataclasses.

The ``cluster`` pin (the ``user<TAB>cluster`` dump) was taken before each
clustering round came to read its cluster norms from the user-cluster dot
table and the item pools came to be read off the final centroids.

The ``split`` pins were taken from the string-level corpus code (every
filter and split re-interned ``Interaction`` records) before the corpus was
moved to integer quads, so a change to an interning order, a duplicate
collapse, a pruning cascade or a held-out record shows up in ``train.tsv``,
``test.tsv`` or ``summary.txt``.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from tagrec.corpus import build_graph, filter_by_degree, parse_triples, temporal_split
from tagrec.synthetic import SyntheticSpec, generate_synthetic

SPEC = SyntheticSpec(
    n_users=100,
    n_items=900,
    n_tags=300,
    n_communities=5,
    triples_per_user=40,
    in_community_prob=0.85,
    seed=2015,
)
RUN_ARGS = [
    "run", "--input", "corpus.tsv", "--output", "out", "--mode", "both", "--dump-ranklists",
    "--degree-threshold", "2", "--avg-cluster-size", "20", "--k-list", "1..20",
]
PINNED = {
    "ucf.ranklists.tsv": "7f4169901821f52b489209c45c34cf6a8b50679e90c578fe4547906e2d09794d",
    "fcum.ranklists.tsv": "b7aefccfbe1e8eeab8ffb6a9907a033837747586c3115f70143f585a193f95f7",
    "combined.json": "80a763889d29c2599aa98d2f862ff0465028e3ede4ca8f55a655da471e0b027b",
}
REPORT_PINNED = {
    "ucf.report.txt": "d9c936f2ae577e83afd369647b378cf23652220c4979e9fcfa236687f62be1cd",
    "fcum.report.txt": "a4a4198d28eab2a3121532c8c1c14908308f32347b86cc0a7ba7cff00b7f55b1",
}
# pinned with ``--mode fcum``; a ``--mode both`` sweep is checked run against run below
SWEEP_ARGS = [
    "sweep", "--input", "corpus.tsv", "--output", "out", "--mode", "fcum",
    "--degree-threshold", "2", "--avg-cluster-size", "20", "--k-list", "1..20",
    "--param", "iterations", "--values", "1,2",
]
SWEEP_PINNED = "e8542e2b6c6a24a42b14b2391acc61f3947ffd453746795b7c076d4a98b6efa6"
BOTH_SWEEP_ARGS = [
    "sweep", "--input", "corpus.tsv", "--output", "out", "--mode", "both",
    "--degree-threshold", "2", "--avg-cluster-size", "20", "--k-list", "1..20",
    "--param", "avg_cluster_size", "--values", "10,20,40",
]
BOTH_SWEEP_PINNED = "67c6db8e4f2ff1f485fe6c6b538b2256ab14061c23843301f64e0e463f310b7a"
CLUSTER_ARGS = [
    "cluster", "--input", "corpus.tsv", "--output", "clusters.tsv",
    "--degree-threshold", "2", "--avg-cluster-size", "20", "--iterations", "3",
]
CLUSTER_PINNED = "6c555200d7bcbe774f161d62c7bc89265d3ca8cb2652f5260fd8adb619c3b695"
SRC = Path(__file__).resolve().parent.parent / "src"

SPLIT_THRESHOLD = 2
SPLIT_PINNED = {
    "train.tsv": "f333a180a3a7c60ce15322dc30e9a2a5a93633f4229a44ea5ea5cb922e9f38b4",
    "test.tsv": "67c0d8c309456a9488c725b5f6a76d5f4992ee3f3bbdf27262c844c0fe6fc7d4",
    "summary.txt": "e61117f7aa841037168f9912c5fe365a97782aa4988740fcf32865d53007a06f",
}


def split_corpus_lines() -> list[str]:
    """A small corpus built to exercise every branch of parse, filter and split.

    It has exact duplicate records, blank, blank-looking and ``#`` lines,
    timestamp ties, users and items that the degree filter prunes, a user
    whose every held-out item also occurs in their training triples (the
    fallback test set), and an item that occurs only in held-out triples
    (unreachable).
    """
    rng = random.Random(31)
    lines = ["# user\titem\ttag\ttimestamp", ""]
    for u in range(30):
        for _ in range(rng.randint(3, 12)):
            record = f"u{u}\tr{rng.randrange(60)}\tt{rng.randrange(20)}\t{rng.randrange(400)}"
            lines.append(record)
            if rng.random() < 0.1:
                lines.append(record)  # exact duplicate
        if u % 7 == 3:
            lines.extend(["   ", "# a comment between users"])
    # every held-out item of "fallback" is one it trained on
    lines += [f"fallback\tr{r}\tt{t}\t{ts}" for r, t, ts in
              ((1, 1, 1), (2, 2, 2), (3, 1, 3), (1, 3, 900), (2, 1, 901))]
    # "rnew" is only ever the latest item of two users, so it is never trained on
    lines += [f"late{u}\tr{r}\tt{u}\t{ts}" for u in (1, 2) for r, ts in
              ((4, 5), (5, 6), (6, 7), ("new", 999))]
    lines += [f"solo\tr99\tt99\t{ts}" for ts in (1, 1)]  # pruned: one distinct triple
    # pruned only after "solo" takes r99 down with it
    lines += ["chain\tr99\tt5\t3", "chain\tr97\tt6\t4"]
    # one item and one tag at three timestamps: three triples, so it is kept
    lines += [f"rep\tr98\tt98\t{ts}" for ts in (10, 20, 30)]
    return [line + "\n" for line in lines]


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _untimed_digest(path: Path) -> str:
    """Digest of a JSON report without its ``timing`` section."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("timing")
    return hashlib.sha256(json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")).hexdigest()


def _digests(directory: Path) -> dict[str, str]:
    out = {name: _file_digest(directory / name) for name in ("ucf.ranklists.tsv", "fcum.ranklists.tsv")}
    out["combined.json"] = _untimed_digest(directory / "combined.json")
    return out


def _run_cli(workdir: Path, hash_seed: str, args, python: str = sys.executable) -> None:
    """Run ``tagrec`` with ``args`` in ``workdir`` under the interpreter ``python``, any warning an error."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [python, "-W", "error", "-m", "tagrec.cli", *args],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_run_output_matches_pinned_digests(tmp_path, hash_seed):
    generate_synthetic(SPEC, tmp_path / "corpus.tsv")
    _run_cli(tmp_path, hash_seed, RUN_ARGS)
    assert _digests(tmp_path / "out") == PINNED
    assert {name: _file_digest(tmp_path / "out" / name) for name in REPORT_PINNED} == REPORT_PINNED


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_sweep_output_matches_pinned_digest(tmp_path, hash_seed):
    generate_synthetic(SPEC, tmp_path / "corpus.tsv")
    _run_cli(tmp_path, hash_seed, SWEEP_ARGS)
    assert _untimed_digest(tmp_path / "out" / "sweep.json") == SWEEP_PINNED


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_both_mode_sweep_output_matches_pinned_digest(tmp_path, hash_seed):
    generate_synthetic(SPEC, tmp_path / "corpus.tsv")
    _run_cli(tmp_path, hash_seed, BOTH_SWEEP_ARGS)
    assert _untimed_digest(tmp_path / "out" / "sweep.json") == BOTH_SWEEP_PINNED


def test_sweep_of_both_modes_is_identical_without_timing(tmp_path):
    args = ["both" if arg == "fcum" else arg for arg in SWEEP_ARGS]
    docs = []
    for workdir, hash_seed in ((tmp_path / "a", "0"), (tmp_path / "b", "4242")):
        workdir.mkdir()
        generate_synthetic(SPEC, workdir / "corpus.tsv")
        _run_cli(workdir, hash_seed, args)
        docs.append(json.loads((workdir / "out" / "sweep.json").read_text(encoding="utf-8")))
    timings = [doc.pop("timing") for doc in docs]
    assert docs[0] == docs[1]
    assert set(timings[0]["1"]) == {"ucf", "fcum", "modes_wall_seconds", "total_seconds_ratio"}


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_cluster_output_matches_pinned_digest(tmp_path, hash_seed):
    generate_synthetic(SPEC, tmp_path / "corpus.tsv")
    _run_cli(tmp_path, hash_seed, CLUSTER_ARGS)
    assert _file_digest(tmp_path / "clusters.tsv") == CLUSTER_PINNED


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_split_output_matches_pinned_digests(tmp_path, hash_seed):
    (tmp_path / "corpus.tsv").write_text("".join(split_corpus_lines()), encoding="utf-8")
    _run_cli(tmp_path, hash_seed, ["split", "--input", "corpus.tsv", "--output", "out",
                                   "--degree-threshold", str(SPLIT_THRESHOLD)])
    digests = {name: _file_digest(tmp_path / "out" / name) for name in SPLIT_PINNED}
    assert digests == SPLIT_PINNED


def test_split_corpus_exercises_every_case():
    records = parse_triples(split_corpus_lines())
    graph = build_graph(records)
    assert graph.n_triples < len(records)
    filtered = filter_by_degree(graph, SPLIT_THRESHOLD)
    assert {"solo", "chain"} <= set(graph.users) - set(filtered.users)
    assert "rep" in filtered.users
    split = temporal_split(filtered, 0.8)
    fallback = split.train.users.index("fallback")
    assert split.test_sets[fallback].items <= {r for u, r, _, _ in split.train.triples if u == fallback}
    for user in ("late1", "late2"):
        assert split.test_sets[split.train.users.index(user)].unreachable == {"rnew"}
