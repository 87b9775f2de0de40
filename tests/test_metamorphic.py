"""Metamorphic relations of ``tagrec run``: rewrites of a corpus that must not change a run.

Each relation rewrites the lines of one generated corpus in a way the data
format makes meaningless, runs ``tagrec run --mode both --dump-ranklists``
on the original and on the rewritten corpus, undoes any renaming of ids in
what the second run wrote, and requires every output to be byte-identical,
JSON compared without its ``timing`` sections and without the echoed input
and output paths.

Reordering the users is weaker. Ids are numbered in first-appearance order,
and that order decides how equal scores are ranked, the order in which
similarities are summed, and FCUM's initial deal of users to clusters. So
shuffling the corpus by user blocks is checked on UCF's ranklists alone, in
memory: scores agree within 1e-12, and items agree except within runs of
scores that lie within 1e-12 of each other.
"""

import json
import random

import pytest

from tagrec.cli import main
from tagrec.experiment import ExperimentConfig, prepare_corpus
from tagrec.recommend import rank_ucf
from tagrec.synthetic import SyntheticSpec, generate_interactions

SPEC = SyntheticSpec(n_users=200, n_items=1600, n_tags=500, n_communities=8, triples_per_user=40, seed=16)
KMAX = 20
FLAGS = ["--mode", "both", "--dump-ranklists", "--degree-threshold", "2", "--avg-cluster-size", "20",
         "--iterations", "3", "--k-list", f"1..{KMAX}"]
TOL = 1e-12


def corpus_lines() -> list[str]:
    return [f"{u}\t{r}\t{t}\t{ts}\n" for u, r, t, ts in generate_interactions(SPEC)]


def _fields(line: str) -> list[str]:
    return line.rstrip("\n").split("\t")


def _renamed(lines, rename):
    """``lines`` with each id ``x`` of column ``c`` renamed ``rename(c, x)``; also the inverse user and item maps."""
    maps = ({}, {}, {})
    out = []
    for line in lines:
        *ids, ts = _fields(line)
        out.append("\t".join([*(maps[c].setdefault(x, rename(c, x)) for c, x in enumerate(ids)), ts]) + "\n")
    assert all(len(set(m.values())) == len(m) for m in maps)  # a bijection per column
    return out, tuple({new: old for old, new in m.items()} for m in maps[:2])


def duplicate_every_7th_line(lines):
    return lines + lines[6::7], None


def map_timestamps(lines):
    return [f"{u}\t{r}\t{t}\t{3 * int(ts) + 1000}\n" for u, r, t, ts in map(_fields, lines)], None


def prefix_ids(lines):
    return _renamed(lines, lambda c, x: f"renamed-{x}")


def random_bijection_of_ids(lines):
    rng = random.Random(5)
    names = []
    for c in range(3):
        ids = list(dict.fromkeys(_fields(line)[c] for line in lines))
        names.append(dict(zip(ids, (f"{'uit'[c]}{n}" for n in rng.sample(range(10**6), len(ids))))))
    return _renamed(lines, lambda c, x: names[c][x])


def comment_and_blank_before_every_record(lines):
    return [out for line in lines for out in ("# a comment\n", "\n", line)], None


def _without_timing_and_paths(doc):
    if isinstance(doc, dict):
        return {k: _without_timing_and_paths(v) for k, v in doc.items() if k not in ("timing", "input", "output")}
    if isinstance(doc, list):
        return [_without_timing_and_paths(v) for v in doc]
    return doc


def _run(workdir, lines, inverse=None) -> dict:
    """What ``tagrec run`` writes for ``lines``: bytes, or JSON without timing and paths; ids renamed back."""
    workdir.mkdir()
    corpus, out = workdir / "corpus.tsv", workdir / "out"
    corpus.write_text("".join(lines), encoding="utf-8")
    assert main(["run", "--input", str(corpus), "--output", str(out), *FLAGS]) == 0
    outputs = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            outputs[path.name] = _without_timing_and_paths(json.loads(data))
        elif path.name.endswith(".ranklists.tsv") and inverse:
            users, items = inverse
            rows = (line.split("\t") for line in data.decode("utf-8").splitlines(keepends=True))
            outputs[path.name] = "".join(f"{users[u]}\t{rank}\t{items[r]}\t{s}" for u, rank, r, s in rows).encode()
        else:
            outputs[path.name] = data
    return outputs


@pytest.fixture(scope="module")
def original(tmp_path_factory):
    outputs = _run(tmp_path_factory.mktemp("metamorphic") / "original", corpus_lines())
    assert sorted(outputs) == ["combined.json", "fcum.ranklists.tsv", "fcum.report.json", "fcum.report.txt",
                               "ucf.ranklists.tsv", "ucf.report.json", "ucf.report.txt"]
    return outputs


@pytest.mark.parametrize("relation", [
    duplicate_every_7th_line,
    map_timestamps,
    prefix_ids,
    random_bijection_of_ids,
    comment_and_blank_before_every_record,
], ids=lambda relation: relation.__name__)
def test_rewritten_corpus_gives_identical_outputs(tmp_path, original, relation):
    lines, inverse = relation(corpus_lines())
    assert lines != corpus_lines()
    got = _run(tmp_path / "rewritten", lines, inverse)
    assert got.keys() == original.keys()
    for name in original:
        assert got[name] == original[name], name


def _ucf_ranklists(path, lines) -> dict[str, list[tuple[str, float]]]:
    path.write_text("".join(lines), encoding="utf-8")
    _, split, profiles = prepare_corpus(ExperimentConfig(input=str(path), degree_threshold=2))
    train = split.train
    return {train.users[u]: [(train.items[r], s) for r, s in rl.entries]
            for u, rl in rank_ucf(train, profiles, 0.5, KMAX).items()}


def test_shuffling_user_blocks_moves_ucf_scores_within_rounding_only(tmp_path):
    lines = corpus_lines()
    blocks = {}
    for line in lines:
        blocks.setdefault(_fields(line)[0], []).append(line)
    order = list(blocks)
    random.Random(3).shuffle(order)
    shuffled = [line for user in order for line in blocks[user]]
    assert shuffled != lines
    want, got = _ucf_ranklists(tmp_path / "a.tsv", lines), _ucf_ranklists(tmp_path / "b.tsv", shuffled)
    assert want.keys() == got.keys()
    for user, a in want.items():
        b = got[user]
        assert len(a) == len(b), user
        assert all(abs(x - y) <= TOL for (_, x), (_, y) in zip(a, b)), user
        start = 0
        for end in range(1, len(a) + 1):
            if end < len(a) and a[end - 1][1] - a[end][1] <= TOL:
                continue  # the run of near-equal scores goes on
            if end < len(a) or len(a) < KMAX:  # a full list may cut its last run short
                assert {r for r, _ in a[start:end]} == {r for r, _ in b[start:end]}, user
            start = end
