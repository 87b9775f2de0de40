"""Tripartite interaction corpus: parsing, graph building, filtering, splitting.

Input data is TSV with four columns (user, item, tag, timestamp), one
interaction per line. Each line is interned straight into a
``(user, item, tag, timestamp)`` quad of dense integer indices, assigned in
first-appearance order; the graph keeps the deduplicated quads, a tuple of
external ids per node kind, and nothing per user. The profiles of
``profiles.build_profiles`` are the one user-side copy of the training data,
and the split gathers what it needs one user at a time. Filtering and
splitting stay in that integer space: they keep a subsequence of the quads
and renumber the surviving ids compactly, in first-appearance order, which
yields the same tables as interning the surviving records afresh. The
split's held-out counts are exact integer arithmetic on the ratio's
shortest decimal form. ``Interaction`` records appear only where records
are read or written: the split's held-out triples stay quads until
``tagrec split`` writes them.
"""

import contextlib
import dataclasses
import os
from collections import Counter
from dataclasses import dataclass
from itertools import compress, starmap
from operator import itemgetter, not_
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "DataError",
    "Interaction",
    "TripartiteGraph",
    "TestSet",
    "SplitCorpus",
    "parse_triples",
    "read_triples",
    "read_graph",
    "write_triples",
    "build_graph",
    "filter_by_degree",
    "temporal_split",
    "split_summary",
    "write_summary",
]


class DataError(Exception):
    """Malformed or unusable input data (maps to CLI exit code 2)."""


class Interaction(NamedTuple):
    """A single user-item-tag annotation event."""

    user: str
    item: str
    tag: str
    timestamp: int


@dataclass(slots=True)
class TripartiteGraph:
    """Interned users/items/tags plus the triple store.

    ``users``, ``items`` and ``tags`` are tuples of external ids, so
    ``graph.items[r]`` is the id of item ``r``. Every dense index is
    referenced by at least one triple; construction guarantees this.
    """

    users: tuple[str, ...]
    items: tuple[str, ...]
    tags: tuple[str, ...]
    triples: list[tuple[int, int, int, int]]

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @property
    def n_tags(self) -> int:
        return len(self.tags)

    @property
    def n_triples(self) -> int:
        return len(self.triples)

    def interactions(self, triples=None):
        """Yield ``triples``, quads in this graph's ids (default: its own), as records, in order."""
        for u, r, t, ts in self.triples if triples is None else triples:
            yield Interaction(self.users[u], self.items[r], self.tags[t], ts)

    def __repr__(self):
        return (
            f"TripartiteGraph(users={self.n_users}, items={self.n_items}, "
            f"tags={self.n_tags}, triples={self.n_triples})"
        )


def _records(lines):
    """Yield each record of a TSV stream as a (user, item, tag, timestamp) tuple.

    This is the one validation loop of ``parse_triples`` and ``read_graph``.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise DataError(f"line {lineno}: expected 4 tab-separated fields, got {len(fields)}")
        user, item, tag, ts_text = fields
        if not user or not item or not tag:
            raise DataError(f"line {lineno}: empty id field")
        try:
            ts = int(ts_text)
        except ValueError:
            raise DataError(f"line {lineno}: timestamp {ts_text!r} is not an integer") from None
        if ts < 0:
            raise DataError(f"line {lineno}: negative timestamp {ts}")
        yield user, item, tag, ts


def parse_triples(lines) -> list[Interaction]:
    """Parse TSV interaction records from an iterable of text lines.

    Blank lines and ``#``-prefixed comment lines are skipped. Raises
    DataError naming the 1-based line number for malformed records
    (wrong field count, empty ids, bad timestamp).
    """
    return list(starmap(Interaction, _records(lines)))


def _read(path, consume):
    """``consume`` the UTF-8 text file at ``path``, less any leading byte-order mark.

    Every failure is a DataError naming the file.
    """
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8-sig") as fh:
            return consume(fh)
    except (OSError, UnicodeDecodeError, DataError) as exc:
        raise DataError(f"{path}: {exc}") from None


def read_triples(path) -> list[Interaction]:
    return _read(path, parse_triples)


def read_graph(path) -> TripartiteGraph:
    """Parse a TSV corpus file straight into a graph; equal to ``build_graph(read_triples(path))``."""
    return _read(path, lambda fh: build_graph(_records(fh)))


# What a field takes by its annotation (a tuple field, in each entry) and how a refusal ends; a ``str`` field is a
# path, echoed through ``str()`` (``mode``, the one that is not, is checked against its choices first).
_KINDS = {int: (int, "an integer"), tuple[int, ...]: (int, "an integer"), float: ((int, float), "a number"),
          bool: (bool, "true or false"), str: ((str, os.PathLike), "a path"),
          str | None: ((str, os.PathLike, type(None)), "a path or None")}


def _check_kinds(obj) -> None:
    """Raise ``ValueError`` naming the field unless each field of the dataclass ``obj`` holds its ``_KINDS`` kind.

    A ``bool`` is never a number, and every value that passes is one JSON can write (``numpy.int64``,
    ``Fraction`` and ``Decimal`` are refused); a field of another annotation raises ``KeyError``.
    """
    for f in dataclasses.fields(obj):
        types, noun = _KINDS[f.type]
        each = f.type == tuple[int, ...]
        for v in getattr(obj, f.name) if each else (getattr(obj, f.name),):
            if not isinstance(v, types) or isinstance(v, bool) and types is not bool:
                raise ValueError(f"{f.name}{f' entry {v!r}' if each else ''} must be {noun}")


@contextlib.contextmanager
def _atomic_open(path):
    """A text file that replaces ``path`` once the block ends without error.

    Every file the package writes goes through here: its directory is
    created if missing, and it is written to a temp file in that directory,
    then renamed over its target, so a failed write leaves the earlier file
    in place and no partial file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_triples(interactions, path) -> None:
    """Write (user, item, tag, timestamp) 4-tuples, such as ``Interaction`` records, one TSV line each."""
    with _atomic_open(path) as fh:
        fh.writelines(f"{u}\t{r}\t{t}\t{ts}\n" for u, r, t, ts in interactions)


def build_graph(interactions) -> TripartiteGraph:
    """Intern ids in first-appearance order and collapse exact duplicate records.

    ``interactions`` are any (user, item, tag, timestamp) 4-tuples, such as
    ``Interaction`` records. Duplicates are records equal in all four fields;
    binary profiles carry no multiplicity, so one copy suffices.
    """
    users, items, tags = {}, {}, {}
    quads = dict.fromkeys(
        (users.setdefault(u, len(users)), items.setdefault(r, len(items)), tags.setdefault(t, len(tags)), ts)
        for u, r, t, ts in interactions
    )
    return TripartiteGraph(tuple(users), tuple(items), tuple(tags), list(quads))


def _remap(graph: TripartiteGraph, quads):
    """Graph over ``quads``, a subsequence of ``graph.triples``, with ids renumbered compactly.

    New ids follow first appearance in ``quads``, exactly as ``build_graph``
    would intern the same records. Returns the graph and the old-to-new user
    and item id maps: lists indexed by old id, ``None`` where an id is gone.
    """
    quads = list(quads)
    tables, maps = [], []
    for column, old in enumerate((graph.users, graph.items, graph.tags)):
        kept = list(dict.fromkeys(map(itemgetter(column), quads)))
        new = [None] * len(old)
        for idx, old_idx in enumerate(kept):
            new[old_idx] = idx
        tables.append(tuple(map(old.__getitem__, kept)))
        maps.append(new)
    new_u, new_r, new_t = maps
    triples = [(new_u[u], new_r[r], new_t[t], ts) for u, r, t, ts in quads]
    return TripartiteGraph(*tables, triples), new_u, new_r


def filter_by_degree(graph: TripartiteGraph, threshold: int) -> TripartiteGraph:
    """Iteratively drop users/items/tags in fewer than ``threshold`` triples.

    A node's degree is the number of surviving triples containing it.
    Removing a node removes all its triples, which may push other nodes under
    the threshold; pruning repeats until no node is below it. Survivors are
    renumbered compactly in first-appearance order, so the result may be the
    empty graph.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    # Removing triples only lowers degrees, so a node under the threshold stays
    # under it whatever else goes: every removal order ends at the same
    # largest set of triples in which each node's degree reaches the threshold.
    live = graph.triples
    while threshold and live:
        degrees = [Counter(map(itemgetter(c), live)) for c in range(3)]
        low_u, low_r, low_t = ({x for x, d in deg.items() if d < threshold} for deg in degrees)
        if not (low_u or low_r or low_t):
            break
        live = [q for q in live if not (q[0] in low_u or q[1] in low_r or q[2] in low_t)]
    return _remap(graph, live)[0]


@dataclass(frozen=True)
class TestSet:
    """Held-out items for one user.

    ``items`` are indices in the training graph's item table; ``unreachable``
    are external ids of test items with no training occurrence at all (they
    can never be recommended but still count toward the set size).
    """

    items: frozenset[int]
    unreachable: frozenset[str]

    def __len__(self) -> int:
        return len(self.items) + len(self.unreachable)


@dataclass
class SplitCorpus:
    """A temporal train/test split.

    ``test_sets`` is keyed by training-graph user index; ``test_triples``
    keeps the held-out quads, in the split graph's ids, for persistence.
    """

    train: TripartiteGraph
    test_sets: dict[int, TestSet]
    test_triples: list[tuple[int, int, int, int]]
    split_ratio: float
    realized_train_fraction: float


def temporal_split(graph: TripartiteGraph, ratio: float) -> SplitCorpus:
    """Per-user temporal split: each user's latest interactions are held out.

    For each user the latest ``ceil((1-ratio) * n_u)`` triples (ordered by
    timestamp, ties by item then tag index) go to test, the rest to train,
    clamped so every user keeps at least one triple on each side. The
    ceiling is exact, of ``1-ratio`` taken from the shortest decimal form
    of ``float(ratio)``, so a ratio of 0.7 holds out 3 of 10 triples. A
    user's test item set is their distinct test items minus their training
    items; when that subtraction empties the set, the raw distinct test
    items are used so the set is never empty.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be strictly between 0 and 1")
    if graph.n_triples == 0:
        raise DataError("cannot split an empty graph")

    triples = graph.triples
    # ratio as digits * 10**-scale makes 1 - ratio exact in integers; fractions would load decimal
    mantissa, _, exponent = repr(float(ratio)).partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits, scale = int(whole + fraction), len(fraction) - int(exponent or 0)
    per_user = [[] for _ in range(graph.n_users)]
    for tid, u in enumerate(map(itemgetter(0), triples)):
        per_user[u].append(tid)

    held = [False] * len(triples)
    test_items = []  # per user, the old ids of its test set's items
    for u, tids in enumerate(per_user):
        if len(tids) < 2:
            raise DataError(
                f"user {graph.users[u]!r} has {len(tids)} triple(s); need at least 2 to split"
            )
        tids.sort(key=lambda tid: (triples[tid][3], triples[tid][1], triples[tid][2]))
        n_test = -(-(10**scale - digits) * len(tids) // 10**scale)
        n_train = len(tids) - max(1, min(n_test, len(tids) - 1))
        tested = set()
        for tid in tids[n_train:]:
            held[tid] = True
            tested.add(triples[tid][1])
        # when every test item was already trained on, keep them all so the set is non-empty
        test_items.append(tested.difference(triples[tid][1] for tid in tids[:n_train]) or tested)
    del per_user  # freed before the train graph is built

    train, user_map, item_map = _remap(graph, compress(triples, map(not_, held)))
    test_sets = {
        user_map[u]: TestSet(frozenset(item_map[r] for r in old_items if item_map[r] is not None),
                             frozenset(graph.items[r] for r in old_items if item_map[r] is None))
        for u, old_items in enumerate(test_items)
    }

    test_triples = list(compress(triples, held))
    realized = train.n_triples / graph.n_triples
    return SplitCorpus(train, test_sets, test_triples, ratio, realized)


def split_summary(graph: TripartiteGraph, split: SplitCorpus) -> dict:
    """Node/triple counts for ``graph``, the graph that was split, and both subsets."""
    test_users, test_items, test_tags = (set(map(itemgetter(c), split.test_triples)) for c in range(3))
    return {
        "total_users": graph.n_users,
        "total_items": graph.n_items,
        "total_tags": graph.n_tags,
        "total_triples": graph.n_triples,
        "train_users": split.train.n_users,
        "train_items": split.train.n_items,
        "train_tags": split.train.n_tags,
        "train_triples": split.train.n_triples,
        "test_users": len(test_users),
        "test_items": len(test_items),
        "test_tags": len(test_tags),
        "test_triples": len(split.test_triples),
        "requested_train_fraction": split.split_ratio,
        "realized_train_fraction": round(split.realized_train_fraction, 5),
    }


def write_summary(summary: dict, path) -> None:
    with _atomic_open(path) as fh:
        for key, value in summary.items():
            fh.write(f"{key}={value}\n")
