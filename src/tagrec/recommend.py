"""Top-k item ranking by user-based collaborative filtering.

An item's score for a target user is the summed similarity of every
neighbor who has that item; items the target already trained on get the
-1 sentinel of ``score``, so they never reach a top-k slot. One kernel ranks
a group of users against an item pool:

* ``rank_ucf`` is the kernel over the single group (all users, all items),
  the exact baseline;
* ``rank_fcum`` is the kernel over one group per cluster: its members, and
  its item pool as candidates.

Per group the kernel builds item and tag posting lists over the members, as
in the all-pairs search of Bayardo, Ma & Srikant (WWW 2007). Counting the
postings of a target's items and tags gives |I_u & I_v| and |T_u & T_v| for
every neighbor sharing at least one of them, so pairs of zero similarity are
never visited. The similarity is the expression of
``profiles.user_similarity``, and each item's score adds neighbor terms in
ascending user index, so scores equal direct evaluation (``score``) bit for
bit and a single-cluster clustering reproduces the baseline exactly. Entries
are ordered by descending score, ties by ascending item index; the list at a
smaller k is always a prefix of the list at a larger k. Selection drops, in
one C-level pass, every score below a lower bound on the k-th best before
the stable ``heapq.nlargest`` orders what is left.
"""

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import le

from .clustering import Clustering
from .corpus import _atomic_open
from .profiles import posting_lists, user_similarity

__all__ = ["RankList", "score", "rank_ucf", "rank_fcum", "write_ranklists"]


@dataclass(frozen=True)
class RankList:
    """Ordered (item index, score) recommendations for one user."""

    user: int
    entries: tuple[tuple[int, float], ...]


def score(target: int, item: int, neighbors, profiles, beta: float) -> float:
    """Direct evaluation of one candidate's score for one target user.

    Returns -1 if the target already has the item. The target's own term is
    skipped: it is structurally zero, since a target reaching the summation
    branch cannot have the item.
    """
    target_prof = profiles[target]
    if item in target_prof.items_sorted:
        return -1.0
    total = 0.0
    for v in sorted(neighbors):
        if v == target:
            continue
        neighbor_prof = profiles[v]
        if item in neighbor_prof.items_sorted:
            total += user_similarity(target_prof, neighbor_prof, beta)
    return total


def _top_positions(scores: list[float], k: int) -> list[int]:
    """The k best positions of ``scores``, by descending score, ties by position.

    Negative scores are never chosen, zero scores only after every positive one.
    """
    # the k-th best of every 8th score bounds the k-th best from below, so a
    # C-level pass can drop every position under it before the stable nlargest;
    # a floor of 0 drops only the -1 sentinels, and the zeros then come last, by position
    sample = heapq.nlargest(k, scores[::8])
    floor = max(sample[-1], 0.0) if k > 0 and len(sample) == k else 0.0
    kept = compress(range(len(scores)), map(le, repeat(floor), scores))
    return heapq.nlargest(k, kept, key=scores.__getitem__)


def _rank_groups(groups, profiles, beta: float, k: int) -> dict[int, RankList]:
    """Rank each group's item pool for each of its targets, against all its members.

    ``groups`` yields (members, pool, targets) triples; a pool is in
    ascending item order and holds every item of its members, the targets
    are members, and the members of different groups are disjoint. A
    group's targets are read only once its posting lists are built.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    out = {}
    for members, pool, targets in groups:
        item_post, tag_post = posting_lists(members, profiles)
        # scores are kept per pool position, which orders like the item index
        position = {r: x for x, r in enumerate(pool)}.__getitem__
        held = {v: tuple(map(position, profiles[v].items_sorted)) for v in members}
        for u in targets:
            prof = profiles[u]
            shared_items = Counter(chain.from_iterable(map(item_post.__getitem__, prof.items_sorted)))
            shared_tags = Counter(chain.from_iterable(map(tag_post.__getitem__, prof.tags_sorted)))
            n_u_items, n_u_tags = len(prof.items_sorted), len(prof.tags_sorted)
            scores = [0.0] * len(pool)
            for v in sorted(shared_items.keys() | shared_tags.keys()):
                if v == u:
                    continue
                neighbor = profiles[v]
                a, b = shared_items.get(v, 0), shared_tags.get(v, 0)
                # the expression of user_similarity, with the intersections counted
                sim = (beta * (a / math.sqrt(n_u_items * len(neighbor.items_sorted)) if a else 0.0)
                       + (1.0 - beta) * (b / math.sqrt(n_u_tags * len(neighbor.tags_sorted)) if b else 0.0))
                if sim == 0.0:
                    continue
                for x in held[v]:
                    scores[x] += sim
            for x in held[u]:
                scores[x] = -1.0  # the sentinel of score(): trained items are no candidates
            top = _top_positions(scores, k)
            out[u] = RankList(u, tuple((pool[x], scores[x]) for x in top))
    return out


def rank_ucf(train, profiles, beta: float, k: int, users=None) -> dict[int, RankList]:
    """Rank every item against every other user, per target user.

    ``users`` iterates over the target users, every user by default, and
    the result holds them in that order. It is read only once the posting
    lists are built, so a generator can hand out targets as they are
    needed. Zero-score items are kept as deterministic tail entries, so
    ranklists have predictable length.
    """
    everyone = range(train.n_users)
    group = (everyone, range(train.n_items), everyone if users is None else users)
    return _rank_groups((group,), profiles, beta, k)


def rank_fcum(clustering: Clustering, train, profiles, beta: float, k: int) -> dict[int, RankList]:
    """Rank cluster item pools against cluster members, per target user.

    For a user in cluster ``j`` the neighbors are the other members of ``j``
    and the candidates are ``j``'s item pool minus the user's own items.
    """
    groups = zip(clustering.user_clusters, clustering.item_clusters, clustering.user_clusters)
    return _rank_groups(groups, profiles, beta, k)


def write_ranklists(ranklists: dict[int, RankList], train, path) -> None:
    """Dump ``user<TAB>rank<TAB>item<TAB>score`` lines, scores at 6 decimals."""
    with _atomic_open(path) as fh:
        for u in sorted(ranklists):
            ext_user = train.users[u]
            for rank, (r, s) in enumerate(ranklists[u].entries, start=1):
                fh.write(f"{ext_user}\t{rank}\t{train.items[r]}\t{s:.6f}\n")
