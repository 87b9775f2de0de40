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
``profiles.user_similarity``.

Per group, the pool's items are gathered by their holder list, the members
holding them in ascending order: in a small cluster many items share one.
An entry is (holder count, lowest item, holders, the other items in
ascending order). Once a target's similarities are known, the kernel walks
the entries in descending holder count (ties in lowest-item order), and
each entry adds the similarities of its holders once, in ascending user
index, as ``score`` does for each of its items (a holder of zero similarity
adds +0.0, which changes nothing). So scores equal direct evaluation bit
for bit, and a single-cluster clustering reproduces the baseline exactly.
The target is a member of its group, so the items of an entry are either
all its own or none of them, and the walk skips an entry by its lowest
item. It keeps its k best (score, item) pairs in a heap, pushing an
entry's items in ascending order until one fails to enter, and stops at
the first entry whose bound is strictly below the k-th best score so far.
The bound of an entry with d holders is the sum of the d largest
similarities, times 1 + 1e-9; no later entry has more holders, so none can
reach the top k (the threshold stop of Fagin, Lotem & Naor, PODS 2001).
The margin covers float error: the bound and the score are each a sum of
at most n positive terms, so the relative error of each is at most
n * 2**-53, about 2e-13 at 1,600 users. The stop is strict, so an item
tied with the k-th score is still scored and ranked in item order. In the
all-users group almost every item has a holder list of its own, so UCF
walks one-item entries, each at the cost of an item.

Entries are ordered by descending score, ties by ascending item index, and
zero-score items are kept after the positive ones; the list at a smaller k
is always a prefix of the list at a larger k.
"""

import heapq
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import itemgetter

from .clustering import Clustering
from .corpus import _atomic_open
from .profiles import posting_lists, user_similarity

__all__ = ["RankList", "score", "rank_ucf", "rank_fcum", "write_ranklists"]

_MARGIN = 1.0 + 1e-9  # see the module docstring


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
    sim_of = [0.0] * len(profiles)  # the current target's similarity to each user, zero outside its walk
    for members, pool, targets in groups:
        # sorted, so that each item's holders come in the order score() adds them
        item_post, tag_post = posting_lists(sorted(members), profiles)
        by_holders = _entries(pool, item_post)
        for u in targets:
            prof = profiles[u]
            shared_items = Counter(chain.from_iterable(map(item_post.__getitem__, prof.items_sorted)))
            shared_tags = Counter(chain.from_iterable(map(tag_post.__getitem__, prof.tags_sorted)))
            n_u_items, n_u_tags = len(prof.items_sorted), len(prof.tags_sorted)
            near = []  # the neighbors of nonzero similarity
            for v in shared_items.keys() | shared_tags.keys():
                if v == u:
                    continue
                neighbor = profiles[v]
                a, b = shared_items.get(v, 0), shared_tags.get(v, 0)
                # the expression of user_similarity, with the intersections counted
                sim = (beta * (a / math.sqrt(n_u_items * len(neighbor.items_sorted)) if a else 0.0)
                       + (1.0 - beta) * (b / math.sqrt(n_u_tags * len(neighbor.tags_sorted)) if b else 0.0))
                if sim != 0.0:
                    sim_of[v] = sim
                    near.append(v)
            out[u] = RankList(u, _walk(by_holders, prof.item_set, sim_of, near, k))
            for v in near:
                sim_of[v] = 0.0
    return out


def _entries(pool, item_post) -> list:
    """The walk's (holder count, lowest item, holders, other items) entries, most holders first.

    Items with the same holders in ``item_post`` share one entry; ties in
    holder count stay in lowest-item order. The entries hold ``item_post``'s
    lists, so the tuple keys of the grouping die on return.
    """
    first_of = {}  # holder tuple -> its lowest item
    rest_of = defaultdict(list)  # lowest item -> the other items with its holders, ascending
    for r in pool:
        first = first_of.setdefault(tuple(item_post.get(r, ())), r)
        if first != r:
            rest_of[first].append(r)
    entries = [(len(key), r, item_post.get(r, ()), rest_of.get(r, ())) for key, r in first_of.items()]
    entries.sort(key=itemgetter(0), reverse=True)  # stable
    return entries


def _walk(by_holders, own, sim_of, near, k) -> tuple[tuple[int, float], ...]:
    """The k best (item, score) entries of a walk over ``by_holders``, skipping the items in ``own``.

    ``sim_of`` holds the target's similarity to each user, nonzero exactly
    for the users in ``near``. An entry's items share its score, so after
    the lowest, each enters the heap only if the one before it did.
    """
    # limit[d] is above every score of an item with d holders: the d largest
    # similarities, summed, with a margin for the rounding of both sums
    largest_first = sorted(map(sim_of.__getitem__, near), reverse=True)
    limit = [total * _MARGIN for total in accumulate(largest_first, initial=0.0)]
    most = by_holders[0][0] if by_holders else 0
    limit += [limit[-1]] * (most + 1 - len(limit))
    # a min-heap of the k best (score, -item) pairs so far, so that of two
    # equal scores the lower item wins; (-1.0, 0) marks an empty slot
    best = [(-1.0, 0)] * max(k, 1)
    floor = -1.0  # the k-th best score so far
    for d, r, holders, rest in by_holders:
        if r in own:
            continue
        if limit[d] < floor:
            break
        s = 0.0
        for v in holders:
            s += sim_of[v]
        if s >= floor:
            heapq.heappushpop(best, (s, -r))
            if rest:
                for r in rest:
                    # (s, -r) falls as r rises, so once one stays out the rest do
                    pair = (s, -r)
                    if heapq.heappushpop(best, pair) is pair:
                        break
            floor = best[0][0]
    return tuple((-neg_r, s) for s, neg_r in sorted(best, reverse=True)[:k] if s >= 0.0)


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
    users, items = train.users, train.items
    with _atomic_open(path) as fh:
        fh.writelines(f"{users[u]}\t{rank}\t{items[r]}\t{s:.6f}\n"
                      for u in sorted(ranklists)
                      for rank, (r, s) in enumerate(ranklists[u].entries, start=1))
