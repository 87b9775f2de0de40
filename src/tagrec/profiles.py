"""Binary user incidence profiles and the similarity kernel over them.

A profile holds a user's distinct items and tags, binary vectors given as
ascending tuples of indices; it is the one user-side copy of the training
data that a run keeps. ``item_set`` and ``tag_set`` build a frozenset on
each read, for callers that want sets. The cosine of two sets is
|a & b| / sqrt(|a| * |b|), one square root over the product of the sizes,
so self-similarity is exactly 1.0. ``user_similarity`` mixes the item-side
and tag-side cosines with ``beta``.
"""

import math
from collections import defaultdict

__all__ = [
    "UserProfile",
    "build_profiles",
    "posting_lists",
    "cosine",
    "user_similarity",
]


class UserProfile:
    """A user's distinct item and tag indices, each an ascending tuple."""

    __slots__ = ("items_sorted", "tags_sorted")

    def __init__(self, items, tags):
        self.items_sorted: tuple[int, ...] = tuple(sorted(set(items)))
        self.tags_sorted: tuple[int, ...] = tuple(sorted(set(tags)))

    item_set = property(lambda self: frozenset(self.items_sorted), doc="The item indices, a new frozenset.")
    tag_set = property(lambda self: frozenset(self.tags_sorted), doc="The tag indices, a new frozenset.")

    def __eq__(self, other):
        return (
            isinstance(other, UserProfile)
            and self.items_sorted == other.items_sorted
            and self.tags_sorted == other.tags_sorted
        )

    def __repr__(self):
        return f"UserProfile(items={len(self.items_sorted)}, tags={len(self.tags_sorted)})"


def build_profiles(train) -> dict[int, UserProfile]:
    """One profile per training-graph user, gathered from the graph's triples."""
    items = [[] for _ in range(train.n_users)]  # lists, not sets: a fraction of the memory
    tags = [[] for _ in range(train.n_users)]
    for u, r, t, _ in train.triples:
        items[u].append(r)
        tags[u].append(t)
    return {u: UserProfile(*lists) for u, lists in enumerate(zip(items, tags))}


def posting_lists(users, profiles) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Inverted index of ``users``: item -> holders and tag -> holders.

    Each holder list follows the order of ``users``.
    """
    item_post = defaultdict(list)
    tag_post = defaultdict(list)
    for u in users:
        prof = profiles[u]
        for r in prof.items_sorted:
            item_post[r].append(u)
        for t in prof.tags_sorted:
            tag_post[t].append(u)
    return item_post, tag_post


def cosine(a, b) -> float:
    """Cosine similarity of two binary vectors given as sets of indices.

    Returns 0.0 whenever either vector is empty or they share no index.
    """
    if not a or not b:
        return 0.0
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / math.sqrt(len(a) * len(b))


def user_similarity(u: UserProfile, v: UserProfile, beta: float) -> float:
    """Convex combination of the item-side and tag-side cosine similarities."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    return beta * cosine(u.item_set, v.item_set) + (1.0 - beta) * cosine(u.tag_set, v.tag_set)

