"""Binary user incidence profiles and the similarity kernel over them.

A profile holds a user's item set and tag set; both are binary vectors given
as sets of indices. The cosine of two sets is |a & b| / sqrt(|a| * |b|), one
square root over the product of the sizes, so self-similarity is exactly 1.0.
``user_similarity`` mixes the item-side and tag-side cosines with ``beta``.
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
    """Item and tag incidence sets for one user, with cached sorted views."""

    __slots__ = ("item_set", "tag_set", "items_sorted", "tags_sorted")

    def __init__(self, item_set, tag_set):
        self.item_set: frozenset[int] = frozenset(item_set)
        self.tag_set: frozenset[int] = frozenset(tag_set)
        self.items_sorted: tuple[int, ...] = tuple(sorted(self.item_set))
        self.tags_sorted: tuple[int, ...] = tuple(sorted(self.tag_set))

    def __eq__(self, other):
        return (
            isinstance(other, UserProfile)
            and self.item_set == other.item_set
            and self.tag_set == other.tag_set
        )

    def __repr__(self):
        return f"UserProfile(items={len(self.item_set)}, tags={len(self.tag_set)})"


def build_profiles(train) -> dict[int, UserProfile]:
    """One profile per training-graph user, copied from the graph projections."""
    return {
        u: UserProfile(train.user_items[u], train.user_tags[u])
        for u in range(train.n_users)
    }


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

