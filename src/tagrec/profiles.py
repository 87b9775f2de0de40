"""Binary user incidence profiles and the similarity kernels over them.

All vectors are sparse: binary vectors are sets of indices, weighted vectors
are index->value mappings. Dot products iterate indices in ascending order so
float accumulation is reproducible run to run, and cosine denominators are
computed as ``sqrt(normsq_a * normsq_b)`` (one square root) so that
self-similarity is exactly 1.0.
"""

import math
from collections import defaultdict
from collections.abc import Mapping, Set

__all__ = [
    "UserProfile",
    "FeatureWeights",
    "build_profiles",
    "posting_lists",
    "cosine",
    "user_similarity",
    "multi_feature_similarity",
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


def _set_cosine(a, b) -> float:
    if not a or not b:
        return 0.0
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / math.sqrt(len(a) * len(b))


def _norm_sq(vec: Mapping) -> float:
    total = 0.0
    for key in sorted(vec):
        v = vec[key]
        total += v * v
    return total


def _map_cosine(a: Mapping, b: Mapping) -> float:
    na, nb = _norm_sq(a), _norm_sq(b)
    denom_sq = na * nb
    if denom_sq == 0.0:
        return 0.0
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    dot = 0.0
    for key in sorted(small):
        other = large.get(key)
        if other is not None:
            dot += small[key] * other
    return dot / math.sqrt(denom_sq)


def _set_map_cosine(s, vec: Mapping) -> float:
    denom_sq = len(s) * _norm_sq(vec)
    if denom_sq == 0.0:
        return 0.0
    dot = 0.0
    for key in sorted(s):
        v = vec.get(key)
        if v is not None:
            dot += v
    return dot / math.sqrt(denom_sq)


def cosine(a, b) -> float:
    """Cosine similarity of two sparse non-negative vectors.

    Binary vectors are passed as sets of indices, weighted ones as
    index->value mappings; the two forms can be mixed. Returns 0.0 whenever
    either vector has zero norm.
    """
    a_set, b_set = isinstance(a, Set), isinstance(b, Set)
    if a_set and b_set:
        return _set_cosine(a, b)
    if a_set:
        return _set_map_cosine(a, b)
    if b_set:
        return _set_map_cosine(b, a)
    return _map_cosine(a, b)


def user_similarity(u: UserProfile, v: UserProfile, beta: float) -> float:
    """Convex combination of the item-side and tag-side cosine similarities."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must be in [0, 1]")
    return beta * _set_cosine(u.item_set, v.item_set) + (1.0 - beta) * _set_cosine(u.tag_set, v.tag_set)


class FeatureWeights:
    """Per-feature weights for the generalized similarity; they must sum to 1.

    The two-feature default ``(items, beta), (tags, 1-beta)`` makes the
    generalized form coincide with :func:`user_similarity`.
    """

    __slots__ = ("beta", "generalized")

    def __init__(self, beta: float = 0.5, generalized=None):
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        if generalized is None:
            generalized = (("items", beta), ("tags", 1.0 - beta))
        generalized = tuple((str(name), float(w)) for name, w in generalized)
        for name, w in generalized:
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"weight for {name!r} must be in [0, 1], got {w}")
        total = sum(w for _, w in generalized)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"feature weights must sum to 1 (got {total})")
        self.beta = beta
        self.generalized = generalized

    def __repr__(self):
        return f"FeatureWeights({self.generalized!r})"


def multi_feature_similarity(features_u, features_v, weights: FeatureWeights) -> float:
    """Weighted sum of per-feature cosines over parallel feature vector lists."""
    if len(features_u) != len(weights.generalized) or len(features_v) != len(weights.generalized):
        raise ValueError(
            f"expected {len(weights.generalized)} feature vectors per user, "
            f"got {len(features_u)} and {len(features_v)}"
        )
    total = 0.0
    for (name, w), fu, fv in zip(weights.generalized, features_u, features_v):
        total += w * cosine(fu, fv)
    return total
