"""Coarse user clustering that powers the accelerated recommender.

A k-means-style procedure over the binary user profiles, run for a small
fixed number of batch rounds (no convergence check, two rounds by default):
count every cluster's items and tags from the current assignment, then
reassign every user to the cluster whose centroid is most similar. Users end
up partitioned into non-overlapping clusters; each cluster's item pool is the
union of its members' item sets, so item pools may overlap across clusters.

The rounds work on exact integer counts. A cluster's centroid is c/n, where
c holds its per-index member counts, so the cosine of a binary profile u
with it is d / sqrt(|u| * sum(c^2)), where d is the sum of c over u's
indices. One pass over the posting lists of u's items and tags, relabelled
with each holder's cluster, gives d for every cluster at once, and sum(c^2)
is the sum of d over the cluster's members, so a round needs nothing but
these dots; after a round only the users that moved update the d of the
users they share an index with. Integer sums are exact on every Python
version, and no float centroid is built per round. Clusters whose cosines
tie, exactly or within 1e-9, are compared with ``user_centroid_similarity``
on float centroids, which defines the assignment, so the result is the one
float centroids give, bit for bit. Float ``Centroid`` objects are otherwise
built only for the final partition, for output: their item and tag keys are
each cluster's item pool and distinct tags, which give its scoring work.
"""

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from .corpus import _atomic_open
from .profiles import UserProfile, posting_lists

__all__ = [
    "Centroid",
    "Clustering",
    "choose_k",
    "init_assignment",
    "compute_centroid",
    "user_centroid_similarity",
    "coarse_cluster",
    "write_clustering",
]


@dataclass(slots=True)
class Centroid:
    """Sparse mean of a cluster's binary item and tag vectors.

    Coordinates are kept in ascending index order; each value is the fraction
    of members containing that index, so it lies in (0, 1]. The squared norms
    are derived from the parts, so equality compares the parts alone.
    """

    item_part: dict[int, float]
    tag_part: dict[int, float]
    item_norm_sq: float = field(init=False, compare=False)
    tag_norm_sq: float = field(init=False, compare=False)

    def __post_init__(self):
        self.item_norm_sq = _norm_sq_ordered(self.item_part)
        self.tag_norm_sq = _norm_sq_ordered(self.tag_part)

    def __repr__(self):
        return f"Centroid(items={len(self.item_part)}, tags={len(self.tag_part)})"


def _norm_sq_ordered(vec: dict[int, float]) -> float:
    total = 0.0
    for v in vec.values():  # insertion order is ascending by construction
        total += v * v
    return total


def choose_k(n_users: int, avg_cluster_size: int) -> int:
    """Cluster count giving roughly ``avg_cluster_size`` users per cluster."""
    if n_users < 1 or avg_cluster_size < 1:
        raise ValueError("n_users and avg_cluster_size must be positive")
    return max(1, min(n_users, round(n_users / avg_cluster_size)))


def init_assignment(users, k: int, seed: int) -> dict[int, int]:
    """Random balanced initial assignment.

    The user list is shuffled by ``random.Random(seed)`` and dealt
    round-robin: position ``i`` of the shuffled order goes to cluster
    ``i % k``. Cluster sizes therefore differ by at most one, and the
    result is a pure function of (users, k, seed).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    order = list(users)
    random.Random(seed).shuffle(order)
    return {u: i % k for i, u in enumerate(order)}


def compute_centroid(cluster, profiles) -> Centroid | None:
    """Sparse mean of the members' binary vectors; None for an empty cluster."""
    members = list(cluster)
    if not members:
        return None
    n = len(members)
    item_counts = Counter(chain.from_iterable(profiles[u].items_sorted for u in members))
    tag_counts = Counter(chain.from_iterable(profiles[u].tags_sorted for u in members))
    item_part = {i: item_counts[i] / n for i in sorted(item_counts)}
    tag_part = {t: tag_counts[t] / n for t in sorted(tag_counts)}
    return Centroid(item_part, tag_part)


def user_centroid_similarity(profile: UserProfile, centroid: Centroid | None, gamma: float) -> float:
    """Convex combination of item-side and tag-side user/centroid cosines.

    An absent centroid (empty cluster) scores -1, below any real similarity,
    so no user is ever pulled into an empty cluster.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    if centroid is None:
        return -1.0

    cos_items = _part_cosine(profile.items_sorted, centroid.item_part, centroid.item_norm_sq)
    cos_tags = _part_cosine(profile.tags_sorted, centroid.tag_part, centroid.tag_norm_sq)
    return gamma * cos_items + (1.0 - gamma) * cos_tags


def _part_cosine(indices, part: dict[int, float], norm_sq: float) -> float:
    """Cosine of the binary vector over ``indices`` with one part of a centroid."""
    denom_sq = len(indices) * norm_sq
    if denom_sq == 0.0:
        return 0.0
    dot = 0.0
    for i in indices:
        w = part.get(i)
        if w is not None:
            dot += w
    return dot / math.sqrt(denom_sq)


@dataclass(frozen=True)
class Clustering:
    """Result of the coarse clustering pass.

    ``user_clusters`` partition all users; ``item_clusters[j]`` is the exact
    union of cluster ``j``'s members' item sets (sorted). ``centroids`` are
    recomputed from the final partition so they describe the clusters as
    returned. ``coordinate_ops`` is a nominal cost, not a count of what the
    rounds touch: the number of profile entries (items plus tags, over all
    users) times one plus the number of non-empty clusters, summed over the
    rounds. It is kept because the benchmark (``perfbench``) reads it.
    """

    k: int
    assignment: tuple[int, ...]
    user_clusters: tuple[tuple[int, ...], ...]
    item_clusters: tuple[tuple[int, ...], ...]
    centroids: tuple[Centroid | None, ...]
    iterations_run: int
    coordinate_ops: int

    def nonempty_clusters(self) -> int:
        return sum(1 for members in self.user_clusters if members)


def _group(assignment, k):
    clusters = [[] for _ in range(k)]
    for u, j in enumerate(assignment):
        clusters[j].append(u)  # u ascending, so member lists come out sorted
    return clusters


def _cluster_dots(assignment, post, profile_indices) -> list[Counter]:
    """Per user, its dot product with every cluster's count vector.

    Each holder list of ``post`` is relabelled with the holders' clusters;
    counting the labels over a user's indices gives, for each cluster j, the
    sum of j's counts over those indices.
    """
    label = assignment.__getitem__
    labels = {key: list(map(label, holders)) for key, holders in post.items()}
    return [Counter(chain.from_iterable(map(labels.__getitem__, indices))) for indices in profile_indices]


def _move_dots(dots: list[Counter], post, indices, old: int, new: int) -> None:
    """Update ``dots`` for one user, holding ``indices``, moving from cluster ``old`` to ``new``."""
    for w, shared in Counter(chain.from_iterable(map(post.__getitem__, indices))).items():
        row = dots[w]
        row[old] -= shared
        row[new] = row.get(new, 0) + shared


# Exact cosines that are equal, or nearly so, can come out in either order
# from the float arithmetic of ``user_centroid_similarity``, which defines
# the assignment. Clusters within this distance of the best are compared
# with that function; float error there is many orders of magnitude smaller.
_NEAR_TIE = 1e-9


def coarse_cluster(train, profiles, k: int, iterations: int, gamma: float, seed: int) -> Clustering:
    """Run the fixed-round clustering pass over all training users.

    Each round takes every cluster's centroid from the current assignment,
    then reassigns each user to the cluster that maximises the float
    ``user_centroid_similarity``; only exactly equal floats go to the lowest
    cluster index. There is no convergence check; the point is a cheap
    coarse partition, not a converged one. Empty clusters persist, never
    attract a user and are never re-seeded.

    The user-cluster dot products are counted once from the initial
    assignment; after each round only the users that moved update them.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be in [0, 1]")
    n = train.n_users
    amap = init_assignment(range(n), k, seed)
    assignment = [amap[u] for u in range(n)]
    items_of = [profiles[u].items_sorted for u in range(n)]
    tags_of = [profiles[u].tags_sorted for u in range(n)]
    item_post, tag_post = posting_lists(range(n), profiles)
    item_dots = _cluster_dots(assignment, item_post, items_of)
    tag_dots = _cluster_dots(assignment, tag_post, tags_of)
    profile_sizes = sum(map(len, items_of)) + sum(map(len, tags_of))
    ops = 0

    for round_ in range(iterations):
        # a cluster's sum of squared counts is the sum of its members' dots with it
        item_sq, tag_sq = [0] * k, [0] * k
        for u, j in enumerate(assignment):
            item_sq[j] += item_dots[u][j]
            tag_sq[j] += tag_dots[u][j]
        clusters = _group(assignment, k)
        live = [(j, item_sq[j], tag_sq[j]) for j, members in enumerate(clusters) if members]
        # counting touches every profile once; each user is then compared
        # coordinate by coordinate with every non-empty cluster
        ops += profile_sizes * (1 + len(live))
        float_centroids = {}  # built only to settle near ties
        new_assignment = []
        for u in range(n):
            n_items, n_tags = len(items_of[u]), len(tags_of[u])
            u_item_dots, u_tag_dots = item_dots[u], tag_dots[u]
            sims = []
            for j, item_sq, tag_sq in live:
                denom_sq = n_items * item_sq
                cos_items = u_item_dots.get(j, 0) / math.sqrt(denom_sq) if denom_sq else 0.0
                denom_sq = n_tags * tag_sq
                cos_tags = u_tag_dots.get(j, 0) / math.sqrt(denom_sq) if denom_sq else 0.0
                sims.append(gamma * cos_items + (1.0 - gamma) * cos_tags)
            best = max(sims)
            near = [x for x, sim in enumerate(sims) if sim >= best - _NEAR_TIE]
            if len(near) > 1:
                for x in near:
                    if x not in float_centroids:
                        float_centroids[x] = compute_centroid(clusters[live[x][0]], profiles)
                ref = [user_centroid_similarity(profiles[u], float_centroids[x], gamma) for x in near]
                near = [near[ref.index(max(ref))]]
            new_assignment.append(live[near[0]][0])
        if round_ + 1 < iterations:
            for v, (old, new) in enumerate(zip(assignment, new_assignment)):
                if old != new:
                    _move_dots(item_dots, item_post, items_of[v], old, new)
                    _move_dots(tag_dots, tag_post, tags_of[v], old, new)
        assignment = new_assignment

    clusters = _group(assignment, k)
    final_centroids = tuple(compute_centroid(members, profiles) for members in clusters)
    # a centroid's item keys are ascending, so they are the sorted item pool
    item_clusters = tuple(tuple(c.item_part) if c is not None else () for c in final_centroids)
    return Clustering(
        k=k,
        assignment=tuple(assignment),
        user_clusters=tuple(tuple(members) for members in clusters),
        item_clusters=item_clusters,
        centroids=final_centroids,
        iterations_run=iterations,
        coordinate_ops=ops,
    )


def write_clustering(clustering: Clustering, train, path) -> None:
    """Dump ``user_external_id<TAB>cluster_index`` lines for inspection/diffing."""
    with _atomic_open(path) as fh:
        for u, j in enumerate(clustering.assignment):
            fh.write(f"{train.users[u]}\t{j}\n")
