"""Independent brute-force reference implementations, used only by tests.

The corpus oracles work on ``Interaction`` records (external string ids)
and rebuild every graph through ``build_graph``, as the string-level corpus
code did before it moved to integer quads.

The clustering oracle works on dense 0/1 Python lists with no caching: it
recomputes every norm from scratch and sums over the full index range in
ascending order. Zero terms are additive identities, so its floating-point
results coincide with the sparse implementation exactly when both follow
the ascending-index summation discipline.
"""

import math
import random
from decimal import Decimal


def user_sets(graph, column):
    """Each user's distinct ``column`` values (1 items, 2 tags), from one pass over the triples."""
    sets = [set() for _ in range(graph.n_users)]
    for quad in graph.triples:
        sets[quad[0]].add(quad[column])
    return sets


def dense_vector(index_set, size):
    return [1.0 if i in index_set else 0.0 for i in range(size)]


def dense_cosine(a, b) -> float:
    dot = 0.0
    norm_a = 0.0
    norm_b = 0.0
    for x, y in zip(a, b):
        dot += x * y
        norm_a += x * x
        norm_b += y * y
    denom_sq = norm_a * norm_b
    if denom_sq == 0.0:
        return 0.0
    return dot / math.sqrt(denom_sq)


def naive_coarse_cluster(train, k, iterations, gamma, seed):
    """Dense re-implementation of the coarse clustering pass.

    Returns (assignment list, list of (item_centroid, tag_centroid) dense
    lists or None, item cluster tuples). Mirrors the documented contracts:
    seeded shuffle + round-robin init, batch centroid/reassign rounds,
    argmax ties to the lowest cluster, final centroids recomputed from the
    final partition.
    """
    n_users, n_items, n_tags = train.n_users, train.n_items, train.n_tags
    user_items = user_sets(train, 1)
    item_vecs = [dense_vector(items, n_items) for items in user_items]
    tag_vecs = [dense_vector(tags, n_tags) for tags in user_sets(train, 2)]

    order = list(range(n_users))
    random.Random(seed).shuffle(order)
    assignment = [0] * n_users
    for pos, u in enumerate(order):
        assignment[u] = pos % k

    def centroid_of(members):
        if not members:
            return None
        n = len(members)
        item_cent = [0.0] * n_items
        tag_cent = [0.0] * n_tags
        for i in range(n_items):
            count = 0
            for u in members:
                if item_vecs[u][i] == 1.0:
                    count += 1
            if count:
                item_cent[i] = count / n
        for t in range(n_tags):
            count = 0
            for u in members:
                if tag_vecs[u][t] == 1.0:
                    count += 1
            if count:
                tag_cent[t] = count / n
        return item_cent, tag_cent

    def groups(assign):
        clusters = [[] for _ in range(k)]
        for u in range(n_users):
            clusters[assign[u]].append(u)
        return clusters

    def similarity(u, cent):
        if cent is None:
            return -1.0
        item_cent, tag_cent = cent
        return gamma * dense_cosine(item_vecs[u], item_cent) + (1.0 - gamma) * dense_cosine(
            tag_vecs[u], tag_cent
        )

    for _ in range(iterations):
        centroids = [centroid_of(members) for members in groups(assignment)]
        new_assignment = []
        for u in range(n_users):
            best_j, best_sim = 0, -math.inf
            for j in range(k):
                sim = similarity(u, centroids[j])
                if sim > best_sim:
                    best_j, best_sim = j, sim
            new_assignment.append(best_j)
        assignment = new_assignment

    final_clusters = groups(assignment)
    final_centroids = [centroid_of(members) for members in final_clusters]
    item_clusters = []
    for members in final_clusters:
        pool = set()
        for u in members:
            pool.update(user_items[u])
        item_clusters.append(tuple(sorted(pool)))
    return assignment, final_centroids, item_clusters


def naive_recall(ranklists, test_sets, k):
    total = 0.0
    users = sorted(ranklists)
    for u in users:
        hits = 0
        for item, _ in ranklists[u].entries[:k]:
            if item in test_sets[u].items:
                hits += 1
        total += hits / len(test_sets[u])
    return total / len(users)


def naive_precision(ranklists, test_sets, k):
    hits = 0
    for u in ranklists:
        for item, _ in ranklists[u].entries[:k]:
            if item in test_sets[u].items:
                hits += 1
    return hits / (len(ranklists) * k)


def naive_hit_total(ranklists, test_sets, k):
    hits = 0
    for u in ranklists:
        for item, _ in ranklists[u].entries[:k]:
            if item in test_sets[u].items:
                hits += 1
    return hits


def naive_f1(precision, recall):
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def random_graph(rng, max_users=20, max_items=50, max_tags=20, min_triples_per_user=1,
                 max_timestamp=None):
    """Random small tripartite graph; every user gets at least the given triple count.

    Timestamps count up from 0, or with ``max_timestamp`` are drawn from
    ``range(max_timestamp)``, which gives ties and exact duplicate records.
    """
    from tagrec.corpus import Interaction, build_graph

    n_users = rng.randint(1, max_users)
    n_items = rng.randint(1, max_items)
    n_tags = rng.randint(1, max_tags)
    records = []
    ts = 0
    for u in range(n_users):
        count = rng.randint(min_triples_per_user, max(min_triples_per_user, 6))
        for _ in range(count):
            records.append(
                Interaction(
                    f"u{u}",
                    f"r{rng.randrange(n_items)}",
                    f"t{rng.randrange(n_tags)}",
                    ts if max_timestamp is None else rng.randrange(max_timestamp),
                )
            )
            ts += 1
    return build_graph(records)


def naive_filter_by_degree(graph, threshold):
    """Drop every node under ``threshold`` until none is left, then rebuild.

    Degrees are recounted from the surviving records on every pass: the
    number of records holding the node.
    """
    from tagrec.corpus import build_graph

    records = list(graph.interactions())
    while True:
        holding = {}
        for rec in records:
            for node in (("u", rec.user), ("r", rec.item), ("t", rec.tag)):
                holding.setdefault(node, []).append(rec)
        low = {node for node, seen in holding.items() if len(seen) < threshold}
        if not low:
            return build_graph(records)
        records = [
            rec for rec in records
            if not low & {("u", rec.user), ("r", rec.item), ("t", rec.tag)}
        ]


def naive_temporal_split(graph, ratio):
    """Hold out each user's latest records, working on external ids only.

    Returns the train graph, the test sets, the test records and the
    realized train fraction. A test set is keyed by external user id and
    holds (reachable external items, unreachable external items). Ties in
    timestamp go by the first appearance of the item, then of the tag. The
    held-out share ``1 - ratio`` is exact decimal arithmetic on the ratio as
    written, so 0.7 holds out 3 of 10 records.
    """
    from tagrec.corpus import DataError, build_graph

    records = list(graph.interactions())
    first_item, first_tag, by_user = {}, {}, {}
    for rec in records:
        first_item.setdefault(rec.item, len(first_item))
        first_tag.setdefault(rec.tag, len(first_tag))
        by_user.setdefault(rec.user, []).append(rec)
    held = set()
    for user, recs in by_user.items():
        if len(recs) < 2:
            raise DataError(f"user {user!r} has too few triples")
        latest = sorted(recs, key=lambda rec: (rec.timestamp, first_item[rec.item], first_tag[rec.tag]))
        n_test = max(1, min(math.ceil((1 - Decimal(str(ratio))) * len(recs)), len(recs) - 1))
        held.update(latest[len(recs) - n_test :])
    test_records = [rec for rec in records if rec in held]
    train = build_graph(rec for rec in records if rec not in held)
    test_sets = {}
    for user in by_user:
        trained = {rec.item for rec in records if rec.user == user and rec not in held}
        tested = {rec.item for rec in test_records if rec.user == user}
        reachable = {item for item in tested if item in train.items}
        unreachable = frozenset(tested - reachable)
        fresh = frozenset(reachable - trained)
        test_sets[user] = (fresh, unreachable) if fresh or unreachable else (frozenset(reachable), frozenset())
    return train, test_sets, test_records, (len(records) - len(test_records)) / len(records)


def _pool_size(n, n_comm, comm):
    return len(range(comm, n, n_comm))


def _draw(rng, n, n_comm, comm, own):
    if own:
        return comm + n_comm * rng.randrange(_pool_size(n, n_comm, comm))
    while True:  # rejection keeps the out-of-community draw exactly uniform
        x = rng.randrange(n)
        if x % n_comm != comm:
            return x


def naive_interactions(spec):
    """A ``SyntheticSpec``'s records, one ``randrange`` call per index, as the generator first drew them."""
    from tagrec.corpus import Interaction

    rng = random.Random(spec.seed)
    n_comm = spec.n_communities
    records = []
    for ts in range(spec.n_users * spec.triples_per_user):
        u = ts // spec.triples_per_user
        comm = u % n_comm
        own = n_comm == 1 or rng.random() < spec.in_community_prob
        item = _draw(rng, spec.n_items, n_comm, comm, own)
        tag = _draw(rng, spec.n_tags, n_comm, comm, own)
        records.append(Interaction(f"u{u}", f"r{item}", f"t{tag}", ts))
    return records
