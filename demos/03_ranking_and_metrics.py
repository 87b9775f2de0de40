"""Walkthrough of ranking and evaluation: baseline vs clustered recommender.

Run with: python3 demos/03_ranking_and_metrics.py
"""

from tagrec import (
    build_graph,
    build_profiles,
    choose_k,
    coarse_cluster,
    filter_by_degree,
    metrics_at_k,
    rank_fcum,
    rank_ucf,
    score,
    temporal_split,
)
from tagrec.synthetic import SyntheticSpec, generate_interactions


def main():
    print("== 1. prepare a split corpus")
    spec = SyntheticSpec(
        n_users=80,
        n_items=400,
        n_tags=120,
        n_communities=4,
        triples_per_user=30,
        in_community_prob=0.9,
        seed=23,
    )
    graph = filter_by_degree(build_graph(generate_interactions(spec)), 2)
    split = temporal_split(graph, 0.8)
    profiles = build_profiles(split.train)
    print(split.train)

    print("\n== 2. the score of one candidate is the summed similarity of neighbors holding it")
    target = 0
    candidates = [r for r in range(split.train.n_items) if r not in profiles[target].item_set]
    neighbors = set(range(split.train.n_users))
    scored = sorted(
        ((score(target, r, neighbors, profiles, beta=0.5), r) for r in candidates[:200]),
        reverse=True,
    )[:3]
    for s, r in scored:
        print(f"  item {split.train.items[r]}: score {s:.4f}")

    print("\n== 3. full baseline ranklists (all users, all items)")
    baseline = rank_ucf(split.train, profiles, beta=0.5, k=10)
    top = baseline[target].entries[:3]
    print(f"u0 top-3: {[(split.train.items[r], round(s, 4)) for r, s in top]}")

    print("\n== 4. clustered ranklists (neighbors and candidates come from u0's cluster)")
    k_clusters = choose_k(split.train.n_users, avg_cluster_size=20)
    clustering = coarse_cluster(split.train, profiles, k_clusters, iterations=2, gamma=0.5, seed=1)
    clustered = rank_fcum(clustering, split.train, profiles, beta=0.5, k=10)
    top = clustered[target].entries[:3]
    print(f"u0 top-3: {[(split.train.items[r], round(s, 4)) for r, s in top]}")

    print("\n== 5. metrics against the held-out test sets")
    print(f"{'k':>3} {'variant':>8} {'recall':>8} {'precision':>10} {'f1':>8}")
    for k in (1, 5, 10):
        for name, ranklists in (("baseline", baseline), ("clustered", clustered)):
            m = metrics_at_k(ranklists, split.test_sets, k)
            print(f"{k:>3} {name:>8} {m.recall:>8.5f} {m.precision:>10.5f} {m.f1:>8.5f}")

    print("\n== 6. a single-cluster clustering reproduces the baseline bit for bit")
    trivial = coarse_cluster(split.train, profiles, 1, 1, 0.5, seed=0)
    same = rank_fcum(trivial, split.train, profiles, 0.5, 10) == baseline
    print(f"identical ranklists: {same}")


if __name__ == "__main__":
    main()
