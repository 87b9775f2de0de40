"""Walkthrough of user profiles, the similarity kernel, and coarse clustering.

Run with: python3 demos/02_similarity_and_clustering.py
"""

from tagrec import (
    build_graph,
    build_profiles,
    choose_k,
    coarse_cluster,
    cosine,
    user_centroid_similarity,
    user_similarity,
)
from tagrec.synthetic import SyntheticSpec, generate_interactions


def main():
    print("== 1. a planted corpus: 24 users in 3 communities")
    spec = SyntheticSpec(
        n_users=24,
        n_items=90,
        n_tags=30,
        n_communities=3,
        triples_per_user=25,
        in_community_prob=0.95,
        seed=17,
    )
    graph = build_graph(generate_interactions(spec))
    profiles = build_profiles(graph)
    print(graph)

    print("\n== 2. binary profiles and the similarity kernel")
    same_a, same_b = 0, 3      # u0 and u3 share community 0
    other = 1                  # u1 lives in community 1
    print(f"u0 profile: {len(profiles[same_a].item_set)} items, {len(profiles[same_a].tag_set)} tags")
    print(f"item-side cosine(u0, u3)  = {cosine(profiles[same_a].item_set, profiles[same_b].item_set):.4f}")
    print(f"tag-side  cosine(u0, u3)  = {cosine(profiles[same_a].tag_set, profiles[same_b].tag_set):.4f}")
    for beta in (0.0, 0.5, 1.0):
        print(f"user_similarity(u0, u3, beta={beta}) = {user_similarity(profiles[same_a], profiles[same_b], beta):.4f}")
    print(f"user_similarity(u0, u1, beta=0.5) = {user_similarity(profiles[same_a], profiles[other], 0.5):.4f}"
          "   <- different community, near zero")

    print("\n== 3. coarse clustering: two batch rounds, no convergence check")
    k = choose_k(graph.n_users, avg_cluster_size=8)
    clustering = coarse_cluster(graph, profiles, k=k, iterations=2, gamma=0.5, seed=1)
    print(f"k={k} clusters, sizes {[len(m) for m in clustering.user_clusters]}")
    for j, members in enumerate(clustering.user_clusters):
        communities = sorted({int(graph.users[u][1:]) % 3 for u in members})
        pool = clustering.item_clusters[j]
        print(f"  cluster {j}: {len(members)} users from communities {communities}, "
              f"{len(pool)} pooled items")

    print("\n== 4. user-to-centroid similarities drive the reassignment")
    u0 = 0
    for j, centroid in enumerate(clustering.centroids):
        sim = user_centroid_similarity(profiles[u0], centroid, gamma=0.5)
        marker = " <- u0's cluster" if clustering.assignment[u0] == j else ""
        print(f"  sim(u0, centroid {j}) = {sim:.4f}{marker}")


if __name__ == "__main__":
    main()
