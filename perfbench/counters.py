"""Exact per-layer work counters, computed outside tagrec from its public results.

Nothing here reads tagrec internals. The counters come from the reports a
repeat wrote, from its other files, and from public functions called
again once after the loop: ``prepare_corpus`` and ``coarse_cluster`` with the
repeat's configuration, ``coarse_cluster`` with fewer rounds, and
``rank_fcum`` on one cluster at a time.
"""

import hashlib
import time
from pathlib import Path

from tagrec.clustering import Clustering, choose_k, coarse_cluster, init_assignment, user_centroid_similarity
from tagrec.experiment import fcum_scored_work, prepare_corpus, ucf_scored_work
from tagrec.recommend import rank_fcum, write_ranklists


def neighbour_counts(profiles, groups, beta: float) -> tuple[int, int, int]:
    """(pairs, nonzero pairs, accumulations) of the scoring kernel over ``groups``.

    Within each group every member is scored against every other member, so
    a group of n costs n*(n-1) similarity evaluations. A pair's similarity is
    nonzero exactly when the two users share an item (counted if beta > 0) or
    a tag (if beta < 1); those pairs are found from item and tag posting lists
    without evaluating any similarity. Each nonzero pair (u, v) then adds the
    similarity to the score of every item of v: |I_v| accumulations.
    """
    item_post: dict[int, list[int]] = {}
    tag_post: dict[int, list[int]] = {}
    for u, prof in profiles.items():
        if beta > 0.0:
            for r in prof.item_set:
                item_post.setdefault(r, []).append(u)
        if beta < 1.0:
            for t in prof.tag_set:
                tag_post.setdefault(t, []).append(u)
    n_items = {u: len(prof.item_set) for u, prof in profiles.items()}

    pairs = nonzero = accumulations = 0
    for group in groups:
        members = set(group)
        pairs += len(members) * (len(members) - 1)
        for u in group:
            prof = profiles[u]
            near = set()
            for r in prof.item_set:
                near.update(item_post.get(r, ()))
            for t in prof.tag_set:
                near.update(tag_post.get(t, ()))
            near &= members
            near.discard(u)
            nonzero += len(near)
            accumulations += sum(n_items[v] for v in near)
    return pairs, nonzero, accumulations


def moved_per_round(train, profiles, clustering: Clustering, gamma: float, seed: int) -> list[int]:
    """Users whose cluster changed in each round, from prefix runs of ``coarse_cluster``.

    Round r's assignment is that of ``coarse_cluster(iterations=r)`` with the
    same seed; round 0 is the initial assignment.
    """
    n, k = train.n_users, clustering.k
    init = init_assignment(range(n), k, seed)
    prev = [init[u] for u in range(n)]
    moved = []
    for r in range(1, clustering.iterations_run + 1):
        if r == clustering.iterations_run:
            cur = list(clustering.assignment)
        else:
            cur = list(coarse_cluster(train, profiles, k, r, gamma, seed).assignment)
        moved.append(sum(a != b for a, b in zip(prev, cur)))
        prev = cur
    return moved


def per_cluster_ranking(clustering: Clustering, train, profiles, beta: float, kmax: int):
    """(slowest single-cluster ``rank_fcum`` seconds, the ranklists of all clusters merged).

    Each non-empty cluster is ranked alone, as a one-cluster ``Clustering``.
    """
    slowest, merged = 0.0, {}
    for j, members in enumerate(clustering.user_clusters):
        if not members:
            continue
        one = Clustering(k=1, assignment=tuple(0 for _ in clustering.assignment),
                         user_clusters=(members,), item_clusters=(clustering.item_clusters[j],),
                         centroids=(clustering.centroids[j],), iterations_run=clustering.iterations_run,
                         coordinate_ops=0)
        start = time.perf_counter()
        lists = rank_fcum(one, train, profiles, beta, kmax)
        slowest = max(slowest, time.perf_counter() - start)
        merged.update((u, lists[u]) for u in members)
    return slowest, merged


def experiment_counters(cfg, reports: dict, outputs: dict, scratch: Path) -> tuple[dict, list[str]]:
    """Counters for a ``run`` workload, plus any consistency failures found.

    ``reports`` are a repeat's ``<mode>.report.json`` documents and ``outputs``
    the gate's snapshot of the files it wrote. The corpus and clustering are rebuilt
    here from ``cfg``; the per-cluster ranklists, written to ``scratch``,
    must equal the repeat's ``fcum.ranklists.tsv`` byte for byte.
    """
    filtered, split, profiles = prepare_corpus(cfg)
    train = split.train
    clustering = coarse_cluster(train, profiles, choose_k(train.n_users, cfg.avg_cluster_size),
                                cfg.iterations, cfg.gamma, cfg.seed)
    failures = []
    c = {}

    groups, work = [], 0
    if "ucf" in reports:
        groups.append(range(train.n_users))
        work += ucf_scored_work(train)
    groups.extend(m for m in clustering.user_clusters if m)
    work += fcum_scored_work(clustering, train)
    pairs, nonzero, acc = neighbour_counts(profiles, groups, cfg.beta)
    c["recommend.pairs"] = pairs
    c["recommend.nonzero_pairs"] = nonzero
    c["recommend.useful_pair_ratio"] = nonzero / pairs if pairs else 0.0
    c["recommend.accumulations"] = acc
    c["recommend.scored_work"] = work
    slowest, merged = per_cluster_ranking(clustering, train, profiles, cfg.beta, max(cfg.k_list))
    c["recommend.slowest_cluster_s"] = slowest
    write_ranklists(merged, train, scratch)
    if hashlib.sha256(Path(scratch).read_bytes()).hexdigest() != outputs.get("fcum.ranklists.tsv"):
        failures.append("clusters ranked one at a time differ from the repeat's fcum.ranklists.tsv")

    sizes = [len(m) for m in clustering.user_clusters]
    c["clustering.coordinate_ops"] = clustering.coordinate_ops
    c["clustering.k"] = clustering.k
    c["clustering.nonempty"] = clustering.nonempty_clusters()
    c["clustering.max_size"] = max(sizes)
    c["clustering.pool_items"] = sum(len(p) for p in clustering.item_clusters)
    for r, moved in enumerate(moved_per_round(train, profiles, clustering, cfg.gamma, cfg.seed), start=1):
        c[f"clustering.moved_round{r}"] = moved
    sims = [user_centroid_similarity(profiles[u], clustering.centroids[j], cfg.gamma)
            for u, j in enumerate(clustering.assignment)]
    c["clustering.mean_user_centroid_sim"] = sum(sims) / len(sims)

    c["corpus.triples_kept"] = filtered.n_triples
    c["corpus.train_triples"] = train.n_triples
    c["corpus.test_triples"] = len(split.test_triples)

    c["profiles.users"] = len(profiles)
    c["profiles.mean_items"] = sum(len(p.item_set) for p in profiles.values()) / len(profiles)
    c["profiles.mean_tags"] = sum(len(p.tag_set) for p in profiles.values()) / len(profiles)

    fcum10 = _at10(reports["fcum"])
    c["experiment.recall10_fcum"] = fcum10["recall"]
    if "ucf" in reports:
        ucf10 = _at10(reports["ucf"])
        c["experiment.recall10_ratio"] = fcum10["recall"] / ucf10["recall"]
        c["experiment.f1_10_ratio"] = fcum10["f1"] / ucf10["f1"]
    return c, failures


def _at10(report: dict) -> dict:
    return next(m for m in report["metrics"] if m["k"] == 10)

