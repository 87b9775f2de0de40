"""Timing comparison of the baseline and the clustered recommender.

By default this runs a quarter-size corpus and finishes in well under a
minute; pass --full for the full benchmark corpus (a few minutes, matching
the acceptance suite's speed criterion).

Run with: python3 demos/04_speed_benchmark.py [--full]
"""

import sys
import tempfile
from pathlib import Path

from tagrec import ExperimentConfig, run_experiment
from tagrec.synthetic import SyntheticSpec, generate_synthetic


def main():
    full = "--full" in sys.argv[1:]
    if full:
        spec = SyntheticSpec()  # 1600 users, 20000 items, 5000 tags, 16 communities
    else:
        spec = SyntheticSpec(
            n_users=400, n_items=5000, n_tags=1250, n_communities=8,
            triples_per_user=60, in_community_prob=0.85, seed=42,
        )
    print(f"== generating corpus: {spec.n_users} users x {spec.triples_per_user} interactions")
    with tempfile.TemporaryDirectory() as td:
        corpus = Path(td) / "bench.tsv"
        generate_synthetic(spec, corpus)

        cfg = ExperimentConfig(
            input=str(corpus),
            mode="both",
            degree_threshold=5 if full else 3,
            avg_cluster_size=90 if full else 50,
            iterations=2,
            k_list=(5, 10, 20),
        )
        print("== running both recommenders on one shared split (one timed run each)")
        result = run_experiment(cfg)

    ucf, fcum = result.reports["ucf"], result.reports["fcum"]
    print(f"\nbaseline : score {ucf.timing['score_seconds']:.2f}s total {ucf.timing['total_seconds']:.2f}s")
    print(f"clustered: cluster {fcum.timing['cluster_seconds']:.2f}s "
          f"score {fcum.timing['score_seconds']:.2f}s total {fcum.timing['total_seconds']:.2f}s")
    # with 2+ CPUs a forked child ranks UCF's users while FCUM runs here, and this process then
    # helps with UCF, whose time sums both processes'
    print(f"time ratio (clustered/baseline): {result.ratios['total_seconds']:.3f} "
          f"(both modes together: {result.modes_wall_seconds:.2f}s wall)")
    print(f"\nscored-work counters: clustered {fcum.work['scored_work']:.3e} "
          f"vs baseline {fcum.work['ucf_scored_work']:.3e} "
          f"({fcum.work['scored_work'] / fcum.work['ucf_scored_work']:.1%})")
    print(f"\n{'k':>3} {'recall ratio':>13} {'f1 ratio':>9}   (clustered / baseline)")
    for k in (5, 10, 20):
        print(f"{k:>3} {result.ratios['recall'][str(k)]:>13.3f} {result.ratios['f1'][str(k)]:>9.3f}")


if __name__ == "__main__":
    main()
