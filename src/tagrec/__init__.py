"""Fast clustered user-based collaborative filtering for social-tagging data.

The pipeline: ingest user-item-tag interactions into a tripartite graph,
prune low-degree nodes, split temporally, build binary user profiles, then
either rank with the exact all-users baseline (``rank_ucf``) or coarsely
cluster the users first and rank within clusters (``rank_fcum``), which cuts
the scoring work by roughly the cluster count while matching the baseline's
accuracy. ``experiment.run_experiment`` wires the whole thing together and
measures it.
"""

from .clustering import (
    Centroid,
    Clustering,
    choose_k,
    coarse_cluster,
    compute_centroid,
    init_assignment,
    user_centroid_similarity,
    write_clustering,
)
from .corpus import (
    DataError,
    Interaction,
    SplitCorpus,
    TestSet,
    TripartiteGraph,
    build_graph,
    filter_by_degree,
    parse_triples,
    read_graph,
    read_triples,
    split_summary,
    temporal_split,
    write_summary,
    write_triples,
)
from .evaluate import (
    EvalReport,
    MetricsAtK,
    f1_at_k,
    metrics_at_k,
    precision_at_k,
    recall_at_k,
)
from .experiment import ExperimentConfig, ExperimentResult, run_experiment, sweep
from .profiles import UserProfile, build_profiles, cosine, user_similarity
from .recommend import RankList, rank_fcum, rank_ucf, score, write_ranklists
from .synthetic import SyntheticSpec, generate_interactions, generate_synthetic

__version__ = "0.1.0"
