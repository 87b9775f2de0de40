"""Seeded synthetic corpora with planted user communities.

Users, items, and tags are each partitioned into communities by index
modulo the community count. Every interaction picks the user's own
community pools with probability ``in_community_prob`` and uniform
out-of-community picks otherwise; timestamps are a global running counter,
so the temporal split holds out each user's last interactions.
``generate_synthetic`` writes each record as it is drawn, holding no corpus.
"""

import random
from dataclasses import dataclass
from pathlib import Path

from .corpus import Interaction, write_triples

__all__ = ["SyntheticSpec", "generate_interactions", "generate_synthetic"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator parameters.

    The defaults are the benchmark corpus used by the speed and accuracy
    tests: 1600 users in 16 communities, 20000 items, 5000 tags, 120
    interactions per user, 85% of them inside the user's own community.
    """

    n_users: int = 1600
    n_items: int = 20000
    n_tags: int = 5000
    n_communities: int = 16
    triples_per_user: int = 120
    in_community_prob: float = 0.85
    seed: int = 42

    def __post_init__(self):
        for name in ("n_users", "n_items", "n_tags", "n_communities", "triples_per_user"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.n_communities > min(self.n_users, self.n_items, self.n_tags):
            raise ValueError("n_communities cannot exceed the smallest entity count")
        if not 0.0 <= self.in_community_prob <= 1.0:
            raise ValueError("in_community_prob must be in [0, 1]")
        if self.in_community_prob < 1.0 / self.n_communities:
            raise ValueError("in_community_prob below 1/n_communities gives no planted signal")


def _pool_size(n: int, n_comm: int, comm: int) -> int:
    return len(range(comm, n, n_comm))


def _draw(rng: random.Random, n: int, n_comm: int, comm: int, own: bool) -> int:
    if own:
        return comm + n_comm * rng.randrange(_pool_size(n, n_comm, comm))
    while True:  # rejection keeps the out-of-community draw exactly uniform
        x = rng.randrange(n)
        if x % n_comm != comm:
            return x


def _interactions(spec: SyntheticSpec):
    """Yield the spec's records in order, each drawn when it is asked for."""
    rng = random.Random(spec.seed)
    n_comm = spec.n_communities
    for ts in range(spec.n_users * spec.triples_per_user):
        u = ts // spec.triples_per_user
        comm = u % n_comm
        own = n_comm == 1 or rng.random() < spec.in_community_prob
        item = _draw(rng, spec.n_items, n_comm, comm, own)
        tag = _draw(rng, spec.n_tags, n_comm, comm, own)
        yield Interaction(f"u{u}", f"r{item}", f"t{tag}", ts)


def generate_interactions(spec: SyntheticSpec) -> list[Interaction]:
    """Deterministic interaction list for the given spec."""
    return list(_interactions(spec))


def generate_synthetic(spec: SyntheticSpec, path) -> Path:
    """Write the spec's corpus as TSV; identical specs give byte-identical files."""
    write_triples(_interactions(spec), path)
    return Path(path)
