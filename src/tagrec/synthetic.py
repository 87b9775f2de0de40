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
from itertools import starmap
from pathlib import Path

from .corpus import Interaction, _check_kinds, write_triples

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
        _check_kinds(self)
        for name in ("n_users", "n_items", "n_tags", "n_communities", "triples_per_user"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.n_communities > min(self.n_users, self.n_items, self.n_tags):
            raise ValueError("n_communities cannot exceed the smallest entity count")
        if not 0.0 <= self.in_community_prob <= 1.0:
            raise ValueError("in_community_prob must be in [0, 1]")
        if self.in_community_prob < 1.0 / self.n_communities:
            raise ValueError("in_community_prob below 1/n_communities gives no planted signal")
        if self.seed < 0:  # random.Random seeds with abs(seed), so -s would repeat s's corpus
            raise ValueError("seed must be non-negative")


def _pools(n: int, n_comm: int) -> list[tuple[int, int]]:
    """Each community's pool size in ``range(n)`` and the bit length of that size."""
    sizes = (len(range(comm, n, n_comm)) for comm in range(n_comm))
    return [(size, size.bit_length()) for size in sizes]


def _interactions(spec: SyntheticSpec):
    """Yield the spec's ``(user, item, tag, timestamp)`` records in order, each drawn when asked for.

    Each record takes ``random()`` for the own/out choice (none with one
    community), then its item, then its tag. Every index is drawn as
    ``Random.randrange(n)`` draws it, ``getrandbits(n.bit_length())`` until
    below ``n``: an own-pool index over the community's pool, an
    out-of-community index over ``range(n)``, drawn again while it falls in the
    user's community. So a seed gives the corpus of one ``randrange`` per index.
    """
    rng = random.Random(spec.seed)
    bits, uniform = rng.getrandbits, rng.random
    n_comm, per_user, prob = spec.n_communities, spec.triples_per_user, spec.in_community_prob
    n_items, n_tags = spec.n_items, spec.n_tags
    item_bits, tag_bits = n_items.bit_length(), n_tags.bit_length()
    item_pools, tag_pools = _pools(n_items, n_comm), _pools(n_tags, n_comm)
    single = n_comm == 1
    for u in range(spec.n_users):
        user, comm = f"u{u}", u % n_comm
        item_pool, item_pool_bits = item_pools[comm]
        tag_pool, tag_pool_bits = tag_pools[comm]
        for ts in range(u * per_user, (u + 1) * per_user):
            if single or uniform() < prob:
                x = bits(item_pool_bits)
                while x >= item_pool:
                    x = bits(item_pool_bits)
                item = comm + n_comm * x
                x = bits(tag_pool_bits)
                while x >= tag_pool:
                    x = bits(tag_pool_bits)
                tag = comm + n_comm * x
            else:
                item = bits(item_bits)
                while item >= n_items or item % n_comm == comm:
                    item = bits(item_bits)
                tag = bits(tag_bits)
                while tag >= n_tags or tag % n_comm == comm:
                    tag = bits(tag_bits)
            yield user, f"r{item}", f"t{tag}", ts


def generate_interactions(spec: SyntheticSpec) -> list[Interaction]:
    """Deterministic interaction list for the given spec."""
    return list(starmap(Interaction, _interactions(spec)))


def generate_synthetic(spec: SyntheticSpec, path) -> Path:
    """Write the spec's corpus as TSV; identical specs give byte-identical files."""
    write_triples(_interactions(spec), path)
    return Path(path)
