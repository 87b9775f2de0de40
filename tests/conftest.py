import dataclasses
import os
import signal
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from tagrec import corpus, experiment
from tagrec.corpus import Interaction, build_graph, filter_by_degree, temporal_split
from tagrec.profiles import build_profiles
from tagrec.synthetic import SyntheticSpec, generate_interactions


def make_graph(rows):
    """Graph from (user, item, tag[, timestamp]) shorthand tuples."""
    records = []
    for i, row in enumerate(rows):
        ts = row[3] if len(row) > 3 else i
        records.append(Interaction(row[0], row[1], row[2], ts))
    return build_graph(records)


# A maker of a value of each kind that a checked config field may refuse; the numpy kinds skip without numpy.
WRONG_KINDS = {
    "str": lambda: "1",
    "bool": lambda: True,
    "int": lambda: 1,
    "Fraction": lambda: Fraction(1, 2),
    "Decimal": lambda: Decimal("1"),
    "numpy.int64": lambda: pytest.importorskip("numpy").int64(1),
    "numpy.bool_": lambda: pytest.importorskip("numpy").bool_(True),
    "object": object,
}


def wrong_kinds(cls):
    """``(field, make)`` params, one per checked field of the dataclass ``cls`` and ``WRONG_KINDS`` kind it refuses.

    A ``bool`` field refuses all but ``bool``, a path (``str``) field all but ``str``, a number field all but
    ``int``; ``make()`` gives a ``tuple[int, ...]`` field a one-entry tuple.
    """
    params = []
    for f in dataclasses.fields(cls):
        assert f.type in corpus._KINDS, f.type  # a field the check does not know raises KeyError
        for kind, make in WRONG_KINDS.items():
            if kind != {bool: "bool", str: "str", str | None: "str"}.get(f.type, "int"):
                entry = (lambda make=make: (make(),)) if f.type == tuple[int, ...] else make
                params.append(pytest.param(f.name, entry, id=f"{f.name}-{kind}"))
    return params


@pytest.fixture
def tiny_graph():
    """Small deterministic filtered corpus: the graph that ``tiny_split`` splits."""
    spec = SyntheticSpec(
        n_users=40,
        n_items=200,
        n_tags=80,
        n_communities=4,
        triples_per_user=24,
        in_community_prob=0.9,
        seed=11,
    )
    return filter_by_degree(build_graph(generate_interactions(spec)), 2)


@pytest.fixture
def tiny_split(tiny_graph):
    """A proper train/test split of ``tiny_graph``, with the training profiles."""
    split = temporal_split(tiny_graph, 0.8)
    return split, build_profiles(split.train)


@pytest.fixture(scope="session")
def benchmark_corpus():
    """The default benchmark corpus, prepared once per session (slow)."""
    spec = SyntheticSpec()
    graph = build_graph(generate_interactions(spec))
    filtered = filter_by_degree(graph, 5)
    split = temporal_split(filtered, 0.8)
    profiles = build_profiles(split.train)
    return split, profiles


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the CPU count ``experiment`` sees, so a both-mode run takes either path on any host.

    ``usable_cpus(1)`` runs the two modes in turn in this process;
    ``usable_cpus(2)`` runs FCUM here while a forked child ranks UCF's users
    (the test is skipped where the platform cannot fork).
    """

    def set_count(n):
        if n > 1 and not hasattr(os, "fork"):
            pytest.skip("this platform cannot fork")
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: n)

    return set_count


@pytest.fixture
def no_hang():
    """Fail the test, instead of hanging the suite, if it runs longer than a minute."""

    def on_alarm(signum, frame):
        pytest.fail("timed out after 60 s")  # a BaseException, so no ``except Exception`` swallows it

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def ucf_share(monkeypatch, tmp_path):
    """Hook the UCF target users the two processes of a side-by-side run claim.

    ``ucf_share(on_user)`` wraps ``experiment.rank_ucf`` so that each target
    claimed from a shared range is passed to ``on_user(user)`` in the
    claiming process before it is ranked. The forked child claims from the
    back as soon as it starts, the parent from the front once its FCUM is
    done. The child claims first; the parent claims its first user only
    then, and the child goes on only after that, so both processes take part
    however fast either one is.
    """
    parent, real = os.getpid(), experiment.rank_ucf
    child_claimed, parent_claimed = tmp_path / "child.claimed", tmp_path / "parent.claimed"

    def wait_for(path):
        while not path.exists():
            time.sleep(0.005)

    def install(on_user):
        def hooked(users):
            in_parent = os.getpid() == parent
            if in_parent:
                wait_for(child_claimed)
            for n, user in enumerate(users):
                if n == 0:
                    (parent_claimed if in_parent else child_claimed).touch()
                on_user(user)
                if n == 0 and not in_parent:
                    wait_for(parent_claimed)
                yield user

        def ranking(train, profiles, beta, k, users=None):
            return real(train, profiles, beta, k, None if users is None else hooked(users))

        monkeypatch.setattr(experiment, "rank_ucf", ranking)

    return install
