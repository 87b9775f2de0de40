"""The benchmark's workloads and the call each repeat makes into tagrec.

A repeat calls ``cli.main(["run", ..., "--dump-ranklists"])`` in-process, the
same command the output gate runs in a child process, so it writes the same
reports, ranklists and ``combined.json``. The benchmark's call into tagrec sits
inside a ``span(name)``; a traced repeat also records the calls tagrec's modules
make into each other (see ``tracing.py``).
"""

import contextlib
import io
from dataclasses import dataclass

from tagrec import cli
from tagrec.experiment import ExperimentConfig
from tagrec.synthetic import SyntheticSpec


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a corpus shape and the ``tagrec run`` command run on it.

    ``mode`` is ``both`` or ``fcum``, as in ``tagrec run --mode <mode>``. The
    corpus seed comes from ``--seed``; the program's own seed stays at its
    default.
    """

    name: str
    spec: SyntheticSpec
    mode: str
    avg_cluster_size: int = 90
    iterations: int = 2

    def cli_args(self, corpus: str, out: str) -> list[str]:
        return ["run", "--input", corpus, "--output", out, "--degree-threshold", "5",
                "--mode", self.mode, "--k-list", "1..20",
                "--avg-cluster-size", str(self.avg_cluster_size),
                "--iterations", str(self.iterations), "--dump-ranklists"]

    def config(self, corpus: str, out: str) -> ExperimentConfig:
        """The configuration ``tagrec run`` builds from ``cli_args``."""
        return ExperimentConfig(input=corpus, mode=self.mode, avg_cluster_size=self.avg_cluster_size,
                                iterations=self.iterations, output=out, dump_ranklists=True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-both", SyntheticSpec(n_users=560, n_items=7000, n_tags=1750, n_communities=16),
                 mode="both", avg_cluster_size=62, iterations=2),
        Workload("fcum-fine", SyntheticSpec(n_users=640, n_items=8000, n_tags=2000, n_communities=16),
                 mode="fcum", avg_cluster_size=12, iterations=3),
    )
}


def run_repeat(w: Workload, corpus: str, out: str, span) -> None:
    """One closed-loop repeat of the workload: ``tagrec run`` in this process."""
    with span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(w.cli_args(corpus, out))
    if code != 0:
        raise RuntimeError(f"tagrec run exited with {code}")
