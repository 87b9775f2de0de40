"""Pinned end-to-end output of ``tagrec run --mode both --dump-ranklists``.

The CLI runs in two child processes with different ``PYTHONHASHSEED`` values
on a small seeded corpus. Both ranklist dumps, and ``combined.json`` without
its ``timing`` section, must hash to the digests pinned below. The pins were
taken from the reference implementation before the scoring kernel and the
clustering pass were rewritten, so any change to a score's float bits, to a
tie order or to a cluster assignment shows up here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tagrec.synthetic import SyntheticSpec, generate_synthetic

SPEC = SyntheticSpec(
    n_users=100,
    n_items=900,
    n_tags=300,
    n_communities=5,
    triples_per_user=40,
    in_community_prob=0.85,
    seed=2015,
)
RUN_ARGS = [
    "run", "--input", "corpus.tsv", "--output", "out", "--mode", "both", "--dump-ranklists",
    "--degree-threshold", "2", "--avg-cluster-size", "20", "--k-list", "1..20",
]
PINNED = {
    "ucf.ranklists.tsv": "7f4169901821f52b489209c45c34cf6a8b50679e90c578fe4547906e2d09794d",
    "fcum.ranklists.tsv": "b7aefccfbe1e8eeab8ffb6a9907a033837747586c3115f70143f585a193f95f7",
    "combined.json": "0ce081c1b331b82ac89b34f37b72d5f15ebc4d801413b3a260bd9235c5e4ec2f",
}
SRC = Path(__file__).resolve().parent.parent / "src"


def _digests(directory: Path) -> dict[str, str]:
    out = {}
    for name in ("ucf.ranklists.tsv", "fcum.ranklists.tsv"):
        out[name] = hashlib.sha256((directory / name).read_bytes()).hexdigest()
    combined = json.loads((directory / "combined.json").read_text(encoding="utf-8"))
    combined.pop("timing")
    canonical = json.dumps(combined, indent=2, sort_keys=True).encode("utf-8")
    out["combined.json"] = hashlib.sha256(canonical).hexdigest()
    return out


def _run_cli(workdir: Path, hash_seed: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tagrec.cli", *RUN_ARGS],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return _digests(workdir / "out")


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_run_output_matches_pinned_digests(tmp_path, hash_seed):
    generate_synthetic(SPEC, tmp_path / "corpus.tsv")
    assert _run_cli(tmp_path, hash_seed) == PINNED
