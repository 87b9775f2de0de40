"""The pinned outputs, rerun under every other Python interpreter on PATH.

``tests/test_golden_output.py`` and ``tests/test_synthetic.py`` check their
pins under the interpreter that runs the suite. Here the commands behind
those pins run as child processes of each other ``python3.10`` to
``python3.13``, on PATH or in pyenv's ``$PYENV_ROOT/versions`` (default
``~/.pyenv``), that starts and reports its own version, with ``PYTHONPATH``
at the package source: the package needs only the standard library, so the
other interpreter needs no pytest. Every digest must equal its pin, imported
from those modules. The test is skipped when no other interpreter is found.
"""

import dataclasses
import os
import shutil
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest

from test_golden_output import (
    BOTH_SWEEP_ARGS,
    BOTH_SWEEP_PINNED,
    CLUSTER_ARGS,
    CLUSTER_PINNED,
    PINNED,
    REPORT_PINNED,
    RUN_ARGS,
    SPEC,
    SPLIT_PINNED,
    SPLIT_THRESHOLD,
    SWEEP_ARGS,
    SWEEP_PINNED,
    _digests,
    _file_digest,
    _run_cli,
    _untimed_digest,
    split_corpus_lines,
)
from test_synthetic import CORPUS_PINNED, ONE_COMMUNITY_PINNED, PINNED_SPECS, small_spec


def _other_interpreters() -> dict[str, str]:
    """``python3.10`` to ``python3.13``, less the running version, that start as the version they name.

    Each version's first such binary is taken: the one on PATH, then pyenv's
    own builds, which are found even where PATH has only a shim that fails.
    """
    pyenv_versions = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    found = {}
    for minor in range(10, 14):
        if (3, minor) == sys.version_info[:2]:
            continue
        name = f"python3.{minor}"
        candidates = [shutil.which(name), *map(str, sorted(pyenv_versions.glob(f"3.{minor}.*/bin/{name}")))]
        for exe in filter(None, candidates):
            try:
                proc = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"],
                                      capture_output=True, text=True, timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                continue
            if proc.returncode == 0 and proc.stdout.strip() == f"(3, {minor})":
                found[f"3.{minor}"] = exe
                break
    return found


CORPORA = {**PINNED_SPECS, "one-community": small_spec(n_communities=1, in_community_prob=1.0)}
PINS = {
    **{f"{name}.tsv": digest for name, digest in CORPUS_PINNED.items()},
    "one-community.tsv": ONE_COMMUNITY_PINNED,
    **PINNED,
    **REPORT_PINNED,
    "sweep.json": SWEEP_PINNED,
    "both-mode sweep.json": BOTH_SWEEP_PINNED,
    "clusters.tsv": CLUSTER_PINNED,
    **{f"split {name}": digest for name, digest in SPLIT_PINNED.items()},
}


def _gen_args(spec, path: str) -> list[str]:
    """``tagrec gen`` arguments that write ``spec``'s corpus to ``path``."""
    flags = (("--" + f.name.removeprefix("n_").replace("_", "-"), str(getattr(spec, f.name)))
             for f in dataclasses.fields(spec))
    return ["gen", "--output", path, *chain.from_iterable(flags)]


def _pinned_outputs(python: str, workdir) -> dict[str, str]:
    """The digests of ``PINS``' outputs, each made by its pinned command under ``python``."""
    def run(cwd, args):
        _run_cli(cwd, "0", args, python)

    golden, split = workdir / "golden", workdir / "split"
    golden.mkdir(parents=True)
    split.mkdir()
    for name, spec in CORPORA.items():
        run(workdir, _gen_args(spec, f"{name}.tsv"))
    got = {f"{name}.tsv": _file_digest(workdir / f"{name}.tsv") for name in CORPORA}
    run(golden, _gen_args(SPEC, "corpus.tsv"))
    run(golden, RUN_ARGS)
    got.update(_digests(golden / "out"))
    got.update({name: _file_digest(golden / "out" / name) for name in REPORT_PINNED})
    for label, args in (("sweep.json", SWEEP_ARGS), ("both-mode sweep.json", BOTH_SWEEP_ARGS)):
        run(golden, args)
        got[label] = _untimed_digest(golden / "out" / "sweep.json")
    run(golden, CLUSTER_ARGS)
    got["clusters.tsv"] = _file_digest(golden / "clusters.tsv")
    (split / "corpus.tsv").write_text("".join(split_corpus_lines()), encoding="utf-8")
    run(split, ["split", "--input", "corpus.tsv", "--output", "out", "--degree-threshold", str(SPLIT_THRESHOLD)])
    got.update({f"split {name}": _file_digest(split / "out" / name) for name in SPLIT_PINNED})
    return got


def test_pinned_outputs_under_every_other_interpreter(tmp_path):
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.10 to python3.13 on PATH or under pyenv starts")
    for version, python in interpreters.items():
        assert _pinned_outputs(python, tmp_path / version) == PINS, f"Python {version} ({python})"
