"""Output gate: a repeat's files must match what the tagrec CLI writes for the same input.

The reference comes from the CLI run in a child process whose PYTHONHASHSEED
differs from this process's, so a result that depends on set or dict order
shows up as a mismatch. Text files (reports, ranklists, train/test/summary) are
compared byte for byte. A ``.json`` report (and ``combined.json``) is compared
as a document without its ``timing`` section. Both sides must write the same
set of files.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path


def snapshot(directory, run_dir) -> dict:
    """``{file name: sha256 hex}`` for text files, ``{file name: document}`` for JSON.

    The reports echo the input and output paths, which lie under ``run_dir``;
    that prefix is replaced by ``<run>`` so digests compare across checkouts.
    """
    out = {}
    for path in sorted(Path(directory).iterdir()):
        if path.suffix == ".json":
            doc = json.loads(path.read_text(encoding="utf-8").replace(str(run_dir), "<run>"))
            doc.pop("timing", None)
            out[path.name] = doc
        else:
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def digests(snap: dict) -> dict[str, str]:
    """One sha256 per file; JSON documents are hashed in canonical form."""
    return {
        name: value if isinstance(value, str)
        else hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()
        for name, value in snap.items()
    }


def mismatches(snap: dict, reference: dict) -> list[str]:
    """Names of files that differ, or that only one of the two snapshots has."""
    return [name for name in sorted(snap.keys() | reference.keys()) if snap.get(name) != reference.get(name)]


def child_hash_seed() -> str:
    """A PYTHONHASHSEED value different from this process's."""
    own = os.environ.get("PYTHONHASHSEED", "random")
    return "2" if own == "1" else "1"


def run_cli(args: list[str], src: Path, log_dir: Path, timeout: float = 170.0) -> tuple[int, float, str]:
    """Run ``python -m tagrec.cli <args>`` in a fresh process.

    Returns (exit code, the child's peak RSS in MiB, the tail of its stderr);
    ``ru_maxrss`` is in KiB on Linux.
    The child is waited for with ``wait4`` so its own ``ru_maxrss`` is read,
    not the maximum over every child this process ever had.
    """
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=child_hash_seed())
    err_path = log_dir / "cli.stderr"
    with open(log_dir / "cli.stdout", "wb") as out_fh, open(err_path, "wb") as err_fh:
        proc = subprocess.Popen([sys.executable, "-m", "tagrec.cli", *args],
                                stdout=out_fh, stderr=err_fh, env=env)
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = err_path.read_text(encoding="utf-8", errors="replace")[-500:]
    return proc.returncode, usage.ru_maxrss / 1024.0, tail

