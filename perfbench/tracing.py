"""Spans around the calls into tagrec's layers, recorded from outside the package.

A span is (name, start, end, parent, run id). ``name`` is ``<layer>.<function>``,
where the layer is the tagrec module that defines the function. Spans are kept
in memory; the caller writes them out when the run ends.

Two sources of spans:

* the benchmark's own calls, wrapped in ``Tracer.span``;
* calls that one tagrec module makes into another (``experiment`` calling
  ``corpus.read_triples``, ``cli`` calling ``experiment.run_experiment``, ...).
  ``Tracer.installed`` rebinds the names listed in ``TRACED`` in every tagrec
  module that imported them from another module, and restores them on exit.
  Calls inside the defining module are not traced, so a layer's internal
  helpers count as its own time.

``user_similarity`` (``recommend`` calling ``profiles``) is left out on purpose:
it runs once per user pair and a wrapper there would dominate the traced run.
"""

import contextlib
import functools
import sys
import time

TRACED = (
    "read_triples", "build_graph", "filter_by_degree", "temporal_split",
    "build_profiles",
    "choose_k", "coarse_cluster", "cluster_tag_count",
    "rank_ucf", "rank_fcum", "write_ranklists",
    "metrics_at_k", "write_report",
    "prepare_corpus", "run_experiment",
)

_NULL = contextlib.nullcontext()


def no_span(name):
    """The span factory of an untraced repeat: records nothing."""
    return _NULL


class Tracer:
    """In-memory span recorder for one traced repeat."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": 0.0, "end": 0.0,
               "parent": self._stack[-1] if self._stack else None, "run": self.run_id}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind the cross-module ``TRACED`` names of every loaded tagrec module."""
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("tagrec.") or module is None:
                continue
            for attr in TRACED:
                fn = vars(module).get(attr)
                home = getattr(fn, "__module__", None) or ""
                if not callable(fn) or home == mod_name or not home.startswith("tagrec."):
                    continue
                layer = home.rsplit(".", 1)[-1]
                setattr(module, attr, self._wrap(fn, f"{layer}.{attr}"))
                patched.append((module, attr, fn))
        try:
            yield
        finally:
            for module, attr, fn in patched:
                setattr(module, attr, fn)


def durations(spans) -> dict[str, float]:
    """Summed inclusive duration per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"])
    return out


def self_times(spans) -> dict[str, float]:
    """Summed self time per layer: a span's duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - child[i]
    return out


def top_level_seconds(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
