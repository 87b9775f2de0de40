"""Command line interface.

Subcommands: ``run`` (one experiment), ``sweep`` (one parameter, several
values), ``gen`` (synthetic corpus), ``split`` (persist a train/test split),
``cluster`` (persist a clustering dump). Exit codes: 0 success, 1 usage
error, 2 data or I/O error. ``main`` checks ``--output`` once, before the
config or the spec checks its values and before any work starts; a file
output, like a directory one, may name directories that do not exist yet.
"""

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .clustering import choose_k, coarse_cluster, write_clustering
from .corpus import DataError, split_summary, write_summary, write_triples
from .experiment import MODES, SWEEPABLE, ExperimentConfig, _prepared, run_experiment, split_corpus, sweep
from .synthetic import SyntheticSpec, generate_synthetic

__all__ = ["main", "run_main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def k_list(text: str) -> tuple[int, ...]:
    """A comma list or ``lo..hi`` range of ks; argparse names the function in its error message."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if lo > hi:
            raise ValueError(f"bad k range {text!r}")
        return tuple(range(lo, hi + 1))
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


# A field's type picks the parser of its flag; a ``bool`` field is a switch.
_PARSE_BY_TYPE = {int: int, float: float, tuple[int, ...]: k_list}

# The help of the field flags that have one, by field name.
_HELP = {
    "input": "TSV corpus (user, item, tag, timestamp)",
    "k_list": "comma list or lo..hi range (default 1..20)",
    "output": "directory for report files",
    "dump_ranklists": "also write per-user ranklists to the output dir",
}


def _add_field_flags(parser, cls, names=None) -> None:
    """Add a flag per field of the dataclass ``cls`` (or per field in ``names``), in field order.

    ``--`` plus the field name, less an ``n_`` prefix, ``_`` as ``-``; a
    field without a default is a required flag, and an omitted flag leaves
    ``None`` under the field name.
    """
    for f in dataclasses.fields(cls):
        if names is None or f.name in names:
            flag = "--" + f.name.removeprefix("n_").replace("_", "-")
            kind = ({"action": "store_true", "default": None} if f.type is bool else
                    {"type": _PARSE_BY_TYPE.get(f.type), "choices": MODES if f.name == "mode" else None})
            parser.add_argument(flag, dest=f.name, required=f.default is dataclasses.MISSING,
                                help=_HELP.get(f.name), **kind)


def _given(args, cls, skip=()) -> dict:
    """The fields of ``cls``, less those in ``skip``, that ``args`` holds a value for."""
    values = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(cls) if f.name not in skip}
    return {name: value for name, value in values.items() if value is not None}


def _config(args, skip=()) -> ExperimentConfig:
    """The ``ExperimentConfig`` of the flags in ``args``, less the fields in ``skip``."""
    return ExperimentConfig(**_given(args, ExperimentConfig, skip))


def _print_summary(result):
    for mode, report in sorted(result.reports.items()):
        ks = [m.k for m in report.per_k]
        pick = 10 if 10 in ks else ks[-1]
        m = next(x for x in report.per_k if x.k == pick)
        t = report.timing
        print(
            f"{mode}: recall@{pick}={m.recall:.5f} precision@{pick}={m.precision:.5f} "
            f"f1@{pick}={m.f1:.5f} cluster={t['cluster_seconds']:.3f}s "
            f"score={t['score_seconds']:.3f}s total={t['total_seconds']:.3f}s"
        )
    if result.ratios is not None and result.ratios["total_seconds"] is not None:
        print(f"fcum/ucf total time ratio: {result.ratios['total_seconds']:.3f}")
    if result.ratios is not None:  # the modes may have overlapped, so no mode's total is the elapsed time
        print(f"modes wall time: {result.modes_wall_seconds:.3f}s")
    for path in result.written:
        print(f"wrote {path}")


def _check_output(path, directory: bool) -> None:
    """Raise OSError unless ``path`` can receive a command's output.

    The output, a ``directory`` or a file, must not exist as the other kind.
    It may not exist yet, nor its directory: the writer creates them later.
    The nearest existing directory at or above it must then be writable.
    """
    path = Path(path)
    if directory and path.exists() and not path.is_dir():
        raise NotADirectoryError(f"--output {path}: exists and is not a directory")
    if not directory and path.is_dir():
        raise IsADirectoryError(f"--output {path}: is a directory")
    parent = next(p for p in ((path, *path.parents) if directory else path.parents) if p.exists())
    if not parent.is_dir():
        raise NotADirectoryError(f"--output {path}: {parent} is not a directory")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise PermissionError(f"--output {path}: {parent} is not writable")


def _cmd_run(args) -> int:
    result = run_experiment(_config(args))
    _print_summary(result)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config(args)
    cast = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}[args.param]
    try:
        values = [cast(tok) for tok in args.values.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--values: expected comma-separated {cast.__name__}s") from None
    results = sweep(cfg, args.param, values)
    for value, result in zip(values, results):
        print(f"--- {args.param}={value}")
        _print_summary(result)
    return 0


def _cmd_gen(args) -> int:
    spec = SyntheticSpec(**_given(args, SyntheticSpec))
    path = generate_synthetic(spec, args.output)
    print(f"wrote {path} ({spec.n_users * spec.triples_per_user} records)")
    return 0


def _cmd_split(args) -> int:
    filtered, split = split_corpus(_config(args, skip=("output",)))  # --output is the split's directory
    directory = Path(args.output)
    write_triples(split.train.interactions(), directory / "train.tsv")
    write_triples(filtered.interactions(split.test_triples), directory / "test.tsv")
    write_summary(split_summary(filtered, split), directory / "summary.txt")
    for name in ("train.tsv", "test.tsv", "summary.txt"):
        print(f"wrote {directory / name}")
    return 0


def _cmd_cluster(args) -> int:
    cfg = _config(args, skip=("output",))  # --output is the dump's path
    train, profiles = _prepared(cfg)[::2]  # the test sets are freed before clustering
    k = choose_k(train.n_users, cfg.avg_cluster_size)
    clustering = coarse_cluster(train, profiles, k, cfg.iterations, cfg.gamma, cfg.seed)
    write_clustering(clustering, train, args.output)
    print(f"wrote {args.output} ({k} clusters, {clustering.nonempty_clusters()} non-empty)")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="tagrec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run one experiment end to end")
    p_run.set_defaults(func=_cmd_run, output_is_directory=True)
    p_sweep = sub.add_parser("sweep", help="re-run an experiment over one parameter")
    p_sweep.set_defaults(func=_cmd_sweep, output_is_directory=True)
    for p in (p_run, p_sweep):
        _add_field_flags(p, ExperimentConfig)
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")

    p_gen = sub.add_parser("gen", help="generate a synthetic planted-community corpus")
    p_gen.add_argument("--output", required=True)
    _add_field_flags(p_gen, SyntheticSpec)
    p_gen.set_defaults(func=_cmd_gen, output_is_directory=False)

    split_fields = ("degree_threshold", "split_ratio")
    for name, handler, is_directory, out_help, names in (
        ("split", _cmd_split, True, "directory for train.tsv/test.tsv/summary.txt", split_fields),
        ("cluster", _cmd_cluster, False, "path for the user<TAB>cluster dump",
         (*split_fields, "gamma", "avg_cluster_size", "iterations", "seed")),
    ):
        p = sub.add_parser(name, help=f"persist a {name} for a corpus")
        _add_field_flags(p, ExperimentConfig, ("input",))
        p.add_argument("--output", required=True, help=out_help)
        _add_field_flags(p, ExperimentConfig, names)
        p.set_defaults(func=handler, output_is_directory=is_directory)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.output is not None:
            _check_output(args.output, args.output_is_directory)
        return args.func(args)
    except ValueError as exc:
        print(f"tagrec: error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"tagrec: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"tagrec: error: {exc}", file=sys.stderr)
        return 2


def run_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run_main()
