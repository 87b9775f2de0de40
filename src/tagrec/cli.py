"""Command line interface.

Subcommands: ``run`` (one experiment), ``sweep`` (one parameter, several
values), ``gen`` (synthetic corpus), ``split`` (persist a train/test split),
``cluster`` (persist a clustering dump). Exit codes: 0 success, 1 usage
error, 2 data or I/O error. An unusable ``--output`` is reported before any
work starts. A ``key=value`` config file can seed any run/sweep flag;
explicit flags override it.
"""

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .clustering import choose_k, coarse_cluster, write_clustering
from .corpus import DataError, split_summary, write_summary, write_triples
from .experiment import SWEEPABLE, ExperimentConfig, prepare_corpus, run_experiment, split_corpus, sweep
from .synthetic import SyntheticSpec, generate_synthetic

__all__ = ["main", "run_main"]

# The config-file keys and the flags read into a config; a field's type picks its parser.
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


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


def _add_experiment_flags(parser):
    parser.add_argument("--input", help="TSV corpus (user, item, tag, timestamp)")
    parser.add_argument("--mode", choices=["ucf", "fcum", "both"])
    parser.add_argument("--degree-threshold", type=int)
    parser.add_argument("--split-ratio", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--avg-cluster-size", type=int)
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--k-list", type=k_list, help="comma list or lo..hi range (default 1..20)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--output", help="directory for report files")
    parser.add_argument("--dump-ranklists", action="store_true", default=None,
                        help="also write per-user ranklists to the output dir")
    parser.add_argument("--config", help="key=value file supplying defaults for the flags above")


def _read_config_file(path) -> dict:
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}: line {lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


_PARSE_BY_TYPE = {int: int, float: float, bool: _parse_bool, tuple[int, ...]: k_list}


def _build_config(args) -> ExperimentConfig:
    merged = {}
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            parse = _PARSE_BY_TYPE.get(_FIELD_TYPES[key])
            try:
                merged[key] = parse(raw) if parse else raw
            except ValueError:
                raise ValueError(f"config key {key}: bad value {raw!r}") from None
    for key in _FIELD_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if "input" not in merged:
        raise ValueError("--input is required (flag or config file)")
    return ExperimentConfig(**merged)


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

    A ``directory`` output may not exist yet and is created later; its
    nearest existing ancestor must then be a writable directory. A file
    output must not be a directory and needs an existing, writable parent.
    """
    path = Path(path)
    if directory:
        if path.exists() and not path.is_dir():
            raise NotADirectoryError(f"--output {path}: exists and is not a directory")
        parent = next(p for p in (path, *path.parents) if p.exists())
    else:
        if path.is_dir():
            raise IsADirectoryError(f"--output {path}: is a directory")
        parent = path.parent
        if not parent.exists():
            raise FileNotFoundError(f"--output {path}: directory {parent} does not exist")
    if not parent.is_dir():
        raise NotADirectoryError(f"--output {path}: {parent} is not a directory")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise PermissionError(f"--output {path}: {parent} is not writable")


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    if cfg.output is not None:
        _check_output(cfg.output, directory=True)
    result = run_experiment(cfg)
    _print_summary(result)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    if args.param not in SWEEPABLE:
        raise ValueError(f"--param must be one of {SWEEPABLE}")
    if cfg.output is not None:
        _check_output(cfg.output, directory=True)
    cast = _FIELD_TYPES[args.param]
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
    _check_output(args.output, directory=False)
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(SyntheticSpec)
             if getattr(args, f.name) is not None}
    spec = SyntheticSpec(**given)
    path = generate_synthetic(spec, args.output)
    print(f"wrote {path} ({spec.n_users * spec.triples_per_user} records)")
    return 0


def _corpus_config(args) -> ExperimentConfig:
    """The ``ExperimentConfig`` of the flags given to ``split`` or ``cluster``.

    ``--output`` names the command's own output, not a report directory.
    """
    given = {name: value for name, value in vars(args).items()
             if name in _FIELD_TYPES and name != "output" and value is not None}
    return ExperimentConfig(**given)


def _cmd_split(args) -> int:
    _check_output(args.output, directory=True)
    filtered, split = split_corpus(_corpus_config(args))
    directory = Path(args.output)
    directory.mkdir(parents=True, exist_ok=True)
    write_triples(split.train.interactions(), directory / "train.tsv")
    write_triples(split.test_triples, directory / "test.tsv")
    write_summary(split_summary(filtered, split), directory / "summary.txt")
    for name in ("train.tsv", "test.tsv", "summary.txt"):
        print(f"wrote {directory / name}")
    return 0


def _cmd_cluster(args) -> int:
    _check_output(args.output, directory=False)
    cfg = _corpus_config(args)
    split, profiles = prepare_corpus(cfg)[1:]
    k = choose_k(split.train.n_users, cfg.avg_cluster_size)
    clustering = coarse_cluster(split.train, profiles, k, cfg.iterations, cfg.gamma, cfg.seed)
    write_clustering(clustering, split.train, args.output)
    print(f"wrote {args.output} ({k} clusters, {clustering.nonempty_clusters()} non-empty)")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="tagrec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run one experiment end to end")
    _add_experiment_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="re-run an experiment over one parameter")
    _add_experiment_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, help=f"one of {', '.join(SWEEPABLE)}")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_gen = sub.add_parser("gen", help="generate a synthetic planted-community corpus")
    p_gen.add_argument("--output", required=True)
    p_gen.add_argument("--users", type=int, dest="n_users")
    p_gen.add_argument("--items", type=int, dest="n_items")
    p_gen.add_argument("--tags", type=int, dest="n_tags")
    p_gen.add_argument("--communities", type=int, dest="n_communities")
    p_gen.add_argument("--triples-per-user", type=int)
    p_gen.add_argument("--in-community-prob", type=float)
    p_gen.add_argument("--seed", type=int)
    p_gen.set_defaults(func=_cmd_gen)

    for name, handler, out_help in (
        ("split", _cmd_split, "directory for train.tsv/test.tsv/summary.txt"),
        ("cluster", _cmd_cluster, "path for the user<TAB>cluster dump"),
    ):
        p = sub.add_parser(name, help=f"persist a {name} for a corpus")
        p.add_argument("--input", required=True)
        p.add_argument("--output", required=True, help=out_help)
        p.add_argument("--degree-threshold", type=int)
        p.add_argument("--split-ratio", type=float)
        if name == "cluster":
            p.add_argument("--gamma", type=float)
            p.add_argument("--avg-cluster-size", type=int)
            p.add_argument("--iterations", type=int)
            p.add_argument("--seed", type=int)
        p.set_defaults(func=handler)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
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
