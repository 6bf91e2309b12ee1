"""Command-line entry point: recommend, evaluate, mine, tune."""

import argparse
import dataclasses
import json
import os
import sys
from typing import List, Optional

from . import pipeline
from .config import OUTPUT_FORMATS, QUALIFIER_MODES, RunConfig
from .corpus.miner import MINING_PHRASES, mine_similar_pairs
from .errors import (
    BugnavError,
    NoCandidatesError,
    QueryConstructionError,
    TransportError,
    ValidationError,
    read_json_object,
)
from .evalharness import EvalDataset, evaluate
from .ranking import WeightConfig, grid_size, tune_weights

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CANDIDATES = 2
EXIT_NO_QUERY = 3
EXIT_TRANSPORT = 4

_EXIT_CODES = {ValidationError: EXIT_USAGE, NoCandidatesError: EXIT_NO_CANDIDATES,
               QueryConstructionError: EXIT_NO_QUERY, TransportError: EXIT_TRANSPORT}


class _Parser(argparse.ArgumentParser):
    """An invalid flag or value exits with EXIT_USAGE, not argparse's 2,
    which here means that no candidates survived. Subparsers inherit it.

    The parser that meets an unknown flag refuses it with its own usage
    line; argparse would hand a subcommand's up to the top-level parser."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, unknown = super().parse_known_args(args, namespace)
        if unknown:
            self.error(f"unrecognized arguments: {' '.join(unknown)}")
        return namespace, unknown


# each config flag with its argparse options; recommend takes them all, and
# the other subcommands take only the flags they read
_CONFIG_FLAGS = {
    "--config": dict(metavar="FILE", help="JSON file with configuration fields"),
    "--fixture-dir": dict(dest="fixture_dir", metavar="DIR",
                          help="replay recorded fixtures instead of touching the network"),
    "--cache-dir": dict(dest="cache_dir", metavar="DIR",
                        help="directory for repository snapshot caching"),
    "--token-env": dict(dest="auth_token_source", metavar="VAR",
                        help="environment variable holding the API token"),
    "--language": dict(dest="language_filter", metavar="LANG",
                       help="search language filter; empty string disables it"),
    "--max-candidates": dict(dest="max_candidates", type=int),
    "--n-threshold": dict(dest="n_threshold", type=int,
                          help="minimum hits before a query strategy is accepted"),
    "--scope": dict(dest="qualifier_mode", choices=QUALIFIER_MODES,
                    metavar="{" + "|".join(QUALIFIER_MODES) + "}",
                    help="where the stack-trace query searches"),
    "--format": dict(dest="output_format", choices=OUTPUT_FORMATS),
    "--parallelism": dict(
        dest="parallelism", type=int, metavar="N",
        help="platform requests in flight in a live run; replay fetches serially",
    ),
    "--min-match-len": dict(dest="min_match_len", type=int),
    "--weight": dict(action="append", default=[], metavar="NAME=VALUE",
                     help="override one ranking weight; repeatable"),
    "--weights-file": dict(dest="weights_file", metavar="FILE",
                           help="JSON file with a full set of ranking weights"),
}


def _add_config_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags or _CONFIG_FLAGS:
        parser.add_argument(flag, **_CONFIG_FLAGS[flag])


def _apply_weight_overrides(weights: WeightConfig, specs: List[str]) -> WeightConfig:
    data = weights.to_dict()
    for spec in specs:
        name, sep, raw = spec.partition("=")
        if not sep:
            raise ValidationError(f"--weight expects NAME=VALUE, got {spec!r}")
        if name not in data:
            raise ValidationError(f"unknown weight name: {name!r}")
        try:
            data[name] = float(raw)
        except ValueError as exc:
            raise ValidationError(f"--weight {name}: {raw!r} is not a number") from exc
    return WeightConfig.from_dict(data)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    base = RunConfig.load(args.config) if args.config else RunConfig()
    data = base.to_dict()
    # each field but weights has a flag of the same dest
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            data[f.name] = value
    weights = base.weights
    path = getattr(args, "weights_file", None)
    if path:
        raw = read_json_object(path, "weights file")
        try:
            weights = WeightConfig.from_dict(raw)
        except ValidationError as exc:
            raise ValidationError(f"weights file {path}: {exc}") from exc
    if getattr(args, "weight", None):
        weights = _apply_weight_overrides(weights, args.weight)
    data["weights"] = weights
    return RunConfig.from_dict(data)


def _to_devnull(stream) -> None:
    """Point stream at os.devnull after a failed write, so that the
    interpreter's flush at exit does not fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _emit(text: str, output: Optional[str] = None) -> None:
    """Write text to stdout, and first to the output file when one is named."""
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write output file {output}: {exc.strerror}") from exc
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        _to_devnull(sys.stdout)
        raise ValidationError(f"cannot write standard output: {exc.strerror}") from exc


def _say(line: str) -> None:
    """Write one line to stderr; a failed write is dropped, since stderr is
    the last place left to report to."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr)


def _recommend_table(rec: pipeline.Recommendation) -> str:
    lines = [
        f"driver: {rec.driver.ref}",
        f"query ({rec.outcome.query.strategy}): {rec.outcome.query.full()}",
        "",
        f"{'rank':>4}  {'score':>8}  {'search':>6}  candidate",
    ]
    for c in rec.candidates:
        lines.append(
            f"{c.final_rank:>4}  {c.score:>8.4f}  {c.search_rank:>6}  "
            f"{c.issue.ref}  {c.issue.title}"
        )
    return "\n".join(lines)


def _cmd_recommend(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    client = pipeline.build_client(config)
    driver = pipeline.resolve_driver(args.issue, client)
    rec = pipeline.recommend(driver, config, client)
    if config.output_format == "table":
        text = _recommend_table(rec)
    else:
        text = json.dumps(pipeline.recommendation_to_dict(rec), indent=2, sort_keys=True)
    _emit(text + "\n")
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report = evaluate(EvalDataset.load(args.dataset), config.weights)
    if config.output_format == "table":
        text = report.format_table()
    else:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    _emit(text + "\n")
    return EXIT_OK


def _cmd_mine(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    client = pipeline.build_client(config)
    keywords = tuple(args.keyword) if args.keyword else MINING_PHRASES
    pairs = mine_similar_pairs(client, keywords=keywords, per_keyword_cap=args.cap)
    _emit("".join(f"{d} {n}\n" for d, n in pairs), args.output)
    return EXIT_OK


def _cmd_tune(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    dataset = EvalDataset.load(args.dataset)
    points = grid_size(config.weights, args.grid_step)
    _say(f"tune: searching {points:,} grid points")
    tuned = tune_weights(dataset, args.grid_step, base=config.weights)
    payload = json.dumps(tuned.to_dict(), indent=2, sort_keys=True) + "\n"
    _emit(payload, args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bugnav",
        description="Recommend closed lookalike issues for an open bug report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recommend", help="rank candidate issues for one driver issue")
    p.add_argument("issue", help="OWNER/REPO#N or a local issue JSON file")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("evaluate", help="score a labeled dataset with the current weights")
    p.add_argument("dataset", help="JSONL dataset file")
    _add_config_flags(p, "--config", "--format", "--weight", "--weights-file")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("mine", help="collect cross-project (driver, navigator) pairs")
    p.add_argument("--keyword", action="append", default=[],
                   help="search phrase; repeatable, defaults to the built-in pair")
    p.add_argument("--cap", type=int, default=100, help="search results per keyword")
    p.add_argument("--output", metavar="FILE", help="also write the pair list here")
    _add_config_flags(p, "--config", "--fixture-dir", "--token-env")
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("tune", help="grid-search similarity weights on a labeled dataset")
    p.add_argument("dataset", help="JSONL dataset file")
    p.add_argument("--grid-step", type=float, default=0.0714)
    p.add_argument("--output", metavar="FILE", help="also write the tuned weights here")
    _add_config_flags(p, "--config", "--weight", "--weights-file")
    p.set_defaults(func=_cmd_tune)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BugnavError as exc:
        retry_after = getattr(exc, "retry_after", None)
        hint = "" if retry_after is None else f" (retry after {retry_after:.0f}s)"
        _say(f"error: {exc}{hint}")
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
