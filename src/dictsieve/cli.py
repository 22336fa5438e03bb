"""Command line front end.

Each pipeline stage is a subcommand that reads and writes persisted
artifacts, so any stage can be rerun in isolation.  ``run`` chains them all
and drops a manifest with config, seeds, and input hashes; rerunning with
the same manifest inputs reproduces every artifact byte for byte.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import typing
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .cooc import CoocMatrix, build_cooc, filter_cooc, load_cooc, save_cooc
from .corpus import (
    FORMATS,
    ROLES,
    Corpus,
    export_corpus,
    file_sha256,
    ingest_corpus,
    open_text,
    publish,
    read_rows,
    term_stats,
    write_rows,
)
from .dictionary import (
    Dictionary,
    extract_dictionary_tfidf,
    extract_dictionary_tm,
    load_dictionary,
    save_dictionary,
)
from .evaluation import (
    DEFAULT_FRACTION,
    DEFAULT_RANGES,
    DEFAULT_TOP_M,
    EvalReport,
    SystemSet,
    check_fusion_settings,
    evaluate_sweep,
    generate_sweep,
    map_score,
    precision_at_ranges,
    read_judgments,
    read_pseudorels,
    sweep_configs,
    write_eval_report,
    write_nd_series,
    write_p_at_k,
    write_pseudorels,
    write_wins_series,
)
from .retrieval import load_ranked_list, rank_collection, save_ranked_list
from .scoring import MODES, ScoringConfig
from .topics import (
    TopicModelResult,
    check_fit_settings,
    check_topic_ids,
    exclude_topics,
    fit_lda,
    load_model,
    save_model,
    top_terms,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# The only environment variable the tool honors; overrides the output
# directory of config files (explicit flags still win).
OUT_DIR_ENV = "DICTSIEVE_OUT_DIR"

# the most values an alpha range may expand to; a sweep ranks the target
# twice per value
MAX_ALPHAS = 10_000


class UsageError(Exception):
    """Bad flags, bad config keys, malformed option values."""


class _StageFailure(Exception):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@contextmanager
def _stage(name: str):
    """Label any failure inside the block with the stage it happened in."""
    try:
        yield
    except _StageFailure:
        raise
    except Exception as err:
        raise _StageFailure(name, err) from err


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


# ---------------------------------------------------------------------------
# option value parsing

def parse_alphas(text: str) -> tuple[float, ...]:
    """Either `start:stop:step` (inclusive stop) or a comma list of values."""
    text = text.strip()
    if not text:
        raise UsageError("alphas must be non-empty")
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise UsageError(f"alpha range must be start:stop:step, got {text!r}")
            start, stop, step = (float(p) for p in parts)
            # an infinite bound would loop without end, and a NaN compares false
            if not all(map(math.isfinite, (start, stop, step))):
                raise UsageError(f"alpha range bounds and step must be finite, got {text!r}")
            if step <= 0:
                raise UsageError("alpha step must be positive")
            # floor((stop - start) / step) + 1 values, counted before any is made
            if (stop - start) / step >= MAX_ALPHAS:
                raise UsageError(f"alpha range {text!r} has more than {MAX_ALPHAS} values")
            values = []
            value = start
            while value <= stop + 1e-12:
                values.append(round(value, 12))
                value += step
            if not values:
                raise UsageError(f"empty alpha range {text!r}")
            return tuple(values)
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"bad alpha spec {text!r}") from None


def parse_topic_ids(text: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"bad topic id list {text!r}") from None


def parse_ranges(text: str) -> tuple[tuple[int, int], ...]:
    ranges = []
    for part in text.split(","):
        part = part.strip()
        match = re.fullmatch(r"(\d+)-(\d+)", part)
        if not match or not 1 <= int(match.group(1)) <= int(match.group(2)):
            raise UsageError(f"bad rank range {part!r}, expected lo-hi")
        ranges.append((int(match.group(1)), int(match.group(2))))
    return tuple(ranges)


# ---------------------------------------------------------------------------
# pipeline configuration

@dataclass
class PipelineConfig:
    reference: str | None = None
    generic: str | None = None
    target: str | None = None
    out_dir: str = "out"
    format: str = "jsonl"
    n_topics: int | None = None
    n_terms: int = 500
    slope: float = 0.7
    alphas: str = "0:30:2"
    k: int = 2000
    seed: int = 0
    lda_alpha: float | None = None
    beta: float = 0.01
    iterations: int = 1000
    exclude: str = ""
    top_m: int = DEFAULT_TOP_M
    fraction: float = DEFAULT_FRACTION


def _value_type(hint) -> type:
    """The annotation's type with any ``| None`` dropped."""
    return next((t for t in typing.get_args(hint) if t is not type(None)), hint)


# config key -> int, float or str; the keys of config files and the flags of
# ``run`` are generated from this table
_CONFIG_TYPES = {name: _value_type(hint) for name, hint in typing.get_type_hints(PipelineConfig).items()}

# the subcommands take their defaults for config keys from here
_DEFAULTS = PipelineConfig()


def read_config_file(path) -> dict[str, str]:
    """Flat `key=value` lines; # starts a comment, blank lines are skipped."""
    values: dict[str, str] = {}
    with open_text(path) as stream:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_TYPES:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            if "\0" in value:
                raise UsageError(f"{path}:{lineno}: value of {key} contains a NUL byte")
            values[key] = value.strip()
    return values


def _coerce(key: str, value):
    if not isinstance(value, str):
        return value
    try:
        return _CONFIG_TYPES[key](value)
    except ValueError:
        raise UsageError(f"bad value for {key}: {value!r}") from None


def build_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, then config file, then DICTSIEVE_OUT_DIR, then flags."""
    merged: dict = {}
    if args.config:
        merged.update(read_config_file(args.config))
    env_out = os.environ.get(OUT_DIR_ENV)
    if env_out:
        merged["out_dir"] = env_out
    for key in _CONFIG_TYPES:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    config = PipelineConfig(**{k: _coerce(k, v) for k, v in merged.items()})
    # an empty path counts as a missing one: ingest would skip the role, and
    # an empty out_dir would put every artifact in the working directory
    if not config.reference or not config.target:
        raise UsageError("reference and target corpora are required")
    if not config.out_dir:
        raise UsageError("out_dir must not be empty")
    if config.n_topics is None:
        raise UsageError("n_topics is required")
    if config.format not in FORMATS:
        raise UsageError(f"format must be one of {', '.join(FORMATS)}, got {config.format!r}")
    if config.n_terms < 1:
        raise UsageError("n_terms must be >= 1")
    if config.k < 1:
        raise UsageError("k must be >= 1")
    return config


# ---------------------------------------------------------------------------
# manifest

def _sha256_path(path: Path) -> str:
    if not path.is_dir():
        return file_sha256(path)
    digest = hashlib.sha256()
    for member in sorted(path.rglob("*")):
        if member.is_file():
            data = member.read_bytes()
            digest.update(f"{member.relative_to(path)}\0{len(data)}\0".encode("utf-8"))
            digest.update(data)
    return digest.hexdigest()


def write_manifest(config: PipelineConfig, path) -> None:
    """Record everything a rerun needs: version, config, input hashes.

    Deliberately no timestamps or host details, so identical runs produce
    identical manifests.
    """
    inputs = {}
    for name in ("reference", "generic", "target"):
        value = getattr(config, name)
        if value is not None:
            inputs[name] = {"path": str(value), "sha256": _sha256_path(Path(value))}
    manifest = {
        "package": "dictsieve",
        "version": __version__,
        "config": asdict(config),
        "inputs": inputs,
    }
    publish(path, [(json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()])


# ---------------------------------------------------------------------------
# system index (sweep output directory layout)

def system_filename(system_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9.-]+", "_", system_id) + ".tsv"


def _read_system_index(path) -> list[tuple[str, str, bool]]:
    """Rows of ``system_id<TAB>file<TAB>0|1`` with distinct system ids and
    non-empty file fields; a malformed line is reported as ``path:line``."""
    rows = []
    seen = set()
    with open_text(path) as stream:
        header = stream.readline().rstrip("\n")
        if header != "system_id\tfile\tbiased":
            raise ValueError(f"not a system index: {path}")
        for lineno, (system_id, fname, biased) in read_rows(stream, path, 3, 2):
            # an empty file field would name the systems directory itself
            if not fname:
                raise ValueError(f"{path}:{lineno}: file field is empty")
            if "\0" in fname:
                raise ValueError(f"{path}:{lineno}: file {fname!r} contains a NUL byte")
            if biased not in ("0", "1"):
                raise ValueError(f"{path}:{lineno}: biased must be 0 or 1, got {biased!r}")
            if system_id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate system id {system_id!r}")
            seen.add(system_id)
            rows.append((system_id, fname, biased == "1"))
    if not rows:
        raise ValueError(f"empty system index: {path}")
    return rows


def _load_systems(systems_dir: Path, biased_override: str | None) -> SystemSet:
    rows = _read_system_index(systems_dir / "systems.tsv")
    ranked_lists = []
    biased = []
    for system_id, fname, flagged in rows:
        ranked = load_ranked_list(systems_dir / fname)
        if ranked.system_id != system_id:
            raise ValueError(f"{fname}: system id {ranked.system_id!r} does not match index entry {system_id!r}")
        ranked_lists.append(ranked)
        if flagged:
            biased.append(system_id)
    if biased_override is not None:
        biased = [s.strip() for s in biased_override.split(",") if s.strip()]
    return SystemSet(systems=ranked_lists, biased_subset=tuple(biased))


# ---------------------------------------------------------------------------
# stages: each computes its artifact from in-memory inputs, saves it and
# returns it.  A subcommand loads the inputs from files; ``run_pipeline``
# passes on what the stage before returned.  The library is called through
# the names imported here, which the traced benchmark rebinds.

def fit_topics_stage(
    corpus: Corpus, n_topics: int, alpha: float | None, beta: float, iterations: int, seed: int, out
) -> TopicModelResult:
    model = fit_lda(corpus, n_topics, alpha=alpha, beta=beta, iterations=iterations, seed=seed)
    save_model(model, out)
    return model


def extract_dict_stage(
    method: str, corpus: Corpus, model: TopicModelResult | None, excluded: frozenset[int], n: int, out
) -> Dictionary:
    """``method`` is ``tm`` (weights from ``model`` without the ``excluded``
    topics) or ``tfidf`` (``model`` and ``excluded`` unused)."""
    if method == "tm":
        dictionary = extract_dictionary_tm(exclude_topics(model, excluded), term_stats(corpus), n)
    else:
        dictionary = extract_dictionary_tfidf(corpus, n)
    save_dictionary(dictionary, out)
    return dictionary


def build_cooc_stage(corpus: Corpus, dictionary: Dictionary, out) -> CoocMatrix:
    matrix = build_cooc(corpus, dictionary)
    save_cooc(matrix, out)
    return matrix


def filter_cooc_stage(reference: CoocMatrix, generic: CoocMatrix, out) -> CoocMatrix:
    matrix = filter_cooc(reference, generic)
    save_cooc(matrix, out)
    return matrix


def sweep_stage(
    target: Corpus,
    dict_tm: Dictionary | None,
    dict_tfidf: Dictionary | None,
    cooc_tm: CoocMatrix | None,
    cooc_tfidf: CoocMatrix | None,
    alphas: tuple[float, ...],
    k: int,
    slope: float,
    out_dir: Path,
) -> SystemSet:
    """Writes one ranked list per system under ``out_dir/systems``, then the
    index ``out_dir/systems.tsv`` that ``_read_system_index`` reads, after it
    removes each list of a parsed previous index that it does not write and
    whose file is exactly ``systems/`` + its id's ``system_filename``."""
    systems = generate_sweep(target, dict_tm, dict_tfidf, cooc_tm, cooc_tfidf, alphas=alphas, k=k, slope=slope)
    fnames = [system_filename(ranked.system_id) for ranked in systems.systems]
    if len(set(fnames)) != len(fnames):
        raise ValueError("system filename collision")
    stale = set()
    with suppress(OSError, ValueError):
        rows = _read_system_index(out_dir / "systems.tsv")
        stale = {fname for system_id, fname, _ in rows if fname == f"systems/{system_filename(system_id)}"}
    for fname in stale.difference(f"systems/{fname}" for fname in fnames):
        (out_dir / fname).unlink(missing_ok=True)
    (out_dir / "systems").mkdir(parents=True, exist_ok=True)
    for ranked, fname in zip(systems.systems, fnames):
        save_ranked_list(ranked, out_dir / "systems" / fname)
    rows = (
        (ranked.system_id, f"systems/{fname}", int(ranked.system_id in systems.biased_subset))
        for ranked, fname in zip(systems.systems, fnames)
    )
    write_rows(out_dir / "systems.tsv", rows, "system_id\tfile\tbiased\n")
    return systems


def fuse_stage(systems: SystemSet, top_m: int, fraction: float, out_dir: Path) -> EvalReport:
    report = evaluate_sweep(systems, top_m=top_m, fraction=fraction)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_eval_report(report, out_dir / "eval_report.tsv")
    write_pseudorels(report.pseudorels, out_dir / "pseudorels.txt")
    write_nd_series(report.nd_series, out_dir / "nd_series.tsv")
    write_wins_series(report.pseudorels.condorcet_order, out_dir / "wins_series.tsv")
    return report


# ---------------------------------------------------------------------------
# subcommands

def cmd_ingest(args) -> None:
    corpus = ingest_corpus(args.input, format=args.format, role=args.role)
    export_corpus(corpus, args.out)
    print(f"ingested {len(corpus)} documents (role={corpus.role}) -> {args.out}")


def cmd_fit_topics(args) -> None:
    corpus = ingest_corpus(args.corpus, role="reference")
    model = fit_topics_stage(corpus, args.n_topics, args.alpha, args.beta, args.iterations, args.seed, args.out)
    print(f"fitted {model.n_topics} topics on {len(corpus)} documents -> {args.out}")


def cmd_inspect_topics(args) -> None:
    model = load_model(args.model)
    print("topic\tweight\tterms")
    for topic_id in range(1, model.n_topics + 1):
        terms = top_terms(model, topic_id, args.terms) if args.terms > 0 else []
        rendered = " ".join(term for term, _ in terms)
        suffix = "\t(excluded)" if topic_id in model.excluded else ""
        print(f"{topic_id}\t{model.topic_weight[topic_id - 1]:.6f}\t{rendered}{suffix}")


def cmd_extract_dict(args) -> None:
    if args.method == "tm" and args.model is None:
        raise UsageError("--model is required for --method tm")
    corpus = ingest_corpus(args.corpus, role="reference")
    model = load_model(args.model) if args.method == "tm" else None
    excluded = parse_topic_ids(args.exclude)
    if model is not None:
        model = exclude_topics(model, excluded)
    try:
        dictionary = extract_dict_stage(args.method, corpus, model, excluded, args.n, args.out)
    except ValueError as err:  # the model does not fit the corpus
        if model is None:
            raise
        raise ValueError(f"{args.model}, {args.corpus}: {err}") from None
    print(f"extracted {len(dictionary)} terms ({dictionary.method}) -> {args.out}")


def cmd_build_cooc(args) -> None:
    corpus = ingest_corpus(args.corpus, role=args.role)
    matrix = build_cooc_stage(corpus, load_dictionary(args.dict), args.out)
    print(f"{len(matrix.values)} nonzero pairs over {len(matrix.terms)} terms -> {args.out}")


def _load_cooc_for(path, dictionary: Dictionary | None, dictionary_path) -> CoocMatrix | None:
    """The matrix at ``path``, if one is given, for ``dictionary``; a matrix
    whose terms are not those of ``dictionary`` is reported with both files."""
    matrix = load_cooc(path) if path else None
    if matrix is not None and matrix.terms != dictionary.terms:
        raise ValueError(f"{path}: co-occurrence matrix terms do not match the dictionary terms of {dictionary_path}")
    return matrix


def cmd_filter_cooc(args) -> None:
    reference, generic = load_cooc(args.reference), load_cooc(args.generic)
    try:
        filtered = filter_cooc_stage(reference, generic, args.out)
    except ValueError as err:  # the two matrices do not fit together
        raise ValueError(f"{args.reference}, {args.generic}: {err}") from None
    print(f"{len(filtered.values)} pairs survive filtering -> {args.out}")


def cmd_rank(args) -> None:
    target = ingest_corpus(args.target, role="target")
    dictionary = load_dictionary(args.dict)
    cooc = _load_cooc_for(args.cooc, dictionary, args.dict)
    config = ScoringConfig(slope=args.slope, alpha=args.alpha, mode=args.mode)
    ranked = rank_collection(target, dictionary, cooc, config, args.k)
    save_ranked_list(ranked, args.out)
    print(f"{ranked.system_id}: {ranked.m} documents -> {args.out}")


def cmd_sweep(args) -> None:
    for method in ("tm", "tfidf"):
        if getattr(args, f"cooc_{method}") and not getattr(args, f"dict_{method}"):
            raise UsageError(f"--cooc-{method} needs --dict-{method}")
    target = ingest_corpus(args.target, role="target")
    dict_tm = load_dictionary(args.dict_tm) if args.dict_tm else None
    dict_tfidf = load_dictionary(args.dict_tfidf) if args.dict_tfidf else None
    cooc_tm = _load_cooc_for(args.cooc_tm, dict_tm, args.dict_tm)
    cooc_tfidf = _load_cooc_for(args.cooc_tfidf, dict_tfidf, args.dict_tfidf)
    out_dir = Path(args.out_dir)
    systems = sweep_stage(
        target, dict_tm, dict_tfidf, cooc_tm, cooc_tfidf, parse_alphas(args.alphas), args.k, args.slope, out_dir
    )
    print(f"{len(systems.systems)} systems -> {out_dir}")


def cmd_fuse(args) -> None:
    systems = _load_systems(Path(args.systems_dir), args.biased)
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.systems_dir)
    report = fuse_stage(systems, args.top_m, args.fraction, out_dir)
    best_id, best_map = max(report.map_by_system.items(), key=lambda item: (item[1], item[0]))
    print(f"{len(report.pseudorels)} pseudorels from {len(report.pseudorels.candidate_pool)} candidates")
    print(f"best system: {best_id} (MAP {best_map:.4f}) -> {out_dir}")


def cmd_map(args) -> None:
    ranked = load_ranked_list(args.ranked)
    rels = read_pseudorels(args.rels)
    print(f"{ranked.system_id}\t{map_score(ranked, rels)!r}")


def cmd_p_at_k(args) -> None:
    ranked = load_ranked_list(args.ranked)
    judgments = read_judgments(args.judgments)
    ranges = parse_ranges(args.ranges) if args.ranges else DEFAULT_RANGES
    try:
        table = precision_at_ranges(ranked, judgments, ranges)
    except ValueError as err:  # the ranges are valid, so a judgment is missing
        raise ValueError(f"{args.judgments}: {err}") from None
    for (low, high), precision in sorted(table.items()):
        print(f"{low}-{high}\t{precision!r}")
    if args.out:
        write_p_at_k(table, args.out)


def cmd_run(args) -> None:
    config = build_pipeline_config(args)
    run_pipeline(config)


def run_pipeline(config: PipelineConfig) -> Path:
    """Chain every stage, persisting each artifact under the output directory.

    Returns the output directory.  Failures carry the name of the stage
    they happened in.
    """
    out_dir = Path(config.out_dir)
    alphas = parse_alphas(config.alphas)
    excluded = parse_topic_ids(config.exclude)
    # every stage's settings are checked before the first artifact is written
    with _stage("fit-topics"):
        check_fit_settings(config.n_topics, config.lda_alpha, config.beta, config.iterations, config.seed)
    with _stage("extract-dict"):
        check_topic_ids(config.n_topics, excluded)
    with _stage("build-cooc"):
        if not config.generic:
            raise ValueError("generic corpus required to filter co-occurrence data")
    with _stage("sweep"):
        sweep_configs(alphas, config.slope)
    with _stage("fuse"):
        check_fusion_settings(config.top_m, config.fraction)

    with _stage("ingest"):
        # every corpus is read and checked before the first one is written
        corpora = {
            role: ingest_corpus(getattr(config, role), format=config.format, role=role)
            for role in ROLES
            if getattr(config, role)
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        for role, corpus in corpora.items():
            export_corpus(corpus, out_dir / f"corpus_{role}.jsonl")
        reference, generic, target = map(corpora.get, ROLES)
        print("[ingest] " + " ".join(f"{role}={len(corpora.get(role, ()))}" for role in ROLES))

    with _stage("fit-topics"):
        model = fit_topics_stage(
            reference, config.n_topics, config.lda_alpha, config.beta, config.iterations, config.seed,
            out_dir / "model.tsv",
        )
        print(f"[fit-topics] {model.n_topics} topics, seed={config.seed}")

    with _stage("extract-dict"):
        dicts = {
            method: extract_dict_stage(
                method, reference, model, excluded, config.n_terms, out_dir / f"dict_{method}.tsv"
            )
            for method in ("tm", "tfidf")
        }
        print(f"[extract-dict] {len(dicts['tm'])} tm terms, {len(dicts['tfidf'])} tfidf terms")

    with _stage("build-cooc"):
        raw = {
            method: [
                build_cooc_stage(corpus, dictionary, out_dir / f"cooc_{corpus.role}_{method}.tsv")
                for corpus in (reference, generic)
            ]
            for method, dictionary in dicts.items()
        }
        print("[build-cooc] reference and generic matrices for tm and tfidf")

    with _stage("filter-cooc"):
        filtered = {
            method: filter_cooc_stage(c_ref, c_gen, out_dir / f"cooc_filtered_{method}.tsv")
            for method, (c_ref, c_gen) in raw.items()
        }
        # the raw matrices are saved and never scored; free them before the sweep
        del raw
        print(f"[filter-cooc] {len(filtered['tm'].values)} tm pairs, {len(filtered['tfidf'].values)} tfidf pairs")

    with _stage("sweep"):
        systems = sweep_stage(
            target, dicts["tm"], dicts["tfidf"], filtered["tm"], filtered["tfidf"], alphas, config.k, config.slope,
            out_dir,
        )
        print(f"[sweep] {len(systems.systems)} systems")

    with _stage("fuse"):
        report = fuse_stage(systems, config.top_m, config.fraction, out_dir)
        print(f"[fuse] {len(report.pseudorels)} pseudorels")

    with _stage("manifest"):
        write_manifest(config, out_dir / "manifest.json")

    print(f"done -> {out_dir}")
    return out_dir


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    """A new parser of every subcommand; ``main`` runs subcommand ``x-y``
    with ``cmd_x_y``, looked up in this module when it is dispatched."""
    parser = _Parser(prog="dictsieve", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"dictsieve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="read a corpus and write canonical JSONL")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=FORMATS, default=_DEFAULTS.format)
    p.add_argument("--role", choices=ROLES, default="target")
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit-topics", help="fit a topic model on a reference corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--n-topics", type=int, required=True)
    p.add_argument("--alpha", type=float, default=_DEFAULTS.lda_alpha, help="document-topic prior (default 50/K)")
    p.add_argument("--beta", type=float, default=_DEFAULTS.beta)
    p.add_argument("--iterations", type=int, default=_DEFAULTS.iterations)
    p.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    p.add_argument("--out", required=True)

    p = sub.add_parser("inspect-topics", help="print per-topic weights and top terms")
    p.add_argument("--model", required=True)
    p.add_argument("--terms", type=int, default=10)

    p = sub.add_parser("extract-dict", help="extract a ranked term dictionary")
    p.add_argument("--method", choices=("tm", "tfidf"), required=True)
    p.add_argument("--corpus", required=True, help="reference corpus (JSONL)")
    p.add_argument("--model", default=None, help="topic model file (tm only)")
    p.add_argument("--n", type=int, default=_DEFAULTS.n_terms)
    p.add_argument("--exclude", default=_DEFAULTS.exclude, help="comma-separated topic ids to drop")
    p.add_argument("--out", required=True)

    p = sub.add_parser("build-cooc", help="sentence co-occurrence matrix of dictionary terms")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--role", choices=("reference", "generic"), default="reference")
    p.add_argument("--out", required=True)

    p = sub.add_parser("filter-cooc", help="subtract generic co-occurrence from reference")
    p.add_argument("--reference", required=True)
    p.add_argument("--generic", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rank", help="rank a target corpus against a dictionary")
    p.add_argument("--target", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--cooc", default=None, help="filtered co-occurrence matrix")
    p.add_argument("--mode", choices=MODES, default="unigram")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--slope", type=float, default=_DEFAULTS.slope)
    p.add_argument("--k", type=int, default=_DEFAULTS.k)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep", help="rank once per alpha value plus context-only")
    p.add_argument("--target", required=True)
    p.add_argument("--dict-tm", default=None)
    p.add_argument("--dict-tfidf", default=None)
    p.add_argument("--cooc-tm", default=None)
    p.add_argument("--cooc-tfidf", default=None)
    p.add_argument("--alphas", default=_DEFAULTS.alphas)
    p.add_argument("--k", type=int, default=_DEFAULTS.k)
    p.add_argument("--slope", type=float, default=_DEFAULTS.slope)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("fuse", help="pseudorel fusion and MAP over a sweep directory")
    p.add_argument("--systems-dir", required=True)
    p.add_argument("--biased", default=None, help="comma-separated system ids (default: index flags)")
    p.add_argument("--top-m", type=int, default=_DEFAULTS.top_m)
    p.add_argument("--fraction", type=float, default=_DEFAULTS.fraction)
    p.add_argument("--out-dir", default=None, help="default: the systems directory")

    p = sub.add_parser("map", help="mean average precision of one ranked list")
    p.add_argument("--ranked", required=True)
    p.add_argument("--rels", required=True, help="one relevant doc id per line")

    p = sub.add_parser("p-at-k", help="precision inside rank windows from a judgment file")
    p.add_argument("--ranked", required=True)
    p.add_argument("--judgments", required=True, help="TSV doc_id<TAB>0|1")
    p.add_argument("--ranges", default=None, help='e.g. "1-10,101-110"')
    p.add_argument("--out", default=None)

    p = sub.add_parser("run", help="run the whole pipeline from a config")
    p.add_argument("--config", default=None, help="flat key=value file")
    for key, value_type in _CONFIG_TYPES.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=value_type)

    return parser


def _classify(err: BaseException) -> int:
    if isinstance(err, UsageError):
        return EXIT_USAGE
    if isinstance(err, (ValueError, KeyError, OSError)):
        return EXIT_DATA
    return EXIT_INTERNAL


# the parser of every ``main`` call in this process, built by the first one;
# each parse fills a new Namespace
_main_parser: _Parser | None = None


def main(argv: list[str] | None = None) -> int:
    global _main_parser
    if _main_parser is None:
        _main_parser = build_parser()
    try:
        args = _main_parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with _stage(args.command):
            globals()["cmd_" + args.command.replace("-", "_")](args)
    except _StageFailure as fail:
        print(fail, file=sys.stderr)
        return _classify(fail.cause)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
