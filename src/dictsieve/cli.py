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
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

from . import __version__
from .cooc import build_cooc, filter_cooc, load_cooc, save_cooc
from .corpus import ROLES, export_corpus, ingest_corpus, term_stats
from .dictionary import (
    METHOD_TFIDF,
    METHOD_TOPIC_MODEL,
    extract_dictionary_tfidf,
    extract_dictionary_tm,
    load_dictionary,
    save_dictionary,
)
from .evaluation import (
    DEFAULT_FRACTION,
    DEFAULT_RANGES,
    DEFAULT_TOP_M,
    SystemSet,
    evaluate_sweep,
    generate_sweep,
    map_score,
    precision_at_ranges,
    read_judgments,
    read_pseudorels,
    write_eval_report,
    write_nd_series,
    write_p_at_k,
    write_pseudorels,
    write_wins_series,
)
from .retrieval import load_ranked_list, rank_collection, save_ranked_list
from .scoring import MODES, ScoringConfig
from .topics import exclude_topics, fit_lda, load_model, save_model, top_terms

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# The only environment variable the tool honors; overrides the output
# directory of config files (explicit flags still win).
OUT_DIR_ENV = "DICTSIEVE_OUT_DIR"

DEFAULT_ALPHA_SPEC = "0:30:2"


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
            if step <= 0:
                raise UsageError("alpha step must be positive")
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
        if not match:
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
    alphas: str = DEFAULT_ALPHA_SPEC
    k: int = 2000
    seed: int = 0
    lda_alpha: float | None = None
    beta: float = 0.01
    iterations: int = 1000
    exclude: str = ""
    top_m: int = DEFAULT_TOP_M
    fraction: float = DEFAULT_FRACTION


_CONFIG_KEYS = {f.name for f in fields(PipelineConfig)}
_INT_KEYS = {"n_topics", "n_terms", "k", "seed", "iterations", "top_m"}
_FLOAT_KEYS = {"slope", "lda_alpha", "beta", "fraction"}


def read_config_file(path) -> dict[str, str]:
    """Flat `key=value` lines; # starts a comment, blank lines are skipped."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as stream:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _coerce(key: str, value):
    if value is None or not isinstance(value, str):
        return value
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except ValueError:
        raise UsageError(f"bad value for {key}: {value!r}") from None
    return value


def build_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, then config file, then DICTSIEVE_OUT_DIR, then flags."""
    merged: dict = {}
    if args.config:
        merged.update(read_config_file(args.config))
    env_out = os.environ.get(OUT_DIR_ENV)
    if env_out:
        merged["out_dir"] = env_out
    for key in _CONFIG_KEYS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    config = PipelineConfig(**{k: _coerce(k, v) for k, v in merged.items()})
    if config.reference is None or config.target is None:
        raise UsageError("reference and target corpora are required")
    if config.n_topics is None:
        raise UsageError("n_topics is required")
    if config.n_terms < 1:
        raise UsageError("n_terms must be >= 1")
    if config.k < 1:
        raise UsageError("k must be >= 1")
    return config


# ---------------------------------------------------------------------------
# manifest

def _sha256_path(path: Path) -> str:
    digest = hashlib.sha256()
    if path.is_dir():
        for member in sorted(path.rglob("*")):
            if member.is_file():
                data = member.read_bytes()
                digest.update(f"{member.relative_to(path)}\0{len(data)}\0".encode("utf-8"))
                digest.update(data)
    else:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def write_manifest(config: PipelineConfig, path) -> None:
    """Record everything a rerun needs: version, config, input hashes.

    Deliberately no timestamps or host details, so identical runs produce
    identical manifests.
    """
    config_out = {}
    for f in fields(PipelineConfig):
        value = getattr(config, f.name)
        config_out[f.name] = value
    inputs = {}
    for name in ("reference", "generic", "target"):
        value = getattr(config, name)
        if value is not None:
            inputs[name] = {"path": str(value), "sha256": _sha256_path(Path(value))}
    manifest = {
        "package": "dictsieve",
        "version": __version__,
        "config": config_out,
        "inputs": inputs,
    }
    with open(path, "w", encoding="utf-8") as out:
        json.dump(manifest, out, indent=2, sort_keys=True)
        out.write("\n")


# ---------------------------------------------------------------------------
# system index (sweep output directory layout)

def system_filename(system_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9.-]+", "_", system_id) + ".tsv"


def _write_system_index(rows: list[tuple[str, str, bool]], path) -> None:
    names = [fname for _, fname, _ in rows]
    if len(set(names)) != len(names):
        raise ValueError("system filename collision")
    with open(path, "w", encoding="utf-8") as out:
        out.write("system_id\tfile\tbiased\n")
        for system_id, fname, biased in rows:
            out.write(f"{system_id}\t{fname}\t{int(biased)}\n")


def _read_system_index(path) -> list[tuple[str, str, bool]]:
    rows = []
    with open(path, "r", encoding="utf-8") as stream:
        header = stream.readline().rstrip("\n")
        if header != "system_id\tfile\tbiased":
            raise ValueError(f"not a system index: {path}")
        for line in stream:
            if not line.strip():
                continue
            system_id, fname, biased = line.rstrip("\n").split("\t")
            rows.append((system_id, fname, biased == "1"))
    if not rows:
        raise ValueError(f"empty system index: {path}")
    return rows


def _write_systems(systems: SystemSet, out_dir: Path) -> None:
    (out_dir / "systems").mkdir(parents=True, exist_ok=True)
    biased_ids = set(systems.biased_subset)
    rows = []
    for ranked in systems.systems:
        fname = system_filename(ranked.system_id)
        save_ranked_list(ranked, out_dir / "systems" / fname)
        rows.append((ranked.system_id, f"systems/{fname}", ranked.system_id in biased_ids))
    _write_system_index(rows, out_dir / "systems.tsv")


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
# subcommands

def cmd_ingest(args) -> None:
    corpus = ingest_corpus(args.input, format=args.format, role=args.role)
    export_corpus(corpus, args.out)
    print(f"ingested {len(corpus)} documents (role={corpus.role}) -> {args.out}")


def cmd_fit_topics(args) -> None:
    corpus = ingest_corpus(args.corpus, role="reference")
    model = fit_lda(
        corpus,
        args.n_topics,
        alpha=args.alpha,
        beta=args.beta,
        iterations=args.iterations,
        seed=args.seed,
    )
    save_model(model, args.out)
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
    corpus = ingest_corpus(args.corpus, role="reference")
    if args.method == "tm":
        if args.model is None:
            raise UsageError("--model is required for --method tm")
        model = load_model(args.model)
        excluded = parse_topic_ids(args.exclude)
        if excluded:
            model = exclude_topics(model, excluded)
        dictionary = extract_dictionary_tm(model, term_stats(corpus), args.n)
    else:
        dictionary = extract_dictionary_tfidf(corpus, args.n)
    save_dictionary(dictionary, args.out)
    print(f"extracted {len(dictionary)} terms ({dictionary.method}) -> {args.out}")


def cmd_build_cooc(args) -> None:
    corpus = ingest_corpus(args.corpus, role=args.role)
    dictionary = load_dictionary(args.dict)
    matrix = build_cooc(corpus, dictionary)
    save_cooc(matrix, args.out)
    print(f"{len(matrix.values)} nonzero pairs over {len(matrix.terms)} terms -> {args.out}")


def cmd_filter_cooc(args) -> None:
    reference = load_cooc(args.reference)
    generic = load_cooc(args.generic)
    filtered = filter_cooc(reference, generic)
    save_cooc(filtered, args.out)
    print(f"{len(filtered.values)} pairs survive filtering -> {args.out}")


def cmd_rank(args) -> None:
    target = ingest_corpus(args.target, role="target")
    dictionary = load_dictionary(args.dict)
    cooc = load_cooc(args.cooc) if args.cooc else None
    config = ScoringConfig(slope=args.slope, alpha=args.alpha, mode=args.mode)
    ranked = rank_collection(target, dictionary, cooc, config, args.k)
    save_ranked_list(ranked, args.out)
    print(f"{ranked.system_id}: {ranked.m} documents -> {args.out}")


def cmd_sweep(args) -> None:
    target = ingest_corpus(args.target, role="target")
    dict_tm = load_dictionary(args.dict_tm) if args.dict_tm else None
    dict_tfidf = load_dictionary(args.dict_tfidf) if args.dict_tfidf else None
    cooc_tm = load_cooc(args.cooc_tm) if args.cooc_tm else None
    cooc_tfidf = load_cooc(args.cooc_tfidf) if args.cooc_tfidf else None
    systems = generate_sweep(
        target,
        dict_tm,
        dict_tfidf,
        cooc_tm,
        cooc_tfidf,
        alphas=parse_alphas(args.alphas),
        k=args.k,
        slope=args.slope,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_systems(systems, out_dir)
    print(f"{len(systems.systems)} systems -> {out_dir}")


def cmd_fuse(args) -> None:
    systems = _load_systems(Path(args.systems_dir), args.biased)
    report = evaluate_sweep(systems, top_m=args.top_m, fraction=args.fraction)
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.systems_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_eval_report(report, out_dir / "eval_report.tsv")
    write_pseudorels(report.pseudorels, out_dir / "pseudorels.txt")
    write_nd_series(report.nd_series, out_dir / "nd_series.tsv")
    write_wins_series(report.win_series, out_dir / "wins_series.tsv")
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
    table = precision_at_ranges(ranked, judgments, ranges)
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
    out_dir.mkdir(parents=True, exist_ok=True)

    with _stage("ingest"):
        reference = ingest_corpus(config.reference, format=config.format, role="reference")
        generic = (
            ingest_corpus(config.generic, format=config.format, role="generic")
            if config.generic
            else None
        )
        target = ingest_corpus(config.target, format=config.format, role="target")
        export_corpus(reference, out_dir / "corpus_reference.jsonl")
        if generic is not None:
            export_corpus(generic, out_dir / "corpus_generic.jsonl")
        export_corpus(target, out_dir / "corpus_target.jsonl")
        print(f"[ingest] reference={len(reference)} generic={len(generic) if generic else 0} target={len(target)}")

    with _stage("fit-topics"):
        model = fit_lda(
            reference,
            config.n_topics,
            alpha=config.lda_alpha,
            beta=config.beta,
            iterations=config.iterations,
            seed=config.seed,
        )
        save_model(model, out_dir / "model.tsv")
        print(f"[fit-topics] {model.n_topics} topics, seed={config.seed}")

    with _stage("extract-dict"):
        if excluded:
            model = exclude_topics(model, excluded)
        ref_stats = term_stats(reference)
        dict_tm = extract_dictionary_tm(model, ref_stats, config.n_terms)
        dict_tfidf = extract_dictionary_tfidf(reference, config.n_terms)
        save_dictionary(dict_tm, out_dir / "dict_tm.tsv")
        save_dictionary(dict_tfidf, out_dir / "dict_tfidf.tsv")
        print(f"[extract-dict] {len(dict_tm)} tm terms, {len(dict_tfidf)} tfidf terms")

    with _stage("build-cooc"):
        if generic is None:
            raise ValueError("generic corpus required to filter co-occurrence data")
        raw = {}
        for label, dictionary in (("tm", dict_tm), ("tfidf", dict_tfidf)):
            c_ref = build_cooc(reference, dictionary)
            c_gen = build_cooc(generic, dictionary)
            save_cooc(c_ref, out_dir / f"cooc_reference_{label}.tsv")
            save_cooc(c_gen, out_dir / f"cooc_generic_{label}.tsv")
            raw[label] = (c_ref, c_gen)
        print("[build-cooc] reference and generic matrices for tm and tfidf")

    with _stage("filter-cooc"):
        filtered = {}
        for label, (c_ref, c_gen) in raw.items():
            matrix = filter_cooc(c_ref, c_gen)
            save_cooc(matrix, out_dir / f"cooc_filtered_{label}.tsv")
            filtered[label] = matrix
        # the raw matrices are saved and never scored; free them before the sweep
        del raw, c_ref, c_gen
        print(f"[filter-cooc] {len(filtered['tm'].values)} tm pairs, {len(filtered['tfidf'].values)} tfidf pairs")

    with _stage("sweep"):
        systems = generate_sweep(
            target,
            dict_tm,
            dict_tfidf,
            filtered["tm"],
            filtered["tfidf"],
            alphas=alphas,
            k=config.k,
            slope=config.slope,
        )
        _write_systems(systems, out_dir)
        print(f"[sweep] {len(systems.systems)} systems")

    with _stage("fuse"):
        report = evaluate_sweep(systems, top_m=config.top_m, fraction=config.fraction)
        write_eval_report(report, out_dir / "eval_report.tsv")
        write_pseudorels(report.pseudorels, out_dir / "pseudorels.txt")
        write_nd_series(report.nd_series, out_dir / "nd_series.tsv")
        write_wins_series(report.win_series, out_dir / "wins_series.tsv")
        print(f"[fuse] {len(report.pseudorels)} pseudorels")

    with _stage("manifest"):
        write_manifest(config, out_dir / "manifest.json")

    print(f"done -> {out_dir}")
    return out_dir


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    parser = _Parser(prog="dictsieve", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"dictsieve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="read a corpus and write canonical JSONL")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("jsonl", "plaintext-dir"), default="jsonl")
    p.add_argument("--role", choices=ROLES, default="target")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("fit-topics", help="fit a topic model on a reference corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--n-topics", type=int, required=True)
    p.add_argument("--alpha", type=float, default=None, help="document-topic prior (default 50/K)")
    p.add_argument("--beta", type=float, default=0.01)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_fit_topics)

    p = sub.add_parser("inspect-topics", help="print per-topic weights and top terms")
    p.add_argument("--model", required=True)
    p.add_argument("--terms", type=int, default=10)
    p.set_defaults(handler=cmd_inspect_topics)

    p = sub.add_parser("extract-dict", help="extract a ranked term dictionary")
    p.add_argument("--method", choices=("tm", "tfidf"), required=True)
    p.add_argument("--corpus", required=True, help="reference corpus (JSONL)")
    p.add_argument("--model", default=None, help="topic model file (tm only)")
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--exclude", default="", help="comma-separated topic ids to drop")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_extract_dict)

    p = sub.add_parser("build-cooc", help="sentence co-occurrence matrix of dictionary terms")
    p.add_argument("--corpus", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--role", choices=("reference", "generic"), default="reference")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_build_cooc)

    p = sub.add_parser("filter-cooc", help="subtract generic co-occurrence from reference")
    p.add_argument("--reference", required=True)
    p.add_argument("--generic", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_filter_cooc)

    p = sub.add_parser("rank", help="rank a target corpus against a dictionary")
    p.add_argument("--target", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--cooc", default=None, help="filtered co-occurrence matrix")
    p.add_argument("--mode", choices=MODES, default="unigram")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--slope", type=float, default=0.7)
    p.add_argument("--k", type=int, default=2000)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_rank)

    p = sub.add_parser("sweep", help="rank once per alpha value plus context-only")
    p.add_argument("--target", required=True)
    p.add_argument("--dict-tm", default=None)
    p.add_argument("--dict-tfidf", default=None)
    p.add_argument("--cooc-tm", default=None)
    p.add_argument("--cooc-tfidf", default=None)
    p.add_argument("--alphas", default=DEFAULT_ALPHA_SPEC)
    p.add_argument("--k", type=int, default=2000)
    p.add_argument("--slope", type=float, default=0.7)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("fuse", help="pseudorel fusion and MAP over a sweep directory")
    p.add_argument("--systems-dir", required=True)
    p.add_argument("--biased", default=None, help="comma-separated system ids (default: index flags)")
    p.add_argument("--top-m", type=int, default=DEFAULT_TOP_M)
    p.add_argument("--fraction", type=float, default=DEFAULT_FRACTION)
    p.add_argument("--out-dir", default=None, help="default: the systems directory")
    p.set_defaults(handler=cmd_fuse)

    p = sub.add_parser("map", help="mean average precision of one ranked list")
    p.add_argument("--ranked", required=True)
    p.add_argument("--rels", required=True, help="one relevant doc id per line")
    p.set_defaults(handler=cmd_map)

    p = sub.add_parser("p-at-k", help="precision inside rank windows from a judgment file")
    p.add_argument("--ranked", required=True)
    p.add_argument("--judgments", required=True, help="TSV doc_id<TAB>0|1")
    p.add_argument("--ranges", default=None, help='e.g. "1-10,101-110"')
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_p_at_k)

    p = sub.add_parser("run", help="run the whole pipeline from a config")
    p.add_argument("--config", default=None, help="flat key=value file")
    p.add_argument("--reference")
    p.add_argument("--generic")
    p.add_argument("--target")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--format", choices=("jsonl", "plaintext-dir"))
    p.add_argument("--n-topics", dest="n_topics", type=int)
    p.add_argument("--n-terms", dest="n_terms", type=int)
    p.add_argument("--slope", type=float)
    p.add_argument("--alphas")
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lda-alpha", dest="lda_alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--iterations", type=int)
    p.add_argument("--exclude")
    p.add_argument("--top-m", dest="top_m", type=int)
    p.add_argument("--fraction", type=float)
    p.set_defaults(handler=cmd_run)

    return parser


def _classify(err: BaseException) -> int:
    if isinstance(err, UsageError):
        return EXIT_USAGE
    if isinstance(err, (ValueError, KeyError, OSError)):
        return EXIT_DATA
    return EXIT_INTERNAL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with _stage(args.command):
            args.handler(args)
    except _StageFailure as fail:
        print(fail, file=sys.stderr)
        return _classify(fail.cause)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
