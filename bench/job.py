"""One benchmark job, run in a fresh child process.

Usage: python3 bench/job.py JOB_SPEC.json

The spec (written by run.py) names the input corpora, the pipeline
configuration, the output directory and where to write the result.  The
job imports dictsieve from the checkout's ``src`` directory, times one job
from the input files to a complete output directory, reads its own peak
RSS, and only then runs the untimed checks that need the library.  The
calibration loop of ``speed.py`` runs right before and right after the job,
so run.py can rescale the times.  With ``trace`` set, the job runs under the
span tracer and dumps its spans.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from speed import loop_seconds  # noqa: E402


def chain_commands(config: dict) -> list[list[str]]:
    """The 14 subcommands of the stage-by-stage rerun path.

    Every stage reads the files the stage before it wrote; the names match
    what ``dictsieve run`` writes, so the output directories compare.
    """
    out = Path(config["out_dir"])
    ref = str(out / "corpus_reference.jsonl")
    gen = str(out / "corpus_generic.jsonl")
    tgt = str(out / "corpus_target.jsonl")
    commands = [
        ["ingest", "--input", config["reference"], "--role", "reference", "--out", ref],
        ["ingest", "--input", config["generic"], "--role", "generic", "--out", gen],
        ["ingest", "--input", config["target"], "--role", "target", "--out", tgt],
        [
            "fit-topics", "--corpus", ref, "--n-topics", str(config["n_topics"]),
            "--iterations", str(config["iterations"]), "--seed", str(config["seed"]),
            "--out", str(out / "model.tsv"),
        ],
    ]
    for method in ("tm", "tfidf"):
        extract = ["extract-dict", "--method", method, "--corpus", ref, "--n", str(config["n_terms"])]
        if method == "tm":
            extract += ["--model", str(out / "model.tsv")]
        commands.append(extract + ["--out", str(out / f"dict_{method}.tsv")])
    for method in ("tm", "tfidf"):
        for role, corpus in (("reference", ref), ("generic", gen)):
            commands.append([
                "build-cooc", "--corpus", corpus, "--dict", str(out / f"dict_{method}.tsv"),
                "--role", role, "--out", str(out / f"cooc_{role}_{method}.tsv"),
            ])
    for method in ("tm", "tfidf"):
        commands.append([
            "filter-cooc",
            "--reference", str(out / f"cooc_reference_{method}.tsv"),
            "--generic", str(out / f"cooc_generic_{method}.tsv"),
            "--out", str(out / f"cooc_filtered_{method}.tsv"),
        ])
    commands.append([
        "sweep", "--target", tgt,
        "--dict-tm", str(out / "dict_tm.tsv"), "--dict-tfidf", str(out / "dict_tfidf.tsv"),
        "--cooc-tm", str(out / "cooc_filtered_tm.tsv"), "--cooc-tfidf", str(out / "cooc_filtered_tfidf.tsv"),
        "--alphas", config["alphas"], "--k", str(config["k"]), "--out-dir", str(out),
    ])
    commands.append([
        "fuse", "--systems-dir", str(out),
        "--top-m", str(config["top_m"]), "--fraction", str(config["fraction"]),
    ])
    return commands


def _rows(ranked) -> list[tuple[int, str, float]]:
    return [(e.rank, e.doc_id, e.score) for e in ranked.entries]


def unigram_matches(dictsieve, config: dict) -> bool:
    """``<dict>:context:alpha=0`` equals an independent unigram ranking, bit for bit."""
    from dictsieve.cli import system_filename

    out = Path(config["out_dir"])
    target = dictsieve.ingest_corpus(config["target"], role="target")
    scoring = dictsieve.ScoringConfig(slope=config["slope"], mode="unigram")
    for method in ("tm", "tfidf"):
        dictionary = dictsieve.load_dictionary(out / f"dict_{method}.tsv")
        expected = dictsieve.rank_collection(target, dictionary, None, scoring, config["k"])
        swept = dictsieve.load_ranked_list(out / "systems" / system_filename(f"{method}:context:alpha=0"))
        if _rows(expected) != _rows(swept):
            return False
    return True


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    import dictsieve
    import dictsieve.cli as cli

    cli.build_parser()
    import_wall_s = time.perf_counter() - _START

    config = spec["config"]
    chain = spec["chain"]
    pipeline_config = cli.PipelineConfig(**config)
    codes: list[int] = []

    def job() -> None:
        if not chain:
            cli.run_pipeline(pipeline_config)
            return
        Path(config["out_dir"]).mkdir(parents=True)
        for argv in chain_commands(config):
            code = cli.main(argv)
            codes.append(code)
            if code != 0:
                return
        cli.write_manifest(pipeline_config, Path(config["out_dir"]) / "manifest.json")

    loop_before = loop_seconds()
    tracer = None
    if spec["trace"]:
        tracer = Tracer({"cli": cli, "evaluation": dictsieve.evaluation,
                         "retrieval": dictsieve.retrieval, "dictionary": dictsieve.dictionary})
        tracer.install()
        try:
            wall_s = tracer.run(job)
        finally:
            tracer.uninstall()
    else:
        start = time.perf_counter()
        job()
        wall_s = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    loop_after = loop_seconds()

    result = {
        "import_wall_s": import_wall_s,
        "wall_s": wall_s,
        "loop_s": [loop_before, loop_after],
        "peak_rss_kb": peak_rss_kb,
        "codes": codes,
        "package": str(Path(dictsieve.__file__).resolve()),
    }
    if spec["check_unigram"] and all(code == 0 for code in codes):
        result["unigram_ok"] = unigram_matches(dictsieve, config)
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
