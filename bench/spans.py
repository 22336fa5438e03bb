"""Span tracing of dictsieve from outside the package.

The traced run rebinds public names in the ``dictsieve.cli``,
``dictsieve.evaluation``, ``dictsieve.retrieval`` and
``dictsieve.dictionary`` namespaces, which is where the pipeline looks them
up, to wrappers that record a span (name, start, end, parent) per call.
Spans stay in memory until the job ends.  Counters that need extra work
(summing tokens, reading a file size) run after the wrapped call inside a
``trace.count`` span of their own, so their cost is excluded from every
layer's self time and shows only in the tracing overhead.

The program is single-threaded and in-process, so one stack gives each
span its parent, and no layer ever waits on another.
"""

from __future__ import annotations

import os
import time

ROOT = "job"
COUNT = "trace.count"


def _corpus_tokens(corpus) -> int:
    return sum(doc.token_count for doc in corpus.documents)


def _count_ingest(args, result):
    return {"corpus.tokens": _corpus_tokens(result), "corpus.ingest_bytes": os.path.getsize(args[0])}


def _count_fit(args, result):
    return {"topics.token_visits": result.iterations * _corpus_tokens(args[0])}


def _count_build(args, result):
    return {"cooc.sentences": sum(len(doc.sentences) for doc in args[0].documents)}


def _count_filter(args, result):
    return {"cooc.pairs_raw": len(args[0].values), "cooc.pairs_kept": len(result.values)}


def _count_cooc_save(args, result):
    return {"cooc.io_bytes": os.path.getsize(args[1])}


def _count_cooc_load(args, result):
    return {"cooc.io_bytes": os.path.getsize(args[0])}


def _count_score(args, result):
    return {"scoring.nonzero": int(result > 0.0)}


def _count_fuse(args, result):
    rels = result.pseudorels
    return {"evaluation.pool_size": len(rels.candidate_pool), "evaluation.pseudorels": len(rels)}


# (module, name, layer, counter, stage-chain only).  The span name is
# "<module>.<name>".  Loaders run only on the stage-chain path, because
# run_pipeline hands artifacts between stages in memory.
WRAPPED = (
    ("cli", "ingest_corpus", "corpus", _count_ingest, False),
    ("cli", "export_corpus", "corpus", None, False),
    ("cli", "term_stats", "corpus", None, False),
    ("evaluation", "term_stats", "corpus", None, False),
    ("dictionary", "term_stats", "corpus", None, False),
    ("cli", "fit_lda", "topics", _count_fit, False),
    ("cli", "save_model", "topics", None, False),
    ("cli", "load_model", "topics", None, True),
    ("cli", "extract_dictionary_tm", "dictionary", None, False),
    ("cli", "extract_dictionary_tfidf", "dictionary", None, False),
    ("cli", "save_dictionary", "dictionary", None, False),
    ("cli", "load_dictionary", "dictionary", None, True),
    ("cli", "build_cooc", "cooc", _count_build, False),
    ("cli", "filter_cooc", "cooc", _count_filter, False),
    ("cli", "save_cooc", "cooc", _count_cooc_save, False),
    ("cli", "load_cooc", "cooc", _count_cooc_load, True),
    ("retrieval", "score_context", "scoring", _count_score, False),
    ("evaluation", "compute_norms", "scoring", None, False),
    ("evaluation", "rank_collection", "retrieval", None, False),
    ("cli", "save_ranked_list", "retrieval", None, False),
    ("cli", "load_ranked_list", "retrieval", None, True),
    ("cli", "generate_sweep", "evaluation", None, False),
    ("cli", "evaluate_sweep", "evaluation", _count_fuse, False),
    ("cli", "write_manifest", "cli", None, False),
)

LAYERS = {f"{module}.{name}": layer for module, name, layer, _, _ in WRAPPED}
LAYERS[ROOT] = "cli"
LAYERS[COUNT] = "trace"


def expected_spans(chain: bool) -> list[str]:
    """Span names that must record at least one call in a traced job."""
    return [f"{module}.{name}" for module, name, _, _, chain_only in WRAPPED if chain or not chain_only]


class Tracer:
    """Records spans as (name, start, end, parent index); index 0 is the job."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list = [None]
        self.counts: dict[str, int] = {}
        self._stack = [0]
        self._saved: list = []

    def install(self) -> None:
        for module_name, name, _, counter, _ in WRAPPED:
            module = self.modules[module_name]
            original = getattr(module, name, None)
            if original is None:  # moved or renamed: the zero-call check reports it
                continue
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(original, f"{module_name}.{name}", counter))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def run(self, job):
        """Run ``job()`` as the root span and return its wall time."""
        start = time.perf_counter()
        try:
            job()
        finally:
            end = time.perf_counter()
            self.spans[0] = (ROOT, start, end, -1)
        return end - start

    def _wrap(self, fn, span_name, counter):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_name, start, end, parent)
            if counter is not None:
                count_start = clock()
                for key, value in counter(args, result).items():
                    counts[key] = counts.get(key, 0) + value
                spans.append((COUNT, count_start, clock(), parent))
            return result

        return traced


def summarize(spans: list, scale: float) -> dict[str, dict[str, float]]:
    """Calls, total time and self time per span name, times multiplied by
    ``scale``.

    Self time is a span's duration minus the time its direct children
    cover; children never overlap, since the program is single-threaded.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for (name, start, end, _), child_time in zip(spans, covered):
        row = table.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += (end - start) * scale
        row["self"] += (end - start - child_time) * scale
    return table


def layer_self_times(table: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, row in table.items():
        layer = LAYERS[name]
        out[layer] = out.get(layer, 0.0) + row["self"]
    return out


def layer_metrics(table: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced job, by the names BENCHMARK.json uses.

    Call only once every expected span has been seen: rates divide by the
    counters those spans record.
    """

    def total(*names):
        return sum(table[n]["total"] for n in names if n in table)

    def self_time(*names):
        return sum(table[n]["self"] for n in names if n in table)

    ingest_s = total("cli.ingest_corpus")
    fit_s = total("cli.fit_lda")
    build_s = total("cli.build_cooc")
    score_s = self_time("retrieval.score_context")
    score_calls = table["retrieval.score_context"]["calls"]
    return {
        "corpus.ingest_s": ingest_s,
        "corpus.ingest_mb_per_s": counts["corpus.ingest_bytes"] / 1e6 / ingest_s,
        "corpus.export_s": total("cli.export_corpus"),
        "corpus.term_stats_s": total("cli.term_stats", "evaluation.term_stats", "dictionary.term_stats"),
        "corpus.tokens": counts["corpus.tokens"],
        "topics.fit_s": fit_s,
        "topics.us_per_token_visit": 1e6 * fit_s / counts["topics.token_visits"],
        "topics.token_visits": counts["topics.token_visits"],
        "topics.model_io_s": total("cli.save_model", "cli.load_model"),
        "dictionary.extract_s": self_time("cli.extract_dictionary_tm", "cli.extract_dictionary_tfidf"),
        "dictionary.io_s": total("cli.save_dictionary", "cli.load_dictionary"),
        "cooc.build_s": build_s,
        "cooc.us_per_sentence": 1e6 * build_s / counts["cooc.sentences"],
        "cooc.sentences": counts["cooc.sentences"],
        "cooc.filter_s": total("cli.filter_cooc"),
        "cooc.pairs_raw": counts["cooc.pairs_raw"],
        "cooc.pairs_kept": counts["cooc.pairs_kept"],
        "cooc.kept_ratio": counts["cooc.pairs_kept"] / counts["cooc.pairs_raw"],
        "cooc.io_s": total("cli.save_cooc", "cli.load_cooc"),
        "cooc.io_mb": counts["cooc.io_bytes"] / 1e6,
        "scoring.score_s": score_s,
        "scoring.us_per_doc_system": 1e6 * score_s / score_calls,
        "scoring.calls": score_calls,
        "scoring.norms_s": total("evaluation.compute_norms"),
        "retrieval.rank_self_s": self_time("evaluation.rank_collection"),
        "retrieval.rankings": table["evaluation.rank_collection"]["calls"],
        "retrieval.nonzero_ratio": counts["scoring.nonzero"] / score_calls,
        "retrieval.list_io_s": total("cli.save_ranked_list", "cli.load_ranked_list"),
        "evaluation.sweep_s": total("cli.generate_sweep"),
        "evaluation.sweep_self_s": self_time("cli.generate_sweep"),
        "evaluation.fuse_s": total("cli.evaluate_sweep"),
        "evaluation.pool_size": counts["evaluation.pool_size"],
        "evaluation.pseudorels": counts["evaluation.pseudorels"],
        "cli.self_s": self_time(ROOT),
        "cli.manifest_s": total("cli.write_manifest"),
    }
