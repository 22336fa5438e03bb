"""Ranking a target collection against a contextualized dictionary."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cooc import CoocMatrix
from .corpus import Corpus, check_doc_id, open_text, read_rows, term_stats, write_rows
from .dictionary import Dictionary
from .scoring import (
    CollectionNorms,
    ScoringConfig,
    SentenceFeatures,
    compute_norms,
    score_context,
    sentence_features,
    term_contributions,
    tfsim_runs,
)


def format_alpha(alpha: float) -> str:
    if alpha == int(alpha):
        return str(int(alpha))
    return repr(alpha)


def make_system_id(dictionary: Dictionary, config: ScoringConfig) -> str:
    """`<dict>:<mode>:alpha=<value>`, e.g. `tm:context:alpha=14`."""
    return f"{dictionary.method_label}:{config.mode}:alpha={format_alpha(config.alpha)}"


class RankedEntry(NamedTuple):
    """One document of a ranked list, an immutable tuple built by keyword or
    by position, in field order."""

    doc_id: str
    score: float
    rank: int


@dataclass
class RankedList:
    """Per-system ranked retrieval result; scores non-increasing, ranks 1..m."""

    system_id: str
    entries: list[RankedEntry]
    _rank_by_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if [e.rank for e in self.entries] != list(range(1, len(self.entries) + 1)):
            raise ValueError("ranks must run 1..m in list order")
        self._rank_by_id = {e.doc_id: e.rank for e in self.entries}
        if len(self._rank_by_id) != len(self.entries):
            raise ValueError("duplicate doc ids in ranked list")

    @property
    def m(self) -> int:
        """Number of ranked entries (may be below the requested k)."""
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def rank_of(self, doc_id: str) -> int | None:
        return self._rank_by_id.get(doc_id)

    def doc_ids(self) -> list[str]:
        return [e.doc_id for e in self.entries]


def check_matrix(dictionary: Dictionary, cooc_filtered: CoocMatrix | None, mode: str) -> None:
    """A context mode needs a co-occurrence matrix built for ``dictionary``."""
    if mode != "unigram":
        if cooc_filtered is None:
            raise ValueError(f"co-occurrence matrix required for mode {mode!r}")
        if cooc_filtered.terms != dictionary.terms:
            raise ValueError("co-occurrence matrix terms do not match the dictionary terms")


def rank_collection(
    target: Corpus,
    dictionary: Dictionary,
    cooc_filtered: CoocMatrix | None,
    config: ScoringConfig,
    k: int,
    norms: CollectionNorms | None = None,
    features: SentenceFeatures | None = None,
) -> RankedList:
    """Score every target document and keep the top min(k, m) of them.

    Zero-score documents are dropped rather than padded, so the list length
    m reflects actual matches.  Ties break by doc id, in code-point order
    (``norms.id_rank``), which makes ranking idempotent and gives shorter
    runs the k-prefix property.  ``norms`` and the target's
    ``sentence_features`` may be passed in to share work across systems of
    a sweep; the norms must be of the target's documents, in its order, at
    ``config``'s slope.  Every mode makes one tfsim pass and one
    contribution pass over the features, and scores each document by adding
    its slice of the contributions; unigram mode ignores ``features`` and
    runs the passes over a matrix without pairs.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    check_matrix(dictionary, cooc_filtered, config.mode)
    if norms is None:
        norms = compute_norms(target, term_stats(target), config)
    elif norms.doc_ids != tuple(target.coding.ids):
        raise ValueError("norms were computed over another collection")
    elif norms.slope != config.slope:
        raise ValueError(f"norms were computed at slope {norms.slope!r}, not at {config.slope!r}")

    if config.mode == "unigram":
        # no pairs: every cosine is 0.0, so a run's tfsim is its raw count
        cooc_filtered, features = CoocMatrix(dictionary.terms, np.empty(0, np.int64), np.empty(0), "filtered"), None
    if features is None:
        features = sentence_features(target, cooc_filtered)
    # the matrix terms are the dictionary terms, so a run's term position
    # is its dictionary entry's index
    boosts = dictionary.boosts[features.terms]
    contributions = term_contributions(
        tfsim_runs(features, config), boosts, features.offsets, norms.doc_log_avgtf, norms.doc_norm
    ).tolist()
    bounds = features.offsets.tolist()
    scores = np.array([
        score_context(dictionary, doc, cooc_filtered, norms, config, contributions[a:b])
        for doc, a, b in zip(target.documents, bounds, bounds[1:])
    ])
    # by score descending, then doc id; only positive scores are listed
    order = np.lexsort((norms.id_rank, -scores))
    order = order[scores[order] > 0.0][:k]
    doc_ids = map(norms.doc_ids.__getitem__, order.tolist())
    entries = list(map(RankedEntry, doc_ids, scores[order].tolist(), range(1, len(order) + 1)))
    return RankedList(system_id=make_system_id(dictionary, config), entries=entries)


def save_ranked_list(ranked: RankedList, path) -> None:
    """TSV `rank<TAB>doc_id<TAB>score` with the system id in a header comment."""
    rows = ((rank, doc_id, score) for doc_id, score, rank in ranked.entries)
    write_rows(path, rows, f"# system_id={ranked.system_id}\n")


def load_ranked_list(path) -> RankedList:
    """Read a list written by ``save_ranked_list``.

    Every line must hold 3 fields: ranks run 1..m in file order, scores are
    finite, positive and non-increasing, and each doc id is one that ingest
    accepts and appears once; a violation is reported as ``path:line``.
    """
    with open_text(path) as stream:
        header = stream.readline().rstrip("\n")
        if not header.startswith("# system_id="):
            raise ValueError(f"not a ranked list file: {path}")
        system_id = header[len("# system_id=") :]
        entries: list[RankedEntry] = []
        seen = set()
        for lineno, (rank_text, doc_id, score_text) in read_rows(stream, path, 3, 2):
            try:
                rank, score = int(rank_text), float(score_text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: rank and score must be numbers") from None
            if rank != len(entries) + 1:
                raise ValueError(f"{path}:{lineno}: rank {rank} is out of order, expected {len(entries) + 1}")
            if not math.isfinite(score):
                raise ValueError(f"{path}:{lineno}: score {score_text!r} is not finite")
            # ``rank_collection`` drops every document that scores 0
            if score <= 0.0:
                raise ValueError(f"{path}:{lineno}: score {score_text!r} is not positive")
            if entries and score > entries[-1].score:
                raise ValueError(f"{path}:{lineno}: score {score_text} is above the score of rank {rank - 1}")
            check_doc_id(doc_id, f"{path}:{lineno}")
            if doc_id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate doc id {doc_id!r}")
            seen.add(doc_id)
            entries.append(RankedEntry(doc_id=doc_id, score=score, rank=rank))
    return RankedList(system_id=system_id, entries=entries)
