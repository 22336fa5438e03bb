"""Per-document relevance scoring.

The unigram score sums, over dictionary terms present in a document, a
dampened term frequency relative to the document's average unique-term
frequency, weighted by the term's rank boost and by pivoted unique
normalization over the collection.  The context-sensitive score swaps raw
term frequency for tfsim, which rewards sentences whose dictionary-term
context resembles the term's filtered co-occurrence profile, mixed in by
the weight alpha.  With alpha = 0 the two scores coincide exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .cooc import CoocMatrix
from .corpus import Corpus, Document, TermStats
from .dictionary import Dictionary

MODES = ("unigram", "context", "context-only")

# floor for tfsim before the log; only binds in context-only mode, where
# cosine-only values may fall below 1
_TFSIM_FLOOR = 1e-9


@dataclass(frozen=True)
class ScoringConfig:
    slope: float = 0.7
    alpha: float = 0.0
    mode: str = "unigram"

    def __post_init__(self) -> None:
        if not 0.0 <= self.slope <= 1.0:
            raise ValueError(f"slope must be in [0, 1], got {self.slope}")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if self.mode == "context-only":
            object.__setattr__(self, "alpha", 1.0)


@dataclass
class CollectionNorms:
    """Pivoted unique normalization and average term frequency per document.

    Zero-token documents have no defined norm or avgtf; they are flagged in
    ``empty_doc_ids`` and score 0 everywhere.
    """

    pivot: float
    norm: dict[str, float]
    avgtf: dict[str, float]
    empty_doc_ids: frozenset[str]


def compute_norms(target: Corpus, stats: TermStats, config: ScoringConfig) -> CollectionNorms:
    """pivot = mean |U_d|; norm(d) = 1/sqrt((1-slope)*pivot + slope*|U_d|)."""
    if not target.documents:
        raise ValueError("cannot compute norms of an empty corpus")
    unique_counts = {doc.id: len(stats.tf_doc[doc.id]) for doc in target.documents}
    pivot = sum(unique_counts.values()) / len(target.documents)
    norm: dict[str, float] = {}
    avgtf: dict[str, float] = {}
    empty = set()
    for doc in target.documents:
        n_unique = unique_counts[doc.id]
        if n_unique == 0:
            empty.add(doc.id)
            continue
        norm[doc.id] = 1.0 / math.sqrt((1.0 - config.slope) * pivot + config.slope * n_unique)
        avgtf[doc.id] = sum(stats.tf_doc[doc.id].values()) / n_unique
    return CollectionNorms(pivot=pivot, norm=norm, avgtf=avgtf, empty_doc_ids=frozenset(empty))


def _term_contribution(tf_value: float, log_avgtf: float, boost: float, norm: float) -> float:
    """(1 + ln tf) / (1 + ln avgtf) * boost * norm, floored and clamped.

    Shared by the unigram and context paths so that equal tf values produce
    bit-identical scores.  The floor and clamp are no-ops for tf >= 1.
    """
    tf_value = max(tf_value, _TFSIM_FLOOR)
    return max(0.0, 1.0 + math.log(tf_value)) / (1.0 + log_avgtf) * boost * norm


def _score(q: Dictionary, d: Document, norms: CollectionNorms, tf: dict[str, float]) -> float:
    """Sum the term contributions of the dictionary entries in dictionary
    order, reading each term's frequency from the mapping ``tf``; terms
    absent from it contribute 0."""
    if len(q) == 0:
        raise ValueError("dictionary is empty")
    if d.id in norms.empty_doc_ids:
        return 0.0
    log_avgtf = math.log(norms.avgtf[d.id])
    norm = norms.norm[d.id]
    score = 0.0
    for entry in q.entries:
        tf_value = tf.get(entry.term, 0)
        if tf_value > 0:
            score += _term_contribution(float(tf_value), log_avgtf, entry.boost, norm)
    return score


def score_dict(q: Dictionary, d: Document, stats: TermStats, norms: CollectionNorms) -> float:
    """Unigram dictionary score over the document's raw term frequencies."""
    return _score(q, d, norms, stats.tf_doc[d.id])


def _tfsim_all(d: Document, cooc_filtered: CoocMatrix, config: ScoringConfig) -> dict[str, float]:
    """tfsim of every dictionary term present in ``d``, in one pass over its
    sentences.  The context similarity is the cosine between the sentence's
    binary dictionary-term vector and the term's filtered co-occurrence
    profile, 0 when either vector is zero."""
    profiles = cooc_filtered.profiles
    profile_norms = cooc_filtered.norms
    with_tf = config.mode != "context-only"
    alpha = config.alpha
    sim: dict[str, float] = {}
    for sentence in d.sentences:
        present = Counter(filter(profiles.__contains__, sentence))
        s_norm = math.sqrt(len(present))
        for term, count in present.items():
            value = float(count) if with_tf else 0.0
            if alpha > 0.0:
                profile = profiles[term]
                dot = sum(profile.get(other, 0.0) for other in present)
                col_norm = profile_norms[term]
                if dot != 0.0 and col_norm != 0.0:
                    value += alpha * (dot / (s_norm * col_norm))
            sim[term] = sim.get(term, 0.0) + value
    return sim


def tfsim(term: str, d: Document, cooc_filtered: CoocMatrix, config: ScoringConfig) -> float:
    """Context-aware replacement for tf(w,d).

    Sums, over sentences containing the term, the in-sentence frequency plus
    alpha times the context similarity.  With alpha = 0 this is exactly
    tf(w,d); in context-only mode the frequency term is dropped.
    """
    if term not in cooc_filtered:
        raise ValueError(f"term {term!r} not in dictionary")
    return _tfsim_all(d, cooc_filtered, config).get(term, 0.0)


def score_context(
    q: Dictionary,
    d: Document,
    cooc_filtered: CoocMatrix,
    norms: CollectionNorms,
    config: ScoringConfig,
) -> float:
    """Context-sensitive score: the unigram formula with tf replaced by tfsim."""
    return _score(q, d, norms, _tfsim_all(d, cooc_filtered, config))
