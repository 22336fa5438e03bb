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
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import islice, repeat

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
        # sentence features store an undefined cosine as 0.0, which only an
        # infinite alpha would turn into NaN
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be >= 0 and finite, got {self.alpha}")
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


def _score(q: Dictionary, d: Document, norms: CollectionNorms, tf_items) -> float:
    """Sum the term contributions of ``tf_items``, pairs (dictionary entry,
    term frequency) in dictionary order; terms absent from them contribute 0."""
    if len(q) == 0:
        raise ValueError("dictionary is empty")
    if d.id in norms.empty_doc_ids:
        return 0.0
    log_avgtf = math.log(norms.avgtf[d.id])
    norm = norms.norm[d.id]
    score = 0.0
    for entry, tf_value in tf_items:
        if tf_value > 0:
            score += _term_contribution(float(tf_value), log_avgtf, entry.boost, norm)
    return score


def score_dict(q: Dictionary, d: Document, stats: TermStats, norms: CollectionNorms) -> float:
    """Unigram dictionary score over the document's raw term frequencies."""
    tf = stats.tf_doc[d.id]
    return _score(q, d, norms, ((entry, tf.get(entry.term, 0)) for entry in q.entries))


@dataclass(frozen=True)
class SentenceFeatures:
    """The alpha-free part of tfsim for one document.

    For each matrix term present in the document, in the matrix's term
    order, ``lengths`` gives its number of rows; the rows follow one another
    in ``counts`` and ``cosines``, one per sentence containing the term, in
    sentence order: the term's count in the sentence and the cosine between
    the sentence's binary dictionary-term vector and the term's filtered
    co-occurrence profile.  A cosine that is undefined (an empty profile, or
    no profile partner in the sentence) is stored as 0.0, which adds exactly
    nothing for any finite alpha.
    """

    terms: tuple[str, ...]
    lengths: tuple[int, ...]
    counts: array
    cosines: array


def sentence_features(d: Document, cooc_filtered: CoocMatrix) -> SentenceFeatures:
    """One pass over the sentences of ``d``: the (count, cosine) row of every
    matrix term in every sentence that contains it."""
    profiles = cooc_filtered.profiles
    profile_norms = cooc_filtered.norms
    rows: dict[str, list[tuple[int, float]]] = {}
    for sentence in d.sentences:
        present = Counter(filter(profiles.__contains__, sentence))
        s_norm = math.sqrt(len(present))
        for term, count in present.items():
            profile = profiles[term]
            dot = sum(profile.get(other, 0.0) for other in present)
            col_norm = profile_norms[term]
            cos = dot / (s_norm * col_norm) if dot != 0.0 and col_norm != 0.0 else 0.0
            rows.setdefault(term, []).append((count, cos))
    terms = tuple(sorted(rows, key=cooc_filtered.position))
    counts = array("d")
    cosines = array("d")
    for term in terms:
        for count, cos in rows[term]:
            counts.append(count)
            cosines.append(cos)
    return SentenceFeatures(terms, tuple(len(rows[term]) for term in terms), counts, cosines)


def _replay(features: SentenceFeatures, config: ScoringConfig):
    """Yield (term, tfsim) in the features' term order.  Each sentence adds
    its count (none in context-only mode) plus alpha times its cosine, and
    the sentences are summed one by one in sentence order."""
    alpha = config.alpha
    counts = features.counts if config.mode != "context-only" else repeat(0.0)
    rows = zip(counts, features.cosines)
    for term, length in zip(features.terms, features.lengths):
        total = 0.0
        for count, cos in islice(rows, length):
            total += count + alpha * cos
        yield term, total


def tfsim(term: str, d: Document, cooc_filtered: CoocMatrix, config: ScoringConfig) -> float:
    """Context-aware replacement for tf(w,d).

    Sums, over sentences containing the term, the in-sentence frequency plus
    alpha times the context similarity.  With alpha = 0 this is exactly
    tf(w,d); in context-only mode the frequency term is dropped.
    """
    if term not in cooc_filtered:
        raise ValueError(f"term {term!r} not in dictionary")
    return dict(_replay(sentence_features(d, cooc_filtered), config)).get(term, 0.0)


def score_context(
    q: Dictionary,
    d: Document,
    cooc_filtered: CoocMatrix,
    norms: CollectionNorms,
    config: ScoringConfig,
    features: SentenceFeatures | None = None,
) -> float:
    """Context-sensitive score: the unigram formula with tf replaced by tfsim.

    ``features`` are ``sentence_features(d, cooc_filtered)``, passed in to
    share them across the systems of a sweep and computed here otherwise.
    """
    if features is None:
        features = sentence_features(d, cooc_filtered)
    index = q.index
    tf_items = ((index[term], value) for term, value in _replay(features, config) if term in index)
    return _score(q, d, norms, tf_items)
