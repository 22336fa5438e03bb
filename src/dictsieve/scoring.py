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
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add

import numpy as np

from .cooc import CoocMatrix, check_key_range, position_major, sentence_terms
from .corpus import Corpus, Document, TermStats
from .dictionary import Dictionary

MODES = ("unigram", "context", "context-only")

# floor for tfsim before the log; only binds in context-only mode, where
# cosine-only values may fall below 1
_TFSIM_FLOOR = 1e-9
# 1 + ln 0.36 = -0.0217: a tf at or below this has a non-positive dampened
# factor, so it contributes 0.0 without taking its log
_LOG_FREE = 0.36


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
    ``empty_doc_ids`` and score 0 everywhere.  ``doc_log_avgtf`` and
    ``doc_norm`` hold ln avgtf(d) and norm(d) for the documents ``doc_ids``
    of the collection, in its order (0.0 for a zero-token document), for
    the contribution passes of a sweep.  ``slope`` is the pivot slope they
    were computed at.
    """

    slope: float
    pivot: float
    norm: dict[str, float]
    avgtf: dict[str, float]
    empty_doc_ids: frozenset[str]
    doc_ids: tuple[str, ...]
    doc_log_avgtf: np.ndarray
    doc_norm: np.ndarray

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Each document's position in the sorted order of ``doc_ids``: a
        ranking's tie-break, computed once per collection."""
        return np.argsort(sorted(range(len(self.doc_ids)), key=self.doc_ids.__getitem__))


def compute_norms(target: Corpus, stats: TermStats, config: ScoringConfig) -> CollectionNorms:
    """pivot = mean |U_d|; norm(d) = 1/sqrt((1-slope)*pivot + slope*|U_d|);
    avgtf(d) = |d| / |U_d|.

    |d| and |U_d| are read from ``stats``, which must be counted over the
    target's documents, in its order.  The norms and avgtfs are array
    operations on the exact counts, in the formula's order, and the logs
    are ``math.log``'s, so each value has the bits of the scalar formula.
    """
    ids = tuple(target.coding.ids)
    if stats.doc_ids != ids:
        raise ValueError("term stats were counted over another collection")
    unique = stats.doc_unique
    pivot = int(unique.sum()) / len(ids)
    kept = np.flatnonzero(unique)
    kept_ids = list(map(ids.__getitem__, kept.tolist()))
    kept_norm = 1.0 / np.sqrt((1.0 - config.slope) * pivot + config.slope * unique[kept])
    kept_avgtf = (stats.doc_tokens[kept] / unique[kept]).tolist()
    doc_norm = np.zeros(len(ids))
    doc_norm[kept] = kept_norm
    doc_log_avgtf = np.zeros(len(ids))
    doc_log_avgtf[kept] = list(map(math.log, kept_avgtf))
    norm = dict(zip(kept_ids, kept_norm.tolist()))
    avgtf = dict(zip(kept_ids, kept_avgtf))
    empty = frozenset(ids).difference(kept_ids)
    return CollectionNorms(config.slope, pivot, norm, avgtf, empty, ids, doc_log_avgtf, doc_norm)


def term_contributions(
    tf: np.ndarray, boosts: np.ndarray, offsets: np.ndarray, log_avgtf: np.ndarray, norm: np.ndarray
) -> np.ndarray:
    """Every run's (1 + ln tf) / (1 + ln avgtf) * boost * norm, floored and clamped.

    ``tf`` and ``boosts`` hold one value per run, document i's runs at
    ``offsets[i]:offsets[i + 1]``; ``log_avgtf`` and ``norm`` hold one value
    per document, repeated over its runs.  tf is floored at 1e-9 before the
    log, and a run whose dampened factor 1 + ln tf is not positive
    contributes 0.0, as does every tf <= 0, whose floored factor is
    negative.  Both are no-ops for tf >= 1.  The logs are ``math.log``'s
    (``np.log`` differs in the last bit on some doubles) and the operations
    run in the formula's order, so every value has the bits of the scalar
    formula, and equal tf values give equal contributions in every mode.
    ``math.log`` is called once per distinct whole tf, found with
    ``np.unique`` (every tf at alpha = 0, and every run without context at
    any alpha), and once per other tf above ``_LOG_FREE``; a tf at or below
    it contributes 0.0 without a log.
    """
    lengths = np.diff(offsets)
    floored = np.where(tf > _TFSIM_FLOOR, tf, _TFSIM_FLOOR)
    # a factor that stays -1.0 contributes 0.0, as its log would give it
    dampened = np.full(len(floored), -1.0)
    whole = floored == np.floor(floored)
    distinct, index = np.unique(floored[whole], return_inverse=True)
    dampened[whole] = 1.0 + np.fromiter(map(math.log, distinct.tolist()), np.float64, len(distinct))[index]
    rest = np.flatnonzero(~whole & (floored > _LOG_FREE))
    dampened[rest] = 1.0 + np.fromiter(map(math.log, floored[rest].tolist()), np.float64, len(rest))
    values = dampened / np.repeat(1.0 + log_avgtf, lengths) * boosts * np.repeat(norm, lengths)
    values[dampened <= 0.0] = 0.0
    return values


def _term_contribution(tf_value: float, log_avgtf: float, boost: float, norm: float) -> float:
    """One run's ``term_contributions``."""
    tf, boosts, log_avgtf, norm = (np.array([float(x)]) for x in (tf_value, boost, log_avgtf, norm))
    return float(term_contributions(tf, boosts, np.array([0, 1]), log_avgtf, norm)[0])


def _entry_contributions(q: Dictionary, d: Document, norms: CollectionNorms, tf_values: list[float]) -> list[float]:
    """The term contributions of d's tf value for every dictionary entry, in
    dictionary order, from ``term_contributions`` over d alone."""
    offsets = np.array([0, len(q)])
    log_avgtf, norm = np.array([math.log(norms.avgtf[d.id])]), np.array([norms.norm[d.id]])
    return term_contributions(np.array(tf_values, dtype=np.float64), q.boosts, offsets, log_avgtf, norm).tolist()


def _total(contributions) -> float:
    """Add the contributions left to right from 0.0 (``sum`` compensates
    float rounding from Python 3.12 on)."""
    return float(reduce(add, contributions, 0.0))


def score_dict(q: Dictionary, d: Document, stats: TermStats, norms: CollectionNorms) -> float:
    """Unigram dictionary score over the document's raw term frequencies."""
    if d.id in norms.empty_doc_ids:
        return 0.0
    tf = stats.tf_doc[d.id]
    return _total(_entry_contributions(q, d, norms, [tf.get(entry.term, 0) for entry in q.entries]))


@dataclass(frozen=True)
class SentenceFeatures:
    """The alpha-free part of tfsim for a sequence of documents.

    A run is one matrix term present in one document.  The runs are ordered
    by document, then by the term's matrix position: document i holds runs
    ``offsets[i]:offsets[i + 1]``, and run r is the term at matrix position
    ``terms[r]`` with ``lengths[r]`` rows.  The rows of the runs follow one
    another in ``counts`` and ``cosines``, one per sentence containing the
    term, in sentence order: the term's count in the sentence and the cosine
    between the sentence's binary dictionary-term vector and the term's
    filtered co-occurrence profile.  A cosine that is undefined (an empty
    profile, or no profile partner in the sentence) is stored as 0.0, which
    adds exactly nothing for any finite alpha.  The rows' summing order,
    ``schedule``, is built on first use and kept, so the systems of a sweep
    that share the features share it too.
    """

    offsets: np.ndarray
    terms: np.ndarray
    lengths: np.ndarray
    counts: np.ndarray
    cosines: np.ndarray

    @cached_property
    def schedule(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The steps of ``tfsim_runs``: at step p, the runs with more than p
        rows and the index of each one's p-th row."""
        start = np.cumsum(self.lengths) - self.lengths
        return [(alive, start[alive] + p) for p, alive in position_major(self.lengths)]


def sentence_features(corpus: Corpus, cooc_filtered: CoocMatrix) -> SentenceFeatures:
    """One pass over every sentence of ``corpus``: the (count, cosine) row
    of every matrix term in every sentence that contains it.

    Tokens are coded by lexicographic rank, so pairs of sentence terms are
    looked up by the matrix's own keys.  A term's dot product with a sentence
    adds its Dice value with each distinct matrix term of the sentence, left
    to right in order of first occurrence, as the replaced loop did.
    """
    n = len(cooc_filtered.terms)
    n_documents = len(corpus)
    document_starts = corpus.coding.document_starts
    check_key_range(n, int(document_starts[-1]))
    lexicon = cooc_filtered.lexicon
    # entries (sentence, term rank, count): in sentence order, then in
    # first-occurrence order
    entry_sentence, entry_rank, entry_count, first = sentence_terms(corpus, lexicon)
    order = np.argsort(first)
    entry_sentence, entry_rank, entry_count = entry_sentence[order], entry_rank[order], entry_count[order]
    del first, order

    n_present = np.bincount(entry_sentence)
    width = n_present[entry_sentence]
    start = (np.cumsum(n_present) - n_present)[entry_sentence]
    # step p adds the Dice value of the sentence's p-th distinct term
    dot = np.zeros(len(entry_rank))
    for p, alive in position_major(width):
        term, other = entry_rank[alive], entry_rank[start[alive] + p]
        dot[alive] += cooc_filtered.lookup(np.minimum(term, other) * n + np.maximum(term, other))
    col_norm = np.fromiter(map(cooc_filtered.norms.__getitem__, lexicon), dtype=np.float64, count=n)[entry_rank]
    defined = np.flatnonzero((dot != 0.0) & (col_norm != 0.0))
    cosines = np.zeros(len(dot))
    cosines[defined] = dot[defined] / (np.sqrt(width[defined]) * col_norm[defined])
    del n_present, width, start, dot, col_norm, defined

    # rows by (document, term position, sentence), the ranks mapped back to
    # positions; lexsort is stable and the entries are in sentence order
    entry_term = np.fromiter(map(cooc_filtered.position, lexicon), dtype=np.int64, count=n)[entry_rank]
    entry_document = np.searchsorted(document_starts[1:], entry_sentence, side="right")
    order = np.lexsort((entry_term, entry_document))
    row_term = entry_term[order]
    row_document = entry_document[order]
    run_head = np.flatnonzero((np.diff(row_term, prepend=-1) != 0) | (np.diff(row_document, prepend=-1) != 0))
    offsets = np.zeros(n_documents + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_document[run_head], minlength=n_documents), out=offsets[1:])
    return SentenceFeatures(
        offsets=offsets,
        terms=row_term[run_head],
        lengths=np.diff(run_head, append=len(order)),
        counts=entry_count[order].astype(np.float64),
        cosines=cosines[order],
    )


def tfsim_runs(features: SentenceFeatures, config: ScoringConfig) -> np.ndarray:
    """Every run's tfsim: each of its sentences adds its count (none in
    context-only mode) plus alpha times its cosine, the sentences summed one
    by one in sentence order."""
    if config.mode == "context-only":
        values = 0.0 + config.alpha * features.cosines
    else:
        values = features.counts + config.alpha * features.cosines
    totals = np.zeros(len(features.lengths))
    for alive, rows in features.schedule:
        totals[alive] += values[rows]
    return totals


def _document_tfsim(d: Document, cooc_filtered: CoocMatrix, config: ScoringConfig) -> dict[str, float]:
    """term -> tfsim for every matrix term in ``d``."""
    features = sentence_features(Corpus([d], "target"), cooc_filtered)
    terms = map(cooc_filtered.terms.__getitem__, features.terms.tolist())
    return dict(zip(terms, tfsim_runs(features, config).tolist()))


def tfsim(term: str, d: Document, cooc_filtered: CoocMatrix, config: ScoringConfig) -> float:
    """Context-aware replacement for tf(w,d).

    Sums, over sentences containing the term, the in-sentence frequency plus
    alpha times the context similarity.  With alpha = 0 this is exactly
    tf(w,d); in context-only mode the frequency term is dropped.
    """
    if term not in cooc_filtered:
        raise ValueError(f"term {term!r} not in dictionary")
    return _document_tfsim(d, cooc_filtered, config).get(term, 0.0)


def score_context(
    q: Dictionary,
    d: Document,
    cooc_filtered: CoocMatrix,
    norms: CollectionNorms,
    config: ScoringConfig,
    contributions: list[float] | None = None,
) -> float:
    """Context-sensitive score: the unigram formula with tf replaced by tfsim.

    The score adds d's term contributions left to right.  ``contributions``
    are those floats in dictionary order, d's slice of the contribution
    pass that ``rank_collection`` makes over the whole target; they are
    computed here from ``d`` alone otherwise.  A non-empty slice is added
    at once: it holds a run, a dictionary term present in d, so d has
    tokens.  A zero-token document scores 0.0.
    """
    if contributions:
        return reduce(add, contributions, 0.0)
    if d.id in norms.empty_doc_ids:
        return 0.0
    if contributions is None:
        tf = _document_tfsim(d, cooc_filtered, config)
        contributions = _entry_contributions(q, d, norms, [tf.get(entry.term, 0.0) for entry in q.entries])
    return _total(contributions)
