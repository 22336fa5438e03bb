"""Ranked dictionary extraction and retrieval boost factors.

Two extraction routes: topic-model weights (log term frequency times the
summed per-topic word probabilities of the retained topics) and a plain
tf-idf baseline over the reference collection.  Either way the result is a
ranked list of N terms where rank feeds the boost factor 1/sqrt(rank).
Natural log throughout; ties in every ranking break lexicographically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, TermStats, field_error, open_text, read_header, read_rows, term_stats, write_rows
from .topics import TopicModelResult

METHOD_TOPIC_MODEL = "topic-model"
METHOD_TFIDF = "tfidf"

# short labels used in system ids
METHOD_LABELS = {METHOD_TOPIC_MODEL: "tm", METHOD_TFIDF: "tfidf"}


def boost(rank: int) -> float:
    """Rank-derived boost in (0, 1]: the head of the dictionary matters most,
    terms near the tail are of near-equal importance."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    return 1.0 / math.sqrt(rank)


@dataclass(frozen=True)
class DictionaryEntry:
    term: str
    weight: float
    rank: int
    boost: float


def _entry_error(entry: DictionaryEntry, rank: int, seen: set[str]) -> str | None:
    """Why ``entry`` cannot be entry ``rank`` of a dictionary whose earlier
    entries hold the terms ``seen``, or None, ``entry.term`` then added to
    ``seen``: the rule of ``load_dictionary``'s entry lines."""
    if entry.rank != rank:
        return f"rank {entry.rank} is out of order, expected {rank}"
    if not (math.isfinite(entry.weight) and math.isfinite(entry.boost)):
        return "weight and boost must be finite"
    if entry.boost != boost(rank):
        return f"boost {entry.boost!r} is not 1/sqrt({rank}) = {boost(rank)!r}"
    if (error := field_error("term", entry.term)) is not None:
        return error
    if entry.term in seen:
        return f"duplicate term {entry.term!r}"
    seen.add(entry.term)
    return None


@dataclass
class Dictionary:
    """Ordered dictionary of ranked terms with weights and boost factors.

    Building one that ``load_dictionary`` would reject (an unknown method,
    no entries, or an entry that ``_entry_error`` rejects) raises."""

    entries: list[DictionaryEntry]
    method: str
    terms: tuple[str, ...] = field(init=False, repr=False)
    boosts: np.ndarray = field(init=False, repr=False, compare=False)
    _index: dict[str, DictionaryEntry] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.method not in METHOD_LABELS:
            raise ValueError(f"unknown dictionary method {self.method!r}")
        if not self.entries:
            raise ValueError("dictionary has no entries")
        seen: set[str] = set()
        for rank, entry in enumerate(self.entries, start=1):
            if (error := _entry_error(entry, rank, seen)) is not None:
                raise ValueError(f"dictionary entry {rank}: {error}")
        self.terms = tuple(e.term for e in self.entries)
        self.boosts = np.array([e.boost for e in self.entries])
        self._index = dict(zip(self.terms, self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, term: str) -> bool:
        return term in self._index

    def __iter__(self):
        return iter(self.entries)

    def entry(self, term: str) -> DictionaryEntry:
        return self._index[term]

    @property
    def method_label(self) -> str:
        return METHOD_LABELS[self.method]


def _term_weights(model: TopicModelResult, columns, tf_values: list[int]) -> np.ndarray:
    """ln(tf(w)) times the summed p(w|topic) over non-excluded topics, for
    the vocabulary columns ``columns`` with frequencies ``tf_values``.  The
    retained topics' rows are added one by one in topic order."""
    prob_sum = np.zeros(len(tf_values))
    for k in model.retained_topics():
        prob_sum += model.phi[k - 1, columns]
    return np.fromiter(map(math.log, tf_values), np.float64, len(tf_values)) * prob_sum


def term_weight(term: str, model: TopicModelResult, stats: TermStats) -> float:
    """ln(tf(w)) times the summed p(w|topic) over non-excluded topics."""
    if term not in stats.tf or term not in model.vocab_index:
        raise ValueError(f"unknown term {term!r}")
    return float(_term_weights(model, [model.vocab_index[term]], [stats.tf[term]])[0])


def _build_entries(weighted: list[tuple[str, float]], n: int) -> list[DictionaryEntry]:
    weighted.sort(key=lambda item: (-item[1], item[0]))
    return [
        DictionaryEntry(term=term, weight=weight, rank=rank, boost=boost(rank))
        for rank, (term, weight) in enumerate(weighted[:n], start=1)
    ]


def extract_dictionary_tm(model: TopicModelResult, stats: TermStats, n: int) -> Dictionary:
    """Top-n terms by topic-model weight (clamped to vocabulary size).

    The model must have been fitted on the corpus of ``stats``: a term that
    one of them holds and the other lacks raises ``ValueError``."""
    if n < 1:
        raise ValueError("dictionary size must be >= 1")
    tf_values = list(map(stats.tf.get, model.vocab))
    if None in tf_values:
        raise ValueError(f"unknown term {model.vocab[tf_values.index(None)]!r}")
    if len(stats.tf) != len(model.vocab):
        extra = next(term for term in stats.tf if term not in model.vocab_index)
        raise ValueError(f"corpus term {extra!r} is not in the model's vocabulary")
    weighted = list(zip(model.vocab, _term_weights(model, slice(None), tf_values).tolist()))
    return Dictionary(entries=_build_entries(weighted, n), method=METHOD_TOPIC_MODEL)


def extract_dictionary_tfidf(reference: Corpus, n: int) -> Dictionary:
    """Baseline: top-n terms by tf(w) * ln(|D|/df(w)) within the reference."""
    if n < 1:
        raise ValueError("dictionary size must be >= 1")
    if len(reference) < 2:
        raise ValueError("idf undefined: all idf terms zero (reference has a single document)")
    stats = term_stats(reference)
    n_docs = len(reference)
    weighted = [
        (term, stats.tf[term] * math.log(n_docs / stats.df[term]))
        for term in stats.tf
    ]
    return Dictionary(entries=_build_entries(weighted, n), method=METHOD_TFIDF)


def save_dictionary(dictionary: Dictionary, path) -> None:
    """TSV `rank<TAB>term<TAB>weight<TAB>boost`, full decimal precision."""
    header = f"#dictsieve-dictionary\tmethod={dictionary.method}\tn={len(dictionary)}\n"
    write_rows(path, ((e.rank, e.term, e.weight, e.boost) for e in dictionary.entries), header)


def load_dictionary(path) -> Dictionary:
    """Read a dictionary written by ``save_dictionary``.

    Every line must hold 4 fields and keep the rule that ``Dictionary``
    keeps (see ``_entry_error``), and the header's n must count the
    entries; a violation is reported as ``path:line``, and an unknown
    method or a file without entries as ``path:1``.
    """
    with open_text(path) as stream:
        method, n = read_header(stream, path, "#dictsieve-dictionary", "dictionary", "method")
        entries = []
        seen = set()
        for lineno, (rank_text, term, weight_text, boost_text) in read_rows(stream, path, 4, 2):
            try:
                entry = DictionaryEntry(term, float(weight_text), int(rank_text), float(boost_text))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: rank, weight and boost must be numbers") from None
            if (error := _entry_error(entry, len(entries) + 1, seen)) is not None:
                raise ValueError(f"{path}:{lineno}: {error}")
            entries.append(entry)
    if len(entries) != n:
        raise ValueError(f"{path}:1: header says n={n} but the file has {len(entries)} entries")
    try:
        return Dictionary(entries=entries, method=method)
    except ValueError as exc:  # the entries passed, so the method or their number is wrong
        raise ValueError(f"{path}:1: {exc}") from None
