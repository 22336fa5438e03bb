"""Sentence-window Dice co-occurrence matrices over dictionary terms.

A term pair counts once per sentence regardless of how often either term
repeats inside it.  The reference-corpus matrix C captures domain-specific
term associations; the generic-corpus matrix D captures common-language
regularities; the filtered matrix max(C - D, 0) keeps only the surplus
specific to the reference collection.  Values live in [0, 1] so matrices
from different corpora are directly comparable, which is what makes the
subtraction meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, count, repeat
from operator import add, itemgetter, mul

import numpy as np

from .corpus import Corpus, FloatText, open_text
from .dictionary import Dictionary, read_header

PROVENANCES = ("reference", "generic", "filtered")


def dice(n_a: int, n_b: int, n_ab: int) -> float:
    """2*n_ab / (n_a + n_b) over sentence counts."""
    if n_a + n_b == 0:
        raise ValueError("dice undefined: n_a + n_b = 0")
    if n_ab > min(n_a, n_b):
        raise ValueError(f"n_ab={n_ab} exceeds min(n_a={n_a}, n_b={n_b})")
    return 2.0 * n_ab / (n_a + n_b)


@dataclass
class CoocMatrix:
    """Sparse symmetric matrix of Dice values over the dictionary terms.

    ``values`` is the stored form: keys are term pairs ordered
    lexicographically; the diagonal is defined as 0 and never stored, so a
    term's context profile excludes itself.  Per-term profiles and their
    norms are derived from it on first use, walking the pairs in sorted
    order, so ``values``' own order carries no meaning.
    """

    terms: tuple[str, ...]
    values: dict[tuple[str, str], float]
    provenance: str
    _term_pos: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        self._term_pos = {t: i for i, t in enumerate(self.terms)}

    def __contains__(self, term: str) -> bool:
        return term in self._term_pos

    def position(self, term: str) -> int:
        """Index of ``term`` in ``terms``."""
        return self._term_pos[term]

    def get(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        return self.values.get((a, b) if a < b else (b, a), 0.0)

    @cached_property
    def profiles(self) -> dict[str, dict[str, float]]:
        """term -> {partner: Dice} for every term, nonzero partners only,
        each profile in lexicographic partner order."""
        profiles: dict[str, dict[str, float]] = {t: {} for t in self.terms}
        values = self.values
        # the keys are sorted, not the items, so no tuple is built per pair
        for pair in sorted(values):
            a, b = pair
            profiles[a][b] = profiles[b][a] = values[pair]
        return profiles

    @cached_property
    def norms(self) -> dict[str, float]:
        """term -> Euclidean norm of its profile, its squares added left to
        right (``sum`` compensates float rounding from Python 3.12 on)."""
        return {
            t: math.sqrt(reduce(add, map(mul, p.values(), p.values()), 0.0))
            for t, p in self.profiles.items()
        }

    @cached_property
    def pair_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted keys ``i * n + j``, i < j, over the term positions of the
        stored pairs, and their values; a last key ``n * n``, above every
        pair, holds 0.0, so a lookup never runs past the end."""
        n = len(self.terms)
        position = self._term_pos.__getitem__
        n_pairs = len(self.values)
        a = np.fromiter(map(position, map(itemgetter(0), self.values)), dtype=np.int64, count=n_pairs)
        b = np.fromiter(map(position, map(itemgetter(1), self.values)), dtype=np.int64, count=n_pairs)
        keys = np.minimum(a, b) * n + np.maximum(a, b)
        del a, b
        # the keys are distinct: a stable sort only shares its code with the
        # sentence pass's, which keeps the pages of one sort routine resident
        order = np.argsort(keys, kind="stable")
        values = np.fromiter(self.values.values(), dtype=np.float64, count=n_pairs)
        return np.append(keys[order], n * n), np.append(values[order], 0.0)


def check_key_range(n_terms: int, n_sentences: int) -> None:
    """Keys ``sentence * n_terms + term`` and ``term * n_terms + term`` must
    fit in int64."""
    if n_terms * max(n_terms, n_sentences) >= 2**63:
        raise ValueError(f"{n_terms} terms over {n_sentences} sentences overflow the int64 pair keys")


def encode_sentences(sentences: list[list[str]], terms) -> tuple[np.ndarray, np.ndarray]:
    """Each sentence's length, and the index in ``terms`` of every token,
    sentence after sentence; -1 codes a token that is not among ``terms``."""
    code = {term: i for i, term in enumerate(terms)}
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    codes = np.fromiter(
        map(code.get, chain.from_iterable(sentences), repeat(-1)), dtype=np.int32, count=int(lengths.sum())
    )
    return lengths, codes


def build_cooc(corpus: Corpus, dictionary: Dictionary) -> CoocMatrix:
    """Count sentence co-occurrences of dictionary terms and apply Dice.

    n_x counts sentences containing x at least once; pairs never seen in a
    common sentence are omitted from sparse storage.  ``values`` holds the
    pairs in lexicographic order, as ``save_cooc`` writes them; that order
    carries no meaning.
    """
    n = len(dictionary)
    if n == 0:
        raise ValueError("dictionary is empty")
    if not corpus.documents:
        raise ValueError("corpus is empty")
    sentences = [sentence for doc in corpus.documents for sentence in doc.sentences]
    n_sentences = len(sentences)
    check_key_range(n, n_sentences)
    # terms coded by lexicographic rank: a sentence's codes in ascending
    # order are its terms sorted, and every pair (a, b) has a < b
    lexicon = sorted(dictionary.terms)
    lengths, codes = encode_sentences(sentences, lexicon)
    sentence_dtype = np.int32 if n_sentences < 2**31 else np.int64
    sentence_ids = np.repeat(np.arange(n_sentences, dtype=sentence_dtype), lengths)
    present = codes >= 0
    # (sentence, term) keys sorted and deduplicated: each sentence's distinct
    # terms, ascending, sentence after sentence
    keys = sentence_ids[present].astype(np.int64) * n + codes[present]
    del codes, sentence_ids, present, lengths
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    sentence = (keys // n).astype(sentence_dtype)
    term = (keys % n).astype(np.int32)
    del keys
    n_single = np.bincount(term, minlength=n)

    # one key a*n + b per pair occurrence: the pairs are the entries d apart
    # inside one sentence, for d = 1, 2, ...
    occurrences = [np.empty(0, dtype=np.int64)]
    first = np.arange(len(term))
    for d in count(1):
        first = first[: np.searchsorted(first, len(term) - d)]
        first = first[sentence[first + d] == sentence[first]]
        if not first.size:
            break
        occurrences.append(term[first].astype(np.int64) * n + term[first + d])
    pair = np.sort(np.concatenate(occurrences))
    # a pair occurs at most once per sentence, so its group's length is its count
    head = np.flatnonzero(np.diff(pair, prepend=-1))
    n_ab = np.diff(head, append=len(pair))
    a, b = np.divmod(pair[head], n)
    # the operations of ``dice`` on exact integer counts, so the same bits
    dice_values = 2.0 * n_ab / (n_single[a] + n_single[b])
    keys_ab = zip(map(lexicon.__getitem__, a.tolist()), map(lexicon.__getitem__, b.tolist()))
    values = dict(zip(keys_ab, dice_values.tolist()))
    return CoocMatrix(terms=dictionary.terms, values=values, provenance=corpus.role)


def filter_cooc(reference: CoocMatrix, generic: CoocMatrix) -> CoocMatrix:
    """Entrywise max(C - D, 0); pairs absent from the generic matrix pass
    through unchanged, entries that would go negative are dropped."""
    if reference.provenance != "reference":
        raise ValueError(f"expected a reference matrix, got provenance {reference.provenance!r}")
    if generic.provenance != "generic":
        raise ValueError(f"expected a generic matrix, got provenance {generic.provenance!r}")
    if reference.terms != generic.terms:
        raise ValueError("term lists of the two matrices do not match")
    values = {}
    for pair, c_value in reference.values.items():
        filtered = c_value - generic.values.get(pair, 0.0)
        if filtered > 0.0:
            values[pair] = filtered
    return CoocMatrix(terms=reference.terms, values=values, provenance="filtered")


def save_cooc(matrix: CoocMatrix, path) -> None:
    """TSV triplets `term_a<TAB>term_b<TAB>value`, term_a < term_b."""
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"#dictsieve-cooc\tprovenance={matrix.provenance}\tn={len(matrix.terms)}\n")
        out.write("#terms\t" + "\t".join(matrix.terms) + "\n")
        text = FloatText()
        values = matrix.values
        for a, b in sorted(values):
            out.write(f"{a}\t{b}\t{text[values[a, b]]}\n")


def load_cooc(path) -> CoocMatrix:
    """Read a matrix written by ``save_cooc``.

    The header's n must count the listed terms, and every pair line must
    name two listed terms in lexicographic order, at most once, with a
    finite value in (0, 1]; a violation is reported as ``path:line``.
    """
    with open_text(path) as stream:
        provenance, n = read_header(stream, path, "#dictsieve-cooc", "co-occurrence matrix", "provenance")
        if provenance not in PROVENANCES:
            raise ValueError(f"{path}:1: unknown provenance {provenance!r}")
        terms_line = stream.readline().rstrip("\n").split("\t")
        if terms_line[0] != "#terms":
            raise ValueError(f"missing term list in {path}")
        terms = tuple(terms_line[1:])
        known = set(terms)
        if len(known) != len(terms):
            raise ValueError(f"{path}:2: duplicate term in the term list")
        if len(terms) != n:
            raise ValueError(f"{path}:1: header says n={n} but the term list has {len(terms)} terms")
        values = {}
        for lineno, line in enumerate(stream, start=3):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
            a, b, text = fields
            if a not in known or b not in known:
                unknown = a if a not in known else b
                raise ValueError(f"{path}:{lineno}: term {unknown!r} is not in the term list")
            if not a < b:
                raise ValueError(f"{path}:{lineno}: pair ({a!r}, {b!r}) is not in lexicographic order")
            if (a, b) in values:
                raise ValueError(f"{path}:{lineno}: duplicate pair ({a!r}, {b!r})")
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{path}:{lineno}: value {text!r} is not a finite number in (0, 1]")
            values[(a, b)] = value
    return CoocMatrix(terms=terms, values=values, provenance=provenance)
