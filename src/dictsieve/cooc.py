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
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations
from operator import add, mul

from .corpus import Corpus, open_text
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
    norms are derived from it on first use.
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
        """term -> {partner: Dice} for every term, nonzero partners only."""
        profiles: dict[str, dict[str, float]] = {t: {} for t in self.terms}
        for (a, b), value in self.values.items():
            profiles[a][b] = value
            profiles[b][a] = value
        return profiles

    @cached_property
    def norms(self) -> dict[str, float]:
        """term -> Euclidean norm of its profile, its squares added left to
        right (``sum`` compensates float rounding from Python 3.12 on)."""
        return {
            t: math.sqrt(reduce(add, map(mul, p.values(), p.values()), 0.0))
            for t, p in self.profiles.items()
        }


def build_cooc(corpus: Corpus, dictionary: Dictionary) -> CoocMatrix:
    """Count sentence co-occurrences of dictionary terms and apply Dice.

    n_x counts sentences containing x at least once; pairs never seen in a
    common sentence are omitted from sparse storage.
    """
    if len(dictionary) == 0:
        raise ValueError("dictionary is empty")
    if not corpus.documents:
        raise ValueError("corpus is empty")
    dict_terms = set(dictionary.terms)
    n_single: Counter = Counter()
    n_joint: Counter = Counter()
    for doc in corpus.documents:
        for sentence in doc.sentences:
            # sorted, so each pair comes out as (a, b) with a < b
            present = sorted(dict_terms.intersection(sentence))
            n_single.update(present)
            n_joint.update(combinations(present, 2))
    values = {(a, b): dice(n_single[a], n_single[b], n_ab) for (a, b), n_ab in n_joint.items()}
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
        for a, b in sorted(matrix.values):
            out.write(f"{a}\t{b}\t{matrix.values[(a, b)]!r}\n")


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
