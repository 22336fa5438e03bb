"""Sentence-window Dice co-occurrence matrices over dictionary terms.

A term pair counts once per sentence regardless of how often either term
repeats inside it.  The reference-corpus matrix C captures domain-specific
term associations; the generic-corpus matrix D captures common-language
regularities; the filtered matrix max(C - D, 0) keeps only the surplus
specific to the reference collection.  Values live in [0, 1] so matrices
from different corpora are directly comparable, which is what makes the
subtraction meaningful.

A matrix is two arrays, the sorted keys ``a * n + b`` of its pairs over the
lexicographic ranks a < b of their terms (the order ``save_cooc`` writes)
and their values; lookups, filtering, norms and scoring all read them.
Lookups go through an n x n table of pair indices, built on the first one
and kept on the matrix: a dictionary of several hundred terms costs well
under a megabyte.  A matrix of more than 2,048 terms, whose table would
exceed ``_TABLE_CELLS`` cells, binary-searches its keys instead.

``save_cooc`` writes the two arrays of every matrix, valid by construction,
beside the TSV file, as ``<path>.pairs``, keyed by the sha256 of the TSV
bytes.  ``load_cooc`` reads the arrays from that sidecar when the key matches
the file, so a matrix that one stage wrote is not parsed again by the next;
the terms and provenance always come from the TSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, repeat
from operator import itemgetter

import numpy as np

from .corpus import Corpus, SidecarFormat, fields_error, open_text, read_header, read_rows
from .dictionary import Dictionary

PROVENANCES = ("reference", "generic", "filtered")

# ``save_cooc`` formats and writes this many pair lines at a time, so the
# text it holds stays bounded
_PAIRS_PER_WRITE = 1 << 13

# a matrix's keys (``<i8``) and values (``<f8``) beside its TSV file, in
# ``<path>.pairs`` (see ``save_cooc``)
_PAIRS = SidecarFormat("pairs", "tsv", ("pairs",))

# the most cells a matrix's pair-index table may have, 2,048 terms squared;
# a larger matrix looks its keys up by binary search
_TABLE_CELLS = 1 << 22


def dice(n_a: int, n_b: int, n_ab: int) -> float:
    """2*n_ab / (n_a + n_b) over sentence counts."""
    if n_a + n_b == 0:
        raise ValueError("dice undefined: n_a + n_b = 0")
    if n_ab > min(n_a, n_b):
        raise ValueError(f"n_ab={n_ab} exceeds min(n_a={n_a}, n_b={n_b})")
    return 2.0 * n_ab / (n_a + n_b)


def position_major(lengths: np.ndarray):
    """Yield (p, the indices of the runs longer than p) for p = 0, 1, ...: a run
    summed by adding its p-th term at step p adds left to right, unlike numpy."""
    alive = np.arange(len(lengths))
    for p in count():
        alive = alive[lengths[alive] > p]
        if not alive.size:
            return
        yield p, alive


@dataclass(eq=False)
class CoocMatrix:
    """Sparse symmetric matrix of Dice values over the dictionary terms.

    ``terms`` is in dictionary order, ``lexicon`` sorted: a term's index
    there is its rank.  ``keys`` (int64, ascending) codes each stored pair
    as ``a * n + b`` over the ranks a < b of its terms, and ``values``
    (float64) holds their Dice values.  The diagonal is 0 and never stored.

    Building a matrix that breaks the rule of ``load_cooc``'s lines (a
    repeated term or one ``field_error`` rejects, or keys and values that
    ``_pair_error`` rejects) raises ``ValueError``; ``keys`` and ``values``
    may be any sequences that convert to int64 and float64 without loss.

    The first lookup caches the pair-index table that later ones read (see
    ``lookup``); like ``norms``, the cache assumes that ``keys`` and
    ``values`` do not change after it is built.
    """

    terms: tuple[str, ...]
    keys: np.ndarray
    values: np.ndarray
    provenance: str
    lexicon: tuple[str, ...] = field(init=False, repr=False)
    _term_pos: dict[str, int] = field(init=False, repr=False)
    _rank: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        self._term_pos = {t: i for i, t in enumerate(self.terms)}
        if len(self._term_pos) != len(self.terms):
            raise ValueError("duplicate term in the term list")
        if (error := fields_error("term", self.terms)) is not None:
            raise ValueError(error)
        keys, values = np.asarray(self.keys), np.asarray(self.values)
        # an empty list converts to float64, which holds no key to lose
        if keys.size and not np.can_cast(keys.dtype, np.int64) or not np.can_cast(values.dtype, np.float64):
            raise ValueError("pair keys must be integers and values numbers")
        self.keys, self.values = keys.astype(np.int64, copy=False), values.astype(np.float64, copy=False)
        if (error := _pair_error(self.keys, self.values, len(self.terms))) is not None:
            raise ValueError(error)
        self.lexicon = tuple(sorted(self.terms))
        self._rank = {t: r for r, t in enumerate(self.lexicon)}

    @classmethod
    def from_pairs(cls, terms, values: dict[tuple[str, str], float], provenance: str) -> CoocMatrix:
        """The matrix of ``values``, pairs (a, b) of ``terms``, a < b, in any order."""
        rank = {t: r for r, t in enumerate(sorted(terms))}
        a, b = (np.fromiter(map(rank.get, map(itemgetter(i), values), repeat(-1)), np.int64, len(values)) for i in (0, 1))
        if (bad := np.flatnonzero((a < 0) | (b <= a))).size:
            raise ValueError(f"pair {list(values)[bad[0]]!r} is not two terms of the term list in lexicographic order")
        keys = a * len(terms) + b
        order = np.argsort(keys)
        return cls(tuple(terms), keys[order], np.fromiter(values.values(), np.float64, len(values))[order], provenance)

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, term: str) -> bool:
        return term in self._term_pos

    def position(self, term: str) -> int:
        """Index of ``term`` in ``terms``."""
        return self._term_pos[term]

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """The value stored under each of the integer ``keys``, 0.0 where
        none is, on the diagonal and for a key outside [0, n²).

        Cell ``a * n + b`` of the n x n table holds 1 + the index in
        ``values`` of pair (a, b), or 0 for no pair, in the smallest unsigned
        dtype that holds ``len(values)``, and a lookup gathers twice:
        ``[0.0, *values][table[keys]]``.  A key outside [0, n²) is clipped to
        cell 0 or n² - 1, both on the diagonal.  A matrix whose table would
        have more than ``_TABLE_CELLS`` cells searches ``keys`` instead.
        """
        if not len(self):
            return np.zeros(len(keys))
        if self._pair_index is not None:
            table, values0 = self._pair_index
            return values0[table.take(keys, mode="clip")]
        hit = np.searchsorted(self.keys, keys).clip(max=len(self) - 1)
        return np.where(self.keys[hit] == keys, self.values[hit], 0.0)

    @cached_property
    def _pair_index(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The table of ``lookup`` and ``values`` after a leading 0.0, or
        None over the cell budget."""
        n = len(self.terms)
        if n * n > _TABLE_CELLS:
            return None
        dtype = np.min_scalar_type(len(self.values))
        table = np.zeros(n * n, dtype=dtype)
        table[self.keys] = np.arange(1, len(self.values) + 1, dtype=dtype)
        return table, np.concatenate(([0.0], self.values))

    def get(self, a: str, b: str) -> float:
        """0.0 on the diagonal, for an unstored pair and for a term outside ``terms``."""
        ra, rb = sorted((self._rank.get(a, -1), self._rank.get(b, -1)))
        return 0.0 if ra < 0 or ra == rb else float(self.lookup(np.array([ra * len(self.terms) + rb]))[0])

    def pairs(self):
        """Yield ((a, b), value) for every stored pair, in lexicographic order."""
        a, b = (map(self.lexicon.__getitem__, ranks.tolist()) for ranks in np.divmod(self.keys, len(self.terms)))
        return zip(zip(a, b), self.values.tolist())

    @cached_property
    def norms(self) -> dict[str, float]:
        """term -> Euclidean norm of its profile, in ``terms`` order, its squares
        added left to right in lexicographic partner order (not by ``sum``)."""
        n = len(self.terms)
        a, b = np.divmod(self.keys, n)
        # the pairs (x, t), x < t, ascending, then (t, y), t < y: the stable
        # sort lists every term's partners in lexicographic order
        squares = np.tile(self.values * self.values, 2)[np.argsort(np.concatenate((b, a)), kind="stable")]
        n_partners = np.bincount(np.concatenate((a, b)), minlength=n)
        start = np.cumsum(n_partners) - n_partners
        totals = np.zeros(n)
        for p, alive in position_major(n_partners):
            totals[alive] += squares[start[alive] + p]
        return {t: math.sqrt(totals[self._rank[t]]) for t in self.terms}


def check_key_range(n_terms: int, n_sentences: int) -> None:
    """Keys ``sentence * n_terms + term`` and ``term * n_terms + term`` must
    fit in int64."""
    if n_terms * max(n_terms, n_sentences) >= 2**63:
        raise ValueError(f"{n_terms} terms over {n_sentences} sentences overflow the int64 pair keys")


def sentence_terms(corpus: Corpus, terms) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each sentence's distinct ``terms``: four int64 arrays with one entry
    per (sentence, term), ordered by sentence, then by the term's rank.

    The arrays hold the sentence's index in the corpus's coding; the term's
    lexicographic rank among ``terms``; the term's count in the sentence;
    and the index of its first occurrence among all tokens of the corpus.
    Ranks are gathered from the codes through a vocabulary -> rank table.
    The caller checks the (sentence, term) keys with ``check_key_range``.
    """
    coding = corpus.coding
    lexicon = sorted(terms)
    n = len(lexicon)
    rank = {term: r for r, term in enumerate(lexicon)}
    codes = np.fromiter(map(rank.get, coding.vocab, repeat(-1)), np.int32, len(coding.vocab))[coding.codes]
    token = np.flatnonzero(codes >= 0)
    # key sentence * n + rank of every token of ``terms``, in token order
    lengths = np.diff(coding.sentence_starts)
    keys = np.repeat(np.arange(len(lengths)), lengths)[token] * n + codes[token]
    del lengths, codes
    # the stable sort groups each sentence's tokens by term: a group's head
    # is the term's first occurrence and its length the term's count
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    head = np.flatnonzero(np.diff(keys, prepend=-1))
    sentence, term = np.divmod(keys[head], n)
    del keys
    return sentence, term, np.diff(head, append=len(order)), token[order[head]]


def build_cooc(corpus: Corpus, dictionary: Dictionary) -> CoocMatrix:
    """Count sentence co-occurrences of dictionary terms and apply Dice.

    n_x counts sentences containing x at least once; pairs never seen in a
    common sentence are not stored.  Terms are coded by lexicographic rank,
    so the sorted pair keys of the count are the matrix's ``keys``.
    """
    n = len(dictionary)
    check_key_range(n, len(corpus.coding.sentence_starts) - 1)
    # each sentence's distinct terms in ascending rank, so every pair (a, b)
    # of one sentence has a < b
    sentence, term = sentence_terms(corpus, dictionary.terms)[:2]
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
        occurrences.append(term[first] * n + term[first + d])
    del sentence, term, first
    pair = np.concatenate(occurrences)
    del occurrences
    pair.sort()
    # a pair occurs at most once per sentence, so its group's length is its count
    head = np.flatnonzero(np.diff(pair, prepend=-1))
    n_ab = np.diff(head, append=len(pair))
    pair = pair[head]
    a, b = np.divmod(pair, n)
    # the operations of ``dice`` on exact integer counts, so the same bits
    dice_values = 2.0 * n_ab / (n_single[a] + n_single[b])
    return CoocMatrix(terms=dictionary.terms, keys=pair, values=dice_values, provenance=corpus.role)


def filter_cooc(reference: CoocMatrix, generic: CoocMatrix) -> CoocMatrix:
    """Entrywise max(C - D, 0); pairs absent from the generic matrix pass
    through unchanged, entries that would go negative are dropped."""
    if reference.provenance != "reference":
        raise ValueError(f"expected a reference matrix, got provenance {reference.provenance!r}")
    if generic.provenance != "generic":
        raise ValueError(f"expected a generic matrix, got provenance {generic.provenance!r}")
    if reference.terms != generic.terms:
        raise ValueError("term lists of the two matrices do not match")
    filtered = reference.values - generic.lookup(reference.keys)
    kept = filtered > 0.0
    return CoocMatrix(terms=reference.terms, keys=reference.keys[kept], values=filtered[kept], provenance="filtered")


def _tsv_chunks(matrix: CoocMatrix):
    """Yield the bytes of the matrix's TSV file, a header, the term list and
    ``_PAIRS_PER_WRITE`` pair lines at a time."""
    n = len(matrix.terms)
    yield (
        f"#dictsieve-cooc\tprovenance={matrix.provenance}\tn={n}\n"
        + "#terms" + "".join("\t" + term for term in matrix.terms) + "\n"
    ).encode()
    # one table of each term with the tab after it and each distinct value's
    # line end: a pair line is three of its pieces, and a chunk one ``join``
    distinct, value_index = np.unique(matrix.values, return_inverse=True)
    table = np.array(
        [*(term + "\t" for term in matrix.lexicon), *(repr(value) + "\n" for value in distinct.tolist())], dtype=object
    )
    for start in range(0, len(matrix), _PAIRS_PER_WRITE):
        keys = matrix.keys[start : start + _PAIRS_PER_WRITE]
        pieces = np.empty((len(keys), 3), dtype=np.int64)
        np.divmod(keys, n, out=(pieces[:, 0], pieces[:, 1]))
        pieces[:, 2] = n + value_index[start : start + _PAIRS_PER_WRITE]
        yield "".join(table[pieces.ravel()].tolist()).encode()


def _pair_error(keys: np.ndarray, values: np.ndarray, n: int) -> str | None:
    """Why ``keys`` and ``values`` cannot be the pairs of a matrix over ``n``
    terms, or None: the rules of ``load_cooc``'s pair lines, as array
    operations."""
    if len(keys) != len(values):
        return "pair keys and values differ in length"
    if (keys[1:] <= keys[:-1]).any():
        return "pair keys are not strictly increasing"
    if len(keys):
        if not (keys[0] >= 0 and keys[-1] < n * n):
            return f"pair key out of range for {n} terms"
        a, b = np.divmod(keys, n)
        if (a >= b).any():
            return "pair key is not two terms in lexicographic order"
    if not ((0.0 < values) & (values <= 1.0)).all():
        return "value is not a finite number in (0, 1]"
    return None


def save_cooc(matrix: CoocMatrix, path) -> None:
    """TSV triplets `term_a<TAB>term_b<TAB>value`, term_a < term_b.

    The first line is ``#dictsieve-cooc``, ``provenance=`` and ``n=``, the
    second ``#terms`` and each term after a tab, in ``terms`` order.  The
    pair lines list the pairs in key order, each value as its ``repr``.

    The keys (``<i8``) and values (``<f8``) also go to the sidecar
    ``<path>.pairs``, which ``load_cooc`` reads in place of the pair lines:
    a ``SidecarFormat`` header (``#dictsieve-pairs``, ``version=1``,
    ``tsv_bytes``, ``tsv_sha256``, the ``pairs`` count and
    ``payload_sha256``), then the two arrays, 16 bytes a pair.
    ``SidecarFormat.write`` publishes the TSV, then its sidecar; every
    matrix keeps the rule of the pair lines, so every one gets its sidecar.
    """
    # the arrays are hashed and written in place, not copied
    keys = np.ascontiguousarray(matrix.keys, dtype="<i8")
    values = np.ascontiguousarray(matrix.values, dtype="<f8")
    _PAIRS.write(path, _tsv_chunks(matrix), [len(keys)], [keys, values])


def _decode_pairs(payload: bytes, n_pairs: int, terms: tuple[str, ...], provenance: str, sidecar) -> CoocMatrix:
    """The matrix of a sidecar's payload over ``terms``: a payload that does
    not hold ``n_pairs`` pairs, or pairs that ``CoocMatrix`` rejects, raise
    ``ValueError`` naming ``sidecar``."""
    if len(payload) != 16 * n_pairs:
        raise ValueError(f"{sidecar}: payload size does not match the pair count")
    keys = np.frombuffer(payload, "<i8", n_pairs).astype(np.int64)
    values = np.frombuffer(payload, "<f8", n_pairs, 8 * n_pairs).astype(np.float64)
    try:
        return CoocMatrix(terms, keys, values, provenance)
    except ValueError as exc:
        raise ValueError(f"{sidecar}: {exc}") from None


def load_cooc(path) -> CoocMatrix:
    """Read a matrix written by ``save_cooc``.

    The header's n must count the listed terms, and every pair line must
    name two listed terms in lexicographic order, at most once, with a
    finite value in (0, 1]; a violation is reported as ``path:line``, the
    first in file order.  Pair lines are parsed one at a time.

    The terms and the provenance are always read from the TSV's first two
    lines.  When the TSV has a ``.pairs`` sidecar (see ``save_cooc``) whose
    recorded length and sha256 match the file, the keys and values are read
    from the sidecar instead of the pair lines, and checked there by the
    same rules: keys strictly increasing, each in [0, n²) with a < b, values
    finite and in (0, 1], and a payload of 16 bytes a pair that matches its
    sha256.  A sidecar that breaks one raises ``ValueError`` naming it; a
    sidecar for other TSV bytes, or a file that is not a sidecar of this
    format version, is ignored.
    """
    with open_text(path) as stream:
        provenance, n = read_header(stream, path, "#dictsieve-cooc", "co-occurrence matrix", "provenance")
        if provenance not in PROVENANCES:
            raise ValueError(f"{path}:1: unknown provenance {provenance!r}")
        terms_line = stream.readline().rstrip("\n").split("\t")
        if terms_line[0] != "#terms":
            raise ValueError(f"missing term list in {path}")
        terms = tuple(terms_line[1:])
        if (error := fields_error("term", terms)) is not None:
            raise ValueError(f"{path}:2: {error}")
        rank = {t: r for r, t in enumerate(sorted(terms))}
        if len(rank) != len(terms):
            raise ValueError(f"{path}:2: duplicate term in the term list")
        if len(terms) != n:
            raise ValueError(f"{path}:1: header says n={n} but the term list has {len(terms)} terms")
        found = _PAIRS.read(path)
        if found is not None:
            (n_pairs,), payload = found
            return _decode_pairs(payload, n_pairs, terms, provenance, _PAIRS.path(path))
        keys, values, seen = [], [], set()
        for lineno, (a, b, text) in read_rows(stream, path, 3, 3):
            ra, rb = rank.get(a, -1), rank.get(b, -1)
            if ra < 0 or rb < 0:
                raise ValueError(f"{path}:{lineno}: term {a if ra < 0 else b!r} is not in the term list")
            if ra >= rb:
                raise ValueError(f"{path}:{lineno}: pair ({a!r}, {b!r}) is not in lexicographic order")
            key = ra * n + rb
            if key in seen:
                raise ValueError(f"{path}:{lineno}: duplicate pair ({a!r}, {b!r})")
            seen.add(key)
            try:
                value = float(text)
            except ValueError:
                value = math.nan
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{path}:{lineno}: value {text!r} is not a finite number in (0, 1]")
            keys.append(key)
            values.append(value)
    keys = np.array(keys, dtype=np.int64)
    order = np.argsort(keys)
    return CoocMatrix(terms, keys[order], np.array(values, dtype=np.float64)[order], provenance)

