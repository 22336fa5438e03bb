"""The numpy sentence pass against the per-document loop it replaced."""

from __future__ import annotations

import math
import random
from array import array
from collections import Counter
from functools import reduce
from operator import add

import numpy as np
import pytest

from dictsieve import Corpus, Document, build_cooc, filter_cooc
from dictsieve.cooc import CoocMatrix
from dictsieve.dictionary import Dictionary, DictionaryEntry, boost
from dictsieve.scoring import sentence_features

# ---------------------------------------------------------------------------
# frozen reference: the per-document sentence loop that computed the
# features before the numpy pass.  It adds each dot product left to right
# with ``reduce(add, ..., 0.0)``, as the scorer does: Python's ``sum`` does
# the same up to 3.11 but compensates from 3.12 on.


def _profiles(matrix):
    """term -> {partner: Dice} for every term of ``matrix``, each profile in
    lexicographic partner order."""
    profiles = {t: {} for t in matrix.terms}
    for (a, b), value in matrix.pairs():
        profiles[a][b] = profiles[b][a] = value
    return profiles


def _oracle_sentence_features(d, cooc_filtered):
    profiles = _profiles(cooc_filtered)
    profile_norms = cooc_filtered.norms
    rows: dict[str, list[tuple[int, float]]] = {}
    for sentence in d.sentences:
        present = Counter(filter(profiles.__contains__, sentence))
        s_norm = math.sqrt(len(present))
        for term, count in present.items():
            profile = profiles[term]
            dot = reduce(add, (profile.get(other, 0.0) for other in present), 0.0)
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
    return terms, tuple(len(rows[term]) for term in terms), counts, cosines


def assert_matches_oracle(documents, matrix):
    """Every document's runs, lengths, counts and cosines, bit for bit."""
    features = sentence_features(Corpus(documents=documents, role="target"), matrix)
    assert len(features.offsets) == len(documents) + 1
    assert features.offsets[-1] == len(features.terms) == len(features.lengths)
    row_bounds = np.concatenate([[0], np.cumsum(features.lengths)])
    assert row_bounds[-1] == len(features.counts) == len(features.cosines)
    for i, doc in enumerate(documents):
        terms, lengths, counts, cosines = _oracle_sentence_features(doc, matrix)
        first, last = features.offsets[i], features.offsets[i + 1]
        assert tuple(matrix.terms[t] for t in features.terms[first:last]) == terms
        assert tuple(features.lengths[first:last].tolist()) == lengths
        rows = slice(row_bounds[first], row_bounds[last])
        assert np.array_equal(features.counts[rows], np.frombuffer(counts))
        assert features.cosines[rows].tobytes() == cosines.tobytes()
    return features


def make_dictionary(*terms: str) -> Dictionary:
    entries = [
        DictionaryEntry(term=t, weight=float(len(terms) - i), rank=i + 1, boost=boost(i + 1))
        for i, t in enumerate(terms)
    ]
    return Dictionary(entries=entries, method="topic-model")


def _random_docs(rng, vocab, n_docs, prefix, max_sentences=6):
    weights = [1.0 / (i + 1) for i in range(len(vocab))]
    return [
        Document(
            id=f"{prefix}{i}",
            sentences=[
                rng.choices(vocab, weights, k=rng.randint(1, 12))
                for _ in range(rng.randint(0, max_sentences))
            ],
        )
        for i in range(n_docs)
    ]


def _random_matrix(rng, vocab, q):
    reference = Corpus(documents=_random_docs(rng, vocab[:30], 40, "r"), role="reference")
    generic = Corpus(documents=_random_docs(rng, vocab, 40, "g"), role="generic")
    return filter_cooc(build_cooc(reference, q), build_cooc(generic, q))


@pytest.mark.parametrize("seed", range(5))
def test_seeded_random_targets_equal_the_frozen_loop(seed):
    rng = random.Random(seed)
    vocab = [f"t{i:02d}" for i in range(40)]
    # the last two dictionary terms never occur in the reference corpus, so
    # their profiles are empty
    q = make_dictionary(*rng.sample(vocab[:30], 13), vocab[30], vocab[31])
    matrix = _random_matrix(rng, vocab, q)
    assert any(not profile for profile in _profiles(matrix).values())
    documents = _random_docs(rng, vocab, 60, "d", max_sentences=20)
    features = assert_matches_oracle(documents, matrix)
    assert features.lengths.max() >= 10


class TestEdgeCases:
    def matrix(self, n_terms=4) -> CoocMatrix:
        rng = random.Random(3)
        terms = [f"k{i:02d}" for i in range(n_terms)]
        values = {
            (a, b): rng.choice((0.125, 0.3, 0.7, 1.0))
            for i, a in enumerate(terms)
            for b in terms[i + 1 :]
            if rng.random() < 0.6
        }
        # matrix order is not lexicographic order
        return CoocMatrix.from_pairs(terms=tuple(reversed(terms)), values=values, provenance="filtered")

    def test_a_term_repeated_within_a_sentence(self):
        matrix = self.matrix()
        doc = Document(id="d", sentences=[["k00", "x", "k01", "k00", "k00"], ["k01", "k01"]])
        features = assert_matches_oracle([doc], matrix)
        assert sorted(features.counts.tolist()) == [1.0, 2.0, 3.0]

    def test_terms_with_empty_profiles(self):
        matrix = CoocMatrix.from_pairs(terms=("a", "b", "c", "z"), values={("a", "b"): 0.5}, provenance="filtered")
        doc = Document(id="d", sentences=[["c", "z", "a"], ["z", "b", "a", "c"]])
        features = assert_matches_oracle([doc], matrix)
        empty = {matrix.position("c"), matrix.position("z")}
        runs = np.repeat(features.terms, features.lengths)
        assert not features.cosines[np.isin(runs, list(empty))].any()
        assert_matches_oracle([doc], CoocMatrix.from_pairs(terms=("a", "c"), values={}, provenance="filtered"))

    def test_a_sentence_with_one_dictionary_term(self):
        features = assert_matches_oracle([Document(id="d", sentences=[["x", "k02", "y"]])], self.matrix())
        assert features.lengths.tolist() == [1]
        assert features.cosines.tolist() == [0.0]

    def test_a_sentence_with_many_distinct_dictionary_terms(self):
        matrix = self.matrix(30)
        rng = random.Random(8)
        sentence = list(matrix.terms) + rng.choices(matrix.terms, k=20) + ["x", "y"]
        rng.shuffle(sentence)
        documents = [Document(id="wide", sentences=[sentence, sentence[:7]])]
        features = assert_matches_oracle(documents, matrix)
        assert len(features.terms) == 30

    def test_a_term_spanning_many_sentences(self):
        matrix = self.matrix()
        rng = random.Random(5)
        sentences = [["k03"] + rng.choices(["k00", "k01", "k02", "x"], k=rng.randint(0, 4)) for _ in range(12)]
        features = assert_matches_oracle([Document(id="long", sentences=sentences)], matrix)
        assert features.lengths[features.terms == matrix.position("k03")].tolist() == [12]

    def test_documents_without_sentences_or_dictionary_terms_and_empty_sentences(self):
        documents = [
            Document(id="none", sentences=[]),
            Document(id="a", sentences=[["k00", "k01"]]),
            Document(id="plain", sentences=[["x", "y"], ["z"]]),
            Document(id="b", sentences=[[], ["k01", "k02"], []]),
            Document(id="empty", sentences=[]),
            Document(id="c", sentences=[["k03"], [], ["k03", "k00"]]),
        ]
        features = assert_matches_oracle(documents, self.matrix())
        assert features.offsets.tolist() == [0, 0, 2, 2, 4, 4, 6]

    def test_keys_that_could_overflow_int64_are_rejected(self):
        """The (sentence, term) and pair keys must stay below 2**63; a stand-in
        matrix reports 2**32 terms, since a real one that size would not fit
        in memory."""

        class HugeTerms:
            def __len__(self):
                return 1 << 32

        class HugeMatrix:
            terms = HugeTerms()

        doc = Document(id="d", sentences=[["a", "b"]])
        with pytest.raises(ValueError, match="4294967296 terms over 1 sentences overflow the int64 pair keys"):
            sentence_features(Corpus(documents=[doc], role="target"), HugeMatrix())
