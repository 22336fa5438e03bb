"""Tests for sentence co-occurrence matrices and generic filtering."""

from __future__ import annotations

import hashlib
import math
import random
import re
import tracemalloc
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dictsieve import (
    Corpus,
    Document,
    build_cooc,
    cooc,
    dice,
    filter_cooc,
    load_cooc,
    save_cooc,
)
from dictsieve.cooc import PROVENANCES, CoocMatrix, sentence_terms
from dictsieve.corpus import open_text, read_header
from dictsieve.dictionary import Dictionary, DictionaryEntry, boost
from dictsieve.scoring import sentence_features
from test_coding import without_empty_sentences


def make_dictionary(*terms: str) -> Dictionary:
    entries = [
        DictionaryEntry(term=t, weight=float(len(terms) - i), rank=i + 1, boost=boost(i + 1))
        for i, t in enumerate(terms)
    ]
    return Dictionary(entries=entries, method="topic-model")


def one_doc_corpus(sentences, role="reference") -> Corpus:
    return Corpus(documents=[Document(id="d", sentences=sentences)], role=role)


class TestDice:
    def test_reference_values(self):
        assert dice(3, 5, 2) == pytest.approx(0.5, rel=1e-12)
        assert dice(4, 4, 4) == 1.0
        assert dice(3, 5, 0) == 0.0

    def test_symmetry(self):
        rng = random.Random(42)
        for _ in range(200):
            n_a, n_b = rng.randint(1, 50), rng.randint(1, 50)
            n_ab = rng.randint(0, min(n_a, n_b))
            assert dice(n_a, n_b, n_ab) == dice(n_b, n_a, n_ab)
            assert 0.0 <= dice(n_a, n_b, n_ab) <= 1.0

    def test_undefined_for_unseen_terms(self):
        with pytest.raises(ValueError, match="n_a \\+ n_b = 0"):
            dice(0, 0, 0)

    def test_overlap_cannot_exceed_either_count(self):
        with pytest.raises(ValueError, match="exceeds min"):
            dice(2, 5, 3)


class TestBuildCooc:
    def test_three_sentence_example(self):
        corpus = one_doc_corpus([["a", "b"], ["a"], ["b", "c"]])
        matrix = build_cooc(corpus, make_dictionary("a", "b", "c"))
        assert matrix.get("a", "b") == pytest.approx(0.5, rel=1e-12)
        assert matrix.get("b", "c") == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert matrix.get("a", "c") == 0.0
        assert ("a", "c") not in dict(matrix.pairs())

    def test_counts_are_binary_per_sentence(self):
        matrix = build_cooc(
            one_doc_corpus([["a", "a", "b"]]), make_dictionary("a", "b")
        )
        assert matrix.get("a", "b") == 1.0

    def test_single_shared_sentence(self):
        matrix = build_cooc(one_doc_corpus([["a", "b"]]), make_dictionary("a", "b"))
        assert matrix.get("a", "b") == 1.0

    def test_sentences_pool_across_documents(self):
        docs = [
            Document(id="d1", sentences=[["a", "b"]]),
            Document(id="d2", sentences=[["a"], ["b"]]),
        ]
        matrix = build_cooc(
            Corpus(documents=docs, role="reference"), make_dictionary("a", "b")
        )
        assert matrix.get("a", "b") == pytest.approx(2.0 / 4.0, rel=1e-12)

    def test_non_dictionary_terms_ignored(self):
        corpus = one_doc_corpus([["a", "noise", "b"], ["noise", "noise"]])
        matrix = build_cooc(corpus, make_dictionary("a", "b"))
        assert matrix.terms == ("a", "b")
        assert matrix.get("a", "b") == 1.0

    def test_provenance_follows_corpus_role(self):
        corpus_ref = one_doc_corpus([["a", "b"]], role="reference")
        corpus_gen = one_doc_corpus([["a", "b"]], role="generic")
        d = make_dictionary("a", "b")
        assert build_cooc(corpus_ref, d).provenance == "reference"
        assert build_cooc(corpus_gen, d).provenance == "generic"

    def test_empty_inputs_rejected(self):
        """A dictionary without terms is rejected where it is built, so
        ``build_cooc`` never meets one."""
        with pytest.raises(ValueError, match="^dictionary has no entries$"):
            make_dictionary()

    def test_brute_force_recount_randomized(self):
        """Every stored value must equal a direct per-pair recount."""
        rng = random.Random(99)
        vocab = [f"t{i}" for i in range(8)]
        for trial in range(20):
            sentences = [
                sorted({rng.choice(vocab) for _ in range(rng.randint(1, 5))})
                for _ in range(rng.randint(2, 40))
            ]
            corpus = one_doc_corpus([list(s) for s in sentences])
            d = make_dictionary(*vocab[:5])
            matrix = build_cooc(corpus, d)
            inside = [set(s) & set(vocab[:5]) for s in sentences]
            for a, b in combinations(vocab[:5], 2):
                n_a = sum(1 for s in inside if a in s)
                n_b = sum(1 for s in inside if b in s)
                n_ab = sum(1 for s in inside if a in s and b in s)
                if n_ab:
                    expected = 2.0 * n_ab / (n_a + n_b)
                    assert matrix.get(a, b) == pytest.approx(expected, rel=1e-12)
                else:
                    assert matrix.get(a, b) == 0.0


def oracle_cooc_values(corpus: Corpus, dictionary: Dictionary) -> dict[tuple[str, str], float]:
    """The nested counting loop ``build_cooc`` used before it counted with
    ``Counter``, verbatim: the stored pairs, in insertion order."""
    dict_terms = set(dictionary.terms)
    n_single: dict[str, int] = {}
    n_joint: dict[tuple[str, str], int] = {}
    for doc in corpus.documents:
        for sentence in doc.sentences:
            present = sorted(dict_terms.intersection(sentence))
            for i, a in enumerate(present):
                n_single[a] = n_single.get(a, 0) + 1
                for b in present[i + 1 :]:
                    key = (a, b)
                    n_joint[key] = n_joint.get(key, 0) + 1
    values = {
        pair: dice(n_single[pair[0]], n_single[pair[1]], n_ab)
        for pair, n_ab in n_joint.items()
    }
    return values


def oracle_norms(matrix: CoocMatrix) -> dict[str, float]:
    """The second pass over ``values`` that ``CoocMatrix.norms`` made before
    it read the profiles, verbatim."""
    sums = dict.fromkeys(matrix.terms, 0.0)
    for (a, b), value in dict(matrix.pairs()).items():
        sums[a] += value * value
        sums[b] += value * value
    return {t: math.sqrt(total) for t, total in sums.items()}


# dictionary terms, two of which ("q", "r") never occur, and noise words
ORACLE_TERMS = ("k", "c", "x", "a", "m", "e", "t", "b", "q", "r")
ORACLE_NOISE = ("noise", "zz", "aa")


def random_corpus(rng: random.Random, role: str, n_docs: int) -> Corpus:
    """Documents whose sentences hold 0, 1 or many dictionary terms, often
    repeated, among noise words; some documents have no sentences."""
    words = ORACLE_TERMS[:-2] + ORACLE_NOISE
    documents = []
    for i in range(n_docs):
        sentences = []
        for _ in range(rng.randint(0, 6)):
            shape = rng.random()
            if shape < 0.15:
                sentence = [rng.choice(ORACLE_NOISE) for _ in range(rng.randint(1, 3))]
            elif shape < 0.3:
                sentence = [rng.choice(ORACLE_TERMS[:-2])] * rng.randint(1, 3) + ["noise"]
            else:
                sentence = [rng.choice(words) for _ in range(rng.randint(2, 14))]
            sentences.append(sentence)
        documents.append(Document(id=f"{role}{i}", sentences=sentences))
    return Corpus(documents=documents, role=role)


def assert_matches_oracles(corpus: Corpus, dictionary: Dictionary) -> CoocMatrix:
    matrix = build_cooc(corpus, dictionary)
    oracle = oracle_cooc_values(corpus, dictionary)
    assert list(matrix.pairs()) == [(pair, oracle[pair]) for pair in sorted(oracle)]
    assert list(matrix.norms.items()) == list(oracle_norms(matrix).items())
    return matrix


class TestFrozenOracles:
    """``build_cooc`` stores the pairs and counts of the nested loop, in
    lexicographic pair order, and ``norms`` has the bits of the loop over
    that order; equality is exact."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_corpora(self, seed):
        rng = random.Random(seed)
        dictionary = make_dictionary(*ORACLE_TERMS)
        reference = assert_matches_oracles(random_corpus(rng, "reference", 40), dictionary)
        generic = assert_matches_oracles(random_corpus(rng, "generic", 40), dictionary)
        filtered = filter_cooc(reference, generic)
        assert filtered.norms == oracle_norms(filtered)

    def test_sentences_with_zero_one_and_many_terms(self):
        corpus = one_doc_corpus([["noise"], ["a", "a"], ["t", "m", "a", "a", "e", "k", "x", "t"], ["b"]])
        matrix = assert_matches_oracles(corpus, make_dictionary(*ORACLE_TERMS))
        assert matrix.norms["q"] == matrix.norms["r"] == 0.0
        assert all("b" not in pair for pair, _ in matrix.pairs())

    @settings(deadline=None, max_examples=60)
    @given(
        sentences=st.lists(
            st.lists(st.sampled_from(ORACLE_TERMS[:-2] + ORACLE_NOISE), max_size=12), min_size=1, max_size=30
        ),
        n_terms=st.integers(min_value=1, max_value=len(ORACLE_TERMS)),
    )
    def test_property(self, sentences, n_terms):
        assert_matches_oracles(one_doc_corpus(sentences), make_dictionary(*ORACLE_TERMS[:n_terms]))

    def test_rank_order_differs_from_code_point_order(self):
        rng = random.Random(3)
        alphabet = "abcXYZéßøΩж日本"
        terms = sorted({"".join(rng.choices(alphabet, k=rng.randint(1, 4))) for _ in range(500)})[:300]
        rng.shuffle(terms)
        assert len(terms) == 300
        assert terms != sorted(terms)
        documents = [
            Document(
                id=f"d{i}",
                sentences=[rng.sample(terms + ["noise"] * 20, rng.randint(1, 9)) for _ in range(rng.randint(1, 5))],
            )
            for i in range(120)
        ]
        matrix = assert_matches_oracles(Corpus(documents=documents, role="reference"), make_dictionary(*terms))
        assert len(matrix.values) > 1000

    def test_one_sentence_with_many_terms_among_short_ones(self):
        """The first sentence holds 300 pairs, and later sentences bring
        pairs of the other terms."""
        rng = random.Random(8)
        terms = [f"t{i:02d}" for i in range(60)]
        first = rng.sample(terms, 25) + ["noise"]
        later = [rng.sample(terms, rng.randint(2, 6)) for _ in range(200)]
        assert_matches_oracles(one_doc_corpus([first, *later]), make_dictionary(*reversed(terms)))

    def test_no_dictionary_term_in_the_corpus(self):
        matrix = assert_matches_oracles(
            one_doc_corpus([["noise", "zz"], [], ["aa"]]), make_dictionary(*ORACLE_TERMS)
        )
        assert dict(matrix.pairs()) == {}
        assert set(matrix.norms.values()) == {0.0}

    def test_one_term_per_sentence(self):
        sentences = [[term, "noise", term] for term in ORACLE_TERMS[:8] * 3]
        matrix = assert_matches_oracles(one_doc_corpus(sentences), make_dictionary(*ORACLE_TERMS))
        assert dict(matrix.pairs()) == {}
        assert set(matrix.norms.values()) == {0.0}

    def test_large_dictionary_over_a_small_corpus(self):
        """Any array of n² entries would need ~20 GB for 50,000 terms."""
        rng = random.Random(4)
        terms = [f"w{i}" for i in range(50_000)]
        documents = [
            Document(id=f"d{i}", sentences=[rng.sample(terms, 30) for _ in range(4)]) for i in range(20)
        ]
        matrix = assert_matches_oracles(Corpus(documents=documents, role="generic"), make_dictionary(*terms))
        assert len(matrix.values) > 30_000
        # over the cell budget lookups search the keys: a pair-index table
        # alone would take 5 GB
        reference = build_cooc(Corpus(documents=documents[:10], role="reference"), make_dictionary(*terms))
        tracemalloc.start()
        try:
            filtered = filter_cooc(reference, matrix)
            features = sentence_features(Corpus(documents=documents, role="target"), filtered)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20
        assert 0 < len(filtered) < len(reference)
        assert np.count_nonzero(features.cosines) > 0

    def test_keys_that_could_overflow_int64_are_rejected(self):
        """n² pair keys times the sentence count must stay below 2**63; a
        stand-in reports 2**32 terms, since a real dictionary that size
        would not fit in memory."""

        class HugeDictionary:
            def __len__(self):
                return 1 << 32

        with pytest.raises(ValueError, match="4294967296 terms over 1 sentences overflow the int64 pair keys"):
            build_cooc(one_doc_corpus([["a", "b"]]), HugeDictionary())


def oracle_sentence_terms(documents, terms) -> list[tuple[int, int, int, int]]:
    """The entries of ``sentence_terms`` by a loop over every token:
    (sentence, rank, count, first token) per distinct term of a sentence."""
    rank = {term: r for r, term in enumerate(sorted(terms))}
    sentences = [sentence for doc in documents for sentence in doc.sentences]
    entries = []
    token = 0
    for i, sentence in enumerate(sentences):
        found: dict[str, list[int]] = {}
        for word in sentence:
            if word in rank:
                found.setdefault(word, [0, token])[0] += 1
            token += 1
        entries += sorted((i, rank[word], n, first) for word, (n, first) in found.items())
    return entries


class TestSentenceTerms:
    """``sentence_terms`` equals the token loop entry for entry."""

    @staticmethod
    def random_documents(rng: random.Random) -> list[Document]:
        """Documents with no sentences, empty sentences, sentences without
        terms and sentences that repeat terms."""
        words = ORACLE_TERMS[:-2] + ORACLE_NOISE
        return [
            Document(
                id=f"d{i}",
                sentences=[
                    rng.choices(words, k=rng.choice((0, 1, 2, rng.randint(3, 20)))) for _ in range(rng.randint(0, 5))
                ],
            )
            for i in range(rng.randint(0, 30))
        ]

    @pytest.mark.parametrize("seed", range(40))
    def test_random_documents_equal_the_token_loop(self, seed):
        rng = random.Random(seed)
        documents = self.random_documents(rng)
        if not documents:
            with pytest.raises(ValueError, match="zero documents"):
                Corpus(documents=documents, role="reference")
            return
        arrays = sentence_terms(Corpus(documents=documents, role="reference"), ORACLE_TERMS)
        assert all(array.dtype == np.int64 for array in arrays)
        # the corpus drops empty sentences, so the loop counts the others
        oracle = oracle_sentence_terms(list(map(without_empty_sentences, documents)), ORACLE_TERMS)
        assert list(zip(*(array.tolist() for array in arrays))) == oracle

    def test_repeats_noise_and_empty_sentences(self):
        documents = [
            Document(id="none", sentences=[]),
            Document(id="a", sentences=[[], ["x", "noise", "k", "x", "k", "x"], ["zz"]]),
            Document(id="b", sentences=[["c"], []]),
        ]
        sentence, rank, n, first = sentence_terms(Corpus(documents=documents, role="reference"), ORACLE_TERMS)
        # ranks among the sorted terms a b c e k m q r t x; the empty
        # sentences are dropped, so "c" is in sentence 2
        assert sentence.tolist() == [0, 0, 2]
        assert rank.tolist() == [4, 9, 2]
        assert n.tolist() == [2, 3, 1]
        assert first.tolist() == [2, 0, 7]

    def test_no_entries(self):
        arrays = sentence_terms(random_corpus(random.Random(1), "generic", 5), ("absent",))
        assert [(array.dtype, array.size) for array in arrays] == [(np.int64, 0)] * 4


class TestMatrixAccess:
    def test_symmetric_lookup_and_zero_diagonal(self):
        matrix = build_cooc(one_doc_corpus([["a", "b"], ["b"]]), make_dictionary("a", "b"))
        assert matrix.get("a", "b") == matrix.get("b", "a")
        assert matrix.get("a", "a") == 0.0
        assert matrix.get("b", "b") == 0.0

    def test_norm_matches_numpy(self):
        corpus = one_doc_corpus([["a", "b"], ["b", "c"], ["a", "c"], ["a"]])
        matrix = build_cooc(corpus, make_dictionary("a", "b", "c"))
        for term in matrix.terms:
            profile = np.array([value for pair, value in matrix.pairs() if term in pair])
            assert matrix.norms[term] == pytest.approx(float(np.linalg.norm(profile)), rel=1e-12)

    def test_unknown_term_is_not_in_the_matrix(self):
        matrix = build_cooc(one_doc_corpus([["a", "b"]]), make_dictionary("a", "b"))
        assert "zzz" not in matrix
        assert "a" in matrix

    def test_profiles_skip_zero_partners(self):
        corpus = one_doc_corpus([["a", "b"], ["c"]])
        matrix = build_cooc(corpus, make_dictionary("a", "b", "c"))
        assert dict(matrix.pairs()) == {("a", "b"): 1.0}
        assert matrix.norms == {"a": 1.0, "b": 1.0, "c": 0.0}


class TestArrayStorage:
    def built(self, role="reference") -> CoocMatrix:
        rng = random.Random(11)
        return build_cooc(random_corpus(rng, role, 40), make_dictionary(*ORACLE_TERMS))

    def test_from_pairs_in_any_order_equals_build_cooc(self):
        matrix = self.built()
        pairs = list(matrix.pairs())
        random.Random(2).shuffle(pairs)
        rebuilt = CoocMatrix.from_pairs(matrix.terms, dict(pairs), matrix.provenance)
        assert rebuilt.terms == matrix.terms
        assert rebuilt.keys.dtype == np.int64 and rebuilt.values.dtype == np.float64
        assert rebuilt.keys.tolist() == matrix.keys.tolist()
        assert rebuilt.values.tolist() == matrix.values.tolist()
        assert np.all(np.diff(matrix.keys) > 0)

    @pytest.mark.parametrize("pair", [("b", "a"), ("a", "a"), ("a", "zz"), ("zz", "a")])
    def test_from_pairs_rejects_a_reversed_pair_and_an_unknown_term(self, pair):
        with pytest.raises(ValueError, match="not two terms of the term list in lexicographic order"):
            CoocMatrix.from_pairs(("b", "a", "c"), {("a", "c"): 0.5, pair: 0.5}, "generic")

    def test_get_at_the_edges(self):
        empty = CoocMatrix.from_pairs(("a", "b"), {}, "filtered")
        assert empty.get("a", "b") == empty.get("a", "zz") == 0.0
        matrix = CoocMatrix.from_pairs(("c", "a", "b"), {("b", "c"): 0.75, ("a", "b"): 0.5}, "filtered")
        # ("b", "c") has the largest key a matrix over three terms can hold
        assert matrix.keys.tolist() == [1, 5]
        assert matrix.get("c", "b") == matrix.get("b", "c") == 0.75
        assert matrix.get("c", "c") == matrix.get("a", "c") == 0.0
        assert matrix.get("zz", "a") == matrix.get("b", "zz") == matrix.get("zz", "zz") == 0.0

    def test_filter_with_an_empty_generic_or_reference_matrix(self):
        reference, generic = self.built("reference"), self.built("generic")
        empty_generic = CoocMatrix.from_pairs(reference.terms, {}, "generic")
        passed = filter_cooc(reference, empty_generic)
        assert passed.keys.tolist() == reference.keys.tolist()
        assert passed.values.tolist() == reference.values.tolist()
        empty = filter_cooc(CoocMatrix.from_pairs(generic.terms, {}, "reference"), generic)
        assert len(empty) == 0 and empty.norms == dict.fromkeys(generic.terms, 0.0)

    def test_len_counts_the_stored_pairs(self):
        matrix = self.built()
        assert len(matrix) == len(matrix.values) == len(list(matrix.pairs())) > 0

    def test_shuffled_file_lines_load_to_the_same_arrays(self, tmp_path):
        matrix = self.built()
        save_cooc(matrix, tmp_path / "sorted.tsv")
        header, terms_line, *lines = (tmp_path / "sorted.tsv").read_text().splitlines(keepends=True)
        random.Random(4).shuffle(lines)
        (tmp_path / "shuffled.tsv").write_text("".join([header, terms_line, *lines]))
        loaded = load_cooc(tmp_path / "shuffled.tsv")
        assert loaded.keys.tolist() == matrix.keys.tolist()
        assert loaded.values.tolist() == matrix.values.tolist()

    def test_a_repeated_pair_in_a_shuffled_file_is_reported_at_its_later_line(self, tmp_path):
        matrix = self.built()
        save_cooc(matrix, tmp_path / "sorted.tsv")
        header, terms_line, *lines = (tmp_path / "sorted.tsv").read_text().splitlines(keepends=True)
        repeated = lines[len(lines) // 2]
        lines.append(repeated)
        random.Random(4).shuffle(lines)
        later = 3 + max(i for i, line in enumerate(lines) if line == repeated)
        path = tmp_path / "shuffled.tsv"
        path.write_text("".join([header, terms_line, *lines]))
        a, b, _ = repeated.split("\t")
        with pytest.raises(ValueError, match=f"^{path}:{later}: duplicate pair \\({a!r}, {b!r}\\)$"):
            load_cooc(path)


def searched_lookup(keys: np.ndarray, values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Frozen reference: ``CoocMatrix.lookup`` as it was before it read a
    pair-index table, a binary search of the sorted keys."""
    if not len(keys):
        return np.zeros(len(queries))
    hit = np.searchsorted(keys, queries).clip(max=len(keys) - 1)
    return np.where(keys[hit] == queries, values[hit], 0.0)


def random_matrix(data, terms: tuple[str, ...], provenance: str) -> CoocMatrix:
    """A matrix over ``terms`` of a drawn subset of the pairs, values in (0, 1]."""
    pairs = list(combinations(sorted(terms), 2))
    chosen = data.draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))) if pairs else set()
    unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    return CoocMatrix.from_pairs(terms, {pair: data.draw(unit) for pair in sorted(chosen)}, provenance)


class TestPairIndexTable:
    """``lookup`` reads a pair-index table up to ``_TABLE_CELLS`` cells and
    searches the keys above; both paths give the bits of the search."""

    @staticmethod
    def searching(matrix: CoocMatrix) -> CoocMatrix:
        """A copy of ``matrix`` whose lookups search its keys."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cooc, "_TABLE_CELLS", 0)
            copy = CoocMatrix(matrix.terms, matrix.keys, matrix.values, matrix.provenance)
            assert copy._pair_index is None  # cached on the copy
        return copy

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(min_value=1, max_value=60), data=st.data())
    def test_table_and_search_equal_the_searched_reference(self, n, data):
        terms = tuple(data.draw(st.permutations([f"t{i:02d}" for i in range(n)])))
        reference, generic = random_matrix(data, terms, "reference"), random_matrix(data, terms, "generic")
        drawn = data.draw(st.lists(st.integers(min_value=0, max_value=n * n - 1), max_size=80))
        diagonal = [i * n + i for i in range(n)]
        queries = np.array(drawn + diagonal + reference.keys.tolist() + generic.keys.tolist(), dtype=np.int64)
        names = st.sampled_from(terms + ("zz",))
        asked = data.draw(st.lists(st.tuples(names, names), max_size=20))
        for matrix in (reference, generic):
            expected = searched_lookup(matrix.keys, matrix.values, queries).tobytes()
            searching = self.searching(matrix)
            assert matrix.lookup(queries).tobytes() == searching.lookup(queries).tobytes() == expected
            assert [matrix.get(a, b) for a, b in asked] == [searching.get(a, b) for a, b in asked]
        tabled = filter_cooc(reference, generic)
        searched = filter_cooc(self.searching(reference), self.searching(generic))
        assert tabled.keys.tolist() == searched.keys.tolist()
        assert tabled.values.tobytes() == searched.values.tobytes()

    @pytest.mark.parametrize("budget", [cooc._TABLE_CELLS, 0])
    def test_an_empty_matrix_looks_up_zeros(self, monkeypatch, budget):
        monkeypatch.setattr(cooc, "_TABLE_CELLS", budget)
        empty = CoocMatrix.from_pairs(("a", "b", "c"), {}, "filtered")
        assert empty.lookup(np.arange(9)).tolist() == [0.0] * 9
        assert empty.get("a", "b") == 0.0

    @pytest.mark.parametrize("budget", [cooc._TABLE_CELLS, 0])
    def test_a_key_outside_the_table_looks_up_zero(self, monkeypatch, budget):
        monkeypatch.setattr(cooc, "_TABLE_CELLS", budget)
        matrix = CoocMatrix.from_pairs(("a", "b", "c"), {("a", "b"): 0.5, ("b", "c"): 0.25}, "filtered")
        outside = np.array([-1, -9, 9, 10, 2**62, -(2**62)], dtype=np.int64)
        assert matrix.lookup(outside).tolist() == [0.0] * len(outside)
        assert matrix.lookup(np.array([1, 5, 8])).tolist() == [0.5, 0.25, 0.0]

    @pytest.mark.parametrize("n_pairs, dtype", [(255, np.uint8), (256, np.uint16), (70_000, np.uint32)])
    def test_the_table_holds_indices_in_the_smallest_unsigned_dtype(self, n_pairs, dtype):
        n = 400
        terms = tuple(f"t{i:03d}" for i in range(n))
        a, b = np.triu_indices(n, 1)
        keys = (a * n + b)[:n_pairs]
        matrix = CoocMatrix(terms, keys, np.linspace(0.5, 1.0, n_pairs), "filtered")
        assert matrix.lookup(keys).tobytes() == matrix.values.tobytes()
        table = matrix._pair_index[0]
        assert table.dtype == dtype and table.shape == (n * n,)
        assert table[keys].tolist() == list(range(1, n_pairs + 1))

    @pytest.mark.parametrize("n, tabled", [(2048, True), (2049, False)])
    def test_a_matrix_of_more_than_2048_terms_searches(self, n, tabled):
        terms = tuple(f"t{i:04d}" for i in range(n))
        matrix = CoocMatrix(terms, np.array([1, n - 1]), np.array([0.5, 0.25]), "filtered")
        assert matrix.lookup(np.array([n - 1, 1, 2])).tolist() == [0.25, 0.5, 0.0]
        assert (matrix._pair_index is not None) == tabled


class TestFilter:
    def build_pair(self, ref_sentences, gen_sentences, terms):
        d = make_dictionary(*terms)
        ref = build_cooc(one_doc_corpus(ref_sentences, role="reference"), d)
        gen = build_cooc(one_doc_corpus(gen_sentences, role="generic"), d)
        return ref, gen

    def test_subtraction_with_floor_at_zero(self):
        ref = CoocMatrix.from_pairs(terms=("a", "b"), values={("a", "b"): 0.3}, provenance="reference")
        gen = CoocMatrix.from_pairs(terms=("a", "b"), values={("a", "b"): 0.5}, provenance="generic")
        assert filter_cooc(ref, gen).get("a", "b") == 0.0

    def test_partial_subtraction(self):
        ref = CoocMatrix.from_pairs(terms=("a", "b"), values={("a", "b"): 0.6}, provenance="reference")
        gen = CoocMatrix.from_pairs(terms=("a", "b"), values={("a", "b"): 0.2}, provenance="generic")
        assert filter_cooc(ref, gen).get("a", "b") == pytest.approx(0.4, rel=1e-12)

    def test_pairs_absent_from_generic_pass_through(self):
        ref, gen = self.build_pair(
            [["a", "b"], ["b", "c"]], [["a"], ["b"], ["c"]], ("a", "b", "c")
        )
        filtered = filter_cooc(ref, gen)
        assert filtered.get("a", "b") == ref.get("a", "b")
        assert filtered.get("b", "c") == ref.get("b", "c")

    def test_zeroed_pairs_are_dropped_from_storage(self):
        ref = CoocMatrix.from_pairs(terms=("a", "b"), values={("a", "b"): 0.3}, provenance="reference")
        gen = CoocMatrix.from_pairs(terms=("a", "b"), values={("a", "b"): 0.3}, provenance="generic")
        filtered = filter_cooc(ref, gen)
        assert ("a", "b") not in dict(filtered.pairs())
        assert filtered.get("a", "b") == 0.0

    def test_provenance_and_bounds(self):
        ref, gen = self.build_pair(
            [["a", "b"], ["a", "c"], ["b", "c"]],
            [["a", "b"], ["a"], ["b"], ["c"]],
            ("a", "b", "c"),
        )
        filtered = filter_cooc(ref, gen)
        assert filtered.provenance == "filtered"
        for (a, b), value in filtered.pairs():
            assert 0.0 < value <= ref.get(a, b)

    def test_wrong_provenance_rejected(self):
        ref, gen = self.build_pair([["a", "b"]], [["a", "b"]], ("a", "b"))
        with pytest.raises(ValueError, match="expected a reference matrix"):
            filter_cooc(gen, gen)
        with pytest.raises(ValueError, match="expected a generic matrix"):
            filter_cooc(ref, ref)

    def test_mismatched_term_lists_rejected(self):
        d1 = make_dictionary("a", "b")
        d2 = make_dictionary("a", "c")
        ref = build_cooc(one_doc_corpus([["a", "b"]], role="reference"), d1)
        gen = build_cooc(one_doc_corpus([["a", "c"]], role="generic"), d2)
        with pytest.raises(ValueError, match="term lists"):
            filter_cooc(ref, gen)

    def test_duplicating_the_generic_corpus_changes_nothing(self):
        """Dice is scale-free, so a doubled generic corpus filters identically."""
        d = make_dictionary("a", "b", "c")
        gen_doc = Document(id="g1", sentences=[["a", "b"], ["a"], ["c", "b"]])
        gen_twice = Document(id="g2", sentences=[["a", "b"], ["a"], ["c", "b"]])
        ref = build_cooc(
            one_doc_corpus([["a", "b"], ["b", "c"], ["a", "c"]], role="reference"), d
        )
        gen_one = build_cooc(Corpus(documents=[gen_doc], role="generic"), d)
        gen_two = build_cooc(Corpus(documents=[gen_doc, gen_twice], role="generic"), d)
        assert dict(filter_cooc(ref, gen_one).pairs()) == dict(filter_cooc(ref, gen_two).pairs())


def frozen_save_cooc(matrix: CoocMatrix, path) -> None:
    """Frozen reference: ``save_cooc`` as it was before it formatted each
    distinct value once, verbatim."""
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"#dictsieve-cooc\tprovenance={matrix.provenance}\tn={len(matrix.terms)}\n")
        out.write("#terms\t" + "\t".join(matrix.terms) + "\n")
        values = dict(matrix.pairs())
        for a, b in sorted(values):
            out.write(f"{a}\t{b}\t{values[(a, b)]!r}\n")


class TestWriterMatchesFrozenWriter:
    def assert_same_bytes(self, matrix, tmp_path):
        save_cooc(matrix, tmp_path / "cooc.tsv")
        frozen_save_cooc(matrix, tmp_path / "frozen.tsv")
        assert (tmp_path / "cooc.tsv").read_bytes() == (tmp_path / "frozen.tsv").read_bytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_random_matrices(self, tmp_path, seed):
        rng = random.Random(seed)
        terms = tuple(sorted({f"t{rng.randrange(200)}" for _ in range(rng.randint(2, 40))}))
        # a small pool, so values repeat
        pool = [1.0, 5e-324, 0.1 + 0.2, 1 / 3, 2 / 3] + [rng.random() for _ in range(5)]
        values = {
            pair: rng.choice(pool) if rng.random() < 0.7 else rng.random()
            for pair in combinations(terms, 2)
            if rng.random() < 0.6
        }
        self.assert_same_bytes(CoocMatrix.from_pairs(terms=terms, values=values, provenance=PROVENANCES[seed % 3]), tmp_path)

    def test_a_built_and_a_filtered_matrix(self, tmp_path):
        rng = random.Random(3)
        dictionary = make_dictionary(*ORACLE_TERMS)
        reference = build_cooc(random_corpus(rng, "reference", 30), dictionary)
        generic = build_cooc(random_corpus(rng, "generic", 30), dictionary)
        for matrix in (reference, generic, filter_cooc(reference, generic)):
            self.assert_same_bytes(matrix, tmp_path)


def frozen_load_cooc(path) -> CoocMatrix:
    """Frozen reference: ``load_cooc`` as it was before it read its pair
    lines a block at a time, verbatim but for its row reader, inlined."""
    with open_text(path) as stream:
        provenance, n = read_header(stream, path, "#dictsieve-cooc", "co-occurrence matrix", "provenance")
        if provenance not in PROVENANCES:
            raise ValueError(f"{path}:1: unknown provenance {provenance!r}")
        terms_line = stream.readline().rstrip("\n").split("\t")
        if terms_line[0] != "#terms":
            raise ValueError(f"missing term list in {path}")
        terms = tuple(terms_line[1:])
        rank = {t: r for r, t in enumerate(sorted(terms))}
        if len(rank) != len(terms):
            raise ValueError(f"{path}:2: duplicate term in the term list")
        if len(terms) != n:
            raise ValueError(f"{path}:1: header says n={n} but the term list has {len(terms)} terms")
        keys, values, seen = [], [], set()
        for lineno, line in enumerate(stream, start=3):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
            a, b, text = fields
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


ODD_FIELDS = ("", "nan", "inf", "-0.0", "1e309", "1e-320", "0", "1.5", "zz", "0.5", "t1", " ")
BLANK_LINES = ("\n", " \n", "\t\n", " \t \n", "\x0c\n", "\t\t\n")


def mutate(lines: list[str], rng: random.Random, low: int) -> list[str]:
    """``lines`` of a matrix file, each ending in a newline, after one
    seeded mutation at or after line index ``low``."""
    lines = list(lines)
    low = min(low, len(lines) - 1)
    i, j = rng.randrange(low, len(lines)), rng.randrange(low, len(lines) + 1)
    fields = lines[i].rstrip("\n").split("\t")
    kind = rng.randrange(11)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(j, lines[i])
    elif kind == 2:
        j = min(j, len(lines) - 1)
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == 3:
        fields[:2] = fields[1::-1]
    elif kind == 4:
        fields[rng.randrange(len(fields))] = rng.choice(ODD_FIELDS)
    elif kind == 5:
        lines.insert(j, rng.choice(BLANK_LINES))
    elif kind == 6:
        fields.insert(rng.randrange(len(fields) + 1), rng.choice(ODD_FIELDS))
    elif kind == 7:
        del fields[rng.randrange(len(fields))]
    elif kind == 8:
        lines[i] = lines[i].replace("\n", "\r\n")
    elif kind == 9:
        lines[-1] = lines[-1].rstrip("\n")
    else:
        del lines[max(low, 2) :]
    if 3 <= kind <= 7 and kind != 5:
        lines[i] = "\t".join(fields) + "\n"
    return lines


class TestReaderMatchesFrozenReader:
    """``load_cooc`` reads every mutated file to the arrays of the frozen
    row loop, bit for bit, or fails with its message: the first bad line in
    file order, wherever the block boundaries fall."""

    def assert_same_outcome(self, path):
        outcomes = []
        for load in (load_cooc, frozen_load_cooc):
            try:
                matrix = load(path)
            except ValueError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append((matrix.terms, matrix.provenance, matrix.keys.dtype, matrix.values.dtype,
                                 matrix.keys.tobytes(), matrix.values.tobytes()))
        assert outcomes[0] == outcomes[1]

    def matrix_lines(self, tmp_path, rng, n_terms, density) -> list[str]:
        terms = tuple(f"t{i}" for i in rng.sample(range(10 * n_terms), n_terms))
        pool = [1.0, 5e-324, 0.5, 1 / 3, 2 / 3] + [rng.random() or 1.0 for _ in range(5)]
        values = {
            pair: rng.choice(pool) if rng.random() < 0.5 else rng.random() or 1.0
            for pair in combinations(sorted(terms), 2)
            if rng.random() < density
        }
        save_cooc(CoocMatrix.from_pairs(terms, values, rng.choice(PROVENANCES)), tmp_path / "base.tsv")
        return (tmp_path / "base.tsv").read_text().splitlines(keepends=True)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_mutations_of_a_small_matrix(self, tmp_path, seed):
        rng = random.Random(seed)
        path = tmp_path / "mutated.tsv"
        for _ in range(200):
            lines = self.matrix_lines(tmp_path, rng, rng.randint(2, 12), 0.6)
            for _ in range(rng.randint(1, 3)):
                lines = mutate(lines, rng, low=2)
            path.write_bytes("".join(lines).encode())
            self.assert_same_outcome(path)

    def test_a_matrix_without_pairs_and_an_unmutated_one(self, tmp_path):
        rng = random.Random(7)
        path = tmp_path / "plain.tsv"
        for n_terms, density in ((2, 0.0), (6, 0.0), (6, 0.5), (40, 1.0)):
            path.write_text("".join(self.matrix_lines(tmp_path, rng, n_terms, density)))
            self.assert_same_outcome(path)

    @pytest.mark.parametrize("seed", range(3))
    def test_mutations_in_a_later_block_of_a_long_matrix(self, tmp_path, seed):
        rng = random.Random(100 + seed)
        base = self.matrix_lines(tmp_path, rng, 160, 0.4)
        assert len("".join(base)) > 2 * 2**16  # so the last third is in a later block
        path = tmp_path / "mutated.tsv"
        for _ in range(8):
            # mutations in the last third of the file, some on top of one
            # in the first two thirds
            lines = base
            if rng.random() < 0.5:
                lines = mutate(lines, rng, low=2)
            lines = mutate(lines, rng, low=2 * len(lines) // 3)
            path.write_bytes("".join(lines).encode())
            self.assert_same_outcome(path)

    def test_the_first_bad_line_across_blocks(self, tmp_path):
        base = self.matrix_lines(tmp_path, random.Random(9), 160, 0.4)
        path = tmp_path / "mutated.tsv"
        early, late = 100, 3 * len(base) // 4
        bad_value = base[late + 50].rsplit("\t", 1)[0] + "\tnan\n"
        for lines, message in (
            (base[:late] + [base[early]] + base[late:], f":{late + 1}: duplicate pair"),
            (base[:late] + [base[early]] + base[late : late + 50] + [bad_value] + base[late + 51 :], "duplicate pair"),
            (base[:early] + [bad_value] + base[early + 1 : late] + [base[early + 5]] + base[late:], "value 'nan'"),
            (base[:late] + [base[late].rstrip("\n")] + base[late:], f":{late + 1}: expected 3"),
            # the later pair in pair order repeats first in file order
            (base[:late] + [base[late - 5]] + base[late : late + 50] + [base[early]] + base[late + 50 :],
             f":{late + 1}: duplicate pair"),
        ):
            path.write_text("".join(lines))
            with pytest.raises(ValueError) as frozen:
                frozen_load_cooc(path)
            with pytest.raises(ValueError) as blocks:
                load_cooc(path)
            assert str(blocks.value) == str(frozen.value)
            assert message in str(blocks.value)


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = random.Random(5)
        vocab = [f"t{i}" for i in range(12)]
        sentences = [
            [t for t in vocab if rng.random() < 0.4] or [vocab[0]] for _ in range(30)
        ]
        matrix = build_cooc(one_doc_corpus(sentences), make_dictionary(*vocab))
        path = tmp_path / "cooc.tsv"
        save_cooc(matrix, path)
        loaded = load_cooc(path)
        assert loaded.terms == matrix.terms
        assert loaded.provenance == matrix.provenance
        assert dict(loaded.pairs()) == dict(matrix.pairs())
        assert loaded.norms == matrix.norms

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "stray.tsv"
        path.write_text("x\ty\t0.5\n")
        with pytest.raises(ValueError, match="not a co-occurrence matrix file"):
            load_cooc(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("b\ta\t0.4", "not in lexicographic order"),
            ("a\tz\t0.4", "term 'z' is not in the term list"),
            ("a\tb\t0.4\na\tb\t0.4", "duplicate pair"),
            ("a\tb", "expected 3 tab-separated fields, got 2"),
            ("a\tb\t0.4\t1", "expected 3 tab-separated fields, got 4"),
            ("a\tb\tnan", "not a finite number in \\(0, 1\\]"),
            ("a\tb\tinf", "not a finite number"),
            ("a\tb\t0.0", "not a finite number"),
            ("a\tb\t1.5", "not a finite number"),
            ("a\tb\thigh", "not a finite number"),
        ],
    )
    def test_rejects_bad_pair_lines_with_their_location(self, tmp_path, line, message):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "#dictsieve-cooc\tprovenance=generic\tn=3\n#terms\ta\tb\tc\nb\tc\t0.5\n" + line + "\n"
        )
        lineno = 3 + len(line.split("\n"))
        with pytest.raises(ValueError, match=f"{path.name}:{lineno}: .*{message}"):
            load_cooc(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("#dictsieve-cooc\tn=2", "header has no provenance= field"),
            ("#dictsieve-cooc\tprovenance=generic", "header has no n= field"),
            ("#dictsieve-cooc\tprovenance=generic\tn=3", "header says n=3 but the term list has 2 terms"),
            ("#dictsieve-cooc\tprovenance=generic\tn=two", "n='two' is not a count"),
            ("#dictsieve-cooc\tprovenance\tn=2", "header field 'provenance' is not name=value"),
            ("#dictsieve-cooc\tprovenance=raw\tn=2", "unknown provenance 'raw'"),
        ],
    )
    def test_rejects_bad_headers_with_their_location(self, tmp_path, header, message):
        path = tmp_path / "bad.tsv"
        path.write_text(header + "\n#terms\ta\tb\na\tb\t0.5\n")
        with pytest.raises(ValueError, match=f"{path.name}:1: {message}"):
            load_cooc(path)

    def test_a_bad_value_comes_before_a_later_undecodable_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"#dictsieve-cooc\tprovenance=generic\tn=3\n#terms\ta\tb\tc\na\tb\tnan\nb\tc\t0.5\n\xff\tc\t0.5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: value 'nan' is not a finite number"):
            load_cooc(path)

    def test_rejects_duplicate_terms(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#dictsieve-cooc\tprovenance=generic\tn=2\n#terms\ta\ta\n")
        with pytest.raises(ValueError, match=":2: duplicate term"):
            load_cooc(path)

    @settings(deadline=None)
    @given(
        terms=st.lists(
            st.text(
                st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"),
                min_size=1,
                max_size=6,
            ),
            min_size=2,
            max_size=8,
            unique=True,
        ),
        data=st.data(),
    )
    def test_save_load_round_trip_property(self, tmp_path_factory, terms, data):
        terms = tuple(terms)
        pairs = [tuple(sorted(pair)) for pair in combinations(terms, 2)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
        values = {pair: data.draw(unit) for pair in chosen}
        provenance = data.draw(st.sampled_from(PROVENANCES))
        matrix = CoocMatrix.from_pairs(terms=terms, values=values, provenance=provenance)
        path = tmp_path_factory.mktemp("cooc") / "cooc.tsv"
        save_cooc(matrix, path)
        loaded = load_cooc(path)
        assert (loaded.terms, loaded.provenance) == (terms, provenance)
        assert dict(loaded.pairs()) == values
        assert loaded.norms == matrix.norms


# ---------------------------------------------------------------------------
# the sidecar that ``save_cooc`` writes beside a matrix's TSV file


def pairs_of(path) -> Path:
    return Path(f"{path}.pairs")


def write_pairs(path, keys, values, n_pairs=None, extra=b""):
    """The sidecar of the TSV file at ``path``, built from its arrays with
    both hashes correct, so only the payload's own checks can reject it.
    ``n_pairs`` replaces the header's count, and ``extra`` is appended to
    the payload."""
    keys = np.asarray(keys, dtype="<i8")
    payload = keys.tobytes() + np.asarray(values, dtype="<f8").tobytes() + extra
    tsv = Path(path).read_bytes()
    fields = [
        "#dictsieve-pairs",
        "version=1",
        f"tsv_bytes={len(tsv)}",
        f"tsv_sha256={hashlib.sha256(tsv).hexdigest()}",
        f"pairs={len(keys) if n_pairs is None else n_pairs}",
        f"payload_sha256={hashlib.sha256(payload).hexdigest()}",
    ]
    pairs_of(path).write_bytes("\t".join(fields).encode() + b"\n" + payload)


# keys over the three terms a < b < c are a * 3 + b: (a, b) 1, (a, c) 2, (b, c) 5
SMALL_MATRIX = CoocMatrix.from_pairs(("c", "a", "b"), {("a", "b"): 0.5, ("a", "c"): 0.25, ("b", "c"): 1.0}, "generic")

TERM = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"), min_size=1, max_size=6)


@st.composite
def matrices(draw) -> CoocMatrix:
    terms = tuple(draw(st.lists(TERM, max_size=8, unique=True)))
    pairs = [tuple(sorted(pair)) for pair in combinations(terms, 2)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
    return CoocMatrix.from_pairs(terms, {pair: draw(unit) for pair in chosen}, draw(st.sampled_from(PROVENANCES)))


def as_loaded(matrix: CoocMatrix) -> tuple:
    """A matrix's terms, provenance, dtypes, keys and value bits."""
    return (matrix.terms, matrix.provenance, matrix.keys.dtype, matrix.values.dtype,
            matrix.keys.tolist(), matrix.values.view(np.int64).tolist())


@pytest.fixture
def small_tsv(tmp_path) -> Path:
    path = tmp_path / "cooc.tsv"
    save_cooc(SMALL_MATRIX, path)
    return path


BAD_MATRIX_IDS = [
    "value-above-1", "value-0", "repeated-key", "negative-key", "repeated-term", "term-with-tab-and-lf", "empty-term"
]


class TestPairsSidecar:
    @settings(deadline=None)
    @given(matrix=matrices())
    @example(matrix=CoocMatrix((), np.empty(0, np.int64), np.empty(0), "filtered"))
    @example(matrix=CoocMatrix.from_pairs(("a",), {}, "reference"))
    @example(matrix=CoocMatrix.from_pairs(("b", "a"), {("a", "b"): 5e-324}, "generic"))
    def test_round_trip_with_and_without_the_sidecar(self, tmp_path_factory, matrix):
        path = tmp_path_factory.mktemp("pairs") / "cooc.tsv"
        save_cooc(matrix, path)
        assert pairs_of(path).read_bytes().startswith(b"#dictsieve-pairs\tversion=1\ttsv_bytes=")
        through_sidecar = load_cooc(path)
        pairs_of(path).unlink()
        assert as_loaded(through_sidecar) == as_loaded(load_cooc(path)) == as_loaded(matrix)

    def test_the_sidecar_is_what_load_reads(self, small_tsv):
        write_pairs(small_tsv, [1, 5], [0.125, 0.75])
        loaded = load_cooc(small_tsv)
        assert (loaded.terms, loaded.provenance) == (SMALL_MATRIX.terms, SMALL_MATRIX.provenance)
        assert dict(loaded.pairs()) == {("a", "b"): 0.125, ("b", "c"): 0.75}

    def test_save_writes_the_documented_format(self, small_tsv):
        written = pairs_of(small_tsv).read_bytes()
        write_pairs(small_tsv, SMALL_MATRIX.keys, SMALL_MATRIX.values)
        assert pairs_of(small_tsv).read_bytes() == written
        assert written.split(b"\n", 1)[0].split(b"\t")[4] == b"pairs=3"
        assert len(written.split(b"\n", 1)[1]) == 16 * 3

    @pytest.mark.parametrize(
        "edit",
        [
            lambda tsv, header: (tsv.replace(b"\t0.25\n", b"\t0.75\n"), header),  # same length, other bytes
            lambda tsv, header: (tsv.replace(b"b\tc\t1.0\n", b""), header),
            lambda tsv, header: (tsv + b"b\tc\t1.0\n", header),
            lambda tsv, header: (tsv, b"notes about cooc.tsv\n"),
            lambda tsv, header: (tsv, header.replace(b"version=1", b"version=2")),
        ],
        ids=["tsv-edited", "tsv-line-deleted", "tsv-appended", "not-a-sidecar", "other-version"],
    )
    def test_a_sidecar_for_other_bytes_is_ignored(self, small_tsv, tmp_path, edit):
        sidecar = pairs_of(small_tsv)
        header, payload = sidecar.read_bytes().split(b"\n", 1)
        tsv, header = edit(small_tsv.read_bytes(), header + b"\n")
        small_tsv.write_bytes(tsv)
        sidecar.write_bytes(header + payload)
        sidecar_data = sidecar.read_bytes()
        parsed = tmp_path / "parsed.tsv"
        parsed.write_bytes(tsv)
        try:
            expected = load_cooc(parsed)
        except ValueError as exc:  # the appended line repeats a pair
            with pytest.raises(ValueError, match=re.escape(str(exc).replace(str(parsed), str(small_tsv)))):
                load_cooc(small_tsv)
        else:
            assert as_loaded(load_cooc(small_tsv)) == as_loaded(expected)
        assert sidecar.read_bytes() == sidecar_data

    @pytest.mark.parametrize(
        "keys, values, options, message",
        [
            ([1, 1], [0.5, 0.5], {}, "pair keys are not strictly increasing"),
            ([2, 1], [0.5, 0.5], {}, "pair keys are not strictly increasing"),
            ([1, 4], [0.5, 0.5], {}, "pair key is not two terms in lexicographic order"),  # (b, b)
            ([1, 3], [0.5, 0.5], {}, "pair key is not two terms in lexicographic order"),  # (b, a)
            ([-1, 1], [0.5, 0.5], {}, "pair key out of range for 3 terms"),
            ([1, 9], [0.5, 0.5], {}, "pair key out of range for 3 terms"),
            ([1, 2], [0.5, 0.0], {}, "value is not a finite number in (0, 1]"),
            ([1, 2], [-0.0, 0.5], {}, "value is not a finite number in (0, 1]"),
            ([1, 2], [0.5, 1.5], {}, "value is not a finite number in (0, 1]"),
            ([1, 2], [math.nan, 0.5], {}, "value is not a finite number in (0, 1]"),
            ([1, 2], [0.5, math.inf], {}, "value is not a finite number in (0, 1]"),
            ([1, 2], [0.5, -math.inf], {}, "value is not a finite number in (0, 1]"),
            ([1, 2], [0.5, 0.5], {"n_pairs": 3}, "payload size does not match the pair count"),
            ([1, 2], [0.5, 0.5], {"n_pairs": 1}, "payload size does not match the pair count"),
            ([1, 2], [0.5, 0.5], {"extra": b"\0"}, "payload size does not match the pair count"),
        ],
    )
    def test_a_damaged_payload_names_the_sidecar(self, small_tsv, keys, values, options, message):
        write_pairs(small_tsv, keys, values, **options)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{pairs_of(small_tsv)}: {message}')}$"):
            load_cooc(small_tsv)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda header, payload: (header.replace(b"\tpairs=3", b""), payload), ":1: malformed pairs header"),
            (lambda header, payload: (header.replace(b"pairs=3", b"pairs=x"), payload), ":1: malformed pairs header"),
            (lambda header, payload: (header.replace(b"pairs=3", b"pairs"), payload), ":1: malformed pairs header"),
            (lambda header, payload: (header.replace(b"tsv_bytes=", b"tsv_bytes=x"), payload), ":1: malformed pairs header"),
            (lambda header, payload: (header[:-3], payload), ":1: malformed pairs header"),
            (lambda header, payload: (header + b"\xff", payload), ":1: malformed pairs header"),
            (lambda header, payload: (header, payload[:-1] + b"\1"), ": payload does not match its sha256"),
            (lambda header, payload: (header, payload[:-1]), ": payload does not match its sha256"),
        ],
        ids=["missing-field", "not-a-count", "no-equals", "bytes-not-a-count", "bad-hash", "not-ascii",
             "payload-changed", "payload-truncated"],
    )
    def test_a_damaged_header_or_hash_names_the_sidecar(self, small_tsv, damage, message):
        sidecar = pairs_of(small_tsv)
        header, payload = damage(*sidecar.read_bytes().split(b"\n", 1))
        sidecar.write_bytes(header + b"\n" + payload)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{sidecar}{message}')}$"):
            load_cooc(small_tsv)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: CoocMatrix.from_pairs(("a", "b"), {("a", "b"): 1.5}, "generic"), "value is not a finite number in (0, 1]"),
            (lambda: CoocMatrix.from_pairs(("a", "b"), {("a", "b"): 0.0}, "generic"), "value is not a finite number in (0, 1]"),
            (lambda: CoocMatrix(("a", "b"), np.array([1, 1]), np.array([0.5, 0.5]), "generic"), "pair keys are not strictly"),
            (lambda: CoocMatrix(("a", "b"), np.array([-1]), np.array([0.5]), "generic"), "pair key out of range for 2 terms"),
            (lambda: CoocMatrix(("a", "a"), np.empty(0, np.int64), np.empty(0), "generic"), "duplicate term in the term list"),
            (lambda: CoocMatrix(("a\tb\nc", "d"), np.array([1]), np.array([0.5]), "generic"), "term 'a\\tb\\nc' contains a tab"),
            (lambda: CoocMatrix(("", "b"), [1], [0.5], "reference"), "term '' is empty"),
            (lambda: CoocMatrix(tuple("abc"), np.array([1, 2]), np.array([0.5]), "generic"), "pair keys and values differ"),
            # ``save_cooc`` would leave an empty TSV file
            (lambda: CoocMatrix(("a\ud800", "b"), [1], [0.5], "reference"), "term 'a\\ud800' contains a lone surrogate"),
        ],
        ids=[*BAD_MATRIX_IDS, "more-keys-than-values", "term-with-surrogate"],
    )
    def test_a_matrix_that_load_would_reject_is_not_built(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            build()

    def test_keys_and_values_given_as_lists_are_converted(self):
        matrix = CoocMatrix(("a", "b"), [1], [0.5], "generic")
        assert (matrix.keys.dtype, matrix.values.dtype) == (np.int64, np.float64)
        assert matrix.get("b", "a") == 0.5
        assert len(CoocMatrix(("a", "b"), [], [], "generic")) == 0

    @pytest.mark.parametrize("keys, values", [([1.0], [0.5]), ([1], ["0.5"]), (["1"], [0.5])])
    def test_keys_and_values_that_do_not_convert_without_loss_are_rejected(self, keys, values):
        with pytest.raises(ValueError, match="^pair keys must be integers and values numbers$"):
            CoocMatrix(("a", "b"), keys, values, "generic")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n=2\n#terms\ta\tb\na\tb\t1.5\n", ":3: value '1.5' is not a finite number"),
            ("n=2\n#terms\ta\tb\na\tb\t0.0\n", ":3: value '0.0' is not a finite number"),
            ("n=2\n#terms\ta\tb\na\tb\t0.5\na\tb\t0.5\n", ":4: duplicate pair"),
            ("n=2\n#terms\ta\tb\nb\tb\t0.5\n", ":3: pair ('b', 'b') is not in"),
            ("n=2\n#terms\ta\ta\n", ":2: duplicate term"),
            # the term line reads as ("a", "b"), two terms as the header says
            ("n=2\n#terms\ta\tb\nc\td\na\tb\nc\td\t0.5\n", ":3: expected 3"),
            ("n=2\n#terms\t\tb\n", ":2: term '' is empty"),
        ],
        ids=BAD_MATRIX_IDS,
    )
    def test_load_names_the_line_of_such_a_matrix(self, tmp_path, text, message):
        """Each matrix above as the TSV writer would write it: ``load_cooc``
        names the line that breaks its rule."""
        path = tmp_path / "bad.tsv"
        path.write_bytes(f"#dictsieve-cooc\tprovenance=generic\t{text}".encode())
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            load_cooc(path)

    def test_save_removes_only_its_own_sidecars(self, tmp_path):
        path = tmp_path / "cooc.tsv"
        sidecar = pairs_of(path)
        sidecar.write_text("not a sidecar\n")
        save_cooc(SMALL_MATRIX, path)
        assert sidecar.read_bytes().startswith(b"#dictsieve-pairs\t")
        other = CoocMatrix.from_pairs(("a", "b"), {("a", "b"): 0.5}, "generic")
        save_cooc(other, path)
        save_cooc(other, tmp_path / "fresh.tsv")
        assert sidecar.read_bytes() == pairs_of(tmp_path / "fresh.tsv").read_bytes()
