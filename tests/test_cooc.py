"""Tests for sentence co-occurrence matrices and generic filtering."""

from __future__ import annotations

import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictsieve import (
    Corpus,
    Document,
    build_cooc,
    dice,
    filter_cooc,
    load_cooc,
    save_cooc,
)
from dictsieve.cooc import PROVENANCES, CoocMatrix
from dictsieve.dictionary import Dictionary, DictionaryEntry, boost


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
        assert ("a", "c") not in matrix.values

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
        with pytest.raises(ValueError, match="corpus is empty"):
            build_cooc(Corpus(documents=[], role="reference"), make_dictionary("a"))

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
    for (a, b), value in matrix.values.items():
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
    assert list(matrix.values.items()) == [(pair, oracle[pair]) for pair in sorted(oracle)]
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
        assert matrix.profiles["b"] == {}

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
        assert matrix.values == {}
        assert set(matrix.norms.values()) == {0.0}

    def test_one_term_per_sentence(self):
        sentences = [[term, "noise", term] for term in ORACLE_TERMS[:8] * 3]
        matrix = assert_matches_oracles(one_doc_corpus(sentences), make_dictionary(*ORACLE_TERMS))
        assert matrix.values == {}
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

    def test_keys_that_could_overflow_int64_are_rejected(self):
        """n² pair keys times the sentence count must stay below 2**63; a
        stand-in reports 2**32 terms, since a real dictionary that size
        would not fit in memory."""

        class HugeDictionary:
            def __len__(self):
                return 1 << 32

        with pytest.raises(ValueError, match="4294967296 terms over 1 sentences overflow the int64 pair keys"):
            build_cooc(one_doc_corpus([["a", "b"]]), HugeDictionary())


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
            profile = np.array(list(matrix.profiles[term].values()))
            assert matrix.norms[term] == pytest.approx(float(np.linalg.norm(profile)), rel=1e-12)

    def test_unknown_term_is_not_in_the_matrix(self):
        matrix = build_cooc(one_doc_corpus([["a", "b"]]), make_dictionary("a", "b"))
        assert "zzz" not in matrix
        assert "a" in matrix

    def test_profiles_skip_zero_partners(self):
        corpus = one_doc_corpus([["a", "b"], ["c"]])
        matrix = build_cooc(corpus, make_dictionary("a", "b", "c"))
        assert matrix.profiles == {"a": {"b": 1.0}, "b": {"a": 1.0}, "c": {}}
        assert matrix.norms == {"a": 1.0, "b": 1.0, "c": 0.0}


class TestFilter:
    def build_pair(self, ref_sentences, gen_sentences, terms):
        d = make_dictionary(*terms)
        ref = build_cooc(one_doc_corpus(ref_sentences, role="reference"), d)
        gen = build_cooc(one_doc_corpus(gen_sentences, role="generic"), d)
        return ref, gen

    def test_subtraction_with_floor_at_zero(self):
        ref = CoocMatrix(terms=("a", "b"), values={("a", "b"): 0.3}, provenance="reference")
        gen = CoocMatrix(terms=("a", "b"), values={("a", "b"): 0.5}, provenance="generic")
        assert filter_cooc(ref, gen).get("a", "b") == 0.0

    def test_partial_subtraction(self):
        ref = CoocMatrix(terms=("a", "b"), values={("a", "b"): 0.6}, provenance="reference")
        gen = CoocMatrix(terms=("a", "b"), values={("a", "b"): 0.2}, provenance="generic")
        assert filter_cooc(ref, gen).get("a", "b") == pytest.approx(0.4, rel=1e-12)

    def test_pairs_absent_from_generic_pass_through(self):
        ref, gen = self.build_pair(
            [["a", "b"], ["b", "c"]], [["a"], ["b"], ["c"]], ("a", "b", "c")
        )
        filtered = filter_cooc(ref, gen)
        assert filtered.get("a", "b") == ref.get("a", "b")
        assert filtered.get("b", "c") == ref.get("b", "c")

    def test_zeroed_pairs_are_dropped_from_storage(self):
        ref = CoocMatrix(terms=("a", "b"), values={("a", "b"): 0.3}, provenance="reference")
        gen = CoocMatrix(terms=("a", "b"), values={("a", "b"): 0.3}, provenance="generic")
        filtered = filter_cooc(ref, gen)
        assert ("a", "b") not in filtered.values
        assert filtered.get("a", "b") == 0.0

    def test_provenance_and_bounds(self):
        ref, gen = self.build_pair(
            [["a", "b"], ["a", "c"], ["b", "c"]],
            [["a", "b"], ["a"], ["b"], ["c"]],
            ("a", "b", "c"),
        )
        filtered = filter_cooc(ref, gen)
        assert filtered.provenance == "filtered"
        for (a, b), value in filtered.values.items():
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
        assert filter_cooc(ref, gen_one).values == filter_cooc(ref, gen_two).values


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
        assert loaded.values == matrix.values
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
        matrix = CoocMatrix(terms=terms, values=values, provenance=provenance)
        path = tmp_path_factory.mktemp("cooc") / "cooc.tsv"
        save_cooc(matrix, path)
        loaded = load_cooc(path)
        assert (loaded.terms, loaded.provenance) == (terms, provenance)
        assert loaded.values == values
        assert loaded.norms == matrix.norms
