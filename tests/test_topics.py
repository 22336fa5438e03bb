"""Tests for topic model fitting, exclusion, and persistence."""

from __future__ import annotations

import random

import numpy as np
import pytest

from dictsieve import (
    Corpus,
    Document,
    exclude_topics,
    fit_lda,
    load_model,
    save_model,
    term_stats,
    top_terms,
)
from dictsieve.topics import TopicModelResult, _gibbs_states, _modeling_units


def tiny_corpus() -> Corpus:
    docs = [
        Document(id="d1", sentences=[["apple", "apple", "pear"], ["pear", "plum"]]),
        Document(id="d2", sentences=[["plum", "plum", "apple"]]),
    ]
    return Corpus(documents=docs, role="reference")


def two_vocab_corpus(seed: int = 11) -> Corpus:
    """Forty documents drawn from two disjoint 12-term vocabularies."""
    rng = random.Random(seed)
    left = [f"left{i}" for i in range(12)]
    right = [f"right{i}" for i in range(12)]
    docs = []
    for i in range(40):
        vocab = left if i % 2 == 0 else right
        tokens = [rng.choice(vocab) for _ in range(25)]
        docs.append(Document(id=f"d{i:02d}", sentences=[tokens]))
    return Corpus(documents=docs, role="reference")


class TestSingleTopicIsAnalytic:
    """With one topic every token lands in it, so phi has a closed form."""

    def test_phi_matches_smoothed_frequencies(self):
        corpus = tiny_corpus()
        stats = term_stats(corpus)
        beta = 0.01
        model = fit_lda(corpus, 1, beta=beta, iterations=5, seed=3)
        total = sum(stats.tf.values())
        v = len(model.vocab)
        expected = np.array(
            [(stats.tf[w] + beta) / (total + v * beta) for w in model.vocab]
        )
        np.testing.assert_allclose(model.phi[0], expected, rtol=1e-12)
        assert model.topic_weight[0] == pytest.approx(1.0)

    def test_iterations_do_not_change_the_single_topic_fit(self):
        corpus = tiny_corpus()
        a = fit_lda(corpus, 1, iterations=1, seed=0)
        b = fit_lda(corpus, 1, iterations=50, seed=9)
        np.testing.assert_array_equal(a.phi, b.phi)


class TestFitProperties:
    def test_same_seed_reproduces_bit_identical_state(self):
        corpus = two_vocab_corpus()
        a = fit_lda(corpus, 2, alpha=0.5, iterations=30, seed=5)
        b = fit_lda(corpus, 2, alpha=0.5, iterations=30, seed=5)
        np.testing.assert_array_equal(a.phi, b.phi)
        np.testing.assert_array_equal(a.topic_weight, b.topic_weight)

    def test_different_seeds_usually_differ(self):
        corpus = two_vocab_corpus()
        a = fit_lda(corpus, 2, alpha=0.5, iterations=30, seed=5)
        b = fit_lda(corpus, 2, alpha=0.5, iterations=30, seed=6)
        assert not np.array_equal(a.phi, b.phi)

    def test_phi_rows_are_distributions(self):
        model = fit_lda(two_vocab_corpus(), 3, alpha=0.5, iterations=20, seed=1)
        np.testing.assert_allclose(model.phi.sum(axis=1), np.ones(3), rtol=1e-9)
        assert (model.phi > 0).all()
        assert model.topic_weight.sum() == pytest.approx(1.0)

    def test_default_alpha_scales_with_topic_count(self):
        with pytest.warns(UserWarning, match="exceeds vocabulary size"):
            model = fit_lda(tiny_corpus(), 5, iterations=2, seed=0)
        assert model.alpha == pytest.approx(10.0)

    def test_counts_stay_consistent_every_sweep(self):
        """Token-topic assignments must conserve per-term totals throughout."""
        corpus = two_vocab_corpus(seed=3)
        stats = term_stats(corpus)
        vocab = tuple(sorted(corpus.vocabulary))
        units = _modeling_units(corpus)
        word_ids = np.array(
            [vocab.index(t) for unit in units for t in unit], dtype=np.int64
        )
        unit_ids = np.array(
            [d for d, unit in enumerate(units) for _ in unit], dtype=np.int64
        )
        rng = np.random.default_rng(42)
        tf_vector = np.array([stats.tf[w] for w in vocab])
        sweeps = 0
        for n_kw, n_k in _gibbs_states(word_ids, unit_ids, 4, len(vocab), 0.5, 0.01, 10, rng):
            np.testing.assert_array_equal(n_kw.sum(axis=0), tf_vector)
            np.testing.assert_array_equal(n_kw.sum(axis=1), n_k)
            assert n_k.sum() == len(word_ids)
            sweeps += 1
        assert sweeps == 10

    def test_paragraph_groups_change_the_modeling_units(self):
        doc = Document(
            id="d",
            sentences=[["a", "b"], ["c"], ["d", "e"]],
            paragraphs=[[0, 1], [2]],
        )
        units = _modeling_units(Corpus(documents=[doc], role="reference"))
        assert units == [["a", "b", "c"], ["d", "e"]]

    def test_plain_documents_are_single_units(self):
        corpus = tiny_corpus()
        units = _modeling_units(corpus)
        assert units == [["apple", "apple", "pear", "pear", "plum"], ["plum", "plum", "apple"]]

    def test_two_vocab_corpus_separates(self):
        corpus = two_vocab_corpus()
        model = fit_lda(corpus, 2, alpha=0.5, iterations=150, seed=0)
        top1 = {t for t, _ in top_terms(model, 1, 5)}
        top2 = {t for t, _ in top_terms(model, 2, 5)}
        sides1 = {t[:4] for t in top1}
        sides2 = {t[:4] for t in top2}
        assert len(sides1) == 1 and len(sides2) == 1
        assert sides1 != sides2


class TestFitValidation:
    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty corpus"):
            fit_lda(Corpus(documents=[], role="reference"), 2)

    def test_no_tokens(self):
        corpus = Corpus(documents=[Document(id="d", sentences=[])], role="reference")
        with pytest.raises(ValueError, match="no tokens"):
            fit_lda(corpus, 2, iterations=1)

    def test_bad_topic_count(self):
        with pytest.raises(ValueError, match="n_topics"):
            fit_lda(tiny_corpus(), 0, iterations=1)

    def test_bad_iterations(self):
        with pytest.raises(ValueError, match="iterations"):
            fit_lda(tiny_corpus(), 1, iterations=0)

    def test_more_topics_than_terms_warns_but_fits(self):
        with pytest.warns(UserWarning, match="exceeds vocabulary size"):
            model = fit_lda(tiny_corpus(), 10, iterations=2, seed=0)
        assert model.n_topics == 10


class TestExclusion:
    def test_exclusion_is_recorded_not_destructive(self):
        model = fit_lda(tiny_corpus(), 3, iterations=5, seed=1)
        pruned = exclude_topics(model, {2})
        assert pruned.excluded == frozenset({2})
        assert pruned.retained_topics() == [1, 3]
        np.testing.assert_array_equal(pruned.phi, model.phi)
        assert model.excluded == frozenset()

    def test_exclusions_accumulate(self):
        model = fit_lda(tiny_corpus(), 3, iterations=5, seed=1)
        pruned = exclude_topics(exclude_topics(model, {1}), {3})
        assert pruned.excluded == frozenset({1, 3})
        assert pruned.retained_topics() == [2]

    def test_empty_exclusion_is_identity(self):
        model = fit_lda(tiny_corpus(), 2, iterations=5, seed=1)
        assert exclude_topics(model, set()).excluded == frozenset()

    def test_out_of_range_ids_rejected(self):
        model = fit_lda(tiny_corpus(), 2, iterations=5, seed=1)
        with pytest.raises(ValueError, match="out of range"):
            exclude_topics(model, {0})
        with pytest.raises(ValueError, match="out of range"):
            exclude_topics(model, {3})


class TestTopTerms:
    def manual_model(self) -> TopicModelResult:
        phi = np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]])
        return TopicModelResult(
            n_topics=2,
            vocab=("alder", "birch", "cedar"),
            phi=phi,
            topic_weight=np.array([0.5, 0.5]),
            excluded=frozenset(),
            seed=0,
            alpha=0.5,
            beta=0.01,
            iterations=1,
        )

    def test_descending_probability(self):
        model = self.manual_model()
        assert top_terms(model, 1, 2) == [("alder", 0.5), ("birch", 0.3)]
        assert top_terms(model, 2, 1) == [("cedar", 0.6)]

    def test_ties_break_lexicographically(self):
        model = self.manual_model()
        assert [t for t, _ in top_terms(model, 2, 3)] == ["cedar", "alder", "birch"]

    def test_n_larger_than_vocab_clamps(self):
        model = self.manual_model()
        assert len(top_terms(model, 1, 99)) == 3

    def test_bad_topic_id(self):
        model = self.manual_model()
        with pytest.raises(ValueError, match="out of range"):
            top_terms(model, 0, 1)
        with pytest.raises(ValueError, match="out of range"):
            top_terms(model, 3, 1)


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = fit_lda(two_vocab_corpus(), 2, alpha=0.5, iterations=40, seed=4)
        model = exclude_topics(model, {2})
        path = tmp_path / "model.tsv"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.vocab == model.vocab
        assert loaded.excluded == model.excluded
        assert loaded.seed == model.seed
        assert loaded.alpha == model.alpha
        assert loaded.beta == model.beta
        assert loaded.iterations == model.iterations
        np.testing.assert_array_equal(loaded.phi, model.phi)
        np.testing.assert_array_equal(loaded.topic_weight, model.topic_weight)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not_a_model.tsv"
        path.write_text("rank\tdoc\n1\tx\n")
        with pytest.raises(ValueError, match="not a topic model file"):
            load_model(path)

    @staticmethod
    def saved_lines(tmp_path) -> tuple:
        """A saved 2-topic model over 3 terms: line 8 is ``excluded``, 9
        ``vocab``, 10 ``topic_weight`` and 11-12 the ``phi`` rows."""
        path = tmp_path / "model.tsv"
        save_model(fit_lda(tiny_corpus(), 2, alpha=0.5, iterations=5, seed=3), path)
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize(
        "start, stop, replacement, lineno, message",
        [
            pytest.param(1, None, [], 2, "expected the n_topics line", id="header-only"),
            pytest.param(2, 3, [], 3, "expected the n_vocab line", id="no-n_vocab"),
            pytest.param(3, 4, ["alpha\tmany"], 4, "alpha holds a value that is not float", id="alpha-text"),
            pytest.param(7, 8, ["excluded\t3"], 8, r"excluded topic ids \[3\] are not all in 1..2", id="excluded-3"),
            pytest.param(7, 8, ["excluded\t0"], 8, r"excluded topic ids \[0\] are not all in 1..2", id="excluded-0"),
            pytest.param(8, 9, ["vocab\tapple\tpear"], 9, "vocab must hold 3 distinct terms", id="vocab-short"),
            pytest.param(8, 9, ["vocab\tapple\tpear\tpear"], 9, "vocab must hold 3 distinct", id="vocab-repeat"),
            pytest.param(9, 10, ["topic_weight\t1.0"], 10, "topic_weight has 1 values, expected 2", id="weight-short"),
            pytest.param(9, 10, ["topic_weight\t0.5\tnan"], 10, "topic_weight values must be finite", id="weight-nan"),
            pytest.param(10, 11, ["phi\t1\t0.5\t0.5"], 11, "phi 1 has 2 values, expected 3", id="phi-short"),
            pytest.param(11, None, [], 12, "expected the phi 2 line", id="phi-missing"),
            pytest.param(11, 12, ["phi\t1\t0.5\t0.25\t0.25"], 12, "expected the phi 2 line", id="phi-repeat"),
            pytest.param(12, 12, ["phi\t2\t0.5\t0.25\t0.25"], 13, "unexpected line after the last phi row", id="phi-extra"),
            pytest.param(10, 11, ["phi\t1\t0.5\tinf\t0.5"], 11, "phi row 1 must hold finite, non-negative", id="phi-inf"),
            pytest.param(10, 11, ["phi\t1\t0.5\tnan\t0.5"], 11, "phi row 1 must hold finite, non-negative", id="phi-nan"),
            pytest.param(10, 11, ["phi\t1\t1.5\t-0.5\t0.0"], 11, "phi row 1 must hold finite, non-negative", id="phi-neg"),
            pytest.param(10, 11, ["phi\t1\t5.0\t5.0\t5.0"], 11, "phi row 1 sums to 15.0, not 1", id="phi-fives"),
            pytest.param(10, 11, ["phi\t1\t0.5\t0.5\t1e-08"], 11, "phi row 1 sums to 1.00000001", id="phi-sum-off"),
        ],
    )
    def test_rejects_malformed_lines_with_their_location(
        self, tmp_path, start, stop, replacement, lineno, message
    ):
        path, lines = self.saved_lines(tmp_path)
        lines[start:stop] = replacement
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"model.tsv:{lineno}: {message}"):
            load_model(path)

    def test_accepts_rows_that_sum_to_one_within_tolerance(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        lines[10] = "phi\t1\t0.5\t0.25\t0.25000000000100003"
        path.write_text("\n".join(lines) + "\n")
        assert load_model(path).phi[0, 2] == 0.25000000000100003
