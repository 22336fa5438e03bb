"""Tests for topic model fitting, exclusion, and persistence."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import random
import re

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


def numpy_gibbs_states(word_ids, unit_ids, n_topics, n_vocab, alpha, beta, iterations, rng):
    """Frozen oracle: the float64 numpy sampler that the list sampler replaced.

    Kept verbatim.  Its yields are live views of sampler state, so callers
    copy them.
    """
    n_tokens = len(word_ids)
    n_units = int(unit_ids.max()) + 1 if n_tokens else 0
    assignments = rng.integers(0, n_topics, size=n_tokens)
    n_kw = np.zeros((n_topics, n_vocab), dtype=np.float64)
    n_k = np.zeros(n_topics, dtype=np.float64)
    n_dk = np.zeros((n_units, n_topics), dtype=np.float64)
    np.add.at(n_kw, (assignments, word_ids), 1.0)
    np.add.at(n_k, assignments, 1.0)
    np.add.at(n_dk, (unit_ids, assignments), 1.0)

    v_beta = n_vocab * beta
    for _ in range(iterations):
        for i in range(n_tokens):
            w = word_ids[i]
            d = unit_ids[i]
            k = assignments[i]
            n_kw[k, w] -= 1.0
            n_k[k] -= 1.0
            n_dk[d, k] -= 1.0

            # full conditional over topics; the per-unit denominator is
            # constant across k and cancels
            weights = (n_kw[:, w] + beta) / (n_k + v_beta) * (n_dk[d] + alpha)
            u = rng.random() * weights.sum()
            k = int(np.searchsorted(np.cumsum(weights), u, side="right"))
            if k == n_topics:  # guard against u landing on the top edge
                k = n_topics - 1

            assignments[i] = k
            n_kw[k, w] += 1.0
            n_k[k] += 1.0
            n_dk[d, k] += 1.0
        yield n_kw, n_k


def unit_terms(corpus: Corpus) -> list[list[str]]:
    """The modeling units as token strings: ``_modeling_units`` lists each
    unit's tokens as indices into the corpus's sorted vocabulary."""
    return [[corpus.coding.vocab[w] for w in unit] for unit in _modeling_units(corpus)]


def sampler_inputs(corpus: Corpus) -> tuple[list[int], list[int], int]:
    """Word ids, unit ids and vocabulary size, as ``fit_lda`` builds them."""
    vocab = sorted(corpus.vocabulary)
    index = {w: i for i, w in enumerate(vocab)}
    units = unit_terms(corpus)
    word_ids = [index[t] for unit in units for t in unit]
    unit_ids = [d for d, unit in enumerate(units) for _ in unit]
    return word_ids, unit_ids, len(vocab)


def assert_same_chain(corpus, n_topics, alpha, beta, sweeps, make_rng):
    """Both samplers, fed the same uniforms, hold equal counts after every
    sweep; return the K x V word counts after each."""
    word_ids, unit_ids, n_vocab = sampler_inputs(corpus)
    args = (n_topics, n_vocab, alpha, beta, sweeps)
    expected = [
        (n_kw.copy(), n_k.copy())
        for n_kw, n_k in numpy_gibbs_states(np.array(word_ids), np.array(unit_ids), *args, make_rng())
    ]
    got = [
        (np.array(n_wk, dtype=np.float64).T, np.array(n_k, dtype=np.float64))
        for n_wk, n_k in _gibbs_states(word_ids, unit_ids, *args, make_rng())
    ]
    assert len(got) == len(expected) == sweeps
    for sweep, ((n_kw, n_k), (want_kw, want_k)) in enumerate(zip(got, expected), 1):
        np.testing.assert_array_equal(n_kw, want_kw, err_msg=f"n_kw after sweep {sweep}")
        np.testing.assert_array_equal(n_k, want_k, err_msg=f"n_k after sweep {sweep}")
    return [n_kw for n_kw, _ in got]


def paragraph_corpus(seed: int) -> Corpus:
    """Sixteen documents over 40 Zipf-weighted terms; every other one is cut
    into two paragraph groups, so units are paragraphs and documents mixed."""
    rng = random.Random(seed)
    terms = [f"t{i:02d}" for i in range(40)]
    weights = [1.0 / (i + 1) for i in range(40)]
    docs = []
    for i in range(16):
        sentences = [rng.choices(terms, weights, k=rng.randint(3, 9)) for _ in range(4)]
        paragraphs = [[0, 1], [2, 3]] if i % 2 else None
        docs.append(Document(id=f"d{i:02d}", sentences=sentences, paragraphs=paragraphs))
    return Corpus(documents=docs, role="reference")


class QuarterUniforms:
    """A generator whose uniforms are multiples of 1/4.

    When topics tie on weight, u * total then lands exactly on a cumulative
    boundary, where the draw must go to the upper topic, as
    ``searchsorted(side="right")`` sends it.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, size=None):
        return np.floor(self._rng.random(size) * 4.0) / 4.0


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
        units = unit_terms(corpus)
        word_ids = np.array(
            [vocab.index(t) for unit in units for t in unit], dtype=np.int64
        )
        unit_ids = np.array(
            [d for d, unit in enumerate(units) for _ in unit], dtype=np.int64
        )
        rng = np.random.default_rng(42)
        tf_vector = np.array([stats.tf[w] for w in vocab])
        sweeps = 0
        for n_wk, n_k in _gibbs_states(word_ids, unit_ids, 4, len(vocab), 0.5, 0.01, 10, rng):
            n_kw, n_k = np.array(n_wk).T, np.array(n_k)
            np.testing.assert_array_equal(n_kw.sum(axis=0), tf_vector)
            np.testing.assert_array_equal(n_kw.sum(axis=1), n_k)
            assert n_k.sum() == len(word_ids)
            sweeps += 1
        assert sweeps == 10

    def test_every_sweep_yields_the_live_counts(self):
        word_ids, unit_ids, n_vocab = sampler_inputs(two_vocab_corpus(seed=3))
        rng = np.random.default_rng(42)
        states = _gibbs_states(word_ids, unit_ids, 4, n_vocab, 0.5, 0.01, 4, rng)
        n_wk, n_k = next(states)
        rows = list(n_wk)
        assert len(rows) == n_vocab and all(len(row) == 4 for row in rows)
        seen = [copy.deepcopy((n_wk, n_k))]
        for later_wk, later_k in states:
            assert later_wk is n_wk and later_k is n_k
            assert all(a is b for a, b in zip(later_wk, rows))
            seen.append(copy.deepcopy((n_wk, n_k)))
        assert len(seen) == 4
        assert all(a[0] != b[0] for a, b in zip(seen, seen[1:]))

    def test_paragraph_groups_change_the_modeling_units(self):
        doc = Document(
            id="d",
            sentences=[["a", "b"], ["c"], ["d", "e"]],
            paragraphs=[[0, 1], [2]],
        )
        units = unit_terms(Corpus(documents=[doc], role="reference"))
        assert units == [["a", "b", "c"], ["d", "e"]]

    def test_plain_documents_are_single_units(self):
        corpus = tiny_corpus()
        units = unit_terms(corpus)
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


class TestSamplerMatchesNumpyOracle:
    """The list sampler draws the numpy sampler's chain, sweep for sweep."""

    @pytest.mark.parametrize(
        "alpha, beta",
        [pytest.param(0.5, 0.01, id="a0.5-b0.01"), pytest.param(50.0 / 7, 0.1, id="a50over7-b0.1")],
    )
    @pytest.mark.parametrize("n_topics", [1, 2, 7, 8, 9, 23, 64])
    def test_same_counts_after_every_sweep(self, n_topics, alpha, beta):
        corpus = paragraph_corpus(seed=n_topics)
        assert_same_chain(
            corpus, n_topics, alpha, beta, 6, lambda: np.random.default_rng(1000 + n_topics)
        )

    @pytest.mark.parametrize(
        "corpus, n_topics",
        [
            pytest.param(paragraph_corpus(seed=7), 7, id="K7"),
            pytest.param(paragraph_corpus(seed=64), 64, id="K64"),
            pytest.param(paragraph_corpus(seed=100), 100, id="K100"),
            pytest.param(tiny_corpus(), 40, id="K40-over-3-terms"),
        ],
    )
    def test_same_counts_as_word_rows_thin_out(self, corpus, n_topics):
        # small priors over 80 sweeps: each word gathers into a few topics,
        # so its row loses topics and regains them along the chain
        counts = assert_same_chain(corpus, n_topics, 0.05, 0.01, 80, lambda: np.random.default_rng(2000 + n_topics))
        pairs = list(zip(counts, counts[1:]))
        assert any(((before > 0) & (after == 0)).any() for before, after in pairs)
        assert any(((before == 0) & (after > 0)).any() for before, after in pairs)

    @pytest.mark.parametrize("n_topics", [2, 4])
    def test_ties_go_to_the_upper_topic(self, n_topics):
        # one term in one unit: word, unit and topic counts coincide, so any
        # even split of the other tokens gives topics equal weights
        corpus = Corpus(documents=[Document(id="d", sentences=[["a"] * 7])], role="reference")
        assert_same_chain(corpus, n_topics, 1.0, 0.5, 20, lambda: QuarterUniforms(4))

    def test_one_token_units(self):
        docs = [
            Document(id="a", sentences=[["x"]]),
            Document(id="b", sentences=[["x", "y"], ["z"], ["y"]], paragraphs=[[0], [1], [2]]),
            Document(id="c", sentences=[["y", "z", "x", "x"]]),
            Document(id="d", sentences=[["z"]]),
        ]
        corpus = Corpus(documents=docs, role="reference")
        assert [len(unit) for unit in _modeling_units(corpus)] == [1, 2, 1, 1, 4, 1]
        assert_same_chain(corpus, 3, 0.5, 0.01, 8, lambda: np.random.default_rng(5))

    @pytest.mark.parametrize("n_topics", [1, 3])
    def test_counts_reach_the_top_of_both_tables(self, n_topics):
        # one word repeated in one unit: the largest word frequency and the
        # longest unit are both 9, and a topic holds all 9 tokens once the
        # urn concentrates (always, with one topic)
        corpus = Corpus(documents=[Document(id="d", sentences=[["a"] * 9])], role="reference")
        assert_same_chain(corpus, n_topics, 0.05, 0.01, 30, lambda: np.random.default_rng(8))
        word_ids, unit_ids, n_vocab = sampler_inputs(corpus)
        states = _gibbs_states(word_ids, unit_ids, n_topics, n_vocab, 0.05, 0.01, 30, np.random.default_rng(8))
        assert any(max(n_wk[0]) == 9 for n_wk, _ in states)

    def test_more_topics_than_terms(self):
        corpus = tiny_corpus()
        assert len(corpus.vocabulary) == 3
        assert_same_chain(corpus, 5, 10.0, 0.01, 12, lambda: np.random.default_rng(6))

    def test_planted_model_bytes_are_pinned(self, planted_reference, tmp_path):
        """sha256 of the model file written from the numpy sampler's chain."""
        model = fit_lda(planted_reference, 2, alpha=0.5, beta=0.01, iterations=120, seed=7)
        path = tmp_path / "model.tsv"
        save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "55c2a69dfdc32fd826fc6af75af678d66ac2bfd40fb83df22208ef74ef7bab2c"
        )


def frozen_save_model(model: TopicModelResult, path) -> None:
    """Frozen reference: ``save_model`` as it was before it formatted each
    distinct value once, verbatim."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("#dictsieve-topic-model\tv1\n")
        out.write(f"n_topics\t{model.n_topics}\n")
        out.write(f"n_vocab\t{len(model.vocab)}\n")
        out.write(f"alpha\t{model.alpha!r}\n")
        out.write(f"beta\t{model.beta!r}\n")
        out.write(f"iterations\t{model.iterations}\n")
        out.write(f"seed\t{model.seed}\n")
        out.write("excluded\t" + ",".join(str(k) for k in sorted(model.excluded)) + "\n")
        out.write("vocab\t" + "\t".join(model.vocab) + "\n")
        out.write("topic_weight\t" + "\t".join(repr(float(x)) for x in model.topic_weight) + "\n")
        for k in range(model.n_topics):
            out.write(f"phi\t{k + 1}\t" + "\t".join(repr(float(x)) for x in model.phi[k]) + "\n")


# values a writer must format exactly: the smallest subnormal, values whose
# shortest text has 16 or 17 digits, and both zeros
EDGE_VALUES = (1.0, 5e-324, 0.1 + 0.2, 1 / 3, 0.0, -0.0, 1e-300, 0.5)


class TestWriterMatchesFrozenWriter:
    def assert_same_bytes(self, model, tmp_path):
        save_model(model, tmp_path / "model.tsv")
        frozen_save_model(model, tmp_path / "frozen.tsv")
        assert (tmp_path / "model.tsv").read_bytes() == (tmp_path / "frozen.tsv").read_bytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_random_models(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        n_topics, n_vocab = int(rng.integers(1, 7)), int(rng.integers(1, 60))
        # a small pool, so values repeat within and across rows
        pool = np.concatenate([EDGE_VALUES, rng.random(6), rng.random(3) * 1e-8])
        phi = rng.choice(pool, size=(n_topics, n_vocab))
        phi[rng.random(phi.shape) < 0.3] = rng.random()
        topic_weight = rng.choice(pool, size=n_topics)
        topic_weight[0] = 0.0
        model = TopicModelResult(
            n_topics=n_topics,
            vocab=tuple(f"w{i}" for i in range(n_vocab)),
            phi=phi,
            topic_weight=topic_weight,
            excluded=frozenset({1}) if seed % 2 else frozenset(),
            seed=seed,
            alpha=0.1 + 0.2,
            beta=0.01,
            iterations=3,
        )
        self.assert_same_bytes(model, tmp_path)

    def test_a_fitted_model(self, tmp_path):
        self.assert_same_bytes(exclude_topics(fit_lda(two_vocab_corpus(), 3, iterations=15, seed=2), {3}), tmp_path)


class TestFitValidation:
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

    @pytest.mark.parametrize(
        "prior, value",
        [
            ("beta", 0.0),
            ("beta", -0.01),
            ("beta", float("nan")),
            ("beta", float("inf")),
            ("alpha", 0.0),
            ("alpha", -1.0),
            ("alpha", float("nan")),
            ("alpha", float("inf")),
        ],
    )
    def test_bad_priors_are_rejected_before_sampling(self, monkeypatch, prior, value):
        def no_sampling(*args):
            raise AssertionError("sampled with a bad prior")

        monkeypatch.setattr("dictsieve.topics._gibbs_states", no_sampling)
        with pytest.raises(ValueError, match=f"{prior} must be finite and > 0"):
            fit_lda(tiny_corpus(), 2, iterations=1, **{prior: value})

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

    def test_a_model_with_every_topic_excluded_is_rejected_when_built(self):
        model = fit_lda(tiny_corpus(), 2, iterations=5, seed=1)
        with pytest.raises(ValueError, match="^all topics excluded$"):
            dataclasses.replace(model, excluded=frozenset({1, 2}))
        with pytest.raises(ValueError, match="^all topics excluded$"):
            exclude_topics(exclude_topics(model, {2}), {1})


class TestVocabulary:
    @pytest.mark.parametrize(
        "term, message",
        [
            ("b\tc", "vocab term 'b\\tc' contains a tab, CR or LF"),
            ("b\ud800", "vocab term 'b\\ud800' contains a lone surrogate, which UTF-8 cannot encode"),
            ("", "vocab term '' is empty"),
            (3, "vocab term 3 is not a string"),
        ],
    )
    def test_a_model_whose_file_could_not_hold_a_term_is_rejected_when_built(self, term, message):
        """``save_model`` would write such a term into a file that
        ``load_model`` rejects, or stop writing at its vocab line."""
        model = fit_lda(tiny_corpus(), 2, iterations=5, seed=1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(model, vocab=(*model.vocab[:-1], term))


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
            pytest.param(1, 2, ["n_topics\t0"], 2, "n_topics must be >= 1, got 0", id="n_topics-0"),
            pytest.param(2, 3, [], 3, "expected the n_vocab line", id="no-n_vocab"),
            pytest.param(3, 4, ["alpha\tmany"], 4, "alpha holds a value that is not float", id="alpha-text"),
            pytest.param(3, 4, ["alpha\tnan"], 4, "alpha must be finite and > 0, got nan", id="alpha-nan"),
            pytest.param(3, 4, ["alpha\tinf"], 4, "alpha must be finite and > 0, got inf", id="alpha-inf"),
            pytest.param(4, 5, ["beta\t0.0"], 5, "beta must be finite and > 0, got 0.0", id="beta-zero"),
            pytest.param(4, 5, ["beta\t-0.01"], 5, "beta must be finite and > 0, got -0.01", id="beta-neg"),
            pytest.param(5, 6, ["iterations\t0"], 6, "iterations must be >= 1, got 0", id="iterations-0"),
            pytest.param(6, 7, ["seed\t-1"], 7, "seed must be >= 0, got -1", id="seed-negative"),
            pytest.param(3, 6, ["alpha\t0.0", "beta\t0.5", "iterations\t0"], 4, "alpha must be", id="first-bad-setting"),
            pytest.param(7, 8, ["excluded\t3"], 8, r"topic ids out of range 1..2: \[3\]", id="excluded-3"),
            pytest.param(7, 8, ["excluded\t0"], 8, r"topic ids out of range 1..2: \[0\]", id="excluded-0"),
            pytest.param(7, 8, ["excluded\t2,1"], 8, "all topics excluded", id="excluded-all"),
            pytest.param(8, 9, ["vocab\tapple\tpear"], 9, "vocab must hold 3 distinct terms", id="vocab-short"),
            pytest.param(8, 9, ["vocab\tapple\tpear\tpear"], 9, "vocab must hold 3 distinct", id="vocab-repeat"),
            pytest.param(8, 9, ["vocab\tapple\t\tpear"], 9, "vocab term '' is empty", id="vocab-empty-term"),
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
