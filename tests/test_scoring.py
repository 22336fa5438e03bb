"""Tests for document scoring: normalization, tfsim, and the two score paths."""

from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planted
from dictsieve import (
    Corpus,
    Document,
    build_cooc,
    compute_norms,
    extract_dictionary_tfidf,
    extract_dictionary_tm,
    filter_cooc,
    generate_sweep,
    rank_collection,
    score_context,
    score_dict,
    term_stats,
    tfsim,
)
from dictsieve.cooc import CoocMatrix
from dictsieve.corpus import TermStats
from dictsieve.dictionary import Dictionary, DictionaryEntry, boost
from dictsieve.evaluation import DEFAULT_ALPHAS, sweep_configs
from dictsieve.retrieval import make_system_id
from dictsieve.scoring import CollectionNorms, ScoringConfig, _term_contribution, sentence_features, term_contributions


def make_dictionary(*terms: str) -> Dictionary:
    entries = [
        DictionaryEntry(term=t, weight=float(len(terms) - i), rank=i + 1, boost=boost(i + 1))
        for i, t in enumerate(terms)
    ]
    return Dictionary(entries=entries, method="topic-model")


def corpus_of(*docs: Document) -> Corpus:
    return Corpus(documents=list(docs), role="target")


class TestScoringConfig:
    def test_defaults(self):
        config = ScoringConfig()
        assert (config.slope, config.alpha, config.mode) == (0.7, 0.0, "unigram")

    def test_context_only_forces_alpha_one(self):
        config = ScoringConfig(alpha=5.0, mode="context-only")
        assert config.alpha == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="slope must be in"):
            ScoringConfig(slope=1.5)
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            ScoringConfig(alpha=-1.0)
        for alpha in (math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha must be >= 0 and finite"):
                ScoringConfig(alpha=alpha)
        with pytest.raises(ValueError, match="unknown mode"):
            ScoringConfig(mode="bigram")


class TestComputeNorms:
    def two_doc_corpus(self) -> Corpus:
        d1 = Document(id="small", sentences=[[f"w{i}" for i in range(10)]])
        d2 = Document(id="large", sentences=[[f"v{i}" for i in range(30)]])
        return corpus_of(d1, d2)

    def test_pivot_is_mean_unique_count(self):
        corpus = self.two_doc_corpus()
        norms = compute_norms(corpus, term_stats(corpus), ScoringConfig(slope=0.7))
        assert norms.pivot == 20.0
        assert norms.norm["small"] == pytest.approx(1.0 / math.sqrt(13), rel=1e-12)
        assert norms.norm["small"] == pytest.approx(0.2773500981126146, rel=1e-12)
        assert norms.norm["large"] == pytest.approx(1.0 / math.sqrt(27), rel=1e-12)

    def test_zero_slope_collapses_to_pivot(self):
        corpus = self.two_doc_corpus()
        norms = compute_norms(corpus, term_stats(corpus), ScoringConfig(slope=0.0))
        assert norms.norm["small"] == norms.norm["large"]
        assert norms.norm["small"] == pytest.approx(1.0 / math.sqrt(20), rel=1e-12)

    def test_full_slope_uses_document_size_alone(self):
        corpus = self.two_doc_corpus()
        norms = compute_norms(corpus, term_stats(corpus), ScoringConfig(slope=1.0))
        assert norms.norm["small"] == pytest.approx(1.0 / math.sqrt(10), rel=1e-12)
        assert norms.norm["large"] == pytest.approx(1.0 / math.sqrt(30), rel=1e-12)

    def test_avgtf(self):
        doc = Document(id="d", sentences=[["a", "a", "b"]])
        corpus = corpus_of(doc)
        norms = compute_norms(corpus, term_stats(corpus), ScoringConfig())
        assert norms.avgtf["d"] == pytest.approx(1.5, rel=1e-12)

    def test_empty_documents_are_flagged_and_count_toward_pivot(self):
        docs = [
            Document(id="full", sentences=[["a", "b", "c", "d"]]),
            Document(id="void", sentences=[]),
        ]
        corpus = corpus_of(*docs)
        norms = compute_norms(corpus, term_stats(corpus), ScoringConfig(slope=0.7))
        assert norms.empty_doc_ids == frozenset({"void"})
        assert norms.pivot == 2.0
        assert "void" not in norms.norm


def frozen_compute_norms(target: Corpus, stats: TermStats, config: ScoringConfig) -> CollectionNorms:
    """Reference: the norms from each document's Counter in ``stats.tf_doc``,
    one document at a time, as the scalar formula reads."""
    unique_counts = {doc.id: len(stats.tf_doc[doc.id]) for doc in target.documents}
    pivot = sum(unique_counts.values()) / len(target.documents)
    norm: dict[str, float] = {}
    avgtf: dict[str, float] = {}
    empty = set()
    for doc in target.documents:
        n_unique = unique_counts[doc.id]
        if n_unique == 0:
            empty.add(doc.id)
            continue
        norm[doc.id] = 1.0 / math.sqrt((1.0 - config.slope) * pivot + config.slope * n_unique)
        avgtf[doc.id] = sum(stats.tf_doc[doc.id].values()) / n_unique
    ids = tuple(doc.id for doc in target.documents)
    doc_log_avgtf = np.array([math.log(avgtf[i]) if i in avgtf else 0.0 for i in ids])
    doc_norm = np.array([norm.get(i, 0.0) for i in ids])
    return CollectionNorms(config.slope, pivot, norm, avgtf, frozenset(empty), ids, doc_log_avgtf, doc_norm)


def _norm_fields(norms: CollectionNorms) -> dict:
    """Every field of ``norms``, dicts as their items in order and arrays
    as their dtype and bytes."""
    values = {}
    for field in dataclasses.fields(norms):
        value = getattr(norms, field.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype, value.shape, value.tobytes())
        elif isinstance(value, dict):
            value = list(value.items())
        values[field.name] = value
    return values


# name -> a corpus builder; the builders run when a test calls them
NORM_CORPORA = {
    "planted target": planted.build_target,
    "planted reference": planted.build_reference,
    "planted generic": planted.build_generic,
    "random": lambda: corpus_of(*_random_docs(random.Random(11), [f"t{i:02d}" for i in range(40)], 120, "d")),
    "no sentence kept": lambda: corpus_of(
        Document(id="void", sentences=[[]]),
        Document(id="full", sentences=[["a", "b", "a"], ["c"]]),
        Document(id="none", sentences=[]),
    ),
    "only empty documents": lambda: corpus_of(Document(id="void", sentences=[[]])),
}


@pytest.mark.parametrize("slope", [0.0, 0.7, 1.0])
@pytest.mark.parametrize("name", sorted(NORM_CORPORA))
def test_norms_equal_the_frozen_counter_loop_bit_for_bit(name, slope):
    corpus = NORM_CORPORA[name]()
    config = ScoringConfig(slope=slope)
    expected = frozen_compute_norms(corpus, term_stats(corpus), config)
    assert _norm_fields(compute_norms(corpus, term_stats(corpus), config)) == _norm_fields(expected)


def test_hand_built_term_stats_score_and_normalize_as_counted_ones():
    corpus = NORM_CORPORA["no sentence kept"]()
    tf_doc = {doc.id: Counter(doc.tokens()) for doc in corpus.documents}
    hand = TermStats(tf=sum(tf_doc.values(), Counter()), df=Counter({"a": 1, "b": 1, "c": 1}), tf_doc=tf_doc)
    counted = term_stats(corpus)
    config = ScoringConfig()
    norms = compute_norms(corpus, counted, config)
    assert _norm_fields(compute_norms(corpus, hand, config)) == _norm_fields(norms)
    q = make_dictionary("a", "c", "x")
    for doc in corpus.documents:
        assert score_dict(q, doc, hand, norms) == score_dict(q, doc, counted, norms)
    assert score_dict(q, corpus.documents[1], hand, norms) > 0.0


def test_norms_need_the_stats_of_the_target():
    corpus = NORM_CORPORA["no sentence kept"]()
    other = corpus_of(*reversed(corpus.documents))
    with pytest.raises(ValueError, match="term stats were counted over another collection"):
        compute_norms(corpus, term_stats(other), ScoringConfig())


def test_no_pipeline_path_builds_a_per_document_counter(
    planted_reference, planted_generic, planted_target, planted_model, planted_dictionaries, planted_filtered,
    monkeypatch,
):
    """The sweep, a ranking that computes its own norms and both dictionary
    extractions give what they gave before with ``TermStats.tf_doc``, the
    per-document Counters, made to raise."""
    d_tm, d_tfidf = planted_dictionaries
    cf_tm, cf_tfidf = planted_filtered
    config = ScoringConfig(alpha=2.0, mode="context")

    def outputs():
        sweep = generate_sweep(planted_target, d_tm, d_tfidf, cf_tm, cf_tfidf, k=50)
        ranked = rank_collection(planted_target, d_tm, cf_tm, config, 50, norms=None)
        return (
            [(system.system_id, [tuple(entry) for entry in system]) for system in sweep.systems],
            sweep.biased_subset,
            [tuple(entry) for entry in ranked],
            extract_dictionary_tm(planted_model, term_stats(planted_reference), 16),
            extract_dictionary_tfidf(planted_reference, 16),
        )

    expected = outputs()

    def no_counters(stats):
        raise AssertionError("a per-document Counter was built")

    monkeypatch.setattr(TermStats, "tf_doc", property(no_counters))
    with pytest.raises(AssertionError, match="per-document Counter"):
        term_stats(planted_generic).tf_doc
    assert outputs() == expected


def scalar_contribution(tf: float, log_avgtf: float, boost_value: float, norm: float) -> float:
    """Reference: one run's contribution by the scalar formula, in its
    operation order, with ``math.log`` and tf floored at 1e-9."""
    dampened = 1.0 + math.log(max(tf, 1e-9))
    return dampened / (1.0 + log_avgtf) * boost_value * norm if dampened > 0.0 else 0.0


# run tf values: counts, whole numbers up to 1e15, other values above 1 and
# in (0, 1), zeros and negatives; the first three whole numbers are doubles
# on which some numpy builds' ``np.log`` differs from ``math.log`` in the
# last bit, and the difference survives 1 + ln tf; then the edges of the
# values that take no log (<= 0.36) and of a positive factor (> 1/e), and
# 2**53, above which not every whole number is a double
TF_VALUES = st.one_of(
    st.sampled_from([9170.0, 19143.0, 94869.0]),
    st.sampled_from(
        [
            0.36,
            math.nextafter(0.36, 1.0),
            1 / math.e,
            math.nextafter(1 / math.e, 0.0),
            math.nextafter(1 / math.e, 1.0),
            2.0**53,
        ]
    ),
    st.integers(1, 60).map(float),
    st.integers(0, 10**15).map(float),
    st.floats(min_value=1.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.sampled_from([0.0, -0.0, -1.0, -0.5]),
    st.floats(min_value=-1e15, max_value=-1e-300),
)
# each document: its runs' (tf, boost), its avgtf and its norm
CONTRIBUTION_DOCUMENTS = st.lists(
    st.tuples(
        st.lists(st.tuples(TF_VALUES, st.sampled_from([boost(r) for r in (1, 2, 7, 40, 500)])), max_size=8),
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=0.01, max_value=2.0),
    ),
    min_size=1,
    max_size=6,
)


class TestTermContribution:
    @settings(deadline=None, max_examples=300)
    @given(documents=CONTRIBUTION_DOCUMENTS)
    def test_every_run_equals_the_scalar_formula_bit_for_bit(self, documents):
        runs = [(tf, math.log(avgtf), b, norm) for doc_runs, avgtf, norm in documents for tf, b in doc_runs]
        values = term_contributions(
            np.array([tf for tf, _, _, _ in runs], dtype=np.float64),
            np.array([b for _, _, b, _ in runs], dtype=np.float64),
            np.cumsum([0] + [len(doc_runs) for doc_runs, _, _ in documents]),
            np.array([math.log(avgtf) for _, avgtf, _ in documents]),
            np.array([norm for _, _, norm in documents]),
        )
        expected = np.array([scalar_contribution(*run) for run in runs], dtype=np.float64)
        assert (values == expected).all()
        assert values.tobytes() == expected.tobytes()

    @settings(deadline=None, max_examples=200)
    @given(tf=st.lists(TF_VALUES, max_size=40))
    def test_logs_only_distinct_whole_tf_and_other_tf_above_the_cut(self, tf):
        """One ``math.log`` per distinct whole tf, and one per other tf
        above 0.36; a tf at or below 0.36 (floored at 1e-9) takes none."""
        floored = [max(value, 1e-9) for value in tf]
        expected = [
            *{value for value in floored if value.is_integer()},
            *(value for value in floored if not value.is_integer() and value > 0.36),
        ]
        taken = []
        log = math.log

        def counted_log(value):
            taken.append(value)
            return log(value)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(math, "log", counted_log)
            values = term_contributions(
                np.array(tf, dtype=np.float64), np.ones(len(tf)), np.array([0, len(tf)]), np.zeros(1), np.ones(1)
            )
        assert len(taken) == len(expected)
        assert sorted(taken) == sorted(expected)
        assert values.tobytes() == np.array([scalar_contribution(value, 0.0, 1.0, 1.0) for value in tf]).tobytes()

    def test_rank_one_single_occurrence_is_the_norm(self):
        assert _term_contribution(1.0, 0.0, boost(1), 0.25) == 0.25

    def test_rank_four_tf_e_is_the_norm(self):
        value = _term_contribution(math.e, 0.0, boost(4), 0.75)
        assert value == pytest.approx(0.75, rel=1e-12)

    def test_values_below_one_over_e_clamp_to_zero(self):
        assert _term_contribution(math.exp(-1.5), 0.0, 1.0, 1.0) == 0.0


class TestScoreDict:
    def test_no_dictionary_terms_scores_zero(self):
        doc = Document(id="d", sentences=[["x", "y"]])
        corpus = corpus_of(doc)
        stats = term_stats(corpus)
        norms = compute_norms(corpus, stats, ScoringConfig())
        assert score_dict(make_dictionary("a", "b"), doc, stats, norms) == 0.0

    def test_single_rank_one_term(self):
        doc = Document(id="d", sentences=[["a", "x"]])
        corpus = corpus_of(doc)
        stats = term_stats(corpus)
        norms = compute_norms(corpus, stats, ScoringConfig())
        assert score_dict(make_dictionary("a"), doc, stats, norms) == norms.norm["d"]

    def test_hand_computed_two_term_score(self):
        doc = Document(id="d", sentences=[["a", "a", "b", "x"]])
        corpus = corpus_of(doc)
        stats = term_stats(corpus)
        config = ScoringConfig(slope=0.7)
        norms = compute_norms(corpus, stats, config)
        avgtf = 4.0 / 3.0
        expected = (
            (1 + math.log(2)) / (1 + math.log(avgtf)) * boost(1)
            + 1.0 / (1 + math.log(avgtf)) * boost(2)
        ) * norms.norm["d"]
        score = score_dict(make_dictionary("a", "b"), doc, stats, norms)
        assert score == pytest.approx(expected, rel=1e-12)

    def test_empty_document_scores_zero(self):
        docs = [Document(id="d", sentences=[["a"]]), Document(id="e", sentences=[])]
        corpus = corpus_of(*docs)
        stats = term_stats(corpus)
        norms = compute_norms(corpus, stats, ScoringConfig())
        assert score_dict(make_dictionary("a"), docs[1], stats, norms) == 0.0

    def test_empty_dictionary_rejected(self):
        """A dictionary without terms is rejected where it is built, so no
        score meets one."""
        with pytest.raises(ValueError, match="^dictionary has no entries$"):
            Dictionary(entries=[], method="tfidf")


class TestTfsim:
    def worked_matrix(self) -> CoocMatrix:
        return CoocMatrix.from_pairs(
            terms=("a", "b", "w"),
            values={("a", "w"): 0.4, ("b", "w"): 0.3},
            provenance="filtered",
        )

    def test_alpha_zero_is_plain_term_frequency(self):
        doc = Document(id="d", sentences=[["w", "a"], ["w", "w"]])
        config = ScoringConfig(alpha=0.0, mode="context")
        assert tfsim("w", doc, self.worked_matrix(), config) == 3.0

    def test_worked_cosine_example(self):
        doc = Document(id="d", sentences=[["w", "a", "b"]])
        config = ScoringConfig(alpha=2.0, mode="context")
        cos = 0.7 / (math.sqrt(3) * 0.5)
        assert cos == pytest.approx(0.8082903768654761, rel=1e-12)
        value = tfsim("w", doc, self.worked_matrix(), config)
        assert value == pytest.approx(1.0 + 2.0 * cos, rel=1e-12)
        assert value == pytest.approx(2.6165807537309522, rel=1e-12)

    def test_zero_column_falls_back_to_frequency(self):
        matrix = CoocMatrix.from_pairs(terms=("a", "w"), values={}, provenance="filtered")
        doc = Document(id="d", sentences=[["w", "a"], ["w"]])
        config = ScoringConfig(alpha=5.0, mode="context")
        assert tfsim("w", doc, matrix, config) == 2.0

    def test_lonely_sentences_add_no_context(self):
        doc = Document(id="d", sentences=[["w", "x", "y"], ["w"]])
        config = ScoringConfig(alpha=5.0, mode="context")
        assert tfsim("w", doc, self.worked_matrix(), config) == 2.0

    def test_context_only_drops_the_frequency_part(self):
        doc = Document(id="d", sentences=[["w", "a", "b"]])
        config = ScoringConfig(mode="context-only")
        cos = 0.7 / (math.sqrt(3) * 0.5)
        assert tfsim("w", doc, self.worked_matrix(), config) == pytest.approx(cos, rel=1e-12)

    def test_unknown_term_rejected(self):
        doc = Document(id="d", sentences=[["w"]])
        with pytest.raises(ValueError, match="not in dictionary"):
            tfsim("zzz", doc, self.worked_matrix(), ScoringConfig(mode="context"))


class TestScoreContext:
    def pair_matrix(self) -> CoocMatrix:
        return CoocMatrix.from_pairs(
            terms=("a", "b", "c"),
            values={("a", "b"): 0.8, ("a", "c"): 0.2},
            provenance="filtered",
        )

    def test_alpha_zero_matches_unigram_score_exactly(self):
        rng = random.Random(42)
        vocab = ["a", "b", "c", "x", "y", "z"]
        docs = []
        for i in range(60):
            sentences = [
                [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
                for _ in range(rng.randint(1, 5))
            ]
            docs.append(Document(id=f"d{i}", sentences=sentences))
        corpus = corpus_of(*docs)
        stats = term_stats(corpus)
        q = make_dictionary("a", "b", "c")
        unigram = ScoringConfig(slope=0.7, alpha=0.0, mode="unigram")
        context = ScoringConfig(slope=0.7, alpha=0.0, mode="context")
        norms = compute_norms(corpus, stats, unigram)
        for doc in docs:
            expected = score_dict(q, doc, stats, norms)
            actual = score_context(q, doc, self.pair_matrix(), norms, context)
            assert actual == expected

    def test_isolated_terms_ignore_alpha(self):
        doc = Document(id="d", sentences=[["a", "x"], ["b", "y"], ["c"]])
        corpus = corpus_of(doc)
        stats = term_stats(corpus)
        norms = compute_norms(corpus, stats, ScoringConfig())
        q = make_dictionary("a", "b", "c")
        base = score_dict(q, doc, stats, norms)
        for alpha in (0.0, 1.0, 10.0):
            config = ScoringConfig(alpha=alpha, mode="context")
            assert score_context(q, doc, self.pair_matrix(), norms, config) == base

    def test_cooccurring_pairs_raise_the_score_monotonically(self):
        doc = Document(id="d", sentences=[["a", "b", "x"], ["c", "y"]])
        corpus = corpus_of(doc)
        stats = term_stats(corpus)
        norms = compute_norms(corpus, stats, ScoringConfig())
        q = make_dictionary("a", "b", "c")
        base = score_dict(q, doc, stats, norms)
        scores = []
        for alpha in (0.0, 2.0, 8.0, 30.0):
            config = ScoringConfig(alpha=alpha, mode="context")
            scores.append(score_context(q, doc, self.pair_matrix(), norms, config))
        assert scores[0] == base
        assert all(earlier < later for earlier, later in zip(scores, scores[1:]))

    def test_token_order_never_matters(self):
        rng = random.Random(9)
        doc = Document(id="d", sentences=[["a", "b", "x"], ["c", "a", "y"], ["b"]])
        corpus = corpus_of(doc)
        stats = term_stats(corpus)
        norms = compute_norms(corpus, stats, ScoringConfig())
        q = make_dictionary("a", "b", "c")
        config = ScoringConfig(alpha=3.0, mode="context")
        reference_score = score_context(q, doc, self.pair_matrix(), norms, config)
        for _ in range(10):
            sentences = [list(s) for s in doc.sentences]
            for s in sentences:
                rng.shuffle(s)
            rng.shuffle(sentences)
            shuffled = Document(id="d", sentences=sentences)
            assert score_context(q, shuffled, self.pair_matrix(), norms, config) == pytest.approx(
                reference_score, rel=1e-12
            )

    def test_context_only_clamps_tiny_similarities_to_zero(self):
        matrix = CoocMatrix.from_pairs(
            terms=("a", "b", "c"),
            values={("a", "b"): 0.001, ("a", "c"): 0.9},
            provenance="filtered",
        )
        doc = Document(id="d", sentences=[["a", "b"]])
        corpus = corpus_of(doc)
        stats = term_stats(corpus)
        norms = compute_norms(corpus, stats, ScoringConfig())
        q = make_dictionary("a", "b", "c")
        config = ScoringConfig(mode="context-only")
        score = score_context(q, doc, matrix, norms, config)
        # a's cosine is far below 1/e, so its clamped contribution vanishes;
        # only b's similarity of 1/sqrt(2) survives.
        cos_b = 0.001 / (math.sqrt(2) * 0.001)
        expected = max(0.0, 1 + math.log(cos_b)) * boost(2) * norms.norm["d"]
        assert score == pytest.approx(expected, rel=1e-12)
        assert score >= 0.0

    def test_context_only_ignores_frequency_entirely(self):
        matrix = self.pair_matrix()
        once = Document(id="once", sentences=[["a", "b"]])
        thrice = Document(id="thrice", sentences=[["a", "b"], ["a", "b"], ["a", "b"]])
        corpus = corpus_of(once, thrice)
        stats = term_stats(corpus)
        norms = compute_norms(corpus, stats, ScoringConfig())
        q = make_dictionary("a", "b")
        config = ScoringConfig(mode="context-only")
        score_once = score_context(q, once, matrix, norms, config)
        score_thrice = score_context(q, thrice, matrix, norms, config)
        # both documents have the same unique terms, hence the same norm, but
        # the repeated document accumulates three similarity increments
        assert norms.norm["once"] == norms.norm["thrice"]
        assert score_thrice > score_once > 0.0

    def test_dictionary_free_sentences_shift_score_through_norms_only(self):
        base_doc = Document(id="d", sentences=[["a", "a", "b", "x"]])
        padded_doc = Document(
            id="d", sentences=[["a", "a", "b", "x"], ["p", "q", "r"]]
        )
        other = Document(id="o", sentences=[["m", "n"]])
        q = make_dictionary("a", "b")
        config = ScoringConfig(slope=0.7)
        scores = {}
        ratios = {}
        for label, doc in (("base", base_doc), ("padded", padded_doc)):
            corpus = corpus_of(doc, other)
            stats = term_stats(corpus)
            norms = compute_norms(corpus, stats, config)
            scores[label] = score_dict(q, doc, stats, norms)
            ratios[label] = norms.norm["d"] / (1 + math.log(norms.avgtf["d"]))
        assert scores["padded"] == pytest.approx(
            scores["base"] * ratios["padded"] / ratios["base"], rel=1e-12
        )


# ---------------------------------------------------------------------------
# frozen reference: the pair-dict cosine loop that scored documents before
# per-term profiles existed.  Scores must equal it bit for bit.


def _oracle_pair(a, b):
    return (a, b) if a < b else (b, a)


def _oracle_tfsim(doc, terms, values, config):
    sums = {t: 0.0 for t in terms}
    for (a, b), value in values.items():
        sums[a] += value * value
        sums[b] += value * value
    col_norms = {t: math.sqrt(total) for t, total in sums.items()}

    def get(a, b):
        if a == b:
            return 0.0
        return values.get(_oracle_pair(a, b), 0.0)

    def similarity(term, present, s_norm):
        col_norm = col_norms[term]
        if col_norm == 0.0 or s_norm == 0.0:
            return 0.0
        # left to right, as the scorer adds; sum compensates from Python 3.12 on
        dot = reduce(add, (get(other, term) for other in present), 0.0)
        if dot == 0.0:
            return 0.0
        return dot / (s_norm * col_norm)

    dict_terms = frozenset(terms)
    sim = {}
    for sentence in doc.sentences:
        present = Counter(t for t in sentence if t in dict_terms)
        s_norm = math.sqrt(len(present))
        for term, count in present.items():
            value = 0.0
            if config.mode != "context-only":
                value += float(count)
            if config.alpha > 0.0:
                value += config.alpha * similarity(term, present, s_norm)
            sim[term] = sim.get(term, 0.0) + value
    return sim


def _oracle_score_context(q, doc, terms, values, norms, config):
    if doc.id in norms.empty_doc_ids:
        return 0.0
    sim = _oracle_tfsim(doc, terms, values, config)
    log_avgtf = math.log(norms.avgtf[doc.id])
    norm = norms.norm[doc.id]
    score = 0.0
    for entry in q.entries:
        value = sim.get(entry.term, 0.0)
        if value > 0.0:
            value = max(value, 1e-9)
            score += max(0.0, 1.0 + math.log(value)) / (1.0 + log_avgtf) * entry.boost * norm
    return score


def _random_docs(rng, vocab, n_docs, prefix):
    weights = [1.0 / (i + 1) for i in range(len(vocab))]
    return [
        Document(
            id=f"{prefix}{i}",
            sentences=[
                rng.choices(vocab, weights, k=rng.randint(1, 12))
                for _ in range(rng.randint(0, 6))
            ],
        )
        for i in range(n_docs)
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scores_equal_the_frozen_pair_dict_loop_bit_for_bit(seed):
    rng = random.Random(seed)
    vocab = [f"t{i:02d}" for i in range(40)]
    # the last two dictionary terms never occur in the reference corpus, so
    # their profiles are empty
    q = make_dictionary(*rng.sample(vocab[:30], 13), vocab[30], vocab[31])
    reference = Corpus(documents=_random_docs(rng, vocab[:30], 40, "r"), role="reference")
    generic = Corpus(documents=_random_docs(rng, vocab, 40, "g"), role="generic")
    matrix = filter_cooc(build_cooc(reference, q), build_cooc(generic, q))
    target = corpus_of(*_random_docs(rng, vocab, 60, "d"))
    stats = term_stats(target)
    norms = compute_norms(target, stats, ScoringConfig())
    configs = [ScoringConfig(alpha=a, mode="context") for a in (0.0, 0.5, 2.0, 30.0)]
    configs.append(ScoringConfig(mode="context-only"))
    for config in configs:
        for doc in target.documents:
            expected = _oracle_score_context(q, doc, matrix.terms, dict(matrix.pairs()), norms, config)
            assert score_context(q, doc, matrix, norms, config) == expected
            sim = _oracle_tfsim(doc, matrix.terms, dict(matrix.pairs()), config)
            for term in q.terms:
                assert tfsim(term, doc, matrix, config) == sim.get(term, 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_long_documents_equal_the_frozen_pair_dict_loop_bit_for_bit(seed):
    # every target document repeats one dictionary term in 8 to 16 sentences,
    # so its tfsim sums enough rows that a pairwise or unrolled reduction
    # would associate them differently from the sentence-by-sentence loop
    rng = random.Random(seed)
    vocab = [f"t{i:02d}" for i in range(40)]
    q = make_dictionary(*rng.sample(vocab[:30], 15))
    reference = Corpus(documents=_random_docs(rng, vocab[:30], 40, "r"), role="reference")
    generic = Corpus(documents=_random_docs(rng, vocab, 40, "g"), role="generic")
    matrix = filter_cooc(build_cooc(reference, q), build_cooc(generic, q))
    weights = [1.0 / (i + 1) for i in range(len(vocab))]
    docs = []
    for i in range(20):
        anchor = rng.choice(q.terms)
        sentences = [[anchor] + rng.choices(vocab, weights, k=rng.randint(1, 8)) for _ in range(rng.randint(8, 16))]
        docs.append(Document(id=f"d{i}", sentences=sentences))
    target = corpus_of(*docs)
    norms = compute_norms(target, term_stats(target), ScoringConfig())
    configs = [ScoringConfig(alpha=a, mode="context") for a in (0.5, 2.0, 30.0)]
    configs.append(ScoringConfig(mode="context-only"))
    for config in configs:
        for doc in docs:
            expected = _oracle_score_context(q, doc, matrix.terms, dict(matrix.pairs()), norms, config)
            assert score_context(q, doc, matrix, norms, config) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unigram_ranking_equals_score_dict_bit_for_bit(seed):
    # the targets of the frozen-loop test above, plus an empty document and
    # one without dictionary terms; two dictionary terms have empty profiles
    rng = random.Random(seed)
    vocab = [f"t{i:02d}" for i in range(40)]
    q = make_dictionary(*rng.sample(vocab[:30], 13), vocab[30], vocab[31])
    reference = Corpus(documents=_random_docs(rng, vocab[:30], 40, "r"), role="reference")
    generic = Corpus(documents=_random_docs(rng, vocab, 40, "g"), role="generic")
    matrix = filter_cooc(build_cooc(reference, q), build_cooc(generic, q))
    outside = [term for term in vocab if term not in q]
    extra = [Document(id="empty", sentences=[]), Document(id="outside", sentences=[outside[:5], outside[3:6]])]
    target = corpus_of(*_random_docs(rng, vocab, 60, "d"), *extra)
    stats = term_stats(target)
    norms = compute_norms(target, stats, ScoringConfig())
    expected = {doc.id: score_dict(q, doc, stats, norms) for doc in target.documents}
    expected = {doc_id: score for doc_id, score in expected.items() if score > 0.0}
    # a real matrix's features hold non-zero cosines, which alpha would add
    # to tf if unigram mode used them
    features = sentence_features(target, matrix)
    assert features.cosines.any()
    for config in (ScoringConfig(), ScoringConfig(alpha=2.0)):
        for kwargs in ({}, {"norms": norms, "features": features}):
            ranked = rank_collection(target, q, matrix, config, len(target), **kwargs)
            assert {entry.doc_id: entry.score for entry in ranked} == expected


def test_swept_scores_equal_the_frozen_pair_dict_loop_bit_for_bit():
    """Every system of the default sweep scores each document from one
    contribution pass; each listed score is the frozen loop's, and every
    document a system leaves out scores 0 there.  The sweep takes enough
    logs of non-integer tfsim values that ``np.log`` in place of
    ``math.log`` changes some score."""
    rng = random.Random(4)
    vocab = [f"t{i:02d}" for i in range(40)]
    q_tm = make_dictionary(*rng.sample(vocab[:30], 13), vocab[30], vocab[31])
    reference = Corpus(documents=_random_docs(rng, vocab[:30], 40, "r"), role="reference")
    generic = Corpus(documents=_random_docs(rng, vocab, 40, "g"), role="generic")
    cooc_tm = filter_cooc(build_cooc(reference, q_tm), build_cooc(generic, q_tm))
    # by hand: u0's pair with u1 is tiny next to its others, so in context-only
    # mode a sentence of u0 and u1 alone puts both below the 1e-9 floor, and
    # one of u0 and u2 puts u0 between the floor and 1/e, where it clamps
    u = ["u0", "u1", "u2", "u3", "u4"]
    q_tfidf = Dictionary(entries=make_dictionary(*u).entries, method="tfidf")
    pairs = {("u0", "u1"): 1e-13, ("u0", "u2"): 0.1, ("u0", "u4"): 0.9, ("u1", "u3"): 0.2}
    cooc_tfidf = CoocMatrix.from_pairs(q_tfidf.terms, pairs, "filtered")
    special = [
        Document(id="floor", sentences=[["u0", "u1"], ["x"]]),
        Document(id="clamp", sentences=[["u0", "u2", "x"], ["u3"]]),
        Document(id="empty", sentences=[]),
        Document(id="outside", sentences=[["x", "y"], ["y"]]),
    ]
    target = corpus_of(*_random_docs(rng, vocab + u, 200, "d"), *special)
    norms = compute_norms(target, term_stats(target), ScoringConfig())
    context_only = ScoringConfig(mode="context-only")
    sim = {doc.id: _oracle_tfsim(doc, cooc_tfidf.terms, pairs, context_only) for doc in special}
    assert 0.0 < sim["floor"]["u0"] < 1e-9 and 0.0 < sim["floor"]["u1"] < 1e-9
    assert 1e-9 < sim["clamp"]["u0"] < 1.0 / math.e and sim["clamp"]["u3"] == 0.0

    systems = generate_sweep(target, q_tm, q_tfidf, cooc_tm, cooc_tfidf, k=len(target))
    configs = sweep_configs(DEFAULT_ALPHAS, 0.7)
    cases = [(q, matrix, config) for q, matrix in ((q_tm, cooc_tm), (q_tfidf, cooc_tfidf)) for config in configs]
    assert len(systems.systems) == len(cases)
    for ranked, (q, matrix, config) in zip(systems.systems, cases):
        assert ranked.system_id == make_system_id(q, config)
        values = dict(matrix.pairs())
        listed = {entry.doc_id: entry.score for entry in ranked}
        for doc in target.documents:
            assert listed.get(doc.id, 0.0) == _oracle_score_context(q, doc, matrix.terms, values, norms, config)
    assert "floor" not in systems.get("tfidf:context-only:alpha=1").doc_ids()
