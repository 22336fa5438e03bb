"""Tests for term weighting and ranked dictionary extraction."""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictsieve import (
    Corpus,
    Document,
    TermStats,
    boost,
    extract_dictionary_tfidf,
    extract_dictionary_tm,
    exclude_topics,
    load_dictionary,
    save_dictionary,
    term_weight,
)
from dictsieve.dictionary import METHOD_LABELS, Dictionary, DictionaryEntry
from dictsieve.topics import TopicModelResult


def make_model(vocab, phi_rows, excluded=frozenset()) -> TopicModelResult:
    phi = np.array(phi_rows, dtype=float)
    k = phi.shape[0]
    return TopicModelResult(
        n_topics=k,
        vocab=tuple(vocab),
        phi=phi,
        topic_weight=np.full(k, 1.0 / k),
        excluded=frozenset(excluded),
        seed=0,
        alpha=0.5,
        beta=0.01,
        iterations=1,
    )


def make_stats(tf: dict) -> TermStats:
    counts = Counter(tf)
    return TermStats(tf=counts, df=Counter({t: 1 for t in tf}), tf_doc={"d": counts})


class TestBoost:
    def test_reference_values(self):
        assert boost(1) == 1.0
        assert boost(2) == pytest.approx(1.0 / math.sqrt(2), rel=1e-12)
        assert boost(4) == 0.5
        assert boost(100) == pytest.approx(0.1, rel=1e-12)

    def test_strictly_decreasing_with_flattening_steps(self):
        values = [boost(r) for r in range(1, 200)]
        diffs = [a - b for a, b in zip(values, values[1:])]
        assert all(d > 0 for d in diffs)
        assert all(earlier > later for earlier, later in zip(diffs, diffs[1:]))

    def test_rank_below_one_rejected(self):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            boost(0)


class TestTermWeight:
    def test_single_occurrence_terms_get_zero(self):
        model = make_model(["w", "x"], [[0.7, 0.3]])
        stats = make_stats({"w": 1, "x": 4})
        assert term_weight("w", model, stats) == 0.0

    def test_log_frequency_times_topic_mass(self):
        model = make_model(["w", "x"], [[0.05, 0.95]])
        stats = make_stats({"w": 8, "x": 1})
        assert term_weight("w", model, stats) == pytest.approx(
            0.1039720770839918, rel=1e-12
        )

    def test_excluded_topics_drop_out_of_the_sum(self):
        model = make_model(
            ["w", "x"], [[0.1, 0.9], [0.9, 0.1]], excluded={2}
        )
        stats = make_stats({"w": 8, "x": 2})
        assert term_weight("w", model, stats) == pytest.approx(
            0.2079441541679836, rel=1e-12
        )
        full = make_model(["w", "x"], [[0.1, 0.9], [0.9, 0.1]])
        assert term_weight("w", full, stats) == pytest.approx(math.log(8), rel=1e-12)

    def test_all_topics_excluded_rejected(self):
        """A model without a retained topic is rejected where it is built,
        so no term weight meets one."""
        with pytest.raises(ValueError, match="all topics excluded"):
            make_model(["w", "x"], [[0.5, 0.5]], excluded={1})

    def test_unknown_term_rejected(self):
        model = make_model(["w", "x"], [[0.5, 0.5]])
        with pytest.raises(ValueError, match="unknown term"):
            term_weight("zzz", model, make_stats({"w": 2, "x": 1}))


class TestExtractTopicModel:
    def test_orders_by_weight_then_term(self):
        model = make_model(
            ["ash", "beech", "cedar", "dane"],
            [[0.4, 0.3, 0.2, 0.1]],
        )
        stats = make_stats({"ash": 4, "beech": 4, "cedar": 9, "dane": 1})
        d = extract_dictionary_tm(model, stats, 4)
        # weights: ash ln4*.4=.5545, beech ln4*.3=.4159, cedar ln9*.2=.4394, dane 0
        assert d.terms == ("ash", "cedar", "beech", "dane")
        assert [e.rank for e in d.entries] == [1, 2, 3, 4]
        assert d.entries[0].boost == 1.0
        assert d.entries[3].boost == 0.5
        assert d.method_label == "tm"

    def test_equal_weights_fall_back_to_lexicographic(self):
        model = make_model(["b", "c", "a"], [[1 / 3] * 3])
        stats = make_stats({"a": 5, "b": 5, "c": 5})
        d = extract_dictionary_tm(model, stats, 3)
        assert d.terms == ("a", "b", "c")

    def test_n_clamps_to_vocabulary(self):
        model = make_model(["a", "b"], [[0.6, 0.4]])
        d = extract_dictionary_tm(model, make_stats({"a": 2, "b": 3}), 50)
        assert len(d) == 2

    def test_requires_positive_n(self):
        model = make_model(["a"], [[1.0]])
        with pytest.raises(ValueError, match="size must be >= 1"):
            extract_dictionary_tm(model, make_stats({"a": 2}), 0)

    def test_all_topics_excluded(self):
        model = make_model(["a", "b"], [[0.5, 0.5], [0.5, 0.5]], excluded={1})
        with pytest.raises(ValueError, match="all topics excluded"):
            extract_dictionary_tm(exclude_topics(model, {2}), make_stats({"a": 2, "b": 1}), 1)


class TestTopicModelWeightsInOnePass:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weights_equal_the_per_term_loop_bit_for_bit(self, seed):
        """The retained topics' probabilities are added left to right in
        topic order, as a loop over one term at a time adds them."""
        rng = np.random.default_rng(seed)
        n_topics, n_terms = 12, 300
        vocab = [f"w{i:03d}" for i in range(n_terms)]
        excluded = {int(k) for k in rng.choice(np.arange(1, n_topics + 1), size=seed * 3, replace=False)}
        model = make_model(vocab, rng.dirichlet(np.full(n_terms, 0.05), size=n_topics), excluded)
        stats = make_stats({term: int(rng.integers(1, 400)) for term in vocab})
        retained = [k for k in range(1, n_topics + 1) if k not in excluded]
        d = extract_dictionary_tm(model, stats, n_terms)
        for entry in d.entries:
            col = vocab.index(entry.term)
            prob_sum = 0.0
            for k in retained:
                prob_sum += float(model.phi[k - 1, col])
            assert entry.weight == math.log(stats.tf[entry.term]) * prob_sum
            assert term_weight(entry.term, model, stats) == entry.weight

    def test_a_model_term_missing_from_the_stats_is_named(self):
        model = make_model(["w", "x", "y"], [[0.2, 0.3, 0.5]])
        with pytest.raises(ValueError, match="unknown term 'x'"):
            extract_dictionary_tm(model, make_stats({"w": 2, "y": 1}), 2)

    def test_a_stats_term_missing_from_the_model_is_named(self):
        model = make_model(["w", "y"], [[0.4, 0.6]])
        with pytest.raises(ValueError, match="^corpus term 'x' is not in the model's vocabulary$"):
            extract_dictionary_tm(model, make_stats({"w": 2, "x": 3, "y": 1}), 2)


class TestExtractTfidf:
    def four_doc_reference(self) -> Corpus:
        docs = [
            Document(id="d1", sentences=[["rare", "rare", "rare", "common"]]),
            Document(id="d2", sentences=[["common", "mid"]]),
            Document(id="d3", sentences=[["common", "mid"]]),
            Document(id="d4", sentences=[["common"]]),
        ]
        return Corpus(documents=docs, role="reference")

    def test_reference_weight_value(self):
        d = extract_dictionary_tfidf(self.four_doc_reference(), 3)
        assert d.entry("rare").weight == pytest.approx(3 * math.log(4), rel=1e-12)
        assert d.entry("rare").weight == pytest.approx(4.1588830833596715, rel=1e-12)

    def test_term_in_every_document_weighs_nothing(self):
        d = extract_dictionary_tfidf(self.four_doc_reference(), 3)
        assert d.entry("common").weight == 0.0
        assert d.terms[-1] == "common"

    def test_method_label(self):
        d = extract_dictionary_tfidf(self.four_doc_reference(), 2)
        assert d.method == "tfidf"
        assert d.method_label == "tfidf"

    def test_single_document_reference_rejected(self):
        corpus = Corpus(documents=[Document(id="d", sentences=[["a", "b"]])], role="reference")
        with pytest.raises(ValueError, match="idf undefined: all idf terms zero"):
            extract_dictionary_tfidf(corpus, 2)

    def test_n_clamps_to_vocabulary(self):
        d = extract_dictionary_tfidf(self.four_doc_reference(), 99)
        assert len(d) == 3


class TestDictionaryContainer:
    def entries(self):
        return [
            DictionaryEntry(term="a", weight=2.0, rank=1, boost=1.0),
            DictionaryEntry(term="b", weight=1.0, rank=2, boost=1.0 / math.sqrt(2)),
        ]

    def test_lookup(self):
        d = Dictionary(entries=self.entries(), method="topic-model")
        assert "a" in d and "zzz" not in d
        assert d.entry("b").rank == 2
        with pytest.raises(KeyError):
            d.entry("zzz")

    def test_boosts_are_one_array_in_dictionary_order_outside_equality(self):
        d = Dictionary(entries=self.entries(), method="topic-model")
        assert d.boosts.dtype == np.float64
        assert d.boosts.tolist() == [entry.boost for entry in d.entries]
        assert d == Dictionary(entries=self.entries(), method="topic-model")
        assert "boosts" not in repr(d)

    def test_duplicate_terms_rejected(self):
        entries = self.entries() + [DictionaryEntry(term="a", weight=0.5, rank=3, boost=boost(3))]
        with pytest.raises(ValueError, match="^dictionary entry 3: duplicate term 'a'$"):
            Dictionary(entries=entries, method="topic-model")

    @pytest.mark.parametrize(
        "entry, message",
        [
            (DictionaryEntry("c\td", 0.5, 3, boost(3)), r"term 'c\td' contains a tab, CR or LF"),
            (DictionaryEntry("c\r", 0.5, 3, boost(3)), r"term 'c\r' contains a tab, CR or LF"),
            (DictionaryEntry("", 0.5, 3, boost(3)), "term '' is empty"),
            # ``save_dictionary`` would stop after the header line
            (
                DictionaryEntry("c\ud800", 0.5, 3, boost(3)),
                r"term 'c\ud800' contains a lone surrogate, which UTF-8 cannot encode",
            ),
            (DictionaryEntry("c", 0.5, 7, boost(7)), "rank 7 is out of order, expected 3"),
            (DictionaryEntry("c", 0.5, 3, 0.5), "boost 0.5 is not 1/sqrt(3) = 0.5773502691896258"),
            (DictionaryEntry("c", math.nan, 3, boost(3)), "weight and boost must be finite"),
            (DictionaryEntry("c", 0.5, 3, math.inf), "weight and boost must be finite"),
        ],
    )
    def test_entries_that_the_loader_rejects_are_rejected_when_built(self, entry, message):
        with pytest.raises(ValueError, match=f"^{re.escape(f'dictionary entry 3: {message}')}$"):
            Dictionary(entries=self.entries() + [entry], method="tfidf")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown dictionary method"):
            Dictionary(entries=self.entries(), method="pagerank")


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        d = extract_dictionary_tfidf(
            Corpus(
                documents=[
                    Document(id="d1", sentences=[["a", "a", "b"]]),
                    Document(id="d2", sentences=[["b", "c", "c", "c"]]),
                    Document(id="d3", sentences=[["a", "c"]]),
                ],
                role="reference",
            ),
            3,
        )
        path = tmp_path / "dict.tsv"
        save_dictionary(d, path)
        loaded = load_dictionary(path)
        assert loaded.method == d.method
        assert loaded.entries == d.entries

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "stray.tsv"
        path.write_text("a\t1.0\n")
        with pytest.raises(ValueError, match="not a dictionary file"):
            load_dictionary(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("2\tc\t0.5", "expected 4 tab-separated fields, got 3"),
            ("2\tc\t0.5\t0.7071067811865475\tx", "expected 4 tab-separated fields, got 5"),
            ("3\tc\t0.5\t0.5773502691896258", "rank 3 is out of order, expected 2"),
            ("1\tc\t0.5\t1.0", "rank 1 is out of order, expected 2"),
            ("two\tc\t0.5\t0.7071067811865475", "rank, weight and boost must be numbers"),
            ("2\tc\tnan\t0.7071067811865475", "weight and boost must be finite"),
            ("2\tc\t0.5\tnan", "weight and boost must be finite"),
            ("2\tc\t0.5\tinf", "weight and boost must be finite"),
            ("2\tc\t0.5\t0.7", "boost 0.7 is not 1/sqrt\\(2\\)"),
            ("2\ta\t0.5\t0.7071067811865475", "duplicate term 'a'"),
        ],
    )
    def test_rejects_bad_entry_lines_with_their_location(self, tmp_path, line, message):
        path = tmp_path / "bad.tsv"
        path.write_text("#dictsieve-dictionary\tmethod=tfidf\tn=2\n1\ta\t1.0\t1.0\n" + line + "\n")
        with pytest.raises(ValueError, match=f"{path.name}:3: {message}"):
            load_dictionary(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("#dictsieve-dictionary\tn=1", "header has no method= field"),
            ("#dictsieve-dictionary\tmethod=tfidf", "header has no n= field"),
            ("#dictsieve-dictionary\tmethod=tfidf\tn=2", "header says n=2 but the file has 1 entries"),
            ("#dictsieve-dictionary\tmethod=tfidf\tn=-1", "n='-1' is not a count"),
            ("#dictsieve-dictionary\tmethod=lsa\tn=1", "unknown dictionary method 'lsa'"),
        ],
    )
    def test_rejects_bad_headers_with_their_location(self, tmp_path, header, message):
        path = tmp_path / "bad.tsv"
        path.write_text(header + "\n1\ta\t1.0\t1.0\n")
        with pytest.raises(ValueError, match=f"{path.name}:1: {message}"):
            load_dictionary(path)

    def test_rejects_a_file_without_entries_at_its_header(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("#dictsieve-dictionary\tmethod=tfidf\tn=0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: dictionary has no entries$"):
            load_dictionary(path)

    @settings(deadline=None)
    @given(
        terms=st.lists(
            st.text(
                st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=8,
            unique=True,
        ),
        data=st.data(),
    )
    def test_save_load_round_trip_property(self, tmp_path_factory, terms, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        weights = data.draw(st.lists(finite, min_size=len(terms), max_size=len(terms)))
        entries = [
            DictionaryEntry(term=term, weight=weight, rank=rank, boost=boost(rank))
            for rank, (term, weight) in enumerate(zip(terms, weights), start=1)
        ]
        method = data.draw(st.sampled_from(sorted(METHOD_LABELS)))
        path = tmp_path_factory.mktemp("dict") / "dict.tsv"
        save_dictionary(Dictionary(entries=entries, method=method), path)
        loaded = load_dictionary(path)
        assert loaded.method == method
        assert loaded.entries == entries
