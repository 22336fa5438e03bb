"""Tests for ranked retrieval over a target collection."""

from __future__ import annotations

import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictsieve import (
    Corpus,
    Document,
    compute_norms,
    generate_sweep,
    load_ranked_list,
    rank_collection,
    save_ranked_list,
    score_dict,
    term_stats,
)
from dictsieve import retrieval
from dictsieve.cooc import CoocMatrix
from dictsieve.dictionary import Dictionary, DictionaryEntry, boost
from dictsieve.retrieval import RankedEntry, RankedList, format_alpha, make_system_id
from dictsieve.scoring import ScoringConfig


def make_dictionary(*terms: str, method: str = "topic-model") -> Dictionary:
    entries = [
        DictionaryEntry(term=t, weight=float(len(terms) - i), rank=i + 1, boost=boost(i + 1))
        for i, t in enumerate(terms)
    ]
    return Dictionary(entries=entries, method=method)


def random_corpus(n_docs: int, seed: int, vocab_size: int = 20) -> Corpus:
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(vocab_size)]
    docs = []
    for i in range(n_docs):
        sentences = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 7))]
            for _ in range(rng.randint(1, 4))
        ]
        docs.append(Document(id=f"d{i:03d}", sentences=sentences))
    return Corpus(documents=docs, role="target")


def frozen_ranking(documents, scores, k: int) -> list[tuple[str, float, int]]:
    """Frozen reference: the ranking step of ``rank_collection`` as a sort of
    (score, doc id) tuples by (-score, doc id), positive scores only, cut
    at k; (doc id, score, rank) per entry."""
    scored = [(score, doc.id) for doc, score in zip(documents, scores) if score > 0.0]
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [(doc_id, score, rank) for rank, (score, doc_id) in enumerate(scored[:k], start=1)]


# doc ids whose code-point order differs from the order they are drawn in
RANKING_IDS = ("d10", "d9", "d1", "d2", "B", "a", "A", "b", "é", "e", "ä", "z", "Ω", "日本", "a b", "a1", "a10", "ß")
# a small pool, so scores tie; a zero score is never listed
SCORE_POOL = (0.0, 5e-324, 1 / 3, 0.5, 1.0, 2 / 3, 1e300)
# documents of a few shapes: documents of one shape score alike
SHAPES = ([["w0"]], [["w0", "w0", "z"]], [["w1", "z"], ["w0"]], [["z"]], [["w1", "w1"]], [])


@st.composite
def ranked_collections(draw, values):
    """Distinct doc ids in drawn order, a value per document and a k from 1
    to 3 past the number of documents."""
    ids = draw(st.permutations(RANKING_IDS))[: draw(st.integers(1, len(RANKING_IDS)))]
    drawn = draw(st.lists(st.sampled_from(values), min_size=len(ids), max_size=len(ids)))
    return ids, drawn, draw(st.integers(1, len(ids) + 3))


def entry_rows(entries) -> list[str]:
    """Each (doc id, score, rank) with the types of score and rank, as text,
    which holds every bit of the score."""
    return [repr((doc_id, score, rank, type(score), type(rank))) for doc_id, score, rank in entries]


def hex_rows(entries) -> list[tuple[str, str, int]]:
    """Each (doc id, score, rank), the score as ``float.hex``, which holds
    every bit of it."""
    return [(doc_id, float.hex(score), rank) for doc_id, score, rank in entries]


def column_rows(ranked: RankedList) -> list[tuple[str, str, int]]:
    """``hex_rows`` read from the list's columns, a rank being a position + 1."""
    return hex_rows(zip(ranked.ids, ranked.scores, range(1, len(ranked.ids) + 1)))


class TestSystemIds:
    def test_integral_alpha_formats_as_integer(self):
        assert format_alpha(14.0) == "14"
        assert format_alpha(0.0) == "0"

    def test_fractional_alpha_keeps_full_precision(self):
        assert format_alpha(2.5) == "2.5"

    def test_id_combines_method_mode_and_alpha(self):
        d = make_dictionary("a", method="topic-model")
        config = ScoringConfig(alpha=14.0, mode="context")
        assert make_system_id(d, config) == "tm:context:alpha=14"
        baseline = make_dictionary("a", method="tfidf")
        assert make_system_id(baseline, ScoringConfig()) == "tfidf:unigram:alpha=0"
        only = ScoringConfig(mode="context-only")
        assert make_system_id(d, only) == "tm:context-only:alpha=1"


class TestRankedList:
    def entries(self):
        return [
            RankedEntry(doc_id="x", score=2.0, rank=1),
            RankedEntry(doc_id="y", score=1.0, rank=2),
        ]

    def test_lookup_helpers(self):
        ranked = RankedList(system_id="s", entries=self.entries())
        assert ranked.m == 2
        assert len(ranked) == 2
        assert ranked.rank_of("y") == 2
        assert ranked.rank_of("zzz") is None
        assert ranked.doc_ids() == ["x", "y"]

    def test_duplicate_doc_ids_rejected(self):
        entries = self.entries() + [RankedEntry(doc_id="x", score=0.5, rank=3)]
        with pytest.raises(ValueError, match="duplicate doc ids"):
            RankedList(system_id="s", entries=entries)

    @pytest.mark.parametrize("ranks", [(0, 1), (1, 3), (2, 1), (1, 1), (2, 3)])
    def test_ranks_must_run_1_to_m_in_list_order(self, ranks):
        """Condorcet fusion reads a system's vote from its ranks, so two
        documents of one list must never share a rank."""
        entries = [RankedEntry(doc_id=f"d{i}", score=2.0 - i, rank=rank) for i, rank in enumerate(ranks)]
        with pytest.raises(ValueError, match=r"ranks must run 1\.\.m in list order"):
            RankedList(system_id="s", entries=entries)

    @pytest.mark.parametrize(
        "system_id, message",
        [
            ("", "system id '' is empty"),
            ("a\tb", "system id 'a\\tb' contains a tab, CR or LF"),
            ("a\rb", "system id 'a\\rb' contains a tab, CR or LF"),
            ("a\ud800", "system id 'a\\ud800' contains a lone surrogate"),
            (None, "system id None is not a string"),
        ],
    )
    def test_a_system_id_that_is_not_a_field_is_rejected(self, system_id, message):
        """``save_ranked_list`` writes the id into its header line, and
        ``systems.tsv`` into a tab-separated field."""
        with pytest.raises(ValueError, match=re.escape(message)):
            RankedList(system_id=system_id, entries=self.entries())
        with pytest.raises(ValueError, match=re.escape(message)):
            RankedList._columns(system_id, ["x", "y"], [2.0, 1.0])

    def test_columns_reject_a_repeated_doc_id(self):
        with pytest.raises(ValueError, match="duplicate doc ids"):
            RankedList._columns("s", ["x", "y", "x"], [2.0, 1.0, 0.5])

    def test_the_columns_hold_the_entries_fields(self):
        ranked = RankedList(system_id="s", entries=self.entries())
        assert (ranked.ids, ranked.scores) == (["x", "y"], [2.0, 1.0])
        assert ranked == RankedList._columns("s", ["x", "y"], [2.0, 1.0])
        assert ranked != RankedList._columns("s", ["x", "y"], [2.0, 0.5])
        assert ranked != RankedList._columns("t", ["x", "y"], [2.0, 1.0])
        assert repr(ranked) == (
            "RankedList(system_id='s', entries=[RankedEntry(doc_id='x', score=2.0, rank=1), "
            "RankedEntry(doc_id='y', score=1.0, rank=2)])"
        )

    def test_entries_are_ranked_entry_tuples_built_when_read(self):
        ranked = RankedList._columns("s", ["x", "y"], [2.0, 1.0])
        assert [type(entry) for entry in ranked.entries] == [RankedEntry, RankedEntry]
        assert ranked.entries == self.entries()
        assert list(ranked) == self.entries()
        assert ranked.entries is not ranked.entries
        assert RankedList._columns("s", [], []).entries == []

    def test_rank_of_builds_its_dict_on_first_call(self):
        for ranked in (RankedList("s", self.entries()), RankedList._columns("s", ["x", "y"], [2.0, 1.0])):
            assert set(vars(ranked)) == {"system_id", "ids", "scores"}
            assert ranked.rank_of("y") == 2
            assert ranked.rank_of("zzz") is None
            assert set(vars(ranked)) == {"system_id", "ids", "scores", "_rank_by_id"}


class TestRankedEntry:
    def test_keyword_and_positional_construction(self):
        entry = RankedEntry(doc_id="x", score=0.5, rank=3)
        assert entry == RankedEntry("x", 0.5, 3)
        assert (entry.doc_id, entry.score, entry.rank) == ("x", 0.5, 3)
        with pytest.raises(TypeError):
            RankedEntry(doc_id="x", score=0.5)

    def test_fields_cannot_be_assigned(self):
        entry = RankedEntry(doc_id="x", score=0.5, rank=3)
        for name, value in (("doc_id", "y"), ("score", 1.0), ("rank", 1)):
            with pytest.raises(AttributeError):
                setattr(entry, name, value)
        assert entry == RankedEntry(doc_id="x", score=0.5, rank=3)

    def test_repr(self):
        assert repr(RankedEntry(doc_id="é", score=1 / 3, rank=12)) == (
            "RankedEntry(doc_id='é', score=0.3333333333333333, rank=12)"
        )


class TestRankingOrder:
    """The ranked list is the frozen tuple sort of its scores: ties broken
    by code-point order of the doc ids, zero scores dropped, cut at k."""

    @settings(deadline=None, max_examples=200)
    @given(collection=ranked_collections(SCORE_POOL))
    def test_any_scores_rank_as_the_frozen_sort(self, collection):
        ids, scores, k = collection
        target = Corpus(documents=[Document(id=doc_id, sentences=[["w0"]]) for doc_id in ids], role="target")
        by_id = dict(zip(ids, scores))
        with mock.patch("dictsieve.retrieval.score_context", lambda q, d, *args: by_id[d.id]):
            ranked = rank_collection(target, make_dictionary("w0"), None, ScoringConfig(), k)
        assert entry_rows(ranked.entries) == entry_rows(frozen_ranking(target.documents, scores, k))
        assert column_rows(ranked) == hex_rows(frozen_ranking(target.documents, scores, k))
        # the ids are the target's own strings
        assert all(doc_id is target.coding.ids[ids.index(doc_id)] for doc_id in ranked.ids)

    @settings(deadline=None, max_examples=60)
    @given(collection=ranked_collections(range(len(SHAPES))))
    def test_scored_documents_rank_as_the_frozen_sort(self, collection):
        ids, shapes, k = collection
        documents = [Document(id=doc_id, sentences=SHAPES[shape]) for doc_id, shape in zip(ids, shapes)]
        target = Corpus(documents=documents, role="target")
        q = make_dictionary("w0", "w1")
        stats = term_stats(target)
        norms = compute_norms(target, stats, ScoringConfig())
        ranked = rank_collection(target, q, None, ScoringConfig(), k, norms=norms)
        scores = [score_dict(q, doc, stats, norms) for doc in target.documents]
        assert entry_rows(ranked.entries) == entry_rows(frozen_ranking(target.documents, scores, k))

    @pytest.mark.parametrize("k", [7, 2000])
    def test_every_system_of_the_planted_sweep_is_the_frozen_sort(
        self, planted_target, planted_dictionaries, planted_filtered, monkeypatch, k
    ):
        """Each system of the default sweep ranks the scores its documents
        got as the frozen sort does.  The planted scores tie in groups of
        10; k = 7 cuts every list, and k = 2000 keeps every document that
        scores above 0, which leaves out most of the target."""
        scored: list[float] = []
        score_context = retrieval.score_context

        def recorded(*args, **kwargs):
            scored.append(score_context(*args, **kwargs))
            return scored[-1]

        monkeypatch.setattr(retrieval, "score_context", recorded)
        systems = generate_sweep(planted_target, *planted_dictionaries, *planted_filtered, k=k).systems
        n = len(planted_target)
        assert len(systems) == 34 and len(scored) == 34 * n
        for i, ranked in enumerate(systems):
            expected = hex_rows(frozen_ranking(planted_target.documents, scored[i * n : (i + 1) * n], k))
            assert column_rows(ranked) == hex_rows(ranked.entries) == expected
        assert {ranked.m for ranked in systems} == ({7} if k == 7 else {10, 20})


class TestRankCollection:
    def test_orders_by_score_then_doc_id(self):
        docs = [
            Document(id="twice", sentences=[["a", "a", "z1"]]),
            Document(id="alpha", sentences=[["a", "z2"]]),
            Document(id="beta", sentences=[["a", "z3"]]),
            Document(id="none", sentences=[["z4"]]),
        ]
        target = Corpus(documents=docs, role="target")
        q = make_dictionary("a")
        config = ScoringConfig(slope=0.0)
        ranked = rank_collection(target, q, None, config, k=10)
        assert ranked.doc_ids() == ["twice", "alpha", "beta"]
        assert [e.rank for e in ranked.entries] == [1, 2, 3]
        assert ranked.entries[1].score == ranked.entries[2].score

    def test_zero_score_documents_never_appear(self):
        docs = [
            Document(id="hit", sentences=[["a"]]),
            Document(id="miss", sentences=[["x"]]),
        ]
        target = Corpus(documents=docs, role="target")
        ranked = rank_collection(target, make_dictionary("a"), None, ScoringConfig(), k=10)
        assert ranked.doc_ids() == ["hit"]

    def test_k_truncates_and_smaller_k_is_a_prefix(self):
        target = random_corpus(80, seed=3)
        q = make_dictionary("w0", "w1", "w2")
        config = ScoringConfig(slope=0.7)
        full = rank_collection(target, q, None, config, k=2000)
        clipped = rank_collection(target, q, None, config, k=5)
        assert clipped.m == 5
        assert clipped.entries == full.entries[:5]
        assert full.m <= 80

    def test_rerun_is_deterministic(self):
        target = random_corpus(60, seed=4)
        q = make_dictionary("w0", "w1")
        config = ScoringConfig(slope=0.7)
        a = rank_collection(target, q, None, config, k=50)
        b = rank_collection(target, q, None, config, k=50)
        assert a.entries == b.entries
        assert a.system_id == b.system_id

    def test_context_mode_requires_a_matrix(self):
        target = random_corpus(5, seed=1)
        q = make_dictionary("w0")
        with pytest.raises(ValueError, match="co-occurrence matrix required"):
            rank_collection(target, q, None, ScoringConfig(alpha=2.0, mode="context"), k=5)

    def test_matrix_for_another_dictionary_is_rejected(self):
        target = random_corpus(5, seed=1)
        q = make_dictionary("w0", "w1")
        other = CoocMatrix.from_pairs(terms=("w0", "w2"), values={("w0", "w2"): 0.5}, provenance="filtered")
        for mode in ("context", "context-only"):
            with pytest.raises(ValueError, match="do not match the dictionary"):
                rank_collection(target, q, other, ScoringConfig(alpha=2.0, mode=mode), k=5)
        ranked = rank_collection(target, q, other, ScoringConfig(), k=5)
        assert ranked.m > 0

    def test_norms_of_another_collection_are_rejected(self):
        """The contribution pass reads norms by position, so norms of other
        documents, or of the same ones in another order, would be misread."""
        target = random_corpus(5, seed=1)
        q = make_dictionary("w0", "w1")
        reordered = Corpus(documents=target.documents[::-1], role="target")
        for other in (random_corpus(6, seed=1), reordered):
            norms = compute_norms(other, term_stats(other), ScoringConfig())
            with pytest.raises(ValueError, match="norms were computed over another collection"):
                rank_collection(target, q, None, ScoringConfig(), k=5, norms=norms)

    def test_norms_at_another_slope_are_rejected(self):
        """The norms' pivot weighting depends on the slope, and a system id
        does not name it, so norms of another slope would silently rank the
        target by the wrong lengths."""
        target = random_corpus(6, seed=2)
        q = make_dictionary("w0", "w1", "w2")
        stats = term_stats(target)
        for norm_slope in (0.0, 0.7):
            norms = compute_norms(target, stats, ScoringConfig(slope=norm_slope))
            for slope in (0.0, 0.7):
                config = ScoringConfig(slope=slope)
                if slope == norm_slope:
                    ranked = rank_collection(target, q, None, config, k=5, norms=norms)
                    assert ranked.entries == rank_collection(target, q, None, config, k=5).entries
                    continue
                with pytest.raises(ValueError, match=f"norms were computed at slope {norm_slope}, not at {slope}"):
                    rank_collection(target, q, None, config, k=5, norms=norms)

    def test_k_must_be_positive(self):
        target = random_corpus(5, seed=1)
        with pytest.raises(ValueError, match="k must be >= 1"):
            rank_collection(target, make_dictionary("w0"), None, ScoringConfig(), k=0)


class TestPersistence:
    def test_round_trip_is_bit_exact(self, tmp_path):
        target = random_corpus(40, seed=8)
        q = make_dictionary("w0", "w1", "w2", "w3")
        ranked = rank_collection(target, q, None, ScoringConfig(slope=0.7), k=25)
        path = tmp_path / "ranked.tsv"
        save_ranked_list(ranked, path)
        loaded = load_ranked_list(path)
        assert loaded.system_id == ranked.system_id
        assert loaded.entries == ranked.entries

    @pytest.mark.parametrize("m", [0, 1, 25])
    def test_a_saved_list_loads_as_an_equal_list(self, tmp_path, m):
        ranked = rank_collection(random_corpus(40, seed=8), make_dictionary("w0", "w1"), None, ScoringConfig(), k=25)
        assert ranked.m == 25
        ranked = RankedList._columns(ranked.system_id, ranked.ids[:m], ranked.scores[:m])
        path = tmp_path / "ranked.tsv"
        save_ranked_list(ranked, path)
        loaded = load_ranked_list(path)
        assert loaded == ranked
        assert column_rows(loaded) == column_rows(ranked)

    @pytest.mark.parametrize(
        "system_id, message",
        [
            ("", "system id '' is empty"),
            ("a\tb", "system id 'a\\tb' contains a tab, CR or LF"),
        ],
    )
    def test_rejects_a_system_id_that_is_not_a_field(self, tmp_path, system_id, message):
        path = tmp_path / "bad.tsv"
        path.write_bytes(f"# system_id={system_id}\n1\td0\t1.0\n".encode())
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: {message}")):
            load_ranked_list(path)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "stray.tsv"
        path.write_text("1\tdoc\t0.5\n")
        with pytest.raises(ValueError, match="not a ranked list file"):
            load_ranked_list(path)


    @pytest.mark.parametrize(
        "line, message",
        [
            ("2\td1", "expected 3 tab-separated fields, got 2"),
            ("3\td1\t0.5", "rank 3 is out of order, expected 2"),
            ("two\td1\t0.5", "rank and score must be numbers"),
            ("2\td1\tnan", "score 'nan' is not finite"),
            ("2\td1\t-inf", "score '-inf' is not finite"),
            ("2\td1\t0.0", "score '0.0' is not positive"),
            ("2\td1\t-0.0", "score '-0.0' is not positive"),
            ("2\td1\t-0.5", "score '-0.5' is not positive"),
            ("2\td1\t1.5", "score 1.5 is above the score of rank 1"),
            ("2\td0\t0.5", "duplicate doc id 'd0'"),
            # doc ids that ingest rejects, which ``read_pseudorels`` would
            # skip as a comment or strip
            ("2\t#x\t0.5", "document id '#x' starts with '#'"),
            ("2\t d1\t0.5", "document id ' d1' has leading or trailing whitespace"),
            ("2\td1 \t0.5", "document id 'd1 ' has leading or trailing whitespace"),
            ("2\t\t0.5", "document id '' is empty"),
        ],
    )
    def test_rejects_bad_lines_with_their_location(self, tmp_path, line, message):
        path = tmp_path / "bad.tsv"
        path.write_text("# system_id=tm:context:alpha=2\n1\td0\t1.0\n" + line + "\n")
        with pytest.raises(ValueError, match=f"{path.name}:3: {message}"):
            load_ranked_list(path)

    def test_equal_scores_are_allowed(self, tmp_path):
        path = tmp_path / "tied.tsv"
        path.write_text("# system_id=s\n1\td0\t1.0\n2\td1\t1.0\n")
        assert load_ranked_list(path).doc_ids() == ["d0", "d1"]


class TestPlantedSeparation:
    """With the planted corpora, sentence context must beat raw frequency."""

    def test_context_mode_lifts_pair_documents_over_decoys(
        self, planted_target, planted_dictionaries, planted_filtered
    ):
        import planted

        d_tm, _ = planted_dictionaries
        cf_tm, _ = planted_filtered
        config = ScoringConfig(slope=0.7, alpha=14.0, mode="context")
        ranked = rank_collection(planted_target, d_tm, cf_tm, config, k=50)
        rel_ranks = [ranked.rank_of(doc_id) for doc_id in sorted(planted.REL_IDS)]
        dec_ranks = [ranked.rank_of(doc_id) for doc_id in sorted(planted.DEC_IDS)]
        assert all(r is not None for r in rel_ranks + dec_ranks)
        assert max(rel_ranks) < min(dec_ranks)

    def test_unigram_mode_prefers_the_decoys(
        self, planted_target, planted_dictionaries
    ):
        import planted

        d_tm, _ = planted_dictionaries
        ranked = rank_collection(
            planted_target, d_tm, None, ScoringConfig(slope=0.7), k=50
        )
        rel_ranks = [ranked.rank_of(doc_id) for doc_id in sorted(planted.REL_IDS)]
        dec_ranks = [ranked.rank_of(doc_id) for doc_id in sorted(planted.DEC_IDS)]
        assert max(dec_ranks) < min(rel_ranks)
