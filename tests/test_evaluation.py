"""Tests for the data-fusion evaluation harness."""

from __future__ import annotations

import random
import re

import pytest

from dictsieve import (
    Corpus,
    Document,
    build_cooc,
    condorcet_rank,
    evaluate_sweep,
    filter_cooc,
    generate_sweep,
    map_score,
    norm_weights,
    precision_at_ranges,
    rank_collection,
    select_candidates,
    select_pseudorels,
)
from dictsieve import evaluation, retrieval
from dictsieve.dictionary import Dictionary, DictionaryEntry, boost
from dictsieve.evaluation import (
    DEFAULT_ALPHAS,
    PseudorelSet,
    SystemSet,
    read_judgments,
    read_pseudorels,
    write_eval_report,
    write_nd_series,
    write_p_at_k,
    write_pseudorels,
    write_wins_series,
)
from dictsieve.retrieval import RankedEntry, RankedList
from dictsieve.scoring import ScoringConfig, sentence_features
from test_acceptance import oracle_condorcet


def ranked(system_id: str, *doc_ids: str) -> RankedList:
    """Build a ranked list whose scores decrease with rank."""
    entries = [
        RankedEntry(doc_id=doc_id, score=float(len(doc_ids) - i), rank=i + 1)
        for i, doc_id in enumerate(doc_ids)
    ]
    return RankedList(system_id=system_id, entries=entries)


def system_set(*lists: RankedList, biased: tuple[str, ...] | None = None) -> SystemSet:
    if biased is None:
        biased = tuple(rl.system_id for rl in lists)
    return SystemSet(systems=list(lists), biased_subset=biased)


class TestSystemSet:
    def test_lookup_and_biased_selection(self):
        s = system_set(ranked("s1", "a"), ranked("s2", "b"), biased=("s2",))
        assert s.ids == ["s1", "s2"]
        assert s.get("s1").doc_ids() == ["a"]
        assert [rl.system_id for rl in s.biased()] == ["s2"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate system ids"):
            system_set(ranked("s1", "a"), ranked("s1", "b"))

    def test_unknown_biased_ids_rejected(self):
        with pytest.raises(ValueError, match="biased subset not among systems"):
            system_set(ranked("s1", "a"), biased=("ghost",))

    def test_unknown_lookup(self):
        s = system_set(ranked("s1", "a"))
        with pytest.raises(KeyError, match="unknown system"):
            s.get("nope")


class TestGenerateSweep:
    def test_default_sweep_has_seventeen_systems_per_dictionary(
        self, planted_sweep
    ):
        assert len(planted_sweep.systems) == 34
        tm_ids = [i for i in planted_sweep.ids if i.startswith("tm:")]
        tfidf_ids = [i for i in planted_sweep.ids if i.startswith("tfidf:")]
        assert len(tm_ids) == 17 and len(tfidf_ids) == 17
        assert len(DEFAULT_ALPHAS) == 16

    def test_alpha_grid_and_context_only_ids(self, planted_sweep):
        assert "tm:context:alpha=0" in planted_sweep.ids
        assert "tm:context:alpha=30" in planted_sweep.ids
        assert "tm:context-only:alpha=1" in planted_sweep.ids
        assert "tfidf:context-only:alpha=1" in planted_sweep.ids

    def test_biased_subset_is_frequency_and_context_only(self, planted_sweep):
        assert sorted(planted_sweep.biased_subset) == [
            "tfidf:context-only:alpha=1",
            "tfidf:context:alpha=0",
            "tm:context-only:alpha=1",
            "tm:context:alpha=0",
        ]

    def test_single_dictionary_single_alpha(
        self, planted_target, planted_dictionaries, planted_filtered
    ):
        d_tm, _ = planted_dictionaries
        cf_tm, _ = planted_filtered
        s = generate_sweep(planted_target, d_tm, None, cf_tm, None, alphas=[0.0], k=20)
        assert s.ids == ["tm:context:alpha=0", "tm:context-only:alpha=1"]
        assert set(s.biased_subset) == set(s.ids)

    def test_requires_a_dictionary(self, planted_target):
        with pytest.raises(ValueError, match="at least one dictionary"):
            generate_sweep(planted_target, None, None, None, None)

    def test_requires_alphas(
        self, planted_target, planted_dictionaries, planted_filtered
    ):
        d_tm, _ = planted_dictionaries
        cf_tm, _ = planted_filtered
        with pytest.raises(ValueError, match="alphas must be non-empty"):
            generate_sweep(planted_target, d_tm, None, cf_tm, None, alphas=[])

    def test_repeated_alpha_fails_before_any_feature_pass(
        self, planted_target, planted_dictionaries, planted_filtered, monkeypatch
    ):
        d_tm, _ = planted_dictionaries
        cf_tm, _ = planted_filtered
        monkeypatch.setattr(evaluation, "sentence_features", None)
        with pytest.raises(ValueError, match="alpha 2 is repeated"):
            generate_sweep(planted_target, d_tm, None, cf_tm, None, alphas=[0, 2, 4, 2.0])


    def test_context_mode_without_a_matrix_fails_before_any_feature_pass(
        self, planted_target, planted_dictionaries, planted_filtered, monkeypatch
    ):
        d_tm, d_tfidf = planted_dictionaries
        cf_tm, _ = planted_filtered
        monkeypatch.setattr(evaluation, "sentence_features", None)
        with pytest.raises(ValueError, match="co-occurrence matrix required for mode 'context'"):
            generate_sweep(planted_target, d_tm, d_tfidf, cf_tm, None)

    def test_matrix_for_another_dictionary_fails_before_any_feature_pass(
        self, planted_target, planted_dictionaries, planted_filtered, monkeypatch
    ):
        d_tm, d_tfidf = planted_dictionaries
        cf_tm, cf_tfidf = planted_filtered
        assert cf_tm.terms != d_tfidf.terms
        monkeypatch.setattr(evaluation, "sentence_features", None)
        with pytest.raises(ValueError, match="do not match the dictionary terms"):
            generate_sweep(planted_target, d_tm, d_tfidf, cf_tm, cf_tm)


def test_the_sweep_scores_each_document_once_per_system(
    planted_target, planted_dictionaries, planted_filtered, monkeypatch
):
    """The traced benchmark (bench/spans.py) counts and times the sweep's
    calls of ``retrieval.score_context`` and ``evaluation.rank_collection``
    as scoring.calls and retrieval.rankings."""
    calls = {"score_context": 0, "rank_collection": 0}

    def count_calls(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            result = original(*args, **kwargs)
            if name == "score_context":
                assert type(result) is float
            return result

        monkeypatch.setattr(module, name, counted)

    count_calls(retrieval, "score_context")
    count_calls(evaluation, "rank_collection")
    alphas = (0.0, 2.0, 4.0)
    systems = generate_sweep(planted_target, *planted_dictionaries, *planted_filtered, alphas=alphas, k=50)
    assert len(systems.systems) == 2 * (len(alphas) + 1)
    assert calls == {
        "score_context": len(systems.systems) * len(planted_target.documents),
        "rank_collection": len(systems.systems),
    }


def test_the_sweep_and_its_fusion_build_no_ranked_entry(
    planted_target, planted_dictionaries, planted_filtered, monkeypatch
):
    """The sweep's lists and the report fused from them are what they were
    with ``retrieval.RankedEntry`` made to raise: the lists are built and
    read as columns."""

    def outputs():
        systems = generate_sweep(planted_target, *planted_dictionaries, *planted_filtered, k=50)
        lists = [(ranked.system_id, ranked.ids, list(map(float.hex, ranked.scores))) for ranked in systems.systems]
        return lists, systems.biased_subset, evaluate_sweep(systems)

    expected = outputs()

    def no_entries(*args, **kwargs):
        raise AssertionError("a RankedEntry was built")

    monkeypatch.setattr(retrieval, "RankedEntry", no_entries)
    with pytest.raises(AssertionError, match="RankedEntry was built"):
        ranked("s", "a").entries
    assert outputs() == expected


def _random_docs(rng, vocab, n_docs, prefix):
    weights = [1.0 / (i + 1) for i in range(len(vocab))]
    return [
        Document(
            id=f"{prefix}{i}",
            sentences=[
                rng.choices(vocab, weights, k=rng.randint(1, 10))
                for _ in range(rng.randint(0, 6))
            ],
        )
        for i in range(n_docs)
    ]


def _make_dictionary(terms, method):
    entries = [
        DictionaryEntry(term=t, weight=float(len(terms) - i), rank=i + 1, boost=boost(i + 1))
        for i, t in enumerate(terms)
    ]
    return Dictionary(entries=entries, method=method)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_swept_system_equals_a_standalone_ranking(seed):
    rng = random.Random(seed)
    vocab = [f"t{i:02d}" for i in range(30)]
    reference = Corpus(documents=_random_docs(rng, vocab, 40, "r"), role="reference")
    generic = Corpus(documents=_random_docs(rng, vocab, 40, "g"), role="generic")
    dictionaries = [
        _make_dictionary(rng.sample(vocab, 12), "topic-model"),
        _make_dictionary(rng.sample(vocab, 12), "tfidf"),
    ]
    matrices = [filter_cooc(build_cooc(reference, q), build_cooc(generic, q)) for q in dictionaries]
    docs = _random_docs(rng, vocab, 50, "d")
    # one term in ten sentences: its tfsim is a sum of ten rows, long enough
    # that a pairwise or unrolled reduction would associate it differently
    anchor = dictionaries[0].entries[0].term
    docs.append(
        Document(id="long", sentences=[[anchor] + rng.choices(vocab, k=rng.randint(1, 6)) for _ in range(10)])
    )
    target = Corpus(documents=docs, role="target")
    assert max(sentence_features(Corpus(documents=[docs[-1]], role="target"), matrices[0]).lengths) >= 8

    alphas = (0.0, 0.5, 2.0, 30.0)
    swept = generate_sweep(target, *dictionaries, *matrices, alphas=alphas, k=40)
    configs = [ScoringConfig(alpha=a, mode="context") for a in alphas] + [ScoringConfig(mode="context-only")]
    expected = [
        rank_collection(target, q, matrix, config, 40)
        for q, matrix in zip(dictionaries, matrices)
        for config in configs
    ]
    assert swept.ids == [ranked.system_id for ranked in expected]
    for system, alone in zip(swept.systems, expected):
        assert [(e.rank, e.doc_id, e.score) for e in system] == [(e.rank, e.doc_id, e.score) for e in alone]
        assert system.m > 0


class TestNormWeights:
    def test_shared_first_place_add_up(self):
        s = system_set(
            ranked("s1", *[f"d{i}" for i in range(100)]),
            ranked("s2", *(["d0"] + [f"x{i}" for i in range(99)])),
        )
        weights = norm_weights(s)
        assert weights["d0"] == pytest.approx(200.0, rel=1e-12)

    def test_second_place_is_half_the_list_length(self):
        s = system_set(ranked("s1", *[f"d{i}" for i in range(100)]))
        weights = norm_weights(s)
        assert weights["d1"] == pytest.approx(50.0, rel=1e-12)
        assert weights["d99"] == pytest.approx(1.0, rel=1e-12)

    def test_absent_documents_have_no_entry(self):
        s = system_set(ranked("s1", "a", "b"))
        assert "zzz" not in norm_weights(s)

    def test_a_fuse_sums_the_weights_once_and_each_call_returns_a_copy(self):
        reads = []

        class Counted(RankedList):
            @property
            def m(self) -> int:  # read once per system by each pass over the weights
                reads.append(self.system_id)
                return len(self.entries)

        s = system_set(*(Counted(rl.system_id, rl.entries) for rl in (ranked("v1", "A", "B"), ranked("v2", "B"))))
        report = evaluate_sweep(s, top_m=2, fraction=0.5)
        assert reads == ["v1", "v2"]
        assert report.nd_series == [("A", 2.0), ("B", 2.0)]
        weights = norm_weights(s)
        weights["A"] = -1.0
        assert norm_weights(s) == {"A": 2.0, "B": 2.0}
        assert reads == ["v1", "v2"]

    def test_weights_are_additive_across_systems(self):
        rng = random.Random(13)
        docs = [f"d{i}" for i in range(30)]
        lists = []
        for n in range(4):
            picked = rng.sample(docs, rng.randint(5, 20))
            lists.append(ranked(f"s{n}", *picked))
        combined = norm_weights(system_set(*lists))
        for doc in docs:
            expected = 0.0
            for rl in lists:
                rank = rl.rank_of(doc)
                if rank is not None:
                    expected += rl.m / rank
            if expected:
                assert combined[doc] == pytest.approx(expected, rel=1e-12)
            else:
                assert doc not in combined


class TestSelectCandidates:
    def test_pool_is_a_union_of_biased_prefixes(self):
        s = system_set(
            ranked("s1", "a", "b", "c"),
            ranked("s2", "c", "d", "e"),
            ranked("unbiased", "z1", "z2", "z3"),
            biased=("s1", "s2"),
        )
        assert select_candidates(s, top_m=2) == {"a", "b", "c", "d"}

    def test_short_lists_contribute_everything(self):
        s = system_set(ranked("s1", "a"), biased=("s1",))
        assert select_candidates(s, top_m=50) == {"a"}

    def test_empty_biased_subset_rejected(self):
        s = system_set(ranked("s1", "a"), biased=())
        with pytest.raises(ValueError, match="biased subset is empty"):
            select_candidates(s)

    def test_top_m_validation(self):
        s = system_set(ranked("s1", "a"))
        with pytest.raises(ValueError, match="top_m must be >= 1"):
            select_candidates(s, top_m=0)


class TestCondorcet:
    def test_three_voter_example(self):
        s = system_set(
            ranked("v1", "A", "B", "C"),
            ranked("v2", "A", "C", "B"),
            ranked("v3", "B", "A", "C"),
        )
        order = condorcet_rank({"A", "B", "C"}, s)
        assert order == [("A", 2), ("B", 1), ("C", 0)]

    def test_single_system_preserves_its_order(self):
        s = system_set(ranked("only", "m", "k", "z"))
        order = condorcet_rank({"m", "k", "z"}, s)
        assert [doc for doc, _ in order] == ["m", "k", "z"]
        assert [wins for _, wins in order] == [2, 1, 0]

    def test_absent_documents_lose_to_present_ones(self):
        s = system_set(ranked("s1", "a"), ranked("s2", "a"))
        order = condorcet_rank({"a", "ghost"}, s)
        assert order == [("a", 1), ("ghost", 0)]

    def test_tied_wins_fall_back_to_weight_then_id(self):
        # opposite preferences split the vote 1-1, so wins stay 0 for both;
        # the longer list gives b the larger aggregate weight: 3/1 + 2/2 = 4
        # versus 3/2 + 2/1 = 3.5 for a, overriding the lexicographic order
        s = system_set(
            ranked("s1", "b", "a", "c"),
            ranked("s2", "a", "b"),
        )
        order = condorcet_rank({"a", "b"}, s)
        assert [wins for _, wins in order] == [0, 0]
        assert [doc for doc, _ in order] == ["b", "a"]

    def test_tied_wins_and_weights_fall_back_to_doc_id(self):
        s = system_set(ranked("s1", "b", "a"), ranked("s2", "a", "b"))
        order = condorcet_rank({"a", "b"}, s)
        assert order == [("a", 0), ("b", 0)]

    def test_empty_pool_rejected(self):
        s = system_set(ranked("s1", "a"))
        with pytest.raises(ValueError, match="candidate pool is empty"):
            condorcet_rank(set(), s)

    @pytest.mark.parametrize("n_biased", range(1, 7))
    def test_benchmark_sized_pools_equal_the_frozen_oracle(self, n_biased):
        """Pools of 50-200 documents, as the benchmark's sweeps form them,
        with pool documents some biased system did not retrieve, retrieved
        documents outside the pool, and systems outside the biased subset
        that only add to the tie-break weights."""
        rng = random.Random(2500 + n_biased)
        for pool_size in (50, 120, 200):
            universe = [f"d{i:03d}" for i in range(pool_size + 40)]
            pool = set(rng.sample(universe, pool_size))
            lists = [
                ranked(f"s{j}", *rng.sample(universe, rng.randint(0, len(universe))))
                for j in range(n_biased + 2)
            ]
            biased = rng.sample(lists, n_biased)
            retrieved = {doc for rl in biased for doc in rl.doc_ids()}
            assert any(pool - set(rl.doc_ids()) for rl in biased)
            assert retrieved - pool
            systems = system_set(*lists, biased=tuple(rl.system_id for rl in biased))
            assert condorcet_rank(pool, systems) == oracle_condorcet(pool, biased, lists)


class TestSelectPseudorels:
    def test_half_of_the_pool_rounded_up(self):
        s = system_set(
            ranked("v1", "A", "B", "C"),
            ranked("v2", "A", "C", "B"),
            ranked("v3", "B", "A", "C"),
        )
        rels = select_pseudorels(s, top_m=3, fraction=0.5)
        assert rels.candidate_pool == frozenset({"A", "B", "C"})
        assert len(rels) == 2
        assert rels.doc_ids == frozenset({"A", "B"})
        assert "A" in rels and "C" not in rels

    def test_fraction_one_keeps_the_whole_pool(self):
        s = system_set(ranked("v1", "A", "B"))
        rels = select_pseudorels(s, top_m=2, fraction=1.0)
        assert rels.doc_ids == frozenset({"A", "B"})

    def test_fraction_validation(self):
        s = system_set(ranked("v1", "A"))
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="fraction must be in"):
                select_pseudorels(s, fraction=bad)

    def test_pseudorel_set_validates_its_invariants(self):
        with pytest.raises(ValueError, match="must come from the candidate pool"):
            PseudorelSet(
                doc_ids=frozenset({"outside"}),
                condorcet_order=(("a", 0),),
                candidate_pool=frozenset({"a"}),
                fraction=1.0,
            )
        with pytest.raises(ValueError, match="expected 1 pseudorels"):
            PseudorelSet(
                doc_ids=frozenset(),
                condorcet_order=(("a", 0),),
                candidate_pool=frozenset({"a"}),
                fraction=0.5,
            )


class TestMapScore:
    def test_perfect_ranking(self):
        rl = ranked("s", "r1", "r2", "r3")
        assert map_score(rl, {"r1", "r2", "r3"}) == 1.0

    def test_two_hits_at_ranks_one_and_three(self):
        rl = ranked("s", "r1", "x", "r2")
        value = map_score(rl, {"r1", "r2"})
        assert value == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, rel=1e-12)
        assert value == pytest.approx(0.8333333333333333, rel=1e-12)

    def test_unretrieved_relevants_still_divide(self):
        rl = ranked("s", "r1")
        assert map_score(rl, {"r1", "missing"}) == 0.5

    def test_nothing_retrieved_scores_zero(self):
        rl = ranked("s", "x", "y")
        assert map_score(rl, {"r1"}) == 0.0

    def test_empty_relevant_set_rejected(self):
        with pytest.raises(ValueError, match="relevant set is empty"):
            map_score(ranked("s", "x"), set())

    def test_swapping_a_relevant_above_an_irrelevant_never_hurts(self):
        rng = random.Random(21)
        docs = [f"d{i}" for i in range(12)]
        for _ in range(50):
            order = docs[:]
            rng.shuffle(order)
            rels = set(rng.sample(docs, 4))
            positions = [
                i
                for i in range(len(order) - 1)
                if order[i] not in rels and order[i + 1] in rels
            ]
            if not positions:
                continue
            i = rng.choice(positions)
            before = map_score(ranked("s", *order), rels)
            order[i], order[i + 1] = order[i + 1], order[i]
            after = map_score(ranked("s", *order), rels)
            assert after > before


class TestPrecisionAtRanges:
    def test_full_window(self):
        rl = ranked("s", *[f"d{i}" for i in range(10)])
        judgments = {f"d{i}": i < 9 for i in range(10)}
        table = precision_at_ranges(rl, judgments, ranges=((1, 10),))
        assert table[(1, 10)] == pytest.approx(0.9, rel=1e-12)

    def test_partial_window_uses_present_entries_only(self):
        rl = ranked("s", "a", "b", "c")
        judgments = {"a": True, "b": False, "c": True}
        table = precision_at_ranges(rl, judgments, ranges=((2, 5),))
        assert table[(2, 5)] == pytest.approx(0.5, rel=1e-12)

    def test_windows_past_the_end_are_omitted(self):
        rl = ranked("s", "a")
        judgments = {"a": True}
        table = precision_at_ranges(rl, judgments, ranges=((1, 10), (101, 110)))
        assert (1, 10) in table
        assert (101, 110) not in table

    def test_all_missing_judgments_reported_at_once(self):
        rl = ranked("s", "a", "b", "c")
        with pytest.raises(ValueError, match="missing judgments for: b, c"):
            precision_at_ranges(rl, {"a": True}, ranges=((1, 3),))

    def test_bad_range_rejected(self):
        rl = ranked("s", "a")
        with pytest.raises(ValueError, match="bad rank range"):
            precision_at_ranges(rl, {"a": True}, ranges=((5, 2),))


class TestEvaluateSweep:
    def small_system_set(self) -> SystemSet:
        return system_set(
            ranked("v1", "A", "B", "C", "D"),
            ranked("v2", "A", "C", "B", "E"),
            ranked("v3", "B", "A", "C", "F"),
        )

    def test_report_shape(self):
        report = evaluate_sweep(self.small_system_set(), top_m=4, fraction=0.5)
        assert set(report.map_by_system) == {"v1", "v2", "v3"}
        assert len(report.pseudorels) == 3
        assert all(w >= 0 for _, w in report.nd_series)
        nd_docs = [doc for doc, _ in report.nd_series]
        assert nd_docs == sorted(
            nd_docs, key=lambda doc: (-dict(report.nd_series)[doc], doc)
        )

    def test_map_values_are_consistent_with_map_score(self):
        systems = self.small_system_set()
        report = evaluate_sweep(systems, top_m=4, fraction=0.5)
        for system_id, value in report.map_by_system.items():
            assert value == map_score(systems.get(system_id), report.pseudorels)


class TestFileFormats:
    def test_eval_report_round_trip(self, tmp_path):
        systems = system_set(
            ranked("v1", "A", "B"),
            ranked("v2", "B", "A"),
        )
        report = evaluate_sweep(systems, top_m=2, fraction=0.5)
        report_path = tmp_path / "eval_report.tsv"
        write_eval_report(report, report_path)
        lines = report_path.read_text().splitlines()
        assert lines[0] == "system_id\tmap"
        parsed = dict(line.split("\t") for line in lines[1:])
        for system_id, value in parsed.items():
            assert float(value) == report.map_by_system[system_id]

    def test_pseudorels_round_trip(self, tmp_path):
        systems = system_set(
            ranked("v1", "A", "B", "C"),
            ranked("v2", "A", "C", "B"),
        )
        rels = select_pseudorels(systems, top_m=3, fraction=0.5)
        path = tmp_path / "pseudorels.txt"
        write_pseudorels(rels, path)
        assert read_pseudorels(path) == rels.doc_ids

    def test_read_pseudorels_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="no pseudorels found"):
            read_pseudorels(path)

    def test_read_pseudorels_skips_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "pseudorels.txt"
        path.write_text("# fused\nd1\n\n \t \n  # indented\nd2\n")
        assert read_pseudorels(path) == {"d1", "d2"}

    @pytest.mark.parametrize(
        "line, message",
        [
            ("d3\tjunk", "document id 'd3\\tjunk' contains a tab, CR or LF"),
            (" d3", "document id ' d3' has leading or trailing whitespace"),
            ("d3 ", "document id 'd3 ' has leading or trailing whitespace"),
            ("d1", "duplicate doc id 'd1'"),
        ],
    )
    def test_read_pseudorels_rejects_an_id_that_ingest_rejects(self, tmp_path, line, message):
        path = tmp_path / "pseudorels.txt"
        path.write_text(f"# fused\nd1\n{line}\nd2\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
            read_pseudorels(path)

    def test_series_writers(self, tmp_path):
        nd_path = tmp_path / "nd.tsv"
        write_nd_series([("a", 12.5), ("b", 1.0)], nd_path)
        assert nd_path.read_text().splitlines() == ["doc_id\tn_d", "a\t12.5", "b\t1.0"]
        wins_path = tmp_path / "wins.tsv"
        write_wins_series([("a", 3), ("b", 0)], wins_path)
        assert wins_path.read_text().splitlines() == ["doc_id\twins", "a\t3", "b\t0"]
        p_path = tmp_path / "p.tsv"
        write_p_at_k({(1, 10): 0.9}, p_path)
        assert p_path.read_text().splitlines() == ["from\tto\tprecision", "1\t10\t0.9"]

    def test_read_judgments(self, tmp_path):
        path = tmp_path / "judgments.tsv"
        path.write_text("# comment\nd1\t1\n \t \nd2\t0\n\n")
        assert read_judgments(path) == {"d1": True, "d2": False}

    def test_read_judgments_errors(self, tmp_path):
        bad_format = tmp_path / "bad.tsv"
        bad_format.write_text("d1\tmaybe\n")
        with pytest.raises(ValueError, match="expected 'doc_id"):
            read_judgments(bad_format)
        duplicate = tmp_path / "dup.tsv"
        duplicate.write_text("d1\t1\nd1\t0\n")
        with pytest.raises(ValueError, match="duplicate judgment"):
            read_judgments(duplicate)
        empty = tmp_path / "void.tsv"
        empty.write_text("# only comments\n")
        with pytest.raises(ValueError, match="no judgments found"):
            read_judgments(empty)
        for line, message in [
            ("\t1", "document id '' is empty"),
            (" d2\t0", "document id ' d2' has leading or trailing whitespace"),
        ]:
            bad_id = tmp_path / "bad_id.tsv"
            bad_id.write_text(f"d1\t1\n{line}\n")
            with pytest.raises(ValueError, match=f"^{re.escape(f'{bad_id}:2: {message}')}"):
                read_judgments(bad_id)
