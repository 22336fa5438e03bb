"""Acceptance suite.

One test per criterion; each prints a single pass/fail line.  Numeric
oracles were computed independently (closed forms, brute-force recounts,
and hand arithmetic) and are frozen here as literals.  Comparisons use a
relative tolerance of 1e-9 unless a check is exact by construction.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import dictsieve
import planted
from dictsieve import (
    Corpus,
    Document,
    boost,
    build_cooc,
    condorcet_rank,
    dice,
    evaluate_sweep,
    exclude_topics,
    export_corpus,
    extract_dictionary_tfidf,
    extract_dictionary_tm,
    filter_cooc,
    fit_lda,
    generate_sweep,
    load_model,
    map_score,
    norm_weights,
    rank_collection,
    term_stats,
    term_weight,
    tfsim,
    top_terms,
)
from dictsieve.cli import PipelineConfig, run_pipeline
from dictsieve.cooc import CoocMatrix
from dictsieve.corpus import TermStats
from dictsieve.dictionary import Dictionary, DictionaryEntry
from dictsieve.evaluation import SystemSet
from dictsieve.retrieval import RankedEntry, RankedList
from dictsieve.scoring import ScoringConfig, _term_contribution, compute_norms, score_context, score_dict
from dictsieve.topics import TopicModelResult

REL = 1e-9


@contextmanager
def criterion(number: int, slug: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} [{slug}]: FAIL")
        raise
    print(f"criterion {number:02d} [{slug}]: PASS ({time.perf_counter() - started:.2f}s)")


def approx(value: float):
    return pytest.approx(value, rel=REL)


def make_dictionary(*terms: str, method: str = "topic-model") -> Dictionary:
    entries = [
        DictionaryEntry(term=t, weight=float(len(terms) - i), rank=i + 1, boost=boost(i + 1))
        for i, t in enumerate(terms)
    ]
    return Dictionary(entries=entries, method=method)


def make_ranked(system_id: str, doc_ids: list[str]) -> RankedList:
    entries = [
        RankedEntry(doc_id=doc_id, score=float(len(doc_ids) - i), rank=i + 1)
        for i, doc_id in enumerate(doc_ids)
    ]
    return RankedList(system_id=system_id, entries=entries)


def random_corpus(rng: random.Random, n_docs: int, vocab: list[str], role: str) -> Corpus:
    docs = []
    for i in range(n_docs):
        sentences = [
            [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(1, 6))
        ]
        docs.append(Document(id=f"{role}-{i:03d}", sentences=sentences))
    return Corpus(documents=docs, role=role)


def test_criterion_01_formula_oracles():
    with criterion(1, "formula oracles"):
        started = time.perf_counter()

        assert dice(3, 5, 2) == approx(0.5)
        assert dice(4, 4, 4) == approx(1.0)

        assert boost(1) == approx(1.0)
        assert boost(4) == approx(0.5)
        assert boost(100) == approx(0.1)

        small = Document(id="small", sentences=[[f"w{i}" for i in range(10)]])
        large = Document(id="large", sentences=[[f"v{i}" for i in range(30)]])
        pair = Corpus(documents=[small, large], role="target")
        norms = compute_norms(pair, term_stats(pair), ScoringConfig(slope=0.7))
        assert norms.pivot == approx(20.0)
        assert norms.norm["small"] == approx(0.2773500981126146)
        flat = compute_norms(pair, term_stats(pair), ScoringConfig(slope=0.0))
        assert flat.norm["small"] == approx(1.0 / math.sqrt(20))
        assert flat.norm["large"] == approx(flat.norm["small"])

        triple = Corpus(
            documents=[Document(id="d", sentences=[["a", "a", "b"]])], role="target"
        )
        assert compute_norms(triple, term_stats(triple), ScoringConfig()).avgtf[
            "d"
        ] == approx(1.5)

        def weight_model(phi_rows, excluded=frozenset()):
            phi = np.array(phi_rows, dtype=float)
            return TopicModelResult(
                n_topics=phi.shape[0],
                vocab=("w", "x"),
                phi=phi,
                topic_weight=np.full(phi.shape[0], 1.0 / phi.shape[0]),
                excluded=frozenset(excluded),
                seed=0,
                alpha=0.5,
                beta=0.01,
                iterations=1,
            )

        def weight_stats(tf_w: int) -> TermStats:
            counts = Counter({"w": tf_w, "x": 1})
            return TermStats(tf=counts, df=Counter({"w": 1, "x": 1}), tf_doc={"d": counts})

        assert term_weight("w", weight_model([[0.5, 0.5]]), weight_stats(1)) == 0.0
        assert term_weight("w", weight_model([[0.05, 0.95]]), weight_stats(8)) == approx(
            0.1039720770839918
        )
        two_topic = weight_model([[0.1, 0.9], [0.9, 0.1]])
        assert term_weight("w", two_topic, weight_stats(8)) == approx(math.log(8))
        pruned = weight_model([[0.1, 0.9], [0.9, 0.1]], excluded={2})
        assert term_weight("w", pruned, weight_stats(8)) == approx(0.2079441541679836)

        reference = Corpus(
            documents=[
                Document(id="d1", sentences=[["rare", "rare", "rare", "common"]]),
                Document(id="d2", sentences=[["common"]]),
                Document(id="d3", sentences=[["common"]]),
                Document(id="d4", sentences=[["common"]]),
            ],
            role="reference",
        )
        baseline = extract_dictionary_tfidf(reference, 2)
        assert baseline.entry("rare").weight == approx(4.1588830833596715)
        assert baseline.entry("common").weight == 0.0

        # per-term score contributions: a rank-1 term seen once in a document
        # of average frequency 1 contributes exactly the document norm, and a
        # rank-4 term with frequency e does the same
        assert _term_contribution(1.0, 0.0, boost(1), 0.31) == approx(0.31)
        assert _term_contribution(math.e, 0.0, boost(4), 0.31) == approx(0.31)

        worked = CoocMatrix.from_pairs(
            terms=("a", "b", "w"),
            values={("a", "w"): 0.4, ("b", "w"): 0.3},
            provenance="filtered",
        )
        sentence_doc = Document(id="d", sentences=[["w", "a", "b"]])
        value = tfsim("w", sentence_doc, worked, ScoringConfig(alpha=2.0, mode="context"))
        assert 0.7 / (math.sqrt(3) * 0.5) == approx(0.8082903768654761)
        assert value == approx(2.6165807537309522)

        cooc_corpus = Corpus(
            documents=[Document(id="d", sentences=[["a", "b"], ["a"], ["b", "c"]])],
            role="reference",
        )
        matrix = build_cooc(cooc_corpus, make_dictionary("a", "b", "c"))
        assert matrix.get("a", "b") == approx(0.5)
        assert matrix.get("b", "c") == approx(2.0 / 3.0)
        assert ("a", "c") not in dict(matrix.pairs()) and matrix.get("a", "c") == 0.0
        binary = build_cooc(
            Corpus(documents=[Document(id="d", sentences=[["a", "a", "b"]])], role="reference"),
            make_dictionary("a", "b"),
        )
        assert binary.get("a", "b") == approx(1.0)

        ref = CoocMatrix.from_pairs(
            terms=("a", "b", "c"),
            values={("a", "b"): 0.3, ("a", "c"): 0.6, ("b", "c"): 0.25},
            provenance="reference",
        )
        gen = CoocMatrix.from_pairs(
            terms=("a", "b", "c"),
            values={("a", "b"): 0.5, ("a", "c"): 0.2},
            provenance="generic",
        )
        filtered = filter_cooc(ref, gen)
        assert filtered.get("a", "b") == 0.0 and ("a", "b") not in dict(filtered.pairs())
        assert filtered.get("a", "c") == approx(0.4)
        assert filtered.get("b", "c") == approx(0.25)

        hits = make_ranked("s", ["r1", "x", "r2"])
        assert map_score(hits, {"r1", "r2"}) == approx(0.8333333333333333)

        hundred = [f"d{i}" for i in range(100)]
        fused = SystemSet(
            systems=[
                make_ranked("s1", hundred),
                make_ranked("s2", [hundred[0]] + [f"x{i}" for i in range(99)]),
            ],
            biased_subset=("s1", "s2"),
        )
        weights = norm_weights(fused)
        assert weights["d0"] == approx(200.0)
        assert weights["d1"] == approx(50.0)

        voters = SystemSet(
            systems=[
                make_ranked("v1", ["A", "B", "C"]),
                make_ranked("v2", ["A", "C", "B"]),
                make_ranked("v3", ["B", "A", "C"]),
            ],
            biased_subset=("v1", "v2", "v3"),
        )
        assert condorcet_rank({"A", "B", "C"}, voters) == [("A", 2), ("B", 1), ("C", 0)]

        tiny = Corpus(
            documents=[
                Document(id="d1", sentences=[["apple", "apple", "pear"]]),
                Document(id="d2", sentences=[["plum", "apple"]]),
            ],
            role="reference",
        )
        stats = term_stats(tiny)
        single = fit_lda(tiny, 1, beta=0.01, iterations=2, seed=0)
        total = sum(stats.tf.values())
        for i, term in enumerate(single.vocab):
            expected = (stats.tf[term] + 0.01) / (total + len(single.vocab) * 0.01)
            assert single.phi[0][i] == approx(expected)

        assert time.perf_counter() - started < 1.0


def test_criterion_02_alpha_zero_exactness():
    with criterion(2, "alpha-zero exactness"):
        rng = random.Random(202)
        vocab = [f"w{i}" for i in range(30)]
        target = random_corpus(rng, 220, vocab, "target")
        reference = random_corpus(rng, 50, vocab, "reference")
        generic = random_corpus(rng, 40, vocab, "generic")
        q = make_dictionary(*vocab[:8])
        cooc_filtered = filter_cooc(build_cooc(reference, q), build_cooc(generic, q))

        unigram_config = ScoringConfig(slope=0.7, mode="unigram")
        context_config = ScoringConfig(slope=0.7, alpha=0.0, mode="context")
        stats = term_stats(target)
        norms = compute_norms(target, stats, unigram_config)
        for doc in target.documents:
            plain = score_dict(q, doc, stats, norms)
            contextual = score_context(q, doc, cooc_filtered, norms, context_config)
            assert contextual == plain

        unigram = rank_collection(target, q, None, unigram_config, k=2000)
        context = rank_collection(target, q, cooc_filtered, context_config, k=2000)
        assert len(unigram.entries) >= 200
        assert context.entries == unigram.entries


def test_criterion_03_cooccurrence_recounts():
    with criterion(3, "co-occurrence recounts"):
        vocab = [f"t{i}" for i in range(6)]
        dict_terms = vocab[:5]
        q = make_dictionary(*dict_terms)

        def recount_all(sentences, matrix):
            inside = [set(s) & set(dict_terms) for s in sentences]
            for a, b in itertools.combinations(dict_terms, 2):
                n_a = sum(1 for s in inside if a in s)
                n_b = sum(1 for s in inside if b in s)
                n_ab = sum(1 for s in inside if a in s and b in s)
                if n_ab:
                    assert matrix.get(a, b) == approx(2.0 * n_ab / (n_a + n_b))
                else:
                    assert matrix.get(a, b) == 0.0
                    assert (a, b) not in dict(matrix.pairs())
                assert matrix.get(a, b) == matrix.get(b, a)
                assert 0.0 <= matrix.get(a, b) <= 1.0
            for term in dict_terms:
                assert matrix.get(term, term) == 0.0

        # every pair of every corpus size from one to twenty sentences
        for n_sentences in range(1, 21):
            rng = random.Random(300 + n_sentences)
            sentences = [
                [rng.choice(vocab) for _ in range(rng.randint(1, 5))]
                for _ in range(n_sentences)
            ]
            corpus = Corpus(
                documents=[Document(id="d", sentences=sentences)], role="reference"
            )
            recount_all(sentences, build_cooc(corpus, q))

        # larger randomized corpora, including the filtering step
        rng = random.Random(333)
        for _ in range(8):
            n_ref = rng.randint(50, 250)
            ref_sentences = [
                [rng.choice(vocab) for _ in range(rng.randint(1, 5))] for _ in range(n_ref)
            ]
            gen_sentences = [
                [rng.choice(vocab) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(50, 250))
            ]
            ref_corpus = Corpus(
                documents=[Document(id="r", sentences=ref_sentences)], role="reference"
            )
            gen_corpus = Corpus(
                documents=[Document(id="g", sentences=gen_sentences)], role="generic"
            )
            c_ref = build_cooc(ref_corpus, q)
            recount_all(ref_sentences, c_ref)
            c_gen = build_cooc(gen_corpus, q)
            filtered = filter_cooc(c_ref, c_gen)
            for a, b in itertools.combinations(dict_terms, 2):
                expected = max(c_ref.get(a, b) - c_gen.get(a, b), 0.0)
                if expected > 0.0:
                    assert filtered.get(a, b) == approx(expected)
                else:
                    assert (a, b) not in dict(filtered.pairs())
                assert filtered.get(a, b) <= c_ref.get(a, b) + 1e-15

            # a generic corpus with no co-occurring pairs changes nothing
            lonely = Corpus(
                documents=[Document(id="g", sentences=[[t] for t in dict_terms])],
                role="generic",
            )
            identity = filter_cooc(c_ref, build_cooc(lonely, q))
            assert dict(identity.pairs()) == dict(c_ref.pairs())


def oracle_condorcet(pool, biased_lists, all_lists):
    """Brute-force pairwise-majority ranking, written from the definition."""
    docs = sorted(pool)
    positions = [{e.doc_id: e.rank for e in rl.entries} for rl in biased_lists]
    wins = {doc: 0 for doc in docs}
    for a, b in itertools.combinations(docs, 2):
        votes_a = votes_b = 0
        for pos in positions:
            rank_a, rank_b = pos.get(a), pos.get(b)
            if rank_a is None and rank_b is None:
                continue
            if rank_a is None:
                votes_b += 1
            elif rank_b is None:
                votes_a += 1
            elif rank_a < rank_b:
                votes_a += 1
            else:
                votes_b += 1
        if votes_a > len(biased_lists) / 2:
            wins[a] += 1
        if votes_b > len(biased_lists) / 2:
            wins[b] += 1
    weight: dict[str, float] = {}
    for rl in all_lists:
        m = len(rl.entries)
        for e in rl.entries:
            weight[e.doc_id] = weight.get(e.doc_id, 0.0) + m / e.rank
    order = sorted(docs, key=lambda doc: (-wins[doc], -weight.get(doc, 0.0), doc))
    return [(doc, wins[doc]) for doc in order]


def test_criterion_04_condorcet_against_oracle():
    with criterion(4, "condorcet vs oracle"):
        started = time.perf_counter()

        # exhaustive: every combination of ranked arrangements (including
        # empty and partial lists) for pools of up to three documents
        checked = 0
        for pool_size in (1, 2, 3):
            docs = [f"d{i}" for i in range(pool_size)]
            pool = set(docs)
            arrangements = [()]
            for k in range(1, pool_size + 1):
                arrangements.extend(itertools.permutations(docs, k))
            for n_systems in (1, 2, 3):
                for combo in itertools.product(arrangements, repeat=n_systems):
                    lists = [make_ranked(f"s{j}", list(arr)) for j, arr in enumerate(combo)]
                    systems = SystemSet(
                        systems=lists, biased_subset=tuple(rl.system_id for rl in lists)
                    )
                    assert condorcet_rank(pool, systems) == oracle_condorcet(
                        pool, lists, lists
                    )
                    checked += 1
        assert checked == 14 + 155 + 4368

        # randomized mid-size instances, including out-of-pool documents
        # and a biased subset smaller than the full system set
        rng = random.Random(404)
        for pool_size in (4, 5, 6):
            universe = [f"d{i}" for i in range(pool_size + 4)]
            for _ in range(60):
                pool = set(rng.sample(universe, pool_size))
                n_systems = rng.randint(1, 4)
                lists = []
                for j in range(n_systems):
                    picked = rng.sample(universe, rng.randint(0, len(universe)))
                    lists.append(make_ranked(f"s{j}", picked))
                biased_ids = tuple(
                    rng.sample([rl.system_id for rl in lists], rng.randint(1, n_systems))
                )
                systems = SystemSet(systems=lists, biased_subset=biased_ids)
                biased_lists = [rl for rl in lists if rl.system_id in biased_ids]
                assert condorcet_rank(pool, systems) == oracle_condorcet(
                    pool, biased_lists, lists
                )

        # a hundred larger instances
        for _ in range(100):
            pool_size = rng.randint(10, 30)
            universe = [f"d{i}" for i in range(pool_size + 10)]
            pool = set(rng.sample(universe, pool_size))
            n_systems = rng.randint(1, 4)
            lists = []
            for j in range(n_systems):
                picked = rng.sample(universe, rng.randint(0, len(universe)))
                lists.append(make_ranked(f"s{j}", picked))
            biased_ids = tuple(
                rng.sample([rl.system_id for rl in lists], rng.randint(1, n_systems))
            )
            systems = SystemSet(systems=lists, biased_subset=biased_ids)
            biased_lists = [rl for rl in lists if rl.system_id in biased_ids]
            assert condorcet_rank(pool, systems) == oracle_condorcet(
                pool, biased_lists, lists
            )

        assert time.perf_counter() - started < 10.0


def test_criterion_05_map_properties():
    with criterion(5, "map properties"):
        rng = random.Random(505)

        for size in range(1, 41):
            docs = [f"d{i}" for i in range(size + rng.randint(0, 10))]
            n_rels = rng.randint(1, size)
            rels = set(docs[:n_rels])
            assert map_score(make_ranked("s", docs), rels) == 1.0

        assert map_score(make_ranked("s", ["x", "y", "z"]), {"r"}) == 0.0

        swaps = 0
        while swaps < 1000:
            docs = [f"d{i}" for i in range(15)]
            rng.shuffle(docs)
            rels = set(rng.sample(docs, 5))
            positions = [
                i
                for i in range(len(docs) - 1)
                if docs[i] not in rels and docs[i + 1] in rels
            ]
            if not positions:
                continue
            i = rng.choice(positions)
            before = map_score(make_ranked("s", docs), rels)
            assert 0.0 <= before <= 1.0
            docs[i], docs[i + 1] = docs[i + 1], docs[i]
            after = map_score(make_ranked("s", docs), rels)
            assert after > before
            swaps += 1


def test_criterion_06_planted_retrieval():
    with criterion(6, "planted retrieval"):
        started = time.perf_counter()

        reference = planted.build_reference()
        generic = planted.build_generic()
        target = planted.build_target()
        model = fit_lda(reference, 2, alpha=0.5, beta=0.01, iterations=120, seed=7)
        stats = term_stats(reference)
        dict_tm = extract_dictionary_tm(model, stats, 16)
        dict_tfidf = extract_dictionary_tfidf(reference, 16)
        cooc_tm = filter_cooc(build_cooc(reference, dict_tm), build_cooc(generic, dict_tm))
        cooc_tfidf = filter_cooc(
            build_cooc(reference, dict_tfidf), build_cooc(generic, dict_tfidf)
        )
        sweep = generate_sweep(target, dict_tm, dict_tfidf, cooc_tm, cooc_tfidf, k=50)

        rels = planted.REL_IDS
        decoys = planted.DEC_IDS

        # (a) with exact labels, some alpha > 0 must beat alpha = 0
        exact_map = {
            system_id: map_score(sweep.get(system_id), rels)
            for system_id in sweep.ids
            if system_id.startswith("tm:context:")
        }
        base = exact_map["tm:context:alpha=0"]
        above = [
            system_id
            for system_id, value in exact_map.items()
            if system_id != "tm:context:alpha=0" and value > base
        ]
        assert above, f"no alpha > 0 system beat the frequency baseline ({base:.4f})"

        # (b) sentence context must rank every relevant document above every
        # decoy, at every alpha > 0 on the grid
        for system_id in exact_map:
            if system_id == "tm:context:alpha=0":
                continue
            ranked = sweep.get(system_id)
            rel_ranks = [ranked.rank_of(doc_id) for doc_id in sorted(rels)]
            dec_ranks = [ranked.rank_of(doc_id) for doc_id in sorted(decoys)]
            assert all(r is not None for r in rel_ranks + dec_ranks), system_id
            assert max(rel_ranks) < min(dec_ranks), system_id
        # while the frequency baseline puts every decoy first
        baseline = sweep.get("tm:context:alpha=0")
        assert max(
            baseline.rank_of(doc_id) for doc_id in decoys
        ) < min(baseline.rank_of(doc_id) for doc_id in rels)
        # and the context-only system retrieves exactly the relevant documents
        context_only = sweep.get("tm:context-only:alpha=1")
        assert set(context_only.doc_ids()) == set(rels)

        # (c) the label-free fusion pipeline must reach the same conclusion
        report = evaluate_sweep(sweep, top_m=10, fraction=0.5)
        fused_base = report.map_by_system["tm:context:alpha=0"]
        fused_above = [
            system_id
            for system_id, value in report.map_by_system.items()
            if system_id.startswith("tm:context:alpha=")
            and system_id != "tm:context:alpha=0"
            and value > fused_base
        ]
        assert fused_above, "fusion ranked no alpha > 0 system above alpha = 0"

        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        print(
            f"  exact: alpha0={base:.4f}, better={len(above)}/15; "
            f"fused: alpha0={fused_base:.4f}, better={len(fused_above)}/15"
        )


def test_criterion_07_topic_model_fits():
    with criterion(7, "topic model fits"):
        # one topic has a closed form
        rng = random.Random(71)
        vocab = [f"w{i}" for i in range(15)]
        corpus = random_corpus(rng, 12, vocab, "reference")
        stats = term_stats(corpus)
        model = fit_lda(corpus, 1, beta=0.01, iterations=3, seed=5)
        total = sum(stats.tf.values())
        expected = np.array(
            [(stats.tf[w] + 0.01) / (total + len(model.vocab) * 0.01) for w in model.vocab]
        )
        np.testing.assert_allclose(model.phi[0], expected, rtol=REL)
        assert model.topic_weight[0] == approx(1.0)

        # two disjoint vocabularies must separate cleanly at every seed
        gen = random.Random(11)
        left = [f"left{i}" for i in range(12)]
        right = [f"right{i}" for i in range(12)]
        docs = []
        for i in range(40):
            side = left if i % 2 == 0 else right
            docs.append(
                Document(id=f"d{i:02d}", sentences=[[gen.choice(side) for _ in range(25)]])
            )
        planted_corpus = Corpus(documents=docs, role="reference")
        for seed in range(5):
            fitted = fit_lda(
                planted_corpus, 2, alpha=0.5, beta=0.01, iterations=150, seed=seed
            )
            sides = []
            for topic_id in (1, 2):
                tops = {term for term, _ in top_terms(fitted, topic_id, 5)}
                prefixes = {term.rstrip("0123456789") for term in tops}
                assert len(prefixes) == 1, f"seed {seed}: mixed topic {topic_id}: {tops}"
                sides.append(prefixes.pop())
            assert set(sides) == {"left", "right"}, f"seed {seed}: {sides}"


def test_criterion_08_junk_topic_exclusion():
    with criterion(8, "junk topic exclusion"):
        rng = random.Random(23)
        vocabs = (
            [f"north{i}" for i in range(12)],
            [f"south{i}" for i in range(12)],
            [f"junk{i}" for i in range(10)],
        )
        docs = []
        for i in range(36):
            vocab = vocabs[i % 3]
            sentences = [[rng.choice(vocab) for _ in range(8)] for _ in range(3)]
            docs.append(Document(id=f"doc-{i:02d}", sentences=sentences))
        corpus = Corpus(documents=docs, role="reference")
        model = fit_lda(corpus, 3, alpha=0.5, beta=0.01, iterations=150, seed=2)

        junk_topics = {
            topic_id
            for topic_id in range(1, 4)
            if all(term.startswith("junk") for term, _ in top_terms(model, topic_id, 5))
        }
        assert len(junk_topics) == 1

        stats = term_stats(corpus)
        full = extract_dictionary_tm(model, stats, 24)
        pruned = extract_dictionary_tm(exclude_topics(model, junk_topics), stats, 24)
        junk_in_full = {t for t in full.terms if t.startswith("junk")}
        junk_in_pruned = {t for t in pruned.terms if t.startswith("junk")}
        assert junk_in_full, "the unpruned dictionary should pick up junk terms"
        assert not junk_in_pruned, f"junk survived exclusion: {sorted(junk_in_pruned)}"
        print(f"  junk terms: {len(junk_in_full)} before exclusion, 0 after")


def test_criterion_09_pipeline_determinism(tmp_path):
    with criterion(9, "pipeline determinism"):
        export_corpus(planted.build_reference(), tmp_path / "reference.jsonl")
        export_corpus(planted.build_generic(), tmp_path / "generic.jsonl")
        export_corpus(planted.build_target(), tmp_path / "target.jsonl")
        out_dir = tmp_path / "out"
        config = PipelineConfig(
            reference=str(tmp_path / "reference.jsonl"),
            generic=str(tmp_path / "generic.jsonl"),
            target=str(tmp_path / "target.jsonl"),
            out_dir=str(out_dir),
            n_topics=2,
            n_terms=16,
            alphas="0:4:2",
            k=50,
            seed=7,
            lda_alpha=0.5,
            iterations=60,
            top_m=10,
        )

        run_pipeline(config)
        first = {
            path.relative_to(out_dir): path.read_bytes()
            for path in sorted(out_dir.rglob("*"))
            if path.is_file()
        }
        assert len(first) >= 18

        run_pipeline(config)
        second = {
            path.relative_to(out_dir): path.read_bytes()
            for path in sorted(out_dir.rglob("*"))
            if path.is_file()
        }
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} changed between runs"

        # artifacts reload to bit-identical state
        model = load_model(out_dir / "model.tsv")
        again = load_model(out_dir / "model.tsv")
        np.testing.assert_array_equal(model.phi, again.phi)


def test_pipeline_output_does_not_depend_on_the_hash_seed(tmp_path):
    """Criterion 09 reruns in one process, so output that followed the order
    of a str set or dict built from hashes would pass it.  Two processes with
    different hash seeds, each run from its own directory on the same
    relative paths, must write byte-identical trees."""
    package_root = str(Path(dictsieve.__file__).resolve().parents[1])
    trees = []
    for hash_seed in ("1", "2"):
        work = tmp_path / f"hash-seed-{hash_seed}"
        work.mkdir()
        export_corpus(planted.build_reference(), work / "reference.jsonl")
        export_corpus(planted.build_generic(), work / "generic.jsonl")
        export_corpus(planted.build_target(), work / "target.jsonl")
        env = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])),
        }
        command = [
            sys.executable, "-m", "dictsieve.cli", "run",
            "--reference", "reference.jsonl", "--generic", "generic.jsonl", "--target", "target.jsonl",
            "--out-dir", "out", "--n-topics", "2", "--n-terms", "16", "--alphas", "0:4:2", "--k", "50",
            "--seed", "7", "--lda-alpha", "0.5", "--iterations", "60", "--top-m", "10",
        ]
        subprocess.run(command, cwd=work, env=env, check=True, capture_output=True)
        out = work / "out"
        trees.append({path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("*")) if path.is_file()})
    first, second = trees
    assert len(first) >= 18
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between hash seeds"


def test_criterion_10_default_sweep_inventory(planted_sweep):
    with criterion(10, "default sweep inventory"):
        expected = []
        for label in ("tm", "tfidf"):
            expected.extend(f"{label}:context:alpha={a}" for a in range(0, 31, 2))
            expected.append(f"{label}:context-only:alpha=1")
        assert planted_sweep.ids == expected
        assert len(planted_sweep.systems) == 34
        assert sorted(planted_sweep.biased_subset) == [
            "tfidf:context-only:alpha=1",
            "tfidf:context:alpha=0",
            "tm:context-only:alpha=1",
            "tm:context:alpha=0",
        ]
