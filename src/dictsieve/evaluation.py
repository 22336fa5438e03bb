"""Sweep generation, pseudorelevance fusion, and retrieval metrics.

Absolute relevance judgments are expensive, so the harness builds a
quasi-gold standard out of the systems themselves: pool the top documents
of the most biased systems, order the pool by pairwise majority voting,
and declare the upper fraction pseudorelevant.  MAP against that set lets
the alpha sweep be compared without manual annotation; rank-window
precision supports spot checks once annotations exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cooc import CoocMatrix
from .corpus import Corpus, open_text, term_stats
from .dictionary import Dictionary
from .retrieval import RankedList, check_matrix, format_alpha, rank_collection
from .scoring import ScoringConfig, compute_norms, sentence_features

DEFAULT_ALPHAS: tuple[float, ...] = tuple(float(a) for a in range(0, 31, 2))
DEFAULT_TOP_M = 50
DEFAULT_FRACTION = 0.5
DEFAULT_RANGES: tuple[tuple[int, int], ...] = (
    (1, 10),
    (101, 110),
    (501, 510),
    (1001, 1010),
    (1501, 1510),
    (1991, 2000),
)


@dataclass
class SystemSet:
    """A batch of ranked lists plus the subset used for fusion.

    The biased subset names the systems whose top documents seed the
    candidate pool and whose pairwise votes decide the Condorcet order.
    Weight accumulation (n_d) still runs over every system.
    """

    systems: list[RankedList]
    biased_subset: tuple[str, ...]

    def __post_init__(self) -> None:
        ids = [s.system_id for s in self.systems]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate system ids")
        if len(set(self.biased_subset)) != len(self.biased_subset):
            raise ValueError("duplicate ids in biased subset")
        unknown = set(self.biased_subset) - set(ids)
        if unknown:
            raise ValueError(f"biased subset not among systems: {', '.join(sorted(unknown))}")
        self._by_id = {s.system_id: s for s in self.systems}

    @property
    def ids(self) -> list[str]:
        return [s.system_id for s in self.systems]

    def get(self, system_id: str) -> RankedList:
        try:
            return self._by_id[system_id]
        except KeyError:
            raise KeyError(f"unknown system: {system_id}") from None

    def biased(self) -> list[RankedList]:
        return [self._by_id[system_id] for system_id in self.biased_subset]


@dataclass(frozen=True)
class PseudorelSet:
    """Pseudorelevant documents fused from a candidate pool.

    doc_ids is the upper `fraction` of the Condorcet order over the pool
    (ceiling on fractional cutoffs), the order itself is kept for
    reporting.
    """

    doc_ids: frozenset[str]
    condorcet_order: tuple[tuple[str, int], ...]
    candidate_pool: frozenset[str]
    fraction: float = DEFAULT_FRACTION
    top_m: int = DEFAULT_TOP_M

    def __post_init__(self) -> None:
        if not self.doc_ids <= self.candidate_pool:
            raise ValueError("pseudorels must come from the candidate pool")
        expected = math.ceil(self.fraction * len(self.candidate_pool))
        if len(self.doc_ids) != expected:
            raise ValueError(f"expected {expected} pseudorels, got {len(self.doc_ids)}")

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.doc_ids

    def __len__(self) -> int:
        return len(self.doc_ids)


@dataclass
class EvalReport:
    map_by_system: dict[str, float]
    pseudorels: PseudorelSet
    nd_series: list[tuple[str, float]]
    win_series: list[tuple[str, int]]


def sweep_configs(alphas: tuple[float, ...] | list[float], slope: float) -> list[ScoringConfig]:
    """The scoring settings of a sweep: one context run per alpha, then the
    context-only run.  A repeated alpha would repeat a system id."""
    if not alphas:
        raise ValueError("alphas must be non-empty")
    configs = [ScoringConfig(slope=slope, alpha=float(alpha), mode="context") for alpha in alphas]
    seen: set[float] = set()
    for config in configs:
        if config.alpha in seen:
            raise ValueError(f"alpha {format_alpha(config.alpha)} is repeated")
        seen.add(config.alpha)
    configs.append(ScoringConfig(slope=slope, mode="context-only"))
    return configs


def generate_sweep(
    target: Corpus,
    dict_tm: Dictionary | None,
    dict_tfidf: Dictionary | None,
    cooc_tm: CoocMatrix | None,
    cooc_tfidf: CoocMatrix | None,
    alphas: tuple[float, ...] | list[float] = DEFAULT_ALPHAS,
    k: int = 2000,
    slope: float = 0.7,
) -> SystemSet:
    """Rank the target once per (dictionary, alpha) plus a context-only run.

    With the default alphas both dictionaries yield 17 systems each.  The
    biased subset defaults to the extremes of each dictionary's sweep: the
    alpha=0 system (pure term frequency) and the context-only system.
    Document statistics and length norms are shared across the whole sweep;
    the sentence features, the only alpha-free part of tfsim, are computed
    once per dictionary and shared by its systems.
    """
    configs = sweep_configs(alphas, slope)
    pairs = [
        (dictionary, cooc)
        for dictionary, cooc in ((dict_tm, cooc_tm), (dict_tfidf, cooc_tfidf))
        if dictionary is not None
    ]
    if not pairs:
        raise ValueError("at least one dictionary is required")
    for dictionary, cooc in pairs:
        check_matrix(dictionary, cooc, "context")

    stats = term_stats(target)
    norms = compute_norms(target, stats, ScoringConfig(slope=slope))
    systems: list[RankedList] = []
    biased: list[str] = []
    for dictionary, cooc in pairs:
        features = {doc.id: sentence_features(doc, cooc) for doc in target.documents}
        for config in configs:
            ranked = rank_collection(
                target, dictionary, cooc, config, k, stats=stats, norms=norms, features=features
            )
            systems.append(ranked)
            if config.mode == "context-only" or config.alpha == 0:
                biased.append(ranked.system_id)
        # free this dictionary's features before the next one's are built
        del features
    return SystemSet(systems=systems, biased_subset=tuple(biased))


def norm_weights(systems: SystemSet) -> dict[str, float]:
    """Accumulate n_d = sum over systems of m_s / rank(d), absent meaning 0.

    Documents retrieved at high ranks by many long lists collect large
    weights; a document missing from the result dict has weight 0.
    """
    weights: dict[str, float] = {}
    for ranked in systems.systems:
        m = ranked.m
        for entry in ranked.entries:
            weights[entry.doc_id] = weights.get(entry.doc_id, 0.0) + m / entry.rank
    return weights


def check_fusion_settings(top_m: int, fraction: float = DEFAULT_FRACTION) -> None:
    """Reject a pool depth below 1 or a kept fraction outside (0, 1]."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if top_m < 1:
        raise ValueError("top_m must be >= 1")


def select_candidates(systems: SystemSet, top_m: int = DEFAULT_TOP_M) -> set[str]:
    """Union of each biased system's top_m doc ids (all of them if m_s < top_m)."""
    check_fusion_settings(top_m)
    biased = systems.biased()
    if not biased:
        raise ValueError("biased subset is empty, nothing to pool")
    pool: set[str] = set()
    for ranked in biased:
        pool.update(entry.doc_id for entry in ranked.entries[:top_m])
    return pool


def condorcet_rank(pool: set[str], systems: SystemSet) -> list[tuple[str, int]]:
    """Order a candidate pool by pairwise-majority wins over the biased systems.

    For a pair (a, b), a system votes for whichever it ranks higher; a
    document it did not retrieve sits below everything it did, and when
    both are absent the system abstains on that pair.  a beats b on a
    strict majority of the biased systems (abstentions still count toward
    the denominator).  Ties in win count break by accumulated norm weight
    descending, then doc id.
    """
    if not pool:
        raise ValueError("candidate pool is empty")
    biased = systems.biased()
    if not biased:
        raise ValueError("biased subset is empty")

    docs = sorted(pool)
    rank_maps = [{doc: ranked.rank_of(doc) for doc in docs} for ranked in biased]
    n_systems = len(biased)
    wins = {doc: 0 for doc in docs}
    for i, a in enumerate(docs):
        for b in docs[i + 1 :]:
            votes_a = 0
            votes_b = 0
            for rank_map in rank_maps:
                rank_a = rank_map[a]
                rank_b = rank_map[b]
                if rank_a is None and rank_b is None:
                    continue
                if rank_b is None or (rank_a is not None and rank_a < rank_b):
                    votes_a += 1
                else:
                    votes_b += 1
            if 2 * votes_a > n_systems:
                wins[a] += 1
            elif 2 * votes_b > n_systems:
                wins[b] += 1

    weights = norm_weights(systems)
    order = sorted(docs, key=lambda doc: (-wins[doc], -weights.get(doc, 0.0), doc))
    return [(doc, wins[doc]) for doc in order]


def select_pseudorels(
    systems: SystemSet,
    top_m: int = DEFAULT_TOP_M,
    fraction: float = DEFAULT_FRACTION,
) -> PseudorelSet:
    """Fuse the biased systems into a pseudorelevant set.

    Pool the biased top_m lists, Condorcet-rank the pool, keep the first
    ceil(fraction * pool size) documents.
    """
    check_fusion_settings(top_m, fraction)
    pool = select_candidates(systems, top_m)
    order = condorcet_rank(pool, systems)
    cutoff = math.ceil(fraction * len(pool))
    doc_ids = frozenset(doc for doc, _ in order[:cutoff])
    return PseudorelSet(
        doc_ids=doc_ids,
        condorcet_order=tuple(order),
        candidate_pool=frozenset(pool),
        fraction=fraction,
        top_m=top_m,
    )


def map_score(ranked: RankedList, rels: PseudorelSet | set[str] | frozenset[str]) -> float:
    """Mean average precision of a ranked list against a relevant set.

    Averages precision at each relevant document's rank over all R
    relevant documents; relevant documents never retrieved contribute 0.
    """
    rel_ids = rels.doc_ids if isinstance(rels, PseudorelSet) else frozenset(rels)
    if not rel_ids:
        raise ValueError("relevant set is empty")
    hits = 0
    total = 0.0
    for entry in ranked.entries:
        if entry.doc_id in rel_ids:
            hits += 1
            total += hits / entry.rank
    return total / len(rel_ids)


def precision_at_ranges(
    ranked: RankedList,
    judgments: dict[str, bool],
    ranges: tuple[tuple[int, int], ...] = DEFAULT_RANGES,
) -> dict[tuple[int, int], float]:
    """Fraction judged relevant inside each 1-based inclusive rank window.

    Windows past the end of the list are dropped; a window the list only
    partially covers is scored over the entries it has.  All missing
    judgments are collected before failing so one error message tells the
    annotator the complete work list.
    """
    windows: dict[tuple[int, int], list] = {}
    missing: set[str] = set()
    for low, high in ranges:
        if low < 1 or high < low:
            raise ValueError(f"bad rank range {low}-{high}")
        window = ranked.entries[low - 1 : high]
        if not window:
            continue
        windows[(low, high)] = window
        missing.update(e.doc_id for e in window if e.doc_id not in judgments)
    if missing:
        raise ValueError("missing judgments for: " + ", ".join(sorted(missing)))
    return {
        span: sum(1 for e in window if judgments[e.doc_id]) / len(window)
        for span, window in windows.items()
    }


def evaluate_sweep(
    systems: SystemSet,
    top_m: int = DEFAULT_TOP_M,
    fraction: float = DEFAULT_FRACTION,
) -> EvalReport:
    """Run the fusion pipeline and score every system against the pseudorels."""
    rels = select_pseudorels(systems, top_m, fraction)
    weights = norm_weights(systems)
    nd_series = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
    maps = {ranked.system_id: map_score(ranked, rels) for ranked in systems.systems}
    return EvalReport(
        map_by_system=maps,
        pseudorels=rels,
        nd_series=nd_series,
        win_series=list(rels.condorcet_order),
    )


def write_eval_report(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("system_id\tmap\n")
        ordered = sorted(report.map_by_system.items(), key=lambda item: (-item[1], item[0]))
        for system_id, value in ordered:
            out.write(f"{system_id}\t{value!r}\n")


def write_pseudorels(rels: PseudorelSet, path) -> None:
    """One doc id per line, best Condorcet rank first."""
    with open(path, "w", encoding="utf-8") as out:
        for doc_id, _ in rels.condorcet_order:
            if doc_id in rels.doc_ids:
                out.write(doc_id + "\n")


def read_pseudorels(path) -> frozenset[str]:
    with open_text(path) as stream:
        ids = [
            line.strip()
            for line in stream
            if line.strip() and not line.lstrip().startswith("#")
        ]
    if not ids:
        raise ValueError(f"{path}: no pseudorels found")
    return frozenset(ids)


def write_nd_series(nd_series: list[tuple[str, float]], path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("doc_id\tn_d\n")
        for doc_id, weight in nd_series:
            out.write(f"{doc_id}\t{weight!r}\n")


def write_wins_series(win_series: list[tuple[str, int]], path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("doc_id\twins\n")
        for doc_id, wins in win_series:
            out.write(f"{doc_id}\t{wins}\n")


def write_p_at_k(table: dict[tuple[int, int], float], path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write("from\tto\tprecision\n")
        for (low, high), precision in sorted(table.items()):
            out.write(f"{low}\t{high}\t{precision!r}\n")


def read_judgments(path) -> dict[str, bool]:
    """Parse a `doc_id<TAB>0|1` file into a judgment map."""
    judgments: dict[str, bool] = {}
    with open_text(path) as stream:
        for lineno, raw in enumerate(stream, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or parts[1] not in ("0", "1"):
                raise ValueError(f"{path}:{lineno}: expected 'doc_id<TAB>0|1'")
            doc_id, flag = parts
            if doc_id in judgments:
                raise ValueError(f"{path}:{lineno}: duplicate judgment for {doc_id}")
            judgments[doc_id] = flag == "1"
    if not judgments:
        raise ValueError(f"{path}: no judgments found")
    return judgments
