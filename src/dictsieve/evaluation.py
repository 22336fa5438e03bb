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
from functools import cached_property

import numpy as np

from .cooc import CoocMatrix
from .corpus import Corpus, check_doc_id, open_text, term_stats, write_rows
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

    @cached_property
    def _norm_weights(self) -> dict[str, float]:
        """``norm_weights``, summed on first use over each list's ids: a fuse
        reads it twice."""
        weights: dict[str, float] = {}
        for ranked in self.systems:
            m = ranked.m
            for rank, doc_id in enumerate(ranked.ids, start=1):
                weights[doc_id] = weights.get(doc_id, 0.0) + m / rank
        return weights


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
    Length norms are shared across the whole sweep; the sentence features,
    the only alpha-free part of tfsim, are computed once per dictionary and
    shared by its systems.
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

    norms = compute_norms(target, term_stats(target), ScoringConfig(slope=slope))
    systems: list[RankedList] = []
    biased: list[str] = []
    for dictionary, cooc in pairs:
        features = sentence_features(target, cooc)
        for config in configs:
            ranked = rank_collection(target, dictionary, cooc, config, k, norms=norms, features=features)
            systems.append(ranked)
            if config.mode == "context-only" or config.alpha == 0:
                biased.append(ranked.system_id)
        # free this dictionary's features before the next one's are built
        del features
    return SystemSet(systems=systems, biased_subset=tuple(biased))


def norm_weights(systems: SystemSet) -> dict[str, float]:
    """Accumulate n_d = sum over systems of m_s / rank(d), absent meaning 0.

    Documents retrieved at high ranks by many long lists collect large
    weights; a document missing from the result dict has weight 0.  The
    weights are summed once per system set; each call returns a copy.
    """
    return dict(systems._norm_weights)


def check_fusion_settings(top_m: int, fraction: float = DEFAULT_FRACTION) -> None:
    """Reject a pool depth below 1 or a kept fraction outside (0, 1]."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if top_m < 1:
        raise ValueError("top_m must be >= 1")


def select_candidates(systems: SystemSet, top_m: int = DEFAULT_TOP_M) -> set[str]:
    """Union of each biased system's top_m doc ids (all of them if m_s < top_m),
    sliced from its ``ids`` column."""
    check_fusion_settings(top_m)
    biased = systems.biased()
    if not biased:
        raise ValueError("biased subset is empty, nothing to pool")
    pool: set[str] = set()
    for ranked in biased:
        pool.update(ranked.ids[:top_m])
    return pool


def condorcet_rank(pool: set[str], systems: SystemSet) -> list[tuple[str, int]]:
    """Order a candidate pool by pairwise-majority wins over the biased systems.

    For a pair (a, b), a system votes for whichever it ranks higher; a
    document it did not retrieve sits below everything it did, and when
    both are absent the system abstains on that pair.  a beats b on a
    strict majority of the biased systems (abstentions still count toward
    the denominator).  Ties in win count break by accumulated norm weight
    descending, then doc id.

    The votes come from one S x P array of ranks, read with ``rank_of``
    (only the biased lists build its dict), ``inf`` for a document a
    system did not retrieve: a system's ranks are distinct, so it votes a
    over b exactly when r(a) < r(b), and two unretrieved documents tie.
    """
    if not pool:
        raise ValueError("candidate pool is empty")
    biased = systems.biased()
    if not biased:
        raise ValueError("biased subset is empty")

    docs = sorted(pool)
    # ranks start at 1, so ``or`` only replaces an absent document's None
    ranks = np.array([[ranked.rank_of(doc) or math.inf for doc in docs] for ranked in biased])
    n_systems = len(biased)
    wins: dict[str, int] = {}
    for j, doc in enumerate(docs):
        # votes[b]: the biased systems that rank doc above pool document b
        votes = np.count_nonzero(ranks[:, [j]] < ranks, axis=0)
        wins[doc] = int(np.count_nonzero(2 * votes > n_systems))

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
    A rank is a position in the list's ``ids`` column, plus 1.
    """
    rel_ids = rels.doc_ids if isinstance(rels, PseudorelSet) else frozenset(rels)
    if not rel_ids:
        raise ValueError("relevant set is empty")
    hits = 0
    total = 0.0
    for rank, doc_id in enumerate(ranked.ids, start=1):
        if doc_id in rel_ids:
            hits += 1
            total += hits / rank
    return total / len(rel_ids)


def precision_at_ranges(
    ranked: RankedList,
    judgments: dict[str, bool],
    ranges: tuple[tuple[int, int], ...] = DEFAULT_RANGES,
) -> dict[tuple[int, int], float]:
    """Fraction judged relevant inside each 1-based inclusive rank window.

    A window is a slice of the list's ``ids`` column.  Windows past the end
    of the list are dropped; a window the list only partially covers is
    scored over the entries it has.  All missing judgments are collected
    before failing so one error message tells the annotator the complete
    work list.
    """
    windows: dict[tuple[int, int], list[str]] = {}
    missing: set[str] = set()
    for low, high in ranges:
        if low < 1 or high < low:
            raise ValueError(f"bad rank range {low}-{high}")
        window = ranked.ids[low - 1 : high]
        if not window:
            continue
        windows[(low, high)] = window
        missing.update(doc_id for doc_id in window if doc_id not in judgments)
    if missing:
        raise ValueError("missing judgments for: " + ", ".join(sorted(missing)))
    return {
        span: sum(1 for doc_id in window if judgments[doc_id]) / len(window)
        for span, window in windows.items()
    }


def evaluate_sweep(
    systems: SystemSet,
    top_m: int = DEFAULT_TOP_M,
    fraction: float = DEFAULT_FRACTION,
) -> EvalReport:
    """Run the fusion pipeline and score every system against the pseudorels."""
    rels = select_pseudorels(systems, top_m, fraction)
    nd_series = sorted(norm_weights(systems).items(), key=lambda item: (-item[1], item[0]))
    maps = {ranked.system_id: map_score(ranked, rels) for ranked in systems.systems}
    return EvalReport(
        map_by_system=maps,
        pseudorels=rels,
        nd_series=nd_series,
    )


def write_eval_report(report: EvalReport, path) -> None:
    ordered = sorted(report.map_by_system.items(), key=lambda item: (-item[1], item[0]))
    write_rows(path, ordered, "system_id\tmap\n")


def write_pseudorels(rels: PseudorelSet, path) -> None:
    """One doc id per line, best Condorcet rank first."""
    write_rows(path, ((doc_id,) for doc_id, _ in rels.condorcet_order if doc_id in rels.doc_ids))


def read_pseudorels(path) -> frozenset[str]:
    """One doc id per line, skipping blank lines and '#' lines; each id must
    be one that ingest accepts and appear once, else ``path:line`` raises."""
    ids: set[str] = set()
    with open_text(path) as stream:
        for lineno, line in enumerate(stream, start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            doc_id = line.rstrip("\n")
            check_doc_id(doc_id, f"{path}:{lineno}")
            if doc_id in ids:
                raise ValueError(f"{path}:{lineno}: duplicate doc id {doc_id!r}")
            ids.add(doc_id)
    if not ids:
        raise ValueError(f"{path}: no pseudorels found")
    return frozenset(ids)


def write_nd_series(nd_series: list[tuple[str, float]], path) -> None:
    write_rows(path, nd_series, "doc_id\tn_d\n")


def write_wins_series(win_series: list[tuple[str, int]], path) -> None:
    write_rows(path, win_series, "doc_id\twins\n")


def write_p_at_k(table: dict[tuple[int, int], float], path) -> None:
    write_rows(path, ((*span, precision) for span, precision in sorted(table.items())), "from\tto\tprecision\n")


def read_judgments(path) -> dict[str, bool]:
    """Parse a `doc_id<TAB>0|1` file into a judgment map, skipping blank
    lines and lines that start with '#'; each doc id must be one that ingest
    accepts."""
    judgments: dict[str, bool] = {}
    with open_text(path) as stream:
        for lineno, line in enumerate(stream, start=1):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2 or parts[1] not in ("0", "1"):
                raise ValueError(f"{path}:{lineno}: expected 'doc_id<TAB>0|1'")
            doc_id, flag = parts
            check_doc_id(doc_id, f"{path}:{lineno}")
            if doc_id in judgments:
                raise ValueError(f"{path}:{lineno}: duplicate judgment for {doc_id}")
            judgments[doc_id] = flag == "1"
    if not judgments:
        raise ValueError(f"{path}: no judgments found")
    return judgments
