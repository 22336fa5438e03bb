"""Ranking a target collection against a contextualized dictionary."""

from __future__ import annotations

from dataclasses import dataclass, field

from .cooc import CoocMatrix
from .corpus import Corpus, TermStats, term_stats
from .dictionary import Dictionary
from .scoring import CollectionNorms, ScoringConfig, compute_norms, score_context, score_dict


def format_alpha(alpha: float) -> str:
    if alpha == int(alpha):
        return str(int(alpha))
    return repr(alpha)


def make_system_id(dictionary: Dictionary, config: ScoringConfig) -> str:
    """`<dict>:<mode>:alpha=<value>`, e.g. `tm:context:alpha=14`."""
    return f"{dictionary.method_label}:{config.mode}:alpha={format_alpha(config.alpha)}"


@dataclass(frozen=True)
class RankedEntry:
    doc_id: str
    score: float
    rank: int


@dataclass
class RankedList:
    """Per-system ranked retrieval result; scores non-increasing, ranks 1..m."""

    system_id: str
    entries: list[RankedEntry]
    _rank_by_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rank_by_id = {e.doc_id: e.rank for e in self.entries}
        if len(self._rank_by_id) != len(self.entries):
            raise ValueError("duplicate doc ids in ranked list")

    @property
    def m(self) -> int:
        """Number of ranked entries (may be below the requested k)."""
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def rank_of(self, doc_id: str) -> int | None:
        return self._rank_by_id.get(doc_id)

    def doc_ids(self) -> list[str]:
        return [e.doc_id for e in self.entries]


def rank_collection(
    target: Corpus,
    dictionary: Dictionary,
    cooc_filtered: CoocMatrix | None,
    config: ScoringConfig,
    k: int,
    stats: TermStats | None = None,
    norms: CollectionNorms | None = None,
) -> RankedList:
    """Score every target document and keep the top min(k, m) of them.

    Zero-score documents are dropped rather than padded, so the list length
    m reflects actual matches.  Ties break by doc id, which makes ranking
    idempotent and gives shorter runs the k-prefix property.  ``stats`` and
    ``norms`` may be passed in to share work across systems of a sweep.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if config.mode != "unigram":
        if cooc_filtered is None:
            raise ValueError(f"co-occurrence matrix required for mode {config.mode!r}")
        if cooc_filtered.terms != dictionary.terms:
            raise ValueError("co-occurrence matrix terms do not match the dictionary terms")
    if stats is None:
        stats = term_stats(target)
    if norms is None:
        norms = compute_norms(target, stats, config)

    scored: list[tuple[float, str]] = []
    for doc in target.documents:
        if config.mode == "unigram":
            score = score_dict(dictionary, doc, stats, norms)
        else:
            score = score_context(dictionary, doc, cooc_filtered, norms, config)
        if score > 0.0:
            scored.append((score, doc.id))
    scored.sort(key=lambda item: (-item[0], item[1]))
    entries = [
        RankedEntry(doc_id=doc_id, score=score, rank=rank)
        for rank, (score, doc_id) in enumerate(scored[:k], start=1)
    ]
    return RankedList(system_id=make_system_id(dictionary, config), entries=entries)


def save_ranked_list(ranked: RankedList, path) -> None:
    """TSV `rank<TAB>doc_id<TAB>score` with the system id in a header comment."""
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"# system_id={ranked.system_id}\n")
        for e in ranked.entries:
            out.write(f"{e.rank}\t{e.doc_id}\t{e.score!r}\n")


def load_ranked_list(path) -> RankedList:
    with open(path, "r", encoding="utf-8") as stream:
        header = stream.readline().rstrip("\n")
        if not header.startswith("# system_id="):
            raise ValueError(f"not a ranked list file: {path}")
        system_id = header[len("# system_id=") :]
        entries = []
        for line in stream:
            if not line.strip():
                continue
            rank, doc_id, score = line.rstrip("\n").split("\t")
            entries.append(RankedEntry(doc_id=doc_id, score=float(score), rank=int(rank)))
    return RankedList(system_id=system_id, entries=entries)
