"""Latent topic extraction over the reference corpus.

Fits LDA by collapsed Gibbs sampling and keeps the per-topic word
distributions plus the share of tokens each topic attracted.  Analysts
inspect the top terms per topic and mark junk topics as excluded; exclusion
is stored on the model and consulted later during dictionary extraction.

Paragraph groups, when a document carries them, are treated as separate
modeling documents; otherwise whole documents are the modeling unit.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus


@dataclass
class TopicModelResult:
    """Fitted topic model state.

    ``phi`` is a K x V matrix of p(w | topic k); rows sum to 1.  ``vocab``
    fixes the column order.  ``topic_weight[k]`` is the fraction of corpus
    tokens assigned to topic k in the final sampler state.  Topic ids are
    1-based everywhere in the public API.
    """

    n_topics: int
    vocab: tuple[str, ...]
    phi: np.ndarray
    topic_weight: np.ndarray
    excluded: frozenset[int]
    seed: int
    alpha: float
    beta: float
    iterations: int

    def __post_init__(self) -> None:
        if not self.excluded <= set(range(1, self.n_topics + 1)):
            bad = sorted(set(self.excluded) - set(range(1, self.n_topics + 1)))
            raise ValueError(f"excluded topic ids out of range 1..{self.n_topics}: {bad}")

    @property
    def vocab_index(self) -> dict[str, int]:
        cached = getattr(self, "_vocab_index", None)
        if cached is None:
            cached = {w: i for i, w in enumerate(self.vocab)}
            self._vocab_index = cached
        return cached

    def retained_topics(self) -> list[int]:
        return [k for k in range(1, self.n_topics + 1) if k not in self.excluded]


def _modeling_units(corpus: Corpus) -> list[list[str]]:
    """Flatten each modeling document (paragraph group or whole document)."""
    units: list[list[str]] = []
    for doc in corpus.documents:
        if doc.paragraphs is not None:
            for group in doc.paragraphs:
                tokens = [t for idx in group for t in doc.sentences[idx]]
                if tokens:
                    units.append(tokens)
        else:
            tokens = doc.tokens()
            if tokens:
                units.append(tokens)
    return units


def _gibbs_states(word_ids, unit_ids, n_topics, n_vocab, alpha, beta, iterations, rng):
    """Run the collapsed Gibbs sweep, yielding count arrays after each pass.

    Yields (n_kw, n_k) so callers can check count consistency per iteration;
    arrays are live views of sampler state, not copies.
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


def fit_lda(
    corpus: Corpus,
    n_topics: int,
    alpha: float | None = None,
    beta: float = 0.01,
    iterations: int = 1000,
    seed: int = 0,
) -> TopicModelResult:
    """Fit LDA on the reference corpus with collapsed Gibbs sampling.

    ``alpha`` defaults to 50/K.  The fit is single-threaded and fully
    deterministic for a fixed seed: the sweep visits tokens in corpus order
    and the vocabulary is ordered lexicographically.
    """
    if not corpus.documents:
        raise ValueError("cannot fit a topic model on an empty corpus")
    if n_topics < 1:
        raise ValueError("n_topics must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if alpha is None:
        alpha = 50.0 / n_topics

    vocab = tuple(sorted(corpus.vocabulary))
    vocab_index = {w: i for i, w in enumerate(vocab)}

    units = _modeling_units(corpus)
    if not units:
        raise ValueError("corpus contains no tokens to model")
    if n_topics > len(vocab):
        warnings.warn(
            f"n_topics={n_topics} exceeds vocabulary size {len(vocab)}; proceeding",
            stacklevel=2,
        )
    word_ids = np.array([vocab_index[t] for unit in units for t in unit], dtype=np.int64)
    unit_ids = np.array([d for d, unit in enumerate(units) for _ in unit], dtype=np.int64)

    rng = np.random.default_rng(seed)
    n_kw = n_k = None
    for n_kw, n_k in _gibbs_states(word_ids, unit_ids, n_topics, len(vocab), alpha, beta, iterations, rng):
        pass

    phi = (n_kw + beta) / (n_k[:, None] + len(vocab) * beta)
    topic_weight = n_k / len(word_ids)
    return TopicModelResult(
        n_topics=n_topics,
        vocab=vocab,
        phi=phi,
        topic_weight=topic_weight,
        excluded=frozenset(),
        seed=seed,
        alpha=alpha,
        beta=beta,
        iterations=iterations,
    )


def exclude_topics(model: TopicModelResult, ids) -> TopicModelResult:
    """Return the model with the given 1-based topic ids marked excluded.

    Exclusions accumulate with any already recorded on the model.
    Distributions are left untouched; exclusion takes effect at dictionary
    extraction time.
    """
    ids = frozenset(ids)
    out_of_range = sorted(k for k in ids if k < 1 or k > model.n_topics)
    if out_of_range:
        raise ValueError(f"topic ids out of range 1..{model.n_topics}: {out_of_range}")
    return dataclasses.replace(model, excluded=model.excluded | ids)


def top_terms(model: TopicModelResult, topic_id: int, n: int) -> list[tuple[str, float]]:
    """The n most probable terms of a topic, ties broken lexicographically."""
    if topic_id < 1 or topic_id > model.n_topics:
        raise ValueError(f"topic id {topic_id} out of range 1..{model.n_topics}")
    row = model.phi[topic_id - 1]
    ranked = sorted(zip(model.vocab, row), key=lambda item: (-item[1], item[0]))
    return [(term, float(prob)) for term, prob in ranked[: max(n, 0)]]


def save_model(model: TopicModelResult, path) -> None:
    """Persist a model as a tab-separated text file with full float precision."""
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


def load_model(path) -> TopicModelResult:
    with open(path, "r", encoding="utf-8") as stream:
        header = stream.readline().rstrip("\n")
        if not header.startswith("#dictsieve-topic-model"):
            raise ValueError(f"not a topic model file: {path}")
        fields: dict[str, str] = {}
        vocab: tuple[str, ...] = ()
        topic_weight: list[float] = []
        phi_rows: dict[int, list[float]] = {}
        for line in stream:
            parts = line.rstrip("\n").split("\t")
            key = parts[0]
            if key == "vocab":
                vocab = tuple(parts[1:])
            elif key == "topic_weight":
                topic_weight = [float(x) for x in parts[1:]]
            elif key == "phi":
                phi_rows[int(parts[1])] = [float(x) for x in parts[2:]]
            else:
                fields[key] = parts[1] if len(parts) > 1 else ""
    n_topics = int(fields["n_topics"])
    excluded = frozenset(int(k) for k in fields["excluded"].split(",") if k)
    phi = np.array([phi_rows[k] for k in range(1, n_topics + 1)])
    return TopicModelResult(
        n_topics=n_topics,
        vocab=vocab,
        phi=phi,
        topic_weight=np.array(topic_weight),
        excluded=excluded,
        seed=int(fields["seed"]),
        alpha=float(fields["alpha"]),
        beta=float(fields["beta"]),
        iterations=int(fields["iterations"]),
    )
