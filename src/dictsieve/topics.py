"""Latent topic extraction over the reference corpus.

Fits LDA by collapsed Gibbs sampling and keeps the per-topic word
distributions plus the share of tokens each topic attracted.  Analysts
inspect the top terms per topic and mark junk topics as excluded; exclusion
is stored on the model and consulted later during dictionary extraction.

Paragraph groups, when a document carries them, are treated as separate
modeling documents; otherwise whole documents are the modeling unit.

The Gibbs sampler is a loop over plain Python lists: each token-visit builds
the K cumulative weights of its full conditional with ``map`` and
``accumulate`` and draws a topic by bisection, with no per-topic bytecode.
It yields a snapshot of the counts after every sweep; the model is computed
from the last one.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import mul, truediv

import numpy as np

from .corpus import Corpus, open_text


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
    """Run the collapsed Gibbs sweep, yielding count snapshots after each pass.

    ``word_ids`` and ``unit_ids`` give each token's vocabulary index and
    modeling unit, in corpus order.  Yields (n_kw, n_k) after every sweep as
    new float arrays (K x V in C order, and K), never views of sampler
    state, so a consumer may keep them.

    The sampler runs on plain lists: int counts per word, unit and topic,
    and beside each count its smoothed term of the full conditional
    (n_wk + beta, n_dk + alpha, n_k + V beta), recomputed from the count
    whenever the count changes, never stepped by 1.0, so each weight has the
    bits of the float64 arithmetic of the numpy oracle in
    ``tests/test_topics.py``.  A sweep's uniforms come from one
    ``rng.random(n_tokens)`` call, the same stream as one ``rng.random()``
    per token.
    """
    n_tokens = len(word_ids)
    assignments = rng.integers(0, n_topics, size=n_tokens).tolist()
    n_wk = [[0] * n_topics for _ in range(n_vocab)]
    n_dk = [[0] * n_topics for _ in range(max(unit_ids, default=-1) + 1)]
    n_k = [0] * n_topics
    for w, d, k in zip(word_ids, unit_ids, assignments):
        n_wk[w][k] += 1
        n_dk[d][k] += 1
        n_k[k] += 1

    v_beta = n_vocab * beta
    wb = [[c + beta for c in row] for row in n_wk]
    da = [[c + alpha for c in row] for row in n_dk]
    kb = [c + v_beta for c in n_k]
    last = n_topics - 1
    for _ in range(iterations):
        uniforms = rng.random(n_tokens).tolist()
        for i, (w, d, u) in enumerate(zip(word_ids, unit_ids, uniforms)):
            k = assignments[i]
            word, word_b, unit, unit_a = n_wk[w], wb[w], n_dk[d], da[d]
            c = word[k] = word[k] - 1
            word_b[k] = c + beta
            c = n_k[k] = n_k[k] - 1
            kb[k] = c + v_beta
            c = unit[k] = unit[k] - 1
            unit_a[k] = c + alpha

            # full conditional over topics, (n_wk + beta) / (n_k + V beta) *
            # (n_dk + alpha) in the oracle's operation order; the per-unit
            # denominator is constant across k and cancels.  The total
            # cum[-1] is a sequential sum where the oracle's sum() is pairwise:
            # the two may differ in the last ulp, which moves a draw only if
            # u * total falls within an ulp of a cumulative boundary.
            cum = list(accumulate(map(mul, map(truediv, word_b, kb), unit_a)))
            k = bisect_right(cum, u * cum[-1])
            if k > last:  # guard against u landing on the top edge
                k = last

            assignments[i] = k
            c = word[k] = word[k] + 1
            word_b[k] = c + beta
            c = n_k[k] = n_k[k] + 1
            kb[k] = c + v_beta
            c = unit[k] = unit[k] + 1
            unit_a[k] = c + alpha
        yield np.array(n_wk, dtype=np.float64).T.copy(), np.array(n_k, dtype=np.float64)


def check_fit_settings(n_topics: int, alpha: float | None, beta: float, iterations: int) -> float:
    """Reject settings ``fit_lda`` cannot sample with; return ``alpha``,
    which defaults to 50/K."""
    if n_topics < 1:
        raise ValueError("n_topics must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if alpha is None:
        alpha = 50.0 / n_topics
    for name, prior in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(prior) and prior > 0):
            raise ValueError(f"{name} must be finite and > 0, got {prior!r}")
    return alpha


def fit_lda(
    corpus: Corpus,
    n_topics: int,
    alpha: float | None = None,
    beta: float = 0.01,
    iterations: int = 1000,
    seed: int = 0,
) -> TopicModelResult:
    """Fit LDA on the reference corpus with collapsed Gibbs sampling.

    ``alpha`` defaults to 50/K; ``alpha`` and ``beta`` must be finite and
    positive.  The fit is single-threaded and fully deterministic for a
    fixed seed: the sweep visits tokens in corpus order and the vocabulary
    is ordered lexicographically.  ``phi`` and ``topic_weight`` come from
    the count snapshot of the last sweep.
    """
    if not corpus.documents:
        raise ValueError("cannot fit a topic model on an empty corpus")
    alpha = check_fit_settings(n_topics, alpha, beta, iterations)

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
    word_ids = [vocab_index[t] for unit in units for t in unit]
    unit_ids = [d for d, unit in enumerate(units) for _ in unit]

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
    return dataclasses.replace(model, excluded=model.excluded | check_topic_ids(model.n_topics, ids))


def check_topic_ids(n_topics: int, ids) -> frozenset[int]:
    """Reject topic ids outside 1..n_topics, and a set of ids that excludes
    every topic; return the ids as a frozenset."""
    ids = frozenset(ids)
    out_of_range = sorted(k for k in ids if k < 1 or k > n_topics)
    if out_of_range:
        raise ValueError(f"topic ids out of range 1..{n_topics}: {out_of_range}")
    if len(ids) == n_topics:
        raise ValueError("all topics excluded")
    return ids


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
    """Read a model written by ``save_model``.

    Lines come in the order ``save_model`` writes them.  ``n_topics`` and
    ``iterations`` are at least 1, ``alpha`` and ``beta`` finite and positive,
    ``vocab`` holds n_vocab distinct terms, ``topic_weight`` n_topics finite
    values and ``excluded`` ids in 1..n_topics; then comes exactly one
    ``phi`` row per topic 1..n_topics, in order, each with n_vocab finite,
    non-negative values summing to 1 within 1e-9.  A violation is reported
    as ``path:line``.
    """
    with open_text(path) as stream:
        if not stream.readline().startswith("#dictsieve-topic-model"):
            raise ValueError(f"not a topic model file: {path}")
        lineno = 1

        def fail(message):
            raise ValueError(f"{path}:{lineno}: {message}")

        def read(*head, convert=None, count=None):
            """The values of the next line after its leading fields ``head``."""
            nonlocal lineno
            lineno += 1
            values = stream.readline().rstrip("\n").split("\t")
            name = " ".join(head)
            if values[: len(head)] != list(head):
                fail(f"expected the {name} line")
            values = values[len(head):]
            if count is not None and len(values) != count:
                fail(f"{name} has {len(values)} values, expected {count}")
            if convert is None:
                return values
            try:
                return [convert(v) for v in values]
            except ValueError:
                fail(f"{name} holds a value that is not {convert.__name__}")

        n_topics, = read("n_topics", convert=int, count=1)
        if n_topics < 1:
            fail(f"n_topics must be >= 1, got {n_topics}")
        n_vocab, = read("n_vocab", convert=int, count=1)
        alpha, = read("alpha", convert=float, count=1)
        if not (math.isfinite(alpha) and alpha > 0):
            fail(f"alpha must be finite and > 0, got {alpha!r}")
        beta, = read("beta", convert=float, count=1)
        if not (math.isfinite(beta) and beta > 0):
            fail(f"beta must be finite and > 0, got {beta!r}")
        iterations, = read("iterations", convert=int, count=1)
        if iterations < 1:
            fail(f"iterations must be >= 1, got {iterations}")
        seed, = read("seed", convert=int, count=1)
        excluded_text, = read("excluded", count=1)
        try:
            excluded = frozenset(int(k) for k in excluded_text.split(",") if k)
        except ValueError:
            fail(f"excluded topic ids {excluded_text!r} are not integers")
        if not excluded <= set(range(1, n_topics + 1)):
            fail(f"excluded topic ids {sorted(excluded)} are not all in 1..{n_topics}")
        vocab = tuple(read("vocab"))
        if len(vocab) != n_vocab or len(set(vocab)) != n_vocab:
            fail(f"vocab must hold {n_vocab} distinct terms")
        topic_weight = np.array(read("topic_weight", convert=float, count=n_topics))
        if not np.isfinite(topic_weight).all():
            fail("topic_weight values must be finite")
        phi = np.empty((n_topics, n_vocab))
        for k in range(1, n_topics + 1):
            row = phi[k - 1]
            row[:] = read("phi", str(k), convert=float, count=n_vocab)
            if not (np.isfinite(row).all() and (row >= 0.0).all()):
                fail(f"phi row {k} must hold finite, non-negative values")
            total = float(row.sum())
            if abs(total - 1.0) > 1e-9:
                fail(f"phi row {k} sums to {total!r}, not 1")
        for line in stream:
            lineno += 1
            if line.strip():
                fail("unexpected line after the last phi row")
    return TopicModelResult(
        n_topics=n_topics,
        vocab=vocab,
        phi=phi,
        topic_weight=topic_weight,
        excluded=excluded,
        seed=seed,
        alpha=alpha,
        beta=beta,
        iterations=iterations,
    )
