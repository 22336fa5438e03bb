"""Latent topic extraction over the reference corpus.

Fits LDA by collapsed Gibbs sampling and keeps the per-topic word
distributions plus the share of tokens each topic attracted.  Analysts
inspect the top terms per topic and mark junk topics as excluded; exclusion
is stored on the model and consulted later during dictionary extraction.

Paragraph groups, when a document carries them, are treated as separate
modeling documents; otherwise whole documents are the modeling unit.

The Gibbs sampler is a loop over plain Python lists.  Where a word holds no
tokens in a topic, its term of the full conditional depends only on the
unit and the topic, so each unit run keeps a base vector of those K
products and patches it at the topics a visit moves.  A token-visit copies
the base vector, recomputes the products at its word's non-zero topics
(a per-word index kept exact as counts go to and from 0), and draws a topic
by bisection over the ``accumulate`` of the K weights.  Each weight has the
operands and operation order of the dense conditional, so the chain is the
same bit for bit.  The sampler yields its live counts after every sweep;
the model is computed from the counts after the last one, converted to
arrays once.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, groupby, repeat
from operator import mul, truediv

import numpy as np

from .corpus import Corpus, FloatText, TextFloat, fields_error, open_text, write_rows

# the settings of a model, on lines 2-7 of its file
_SETTINGS = ("n_topics", "n_vocab", "alpha", "beta", "iterations", "seed")


@dataclass
class TopicModelResult:
    """Fitted topic model state.

    ``phi`` is a K x V matrix of p(w | topic k); rows sum to 1.  ``vocab``
    fixes the column order.  ``topic_weight[k]`` is the fraction of corpus
    tokens assigned to topic k in the final sampler state.  Topic ids are
    1-based everywhere in the public API.  Building a model whose
    ``excluded`` ids ``check_topic_ids`` rejects, or whose ``vocab`` holds
    a term that is not a field (see ``field_error``), raises ``ValueError``.
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
        self.excluded = check_topic_ids(self.n_topics, self.excluded)
        if (error := fields_error("vocab term", self.vocab)) is not None:
            raise ValueError(error)

    @cached_property
    def vocab_index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.vocab)}

    def retained_topics(self) -> list[int]:
        return [k for k in range(1, self.n_topics + 1) if k not in self.excluded]


def _modeling_units(corpus: Corpus) -> list[list[int]]:
    """Each modeling document (paragraph group or whole document) as the
    vocabulary indices of its tokens, read from the corpus's coding; units
    without tokens are dropped."""
    coding = corpus.coding
    codes = coding.codes.tolist()
    token_at = coding.sentence_starts.tolist()
    first = coding.document_starts.tolist()
    units: list[list[int]] = []
    for paragraphs, a, b in zip(coding.paragraphs, first, first[1:]):
        if paragraphs is None:
            units.append(codes[token_at[a] : token_at[b]])
        else:
            units.extend(
                [w for i in group for w in codes[token_at[a + i] : token_at[a + i + 1]]] for group in paragraphs
            )
    return [unit for unit in units if unit]


def _gibbs_states(word_ids, unit_ids, n_topics, n_vocab, alpha, beta, iterations, rng):
    """Run the collapsed Gibbs sweep, yielding the live counts after each pass.

    ``word_ids`` and ``unit_ids`` give each token's vocabulary index and
    modeling unit, in corpus order.  Yields (n_wk, n_k) after every sweep:
    the sampler's own count lists, V lists of K ints and K ints, the same
    objects every sweep.  They change when the generator resumes, so a
    consumer that keeps a sweep's counts converts or copies them first.

    The sampler runs on plain lists: int counts per word, unit and topic,
    and beside each count its smoothed term of the full conditional
    (n_wk + beta, n_dk + alpha, n_k + V beta), recomputed from the count
    whenever the count changes, never stepped by 1.0, so each weight has the
    bits of the float64 arithmetic of the numpy oracle in
    ``tests/test_topics.py``.  ``c + beta`` and ``c + alpha`` come from
    tables built once, up to the largest word frequency and the longest
    unit, so equal counts share one float.  The sweep walks the runs of
    equal unit ids, looks up the unit's rows once per run, and writes the
    run's drawn topics back in one slice.  A sweep's uniforms come from one
    ``rng.random(n_tokens)`` call, the same stream as one ``rng.random()``
    per token.

    A visit computes a product only where the word holds tokens.  Where it
    holds none, its smoothed term is ``plus_beta[0]``, which is beta exactly,
    so the product is the run's base value ``plus_beta[0] / kb[k] *
    unit_a[k]``.  The base vector is built at the start of each unit run,
    since other units have moved ``kb`` since the last one, and within the
    run is recomputed at the two topics whose ``kb`` and ``unit_a`` a visit
    changes: the old topic after the decrement and the new one after the
    increment.  A visit copies the base vector and overwrites the entries at
    the word's non-zero topics, which a per-word list, kept exact as a count
    goes 0 -> 1 or 1 -> 0, lists beside the word's two rows.  Every product
    keeps its operands and operation order and the cumulative sum runs over
    the same K values in topic order, so the chain is the dense
    conditional's, bit for bit.
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
    # a word's count in a topic is at most its frequency and a unit's at most
    # its length; kb is computed per update, since n_k goes up to n_tokens
    plus_beta = [c + beta for c in range(max(map(sum, n_wk), default=0) + 1)]
    plus_alpha = [c + alpha for c in range(max(map(sum, n_dk), default=0) + 1)]
    beta_0 = plus_beta[0]
    wb = [[plus_beta[c] for c in row] for row in n_wk]
    da = [[plus_alpha[c] for c in row] for row in n_dk]
    kb = [c + v_beta for c in n_k]
    # per word, its count row, smoothed row and the topics it holds tokens
    # in, as a list (smaller than a set); per token, its word's triple, cut
    # into runs of equal unit id, each with its unit's two rows
    word_rows = [(row, b_row, [k for k, c in enumerate(row) if c]) for row, b_row in zip(n_wk, wb)]
    runs = []
    start = 0
    for d, group in groupby(unit_ids):
        stop = start + sum(1 for _ in group)
        runs.append((start, stop, n_dk[d], da[d], [word_rows[w] for w in word_ids[start:stop]]))
        start = stop
    last = n_topics - 1
    for _ in range(iterations):
        uniforms = rng.random(n_tokens).tolist()
        for start, stop, unit, unit_a, rows in runs:
            base = list(map(mul, map(truediv, repeat(beta_0), kb), unit_a))
            drawn = []
            draw = drawn.append
            for (word, word_b, held), k, u in zip(rows, assignments[start:stop], uniforms[start:stop]):
                c = word[k] = word[k] - 1
                word_b[k] = plus_beta[c]
                if not c:
                    held.remove(k)
                c = n_k[k] = n_k[k] - 1
                kb_k = kb[k] = c + v_beta
                c = unit[k] = unit[k] - 1
                a_k = unit_a[k] = plus_alpha[c]
                base[k] = beta_0 / kb_k * a_k

                # full conditional over topics, (n_wk + beta) / (n_k + V beta)
                # * (n_dk + alpha) in the oracle's operation order; the
                # per-unit denominator is constant across k and cancels.  The
                # total cum[-1] is a sequential sum where the oracle's sum()
                # is pairwise: the two may differ in the last ulp, which moves
                # a draw only if u * total falls within an ulp of a
                # cumulative boundary.
                weights = base.copy()
                for t in held:
                    weights[t] = word_b[t] / kb[t] * unit_a[t]
                cum = list(accumulate(weights))
                k = bisect_right(cum, u * cum[-1])
                if k > last:  # guard against u landing on the top edge
                    k = last

                draw(k)
                c = word[k] = word[k] + 1
                word_b[k] = plus_beta[c]
                if c == 1:
                    held.append(k)
                c = n_k[k] = n_k[k] + 1
                kb_k = kb[k] = c + v_beta
                c = unit[k] = unit[k] + 1
                a_k = unit_a[k] = plus_alpha[c]
                base[k] = beta_0 / kb_k * a_k
            assignments[start:stop] = drawn
        yield n_wk, n_k


def check_fit_settings(n_topics: int, alpha: float | None, beta: float, iterations: int, seed: int) -> float:
    """Reject settings ``fit_lda`` cannot sample with, in the order of a model
    file's lines, each message led by its name; return ``alpha`` (50/K if None)."""
    if n_topics < 1:
        raise ValueError(f"n_topics must be >= 1, got {n_topics}")
    if alpha is None:
        alpha = 50.0 / n_topics
    for name, prior in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(prior) and prior > 0):
            raise ValueError(f"{name} must be finite and > 0, got {prior!r}")
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
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
    is ordered lexicographically.  Each modeling unit's tokens are laid out
    consecutively, which the sampler walks one unit at a time.  ``phi`` and
    ``topic_weight`` come from the sampler's counts after the last sweep,
    converted to arrays once.
    """
    alpha = check_fit_settings(n_topics, alpha, beta, iterations, seed)

    # the coding's vocabulary is sorted, so a token's code is its word id
    vocab = corpus.coding.vocab
    units = _modeling_units(corpus)
    if not units:
        raise ValueError("corpus contains no tokens to model")
    if n_topics > len(vocab):
        warnings.warn(
            f"n_topics={n_topics} exceeds vocabulary size {len(vocab)}; proceeding",
            stacklevel=2,
        )
    word_ids = [w for unit in units for w in unit]
    unit_ids = [d for d, unit in enumerate(units) for _ in unit]

    rng = np.random.default_rng(seed)
    for n_wk, n_k in _gibbs_states(word_ids, unit_ids, n_topics, len(vocab), alpha, beta, iterations, rng):
        pass
    n_kw = np.array(n_wk, dtype=np.float64).T.copy()
    n_k = np.array(n_k, dtype=np.float64)

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

    Exclusions accumulate with any already recorded on the model, and the
    result must keep ``TopicModelResult``'s rule.  Distributions are left
    untouched; exclusion takes effect at dictionary extraction time.
    """
    return dataclasses.replace(model, excluded=model.excluded | frozenset(ids))


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
    # each distinct value formatted once; tolist() gives Python floats,
    # since on numpy 2 the repr of an np.float64 is "np.float64(...)".  The
    # vocab and each list of values are passed joined, as one field.
    text = FloatText().__getitem__
    phi = np.asarray(model.phi, float)
    settings = (model.n_topics, len(model.vocab), model.alpha, model.beta, model.iterations, model.seed)
    rows = chain(
        zip(_SETTINGS, settings),
        [
            ("excluded", ",".join(map(str, sorted(model.excluded)))),
            ("vocab", "\t".join(model.vocab)),
            ("topic_weight", "\t".join(map(text, np.asarray(model.topic_weight, float).tolist()))),
        ],
        (("phi", k + 1, "\t".join(map(text, phi[k].tolist()))) for k in range(model.n_topics)),
    )
    write_rows(path, rows, "#dictsieve-topic-model\tv1\n")


def load_model(path) -> TopicModelResult:
    """Read a model written by ``save_model``.

    Lines come in the order ``save_model`` writes them.  The settings keep
    ``check_fit_settings``'s rule, ``vocab`` holds n_vocab distinct fields
    (see ``field_error``), ``topic_weight`` n_topics finite values and
    ``excluded`` ids in 1..n_topics that leave a topic (see
    ``check_topic_ids``); then comes exactly one ``phi`` row per topic
    1..n_topics, in order, each with n_vocab finite, non-negative values
    summing to 1 within 1e-9.  A violation is reported as ``path:line``.
    """
    with open_text(path) as stream:
        if not stream.readline().startswith("#dictsieve-topic-model"):
            raise ValueError(f"not a topic model file: {path}")
        lineno = 1

        def fail(message):
            raise ValueError(f"{path}:{lineno}: {message}")

        # each distinct number text is converted once per file
        number = TextFloat().__getitem__

        def read(*head, convert=None, count=None):
            """The values of the next line after its leading fields
            ``head``, converted by ``int`` or ``number`` if given."""
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
                return list(map(convert, values))
            except ValueError:
                fail(f"{name} holds a value that is not {'int' if convert is int else 'float'}")

        n_topics, n_vocab, alpha, beta, iterations, seed = (
            read(name, convert=number if name in ("alpha", "beta") else int, count=1)[0] for name in _SETTINGS
        )
        try:
            check_fit_settings(n_topics, alpha, beta, iterations, seed)
        except ValueError as exc:  # its message starts with the setting's name
            lineno = 2 + _SETTINGS.index(str(exc).split()[0])
            fail(exc)
        excluded_text, = read("excluded", count=1)
        try:
            excluded = frozenset(int(k) for k in excluded_text.split(",") if k)
        except ValueError:
            fail(f"excluded topic ids {excluded_text!r} are not integers")
        try:
            check_topic_ids(n_topics, excluded)
        except ValueError as exc:
            fail(exc)
        vocab = tuple(read("vocab"))
        if len(vocab) != n_vocab or len(set(vocab)) != n_vocab:
            fail(f"vocab must hold {n_vocab} distinct terms")
        if (error := fields_error("vocab term", vocab)) is not None:
            fail(error)
        topic_weight = np.array(read("topic_weight", convert=number, count=n_topics))
        if not np.isfinite(topic_weight).all():
            fail("topic_weight values must be finite")
        phi = np.empty((n_topics, n_vocab))
        for k in range(1, n_topics + 1):
            row = phi[k - 1]
            row[:] = read("phi", str(k), convert=number, count=n_vocab)
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
