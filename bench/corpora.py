"""Seeded synthetic corpora with planted on-topic documents.

Three token sources are mixed per document:

- a Zipf-distributed background vocabulary shared by every corpus;
- a *domain* vocabulary split into sub-themes.  Reference documents and the
  planted on-topic target documents draw from one sub-theme, so domain
  terms co-occur inside sentences;
- *distractor* topics that give generic and off-topic target documents
  their own topical structure, which generic filtering has to remove.

Off-topic target documents also carry a few scattered domain terms, so a
ranking has to separate planted documents from near misses rather than
from pure noise.  Tokens are drawn for a whole corpus at once by
``searchsorted`` on cumulative distributions; only the JSONL writing loops
over documents.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

N_BACKGROUND = 6000
N_THEMES = 6
THEME_TERMS = 40
N_DISTRACTORS = 12
DISTRACTOR_TERMS = 40

# share of a document's tokens drawn from its domain sub-theme or distractor
# topic; the remainder is background
REFERENCE_DOMAIN = 0.35
ON_TOPIC_DOMAIN = 0.3
OFF_TOPIC_DOMAIN = 0.02
DISTRACTOR_SHARE = 0.25
# share of the target that is planted on-topic
ON_TOPIC_SHARE = 0.3


@dataclass(frozen=True)
class CorpusSizes:
    reference: int
    generic: int
    target: int


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _vocabulary() -> np.ndarray:
    words = [f"w{i}" for i in range(N_BACKGROUND)]
    words += [f"dom{t}x{j}" for t in range(N_THEMES) for j in range(THEME_TERMS)]
    words += [f"off{t}x{j}" for t in range(N_DISTRACTORS) for j in range(DISTRACTOR_TERMS)]
    return np.array(words)


_VOCAB = _vocabulary()
_DOMAIN_OFFSET = N_BACKGROUND
_DISTRACTOR_OFFSET = N_BACKGROUND + N_THEMES * THEME_TERMS
_BACKGROUND_CDF = _zipf_cdf(N_BACKGROUND, 1.05)
_TOPIC_CDF = _zipf_cdf(THEME_TERMS, 0.8)


def _draw_tokens(rng, domain_share, distractor_share, themes, distractors, sentences_per_doc):
    """Token ids for a batch of documents plus sentence and document bounds.

    ``domain_share`` and ``distractor_share`` are per-document arrays; each
    token picks its source by one uniform draw.
    """
    n_docs = len(themes)
    n_sentences = rng.integers(sentences_per_doc[0], sentences_per_doc[1] + 1, size=n_docs)
    lengths = rng.integers(5, 15, size=int(n_sentences.sum()))
    sentence_doc = np.repeat(np.arange(n_docs), n_sentences)
    token_doc = np.repeat(sentence_doc, lengths)
    n_tokens = len(token_doc)

    source = rng.random(n_tokens)
    background = np.searchsorted(_BACKGROUND_CDF, rng.random(n_tokens), side="right")
    within = np.searchsorted(_TOPIC_CDF, rng.random(n_tokens), side="right")
    domain = _DOMAIN_OFFSET + themes[token_doc] * THEME_TERMS + within
    distractor = _DISTRACTOR_OFFSET + distractors[token_doc] * DISTRACTOR_TERMS + within
    p_domain = domain_share[token_doc]
    ids = np.where(
        source < p_domain,
        domain,
        np.where(source < p_domain + distractor_share[token_doc], distractor, background),
    )
    sentence_ends = np.cumsum(lengths)
    doc_ends = np.cumsum(n_sentences)
    return ids, sentence_ends, doc_ends


def _write_jsonl(path, prefix, ids, sentence_ends, doc_ends) -> None:
    """Write one JSONL document per line."""
    words = _VOCAB[ids].tolist()
    bounds = [0] + sentence_ends.tolist()
    with open(path, "w", encoding="utf-8") as out:
        first_sentence = 0
        for doc, last_sentence in enumerate(doc_ends.tolist()):
            sentences = [
                words[bounds[s] : bounds[s + 1]] for s in range(first_sentence, last_sentence)
            ]
            out.write(json.dumps({"id": f"{prefix}{doc:06d}", "sentences": sentences}) + "\n")
            first_sentence = last_sentence


def generate(sizes: CorpusSizes, seed: int, paths: dict) -> frozenset[str]:
    """Write reference, generic and target JSONL files to ``paths``.

    Returns the ids of the planted on-topic target documents.
    """
    rng = np.random.default_rng(seed)

    n = sizes.reference
    themes = np.arange(n) % N_THEMES
    _write_jsonl(
        paths["reference"],
        "ref",
        *_draw_tokens(
            rng,
            np.full(n, REFERENCE_DOMAIN),
            np.zeros(n),
            themes,
            np.zeros(n, dtype=np.int64),
            (4, 8),
        ),
    )

    n = sizes.generic
    _write_jsonl(
        paths["generic"],
        "gen",
        *_draw_tokens(
            rng,
            np.full(n, OFF_TOPIC_DOMAIN),
            np.full(n, DISTRACTOR_SHARE),
            rng.integers(0, N_THEMES, size=n),
            rng.integers(0, N_DISTRACTORS, size=n),
            (3, 9),
        ),
    )

    n = sizes.target
    on_topic = np.zeros(n, dtype=bool)
    on_topic[rng.permutation(n)[: round(ON_TOPIC_SHARE * n)]] = True
    _write_jsonl(
        paths["target"],
        "tgt",
        *_draw_tokens(
            rng,
            np.where(on_topic, ON_TOPIC_DOMAIN, OFF_TOPIC_DOMAIN),
            np.where(on_topic, 0.0, DISTRACTOR_SHARE),
            rng.integers(0, N_THEMES, size=n),
            rng.integers(0, N_DISTRACTORS, size=n),
            (3, 9),
        ),
    )
    return frozenset(f"tgt{doc:06d}" for doc in np.flatnonzero(on_topic).tolist())
