"""The integer coding of a corpus: what ingest, hand-built corpora, views
and export make of it, and that no stage reads a document's strings."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictsieve import (
    Corpus,
    Document,
    build_cooc,
    export_corpus,
    filter_cooc,
    fit_lda,
    ingest_corpus,
    term_stats,
)
from dictsieve.dictionary import Dictionary, DictionaryEntry, boost
from dictsieve.scoring import sentence_features

# tokens and ids the artifact lines can hold: no tab, CR, LF or lone
# surrogate; quotes, backslashes, control characters and non-ASCII text
# make JSON escape some of them
TOKEN = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"), min_size=1, max_size=4
) | st.sampled_from(["a", "b", '"', "\\", "\x00", "\x1f", "\x7f", "é", "日本", " ", "😀"])


@st.composite
def documents(draw) -> list[Document]:
    """Documents with no sentences, empty sentences and paragraph groups
    (each sentence index at most once, empty groups allowed)."""
    vocab = draw(st.lists(TOKEN, min_size=1, max_size=12, unique=True))
    docs = []
    for i in range(draw(st.integers(0, 6))):
        sentences = draw(st.lists(st.lists(st.sampled_from(vocab), max_size=5), max_size=5))
        paragraphs = None
        if draw(st.booleans()):
            order = draw(st.permutations(range(len(sentences))))
            kept = order[: draw(st.integers(0, len(order)))]
            cuts = sorted(draw(st.lists(st.integers(0, len(kept)), max_size=3)))
            paragraphs = [list(kept[a:b]) for a, b in zip([0] + cuts, cuts + [len(kept)])]
        docs.append(Document(f"d{i}", sentences, paragraphs))
    return docs


def coding_of(corpus: Corpus) -> tuple:
    coding = corpus.coding
    assert coding.codes.dtype == np.int32
    assert coding.sentence_starts.dtype == coding.document_starts.dtype == np.int64
    return (
        coding.vocab,
        coding.codes.tolist(),
        coding.sentence_starts.tolist(),
        coding.document_starts.tolist(),
        list(coding.ids),
        list(coding.paragraphs),
    )


def without_empty_sentences(doc: Document) -> Document:
    """What ingest makes of a record: empty sentences dropped, paragraph
    groups renumbered onto the sentences kept."""
    kept_at = {}
    for i, sentence in enumerate(doc.sentences):
        if sentence:
            kept_at[i] = len(kept_at)
    paragraphs = doc.paragraphs
    if paragraphs is not None:
        paragraphs = [[kept_at[i] for i in group if i in kept_at] for group in paragraphs]
    return Document(doc.id, [s for s in doc.sentences if s], paragraphs)


def old_export(docs: list[Document]) -> bytes:
    """The lines ``export_corpus`` wrote through ``json.JSONEncoder``."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    lines = []
    for doc in docs:
        record: dict = {"id": doc.id, "sentences": doc.sentences}
        if doc.paragraphs is not None:
            record["paragraphs"] = doc.paragraphs
        lines.append(encode(record) + "\n")
    return "".join(lines).encode()


class TestCodingProperties:
    @settings(deadline=None, max_examples=150)
    @given(docs=documents())
    def test_coding(self, tmp_path_factory, docs):
        corpus = Corpus(documents=docs, role="reference")

        # views and the vocabulary equal the old definitions
        assert corpus.documents == docs
        for view, doc in zip(corpus.documents, docs):
            assert view.sentences == doc.sentences
            assert view.tokens() == [t for sentence in doc.sentences for t in sentence]
            assert view.token_count == sum(len(s) for s in doc.sentences)
            assert view.paragraphs == doc.paragraphs
            assert repr(view) == repr(doc)
        all_sentences = (sentence for doc in docs for sentence in doc.sentences)
        assert corpus.vocabulary == frozenset().union(*all_sentences)
        assert corpus.coding.vocab == tuple(sorted(corpus.vocabulary))

        # export writes the encoder's bytes
        path = tmp_path_factory.mktemp("coding") / "corpus.jsonl"
        export_corpus(corpus, path)
        assert path.read_bytes() == old_export(docs)

        if not docs:  # ingest rejects a file without documents
            return
        # ingest codes the exported file as a corpus of the same sentences,
        # empty ones dropped, and exporting it again changes nothing
        ingested = ingest_corpus(path, role="reference")
        expected = Corpus(documents=[without_empty_sentences(doc) for doc in docs], role="reference")
        assert coding_of(ingested) == coding_of(expected)
        rebuilt = [Document(doc.id, doc.sentences, doc.paragraphs) for doc in ingested.documents]
        assert coding_of(Corpus(documents=rebuilt, role="reference")) == coding_of(ingested)
        again = path.with_name("again.jsonl")
        export_corpus(ingested, again)
        assert coding_of(ingest_corpus(again, role="reference")) == coding_of(ingested)
        assert again.read_bytes() == old_export(expected.documents)


def test_ingest_codes_by_the_sorted_vocabulary():
    record = json.dumps({"id": "d", "sentences": [["b", "a"], [], ["a"]]})
    corpus = ingest_corpus(io.StringIO(record), role="target")
    assert corpus.coding.vocab == ("a", "b")
    assert corpus.coding.codes.tolist() == [1, 0, 0]
    assert corpus.coding.sentence_starts.tolist() == [0, 2, 3]
    assert corpus.documents[0].sentences == [["b", "a"], ["a"]]


def small_dictionary(terms, method) -> Dictionary:
    entries = [DictionaryEntry(term=t, weight=1.0, rank=i + 1, boost=boost(i + 1)) for i, t in enumerate(terms)]
    return Dictionary(entries=entries, method=method)


def test_stages_never_read_document_strings(monkeypatch, tmp_path):
    """``build_cooc``, ``sentence_features``, ``fit_lda``, ``term_stats``
    and ``export_corpus`` read the coding only."""
    docs = [
        Document("r0", [["a", "b", "c"], [], ["b", "c"]], paragraphs=[[2, 0]]),
        Document("r1", [["a", "c"], ["d", "a"]]),
        Document("r2", [["b", "d", "d"]]),
    ]
    reference = Corpus(documents=docs, role="reference")
    generic = Corpus(documents=[Document("g0", [["a", "d"], ["b", "c"]])], role="generic")
    target = Corpus(documents=[Document("t0", [["a", "b"], ["c"]]), Document("t1", [])], role="target")
    dictionary = small_dictionary(("a", "b", "c", "d"), "tfidf")
    for corpus in (reference, generic, target):
        corpus.documents  # the views exist before the strings are locked away

    def forbidden(self):
        raise AssertionError("a document's strings were read")

    monkeypatch.setattr(Document, "sentences", property(forbidden))
    monkeypatch.setattr(Document, "tokens", forbidden)
    matrix = filter_cooc(build_cooc(reference, dictionary), build_cooc(generic, dictionary))
    features = sentence_features(target, matrix)
    model = fit_lda(reference, 2, iterations=3, seed=1)
    stats = term_stats(reference)
    export_corpus(reference, tmp_path / "reference.jsonl")

    monkeypatch.undo()
    assert features.offsets.tolist()[-1] == len(features.terms)
    assert model.vocab == ("a", "b", "c", "d")
    assert stats.tf == {"a": 3, "b": 3, "c": 3, "d": 3}
    assert (tmp_path / "reference.jsonl").read_bytes() == old_export(docs)


@pytest.mark.parametrize("role", ["reference", "generic", "target"])
def test_an_empty_corpus_has_an_empty_coding(role):
    corpus = Corpus(documents=[], role=role)
    assert coding_of(corpus) == ((), [], [0], [0], [], [])
    assert corpus.documents == [] and corpus.vocabulary == frozenset()
