"""The integer coding of a corpus: what ingest, hand-built corpora, views
and export make of it, and that no stage reads a document's strings; and the
sidecar writer that its ``.coding`` file shares with the matrices' ``.pairs``."""

from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import re
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dictsieve import (
    Corpus,
    Document,
    build_cooc,
    corpus as corpus_module,
    export_corpus,
    filter_cooc,
    fit_lda,
    ingest_corpus,
    load_cooc,
    save_cooc,
    term_stats,
)
from dictsieve.cooc import CoocMatrix
from dictsieve.corpus import _jsonl_lines, check_doc_id
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
    """No documents, or documents with no sentences, empty sentences and
    paragraph groups (each sentence index at most once, empty groups
    allowed)."""
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


def frozen_old_export(docs: list[Document]) -> bytes:
    """The lines ``export_corpus`` wrote through ``json.JSONEncoder``."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    lines = []
    for doc in docs:
        record: dict = {"id": doc.id, "sentences": doc.sentences}
        if doc.paragraphs is not None:
            record["paragraphs"] = doc.paragraphs
        lines.append(encode(record) + "\n")
    return "".join(lines).encode()


def frozen_jsonl_lines(coding):
    """Yield each document's JSONL line as bytes, in corpus order."""
    literal = list(map(encode_basestring, coding.vocab)).__getitem__
    token_at = coding.sentence_starts.tolist()
    first = coding.document_starts.tolist()
    encode = json.JSONEncoder(ensure_ascii=False).encode
    for doc_id, paragraphs, a, b in zip(coding.ids, coding.paragraphs, first, first[1:]):
        start = token_at[a]
        words = list(map(literal, coding.codes[start : token_at[b]].tolist()))
        sentences = ", ".join(
            ["[" + ", ".join(words[s - start : e - start]) + "]" for s, e in zip(token_at[a:b], token_at[a + 1 : b + 1])]
        )
        tail = "}\n" if paragraphs is None else ', "paragraphs": ' + encode(paragraphs) + "}\n"
        yield ('{"id": ' + encode_basestring(doc_id) + ', "sentences": [' + sentences + "]" + tail).encode()


@settings(deadline=None, max_examples=200)
@given(
    docs=documents(),
    suffixes=st.lists(TOKEN, min_size=6, max_size=6),
    emptied=st.booleans(),
    block=st.integers(1, 12),
)
def test_export_writes_the_bytes_of_the_per_document_writer(docs, suffixes, emptied, block):
    """The JSONL text, gathered a block of documents at a time from one piece
    table, is the text of the per-document writer it replaced: with
    documents and whole corpora without sentences, dropped empty sentences,
    paragraph groups, ids and tokens that JSON escapes, and blocks from one
    token up."""
    assume(docs)
    docs = [
        # the suffix makes JSON escape the id; ids stay distinct and end in '.'
        Document(f"d{i}{suffix}.", [] if emptied else doc.sentences, None if emptied else doc.paragraphs)
        for i, (doc, suffix) in enumerate(zip(docs, suffixes))
    ]
    coding = Corpus(documents=docs, role="target").coding
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus_module, "_JSONL_BLOCK_TOKENS", block)
        chunks = list(_jsonl_lines(coding))
    assert b"".join(chunks) == b"".join(frozen_jsonl_lines(coding))
    assert len(chunks) <= len(docs)


def sidecar_of(path) -> Path:
    return Path(f"{path}.coding")


def ingest_both_ways(path) -> Corpus:
    """Ingest ``path`` through its sidecar, if it has one, then with the
    sidecar deleted; both codings must be equal.  The sidecar is put back
    afterwards."""
    sidecar = sidecar_of(path)
    data = sidecar.read_bytes() if sidecar.is_file() else None
    first = ingest_corpus(path, role="reference")
    sidecar.unlink(missing_ok=True)
    parsed = ingest_corpus(path, role="reference")
    if data is not None:
        sidecar.write_bytes(data)
    assert coding_of(first) == coding_of(parsed)
    return parsed


class TestCodingProperties:
    @settings(deadline=None, max_examples=150)
    @given(docs=documents())
    def test_coding(self, tmp_path_factory, docs):
        if not docs:  # ingest rejects a file without documents
            with pytest.raises(ValueError, match="^reference corpus: zero documents$"):
                Corpus(documents=docs, role="reference")
            return
        corpus = Corpus(documents=docs, role="reference")

        # a hand-built corpus holds what ingest makes of its documents, and
        # views and the vocabulary equal the old definitions on those
        expected = [without_empty_sentences(doc) for doc in docs]
        assert corpus.documents == expected
        for view, doc in zip(corpus.documents, expected):
            assert view.sentences == doc.sentences
            assert view.tokens() == [t for sentence in doc.sentences for t in sentence]
            assert view.token_count == sum(len(s) for s in doc.sentences)
            assert view.paragraphs == doc.paragraphs
            assert repr(view) == repr(doc)
        all_sentences = (sentence for doc in docs for sentence in doc.sentences)
        assert corpus.vocabulary == frozenset().union(*all_sentences)
        assert corpus.coding.vocab == tuple(sorted(corpus.vocabulary))

        # export writes the encoder's bytes and always a sidecar, which
        # replaces the sidecar of an earlier export to the same path; ingest
        # reads the corpus's coding back through the sidecar and from the
        # JSONL alone, and exporting it again changes nothing
        path = tmp_path_factory.mktemp("coding") / "corpus.jsonl"
        export_corpus(Corpus(documents=[Document("old", [["x"]])], role="reference"), path)
        export_corpus(corpus, path)
        assert path.read_bytes() == frozen_old_export(expected)
        assert sidecar_of(path).is_file()
        ingested = ingest_both_ways(path)
        assert coding_of(ingested) == coding_of(corpus)
        rebuilt = [Document(doc.id, doc.sentences, doc.paragraphs) for doc in ingested.documents]
        assert coding_of(Corpus(documents=rebuilt, role="reference")) == coding_of(ingested)
        again = path.with_name("again.jsonl")
        export_corpus(ingested, again)
        assert sidecar_of(again).is_file()
        assert coding_of(ingest_both_ways(again)) == coding_of(ingested)
        assert again.read_bytes() == path.read_bytes()

        # a record appended to the JSONL is read: the sidecar no longer
        # matches the file and is ignored
        with open(again, "a", encoding="utf-8") as out:
            out.write(json.dumps({"id": "appended", "sentences": [["z"]]}) + "\n")
        appended = Corpus(documents=[*rebuilt, Document("appended", [["z"]])], role="reference")
        assert coding_of(ingest_corpus(again, role="reference")) == coding_of(appended)


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
    assert (tmp_path / "reference.jsonl").read_bytes() == frozen_old_export(list(map(without_empty_sentences, docs)))


@pytest.mark.parametrize("role", ["reference", "generic", "target"])
def test_no_corpus_is_empty(role):
    """A corpus is built with at least one document, as ingest reads one,
    so ``term_stats``, ``compute_norms``, ``build_cooc``, ``fit_lda``,
    ``sentence_features`` and ``sentence_terms`` never meet an empty one."""
    with pytest.raises(ValueError, match=f"^{role} corpus: zero documents$"):
        Corpus(documents=[], role=role)


# ---------------------------------------------------------------------------
# the sidecar that export writes beside a JSONL file


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_sidecar(
    path, vocab, ids, paragraphs, codes, sentence_starts, document_starts, counts=None, text=None, extra=b""
):
    """The sidecar of the JSONL file at ``path``, built from its parts with
    both hashes correct, so only the payload's own checks can reject it.
    ``counts`` and ``text`` replace the header counts and the payload's text
    lines, and ``extra`` is appended to the payload."""
    if text is None:
        text = "".join(line + "\n" for line in [*vocab, *ids, paragraphs]).encode()
    payload = b"".join([
        text,
        np.asarray(codes, dtype="<i4").tobytes(),
        np.asarray(sentence_starts, dtype="<i8").tobytes(),
        np.asarray(document_starts, dtype="<i8").tobytes(),
        extra,
    ])
    if counts is None:
        counts = (len(vocab), len(ids), len(sentence_starts) - 1, len(codes))
    jsonl = Path(path).read_bytes()
    fields = [
        "#dictsieve-coding",
        "version=1",
        f"jsonl_bytes={len(jsonl)}",
        f"jsonl_sha256={sha256_hex(jsonl)}",
        *(f"{name}={n}" for name, n in zip(("vocab", "documents", "sentences", "tokens"), counts)),
        f"payload_sha256={sha256_hex(payload)}",
    ]
    sidecar_of(path).write_bytes("\t".join(fields).encode() + b"\n" + payload)


# the parts of the sidecar of SMALL
SMALL = [Document("d1", [["b", "a"], ["a"], ["c"]], paragraphs=[[1], [0, 2]]), Document("d2", [["c"]])]
PARTS = {
    "vocab": ("a", "b", "c"),
    "ids": ["d1", "d2"],
    "paragraphs": "[[[1],[0,2]],null]",
    "codes": [1, 0, 0, 2, 2],
    "sentence_starts": [0, 2, 3, 4, 5],
    "document_starts": [0, 3, 4],
}


@pytest.fixture
def small(tmp_path) -> Path:
    path = tmp_path / "small.jsonl"
    export_corpus(Corpus(documents=SMALL, role="target"), path)
    return path


class TestSidecar:
    def test_export_writes_the_documented_format(self, small, tmp_path):
        written = sidecar_of(small).read_bytes()
        write_sidecar(small, **PARTS)
        assert sidecar_of(small).read_bytes() == written
        header = written.split(b"\n", 1)[0].decode()
        assert header.startswith("#dictsieve-coding\tversion=1\tjsonl_bytes=")
        assert "\tvocab=3\tdocuments=2\tsentences=4\ttokens=5\t" in header

    def test_the_sidecar_is_what_ingest_reads(self, small):
        """A sidecar that matches the JSONL's bytes is read in place of the
        JSONL, by path only: a stream or a plaintext directory is parsed."""
        write_sidecar(small, **{**PARTS, "ids": ["x1", "x2"]})
        assert ingest_corpus(small).coding.ids == ["x1", "x2"]
        with open(small, encoding="utf-8") as stream:
            assert ingest_corpus(stream).coding.ids == ["d1", "d2"]
        texts = small.parent / "texts"
        texts.mkdir()
        (texts / "p1.txt").write_text("one two.")
        sidecar_of(small).rename(sidecar_of(texts))
        assert ingest_corpus(texts, format="plaintext-dir").coding.ids == ["p1"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda jsonl, header: (jsonl.replace(b'"d2"', b'"d3"'), header),  # same length, other bytes
            lambda jsonl, header: (jsonl + b'{"id": "d3", "sentences": [["c"]]}\n', header),
            lambda jsonl, header: (jsonl, b"notes about small.jsonl\n"),
            lambda jsonl, header: (jsonl, header.replace(b"version=1", b"version=2")),
        ],
        ids=["jsonl-edited", "jsonl-appended", "not-a-sidecar", "other-version"],
    )
    def test_a_sidecar_for_other_bytes_is_ignored(self, small, edit):
        sidecar = sidecar_of(small)
        header, payload = sidecar.read_bytes().split(b"\n", 1)
        jsonl, header = edit(small.read_bytes(), header + b"\n")
        small.write_bytes(jsonl)
        sidecar.write_bytes(header + payload)
        sidecar_data = sidecar.read_bytes()
        expected = ingest_corpus(io.StringIO(jsonl.decode()), role="target")
        assert coding_of(ingest_corpus(small)) == coding_of(expected)
        assert sidecar.read_bytes() == sidecar_data

    @pytest.mark.parametrize(
        "parts, message",
        [
            ({"vocab": ("b", "a", "c"), "codes": [0, 1, 1, 2, 2]}, "vocabulary is not strictly increasing"),
            ({"vocab": ("a", "a", "c")}, "vocabulary is not strictly increasing"),
            ({"vocab": ("", "b", "c")}, "token '' is empty"),
            ({"vocab": ("a", "b\tx", "c")}, "token 'b\\tx' contains a tab, CR or LF"),
            ({"vocab": ("a", "b\rx", "c")}, "token 'b\\rx' contains a tab, CR or LF"),
            ({"text": b"a\nb\xff\nc\nd1\nd2\n[[[1],[0,2]],null]\n"}, "not UTF-8 text"),
            (
                {"vocab": (), "ids": [], "paragraphs": "[]", "codes": [], "sentence_starts": [0], "document_starts": [0]},
                "zero documents",
            ),
            ({"ids": ["d1", "#d2"]}, "document id '#d2' starts with '#'"),
            ({"ids": ["d1", " d2"]}, "document id ' d2' has leading or trailing whitespace"),
            ({"ids": ["d1 ", "d2"]}, "has leading or trailing whitespace"),
            ({"ids": ["", "d2"]}, "document id '' is empty"),
            ({"ids": ["d1", "d\t2"]}, "document id 'd\\t2' contains a tab, CR or LF"),
            ({"ids": ["d1", "d1"]}, "duplicate document id"),
            ({"codes": [1, 0, 0, 2, 3]}, "token code out of range for 3 tokens"),
            ({"codes": [1, 0, -1, 2, 2]}, "token code out of range for 3 tokens"),
            ({"sentence_starts": [1, 2, 3, 4, 5]}, "sentence offsets do not run from 0 up to 5 tokens"),
            ({"sentence_starts": [0, 2, 2, 4, 5]}, "sentence offsets do not run from 0 up to 5 tokens"),
            ({"sentence_starts": [0, 2, 3, 4, 6]}, "sentence offsets do not run from 0 up to 5 tokens"),
            ({"document_starts": [1, 3, 4]}, "document offsets do not run from 0 up to 4 sentences"),
            ({"document_starts": [0, 3, 3]}, "document offsets do not run from 0 up to 4 sentences"),
            ({"document_starts": [0, 5, 4]}, "document offsets do not run from 0 up to 4 sentences"),
            ({"paragraphs": "[[[1],[0,2]],nul"}, "paragraph groups are not JSON"),
            ({"paragraphs": "[null]"}, "expected the paragraph groups of 2 documents"),
            ({"paragraphs": "[[[1],[0,3]],null]"}, "document 'd1': paragraph sentence index 3 is out of range"),
            ({"paragraphs": "[[[1],[1]],null]"}, "document 'd1': paragraph sentence index 1 appears more than once"),
            ({"paragraphs": "[[[true]],null]"}, "document 'd1': 'paragraphs' must be lists of sentence indices"),
            ({"counts": (3, 2, 4, 6)}, "payload size does not match the header counts"),
            ({"counts": (2, 2, 4, 5)}, "payload size does not match the header counts"),
            ({"extra": b"\0"}, "payload size does not match the header counts"),
        ],
    )
    def test_a_damaged_payload_names_the_sidecar(self, small, parts, message):
        write_sidecar(small, **{**PARTS, **parts})
        with pytest.raises(ValueError, match=re.escape(f"{sidecar_of(small)}: ") + ".*" + re.escape(message)):
            ingest_corpus(small)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda header, payload: (header.replace(b"\ttokens=5", b""), payload), ":1: malformed coding header"),
            (lambda header, payload: (header.replace(b"tokens=5", b"tokens=x"), payload), ":1: malformed coding header"),
            (lambda header, payload: (header.replace(b"tokens=5", b"tokens"), payload), ":1: malformed coding header"),
            (lambda header, payload: (header.replace(b"jsonl_bytes=", b"jsonl_bytes=x"), payload),
             ":1: malformed coding header"),
            (lambda header, payload: (header[:-3], payload), ":1: malformed coding header"),
            (lambda header, payload: (header, payload[:-1] + b"\1"), ": payload does not match its sha256"),
        ],
        ids=["missing-field", "not-a-count", "no-equals", "bytes-not-a-count", "bad-hash", "payload-changed"],
    )
    def test_a_damaged_header_or_hash_names_the_sidecar(self, small, damage, message):
        sidecar = sidecar_of(small)
        header, payload = damage(*sidecar.read_bytes().split(b"\n", 1))
        sidecar.write_bytes(header + b"\n" + payload)
        with pytest.raises(ValueError, match=re.escape(f"{sidecar}{message}")):
            ingest_corpus(small)

    @pytest.mark.parametrize("doc_id", ["a b", "a\u00a0b", "a\u2028b", "a\x0bb\x0cc", "a#", "日本", "\x00", "a\x1fb"])
    def test_ids_with_inner_whitespace_or_controls_are_read(self, small, doc_id):
        write_sidecar(small, **{**PARTS, "ids": [doc_id, "d2"]})
        assert ingest_corpus(small).coding.ids == [doc_id, "d2"]

    @given(ids=st.lists(TOKEN | st.sampled_from(["#", " ", " ", "\x85", "a\x1c", "\x1ca"]), min_size=2, max_size=2))
    @settings(deadline=None, max_examples=100)
    def test_a_sidecar_takes_the_ids_that_ingest_takes(self, tmp_path_factory, ids):
        path = tmp_path_factory.mktemp("ids") / "small.jsonl"
        export_corpus(Corpus(documents=SMALL, role="target"), path)
        write_sidecar(path, **{**PARTS, "ids": ids})
        try:
            for doc_id in ids:
                check_doc_id(doc_id, "x")
        except ValueError:
            accepted = False
        else:
            accepted = len(set(ids)) == 2
        if accepted:
            assert ingest_corpus(path).coding.ids == ids
        else:
            with pytest.raises(ValueError, match=re.escape(str(sidecar_of(path)))):
                ingest_corpus(path)

    def test_export_removes_only_its_own_sidecars(self, tmp_path):
        """A write replaces a foreign file at the sidecar's path, and its own
        old sidecar, with the new sidecar (a write that fails is
        ``test_a_write_that_fails_leaves_a_consistent_pair``)."""
        path = tmp_path / "corpus.jsonl"
        sidecar = sidecar_of(path)
        sidecar.write_text("not a sidecar\n")
        export_corpus(Corpus(documents=SMALL, role="target"), path)
        assert sidecar.read_bytes().startswith(b"#dictsieve-coding\t")
        for target in (path, tmp_path / "fresh.jsonl"):
            export_corpus(Corpus(documents=SMALL[1:], role="target"), target)
        assert sidecar.read_bytes() == sidecar_of(tmp_path / "fresh.jsonl").read_bytes()

        path = tmp_path / "cooc.tsv"
        sidecar = Path(f"{path}.pairs")
        sidecar.write_text("not a sidecar\n")
        save_cooc(matrix_of(Corpus(documents=SMALL, role="target")), path)
        assert sidecar.read_bytes().startswith(b"#dictsieve-pairs\t")


class FailingPayload:
    """A file whose second write stops halfway, as on a full disk: a text's
    second chunk, or a sidecar's first payload part after its header."""

    def __init__(self, stream):
        self.stream = stream
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stream.close()

    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            data = memoryview(data).cast("B")
            self.stream.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.stream.write(data)


def matrix_of(corpus: Corpus) -> CoocMatrix:
    """A matrix that differs with the number of documents of ``corpus``."""
    return CoocMatrix.from_pairs(("a", "b", "c"), {("a", "b"): 0.5, ("b", "c"): 1 / len(corpus)}, "filtered")


def matrix_view(matrix: CoocMatrix) -> tuple:
    return matrix.terms, matrix.provenance, matrix.keys.tolist(), matrix.values.tolist()


@pytest.mark.parametrize("failing", ["text", "sidecar"])
@pytest.mark.parametrize(
    "name, kind, make, write, read, view",
    [
        ("small.jsonl", "coding", lambda corpus: corpus, export_corpus, ingest_corpus, coding_of),
        ("cooc.tsv", "pairs", matrix_of, save_cooc, load_cooc, matrix_view),
    ],
    ids=["coding", "pairs"],
)
def test_a_write_that_fails_leaves_a_consistent_pair(monkeypatch, tmp_path, name, kind, make, write, read, view, failing):
    """The text and its sidecar are each written under a temporary name and
    renamed into place, the text first.  A write that fails partway leaves
    no temporary file: at the text it leaves the earlier text and sidecar as
    they were, and the read returns the earlier object; at the sidecar it
    leaves the new text beside the earlier sidecar, which the read ignores,
    parsing the new text."""
    # a block of one document at a time, so the corpus text takes more than
    # one write and its second one can fail
    monkeypatch.setattr(corpus_module, "_JSONL_BLOCK_TOKENS", 1)
    path = tmp_path / name
    earlier = make(Corpus(documents=SMALL, role="target"))
    write(earlier, path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(before) == 2
    written = make(Corpus(documents=[*SMALL, Document("d3", [["d"]])], role="target"))
    target = path if failing == "text" else Path(f"{path}.{kind}")

    def failing_open(file, mode="r", *args, **kwargs):
        stream = open(file, mode, *args, **kwargs)
        return FailingPayload(stream) if str(file) == f"{target}.{os.getpid()}.tmp" else stream

    monkeypatch.setattr(corpus_module, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        write(written, path)
    monkeypatch.undo()
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(after) == sorted(before)
    if failing == "text":
        assert after == before
        assert view(read(path)) == view(earlier)
    else:
        assert after[f"{name}.{kind}"] == before[f"{name}.{kind}"]
        assert after[name] != before[name]
        assert view(read(path)) == view(written)
