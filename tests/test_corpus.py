"""Tests for corpus ingestion, tokenization, and term statistics."""

from __future__ import annotations

import io
import json
import random
import re

import pytest

from dictsieve import (
    Corpus,
    Document,
    export_corpus,
    ingest_corpus,
    split_sentences,
    term_stats,
    tokenize,
)


class TestTokenize:
    def test_lowercases_and_strips_punctuation(self):
        assert tokenize("The QUICK, brown fox!") == ["the", "quick", "brown", "fox"]

    def test_digits_survive_underscores_split(self):
        assert tokenize("Foo-bar's 2nd_base X9!") == ["foo", "bar", "s", "2nd", "base", "x9"]

    def test_empty_and_symbol_only_input(self):
        assert tokenize("") == []
        assert tokenize("... --- !!!") == []

    def test_unicode_letters_kept(self):
        assert tokenize("Café naïve") == ["café", "naïve"]


class TestSplitSentences:
    def test_terminators(self):
        assert split_sentences("One two. Three? Four! Five") == [
            "One two",
            "Three",
            "Four",
            "Five",
        ]

    def test_trailing_terminator(self):
        assert split_sentences("Only one.") == ["Only one"]

    def test_no_terminator_is_single_sentence(self):
        assert split_sentences("no stop here") == ["no stop here"]


class TestDocument:
    def test_tokens_preserve_sentence_order(self):
        doc = Document(id="d", sentences=[["a", "b"], ["a"]])
        assert doc.tokens() == ["a", "b", "a"]
        assert doc.token_count == 3

    def test_empty_document_allowed(self):
        doc = Document(id="d", sentences=[])
        assert doc.tokens() == []
        assert doc.token_count == 0


class TestCorpus:
    def test_vocabulary_is_union_of_document_terms(self):
        corpus = Corpus(
            documents=[
                Document(id="x", sentences=[["a", "b"]]),
                Document(id="y", sentences=[["b", "c"]]),
            ],
            role="target",
        )
        assert corpus.vocabulary == frozenset({"a", "b", "c"})
        assert len(corpus) == 2
        assert [doc.id for doc in corpus] == ["x", "y"]

    def test_duplicate_document_ids_rejected(self):
        docs = [Document(id="x", sentences=[["a"]]), Document(id="x", sentences=[["b"]])]
        with pytest.raises(ValueError, match="duplicate document id"):
            Corpus(documents=docs, role="target")

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="unknown corpus role"):
            Corpus(documents=[Document(id="x", sentences=[["a"]])], role="training")


class TestIngest:
    def test_jsonl_stream(self):
        payload = "\n".join(
            [
                json.dumps({"id": "d1", "sentences": [["a", "b"], ["c"]]}),
                "",
                json.dumps({"id": "d2", "sentences": [["b"]]}),
            ]
        )
        corpus = ingest_corpus(io.StringIO(payload), role="reference")
        assert len(corpus) == 2
        assert corpus.role == "reference"
        assert corpus.vocabulary == frozenset({"a", "b", "c"})

    def test_jsonl_path(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps({"id": "d1", "sentences": [["hello"]]}) + "\n")
        corpus = ingest_corpus(path)
        assert corpus.role == "target"
        assert corpus.documents[0].sentences == [["hello"]]

    def test_empty_sentences_dropped(self):
        record = json.dumps({"id": "d1", "sentences": [[], ["a"], []]})
        corpus = ingest_corpus(io.StringIO(record))
        assert corpus.documents[0].sentences == [["a"]]

    def test_paragraphs_preserved(self):
        record = json.dumps(
            {"id": "d1", "sentences": [["a"], ["b"], ["c"]], "paragraphs": [[0, 1], [2]]}
        )
        corpus = ingest_corpus(io.StringIO(record))
        assert corpus.documents[0].paragraphs == [[0, 1], [2]]

    def test_paragraphs_follow_sentences_past_dropped_empty_ones(self):
        record = json.dumps(
            {"id": "d1", "sentences": [[], ["x", "y"], ["z"]], "paragraphs": [[1], [2]]}
        )
        doc = ingest_corpus(io.StringIO(record)).documents[0]
        assert doc.sentences == [["x", "y"], ["z"]]
        assert doc.paragraphs == [[0], [1]]

    def test_paragraphs_group_the_sentences_they_named(self):
        record = json.dumps(
            {"id": "d1", "sentences": [[], ["x", "y"], ["z"], ["w"]], "paragraphs": [[1], [2, 0]]}
        )
        doc = ingest_corpus(io.StringIO(record)).documents[0]
        assert [[doc.sentences[i] for i in group] for group in doc.paragraphs] == [
            [["x", "y"]],
            [["z"]],
        ]

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_paragraph_index_reports_the_record(self, bad):
        payload = json.dumps({"id": "ok", "sentences": [["a"]]}) + "\n" + json.dumps(
            {"id": "d1", "sentences": [["a"], [], ["b"]], "paragraphs": [[0], [bad]]}
        )
        with pytest.raises(ValueError, match=f"record 1: paragraph sentence index {bad} is out of range"):
            ingest_corpus(io.StringIO(payload))

    def test_boolean_paragraph_indices_rejected(self):
        record = json.dumps({"id": "d1", "sentences": [["a"], ["b"]], "paragraphs": [[True], [False]]})
        with pytest.raises(ValueError, match="record 0: 'paragraphs' must be lists of sentence indices"):
            ingest_corpus(io.StringIO(record))

    def test_zero_documents_is_an_error(self):
        with pytest.raises(ValueError, match="zero documents"):
            ingest_corpus(io.StringIO(""))

    def test_malformed_record_reports_index(self):
        payload = json.dumps({"id": "ok", "sentences": [["a"]]}) + "\nnot json\n"
        with pytest.raises(ValueError, match="malformed JSONL record 1"):
            ingest_corpus(io.StringIO(payload))

    def test_record_missing_fields(self):
        with pytest.raises(ValueError, match="expected object with 'id' and 'sentences'"):
            ingest_corpus(io.StringIO(json.dumps({"id": "d1"})))

    def test_non_string_token_rejected(self):
        record = json.dumps({"id": "d1", "sentences": [["a", 3]]})
        with pytest.raises(ValueError, match="non-empty strings"):
            ingest_corpus(io.StringIO(record))

    @pytest.mark.parametrize(
        "doc_id, problem",
        [
            ("d\t1", "contains a tab, CR or LF"),
            ("d\r1", "contains a tab, CR or LF"),
            ("d1\n", "contains a tab, CR or LF"),
            ("#d1", "starts with '#'"),
            (" d1", "is empty or has leading or trailing whitespace"),
            ("d1\u00a0", "is empty or has leading or trailing whitespace"),
            ("", "is empty or has leading or trailing whitespace"),
        ],
    )
    def test_doc_ids_that_artifact_lines_cannot_hold_are_rejected(self, tmp_path, doc_id, problem):
        payload = "".join(json.dumps({"id": i, "sentences": [["a"]]}) + "\n" for i in ("ok", doc_id))
        with pytest.raises(ValueError, match=re.escape(f"malformed JSONL record 1: document id {doc_id!r} {problem}")):
            ingest_corpus(io.StringIO(payload))
        if doc_id:
            (tmp_path / "ok.txt").write_text("A b.")
            path = tmp_path / f"{doc_id}.txt"
            path.write_text("A b.")
            with pytest.raises(ValueError, match=re.escape(f"{path}: document id {doc_id!r} {problem}")):
                ingest_corpus(tmp_path, format="plaintext-dir")

    @pytest.mark.parametrize("token", ["a\tb", "a\rb", "a\nb"])
    def test_tokens_that_artifact_lines_cannot_hold_are_rejected(self, token):
        payload = "".join(
            json.dumps({"id": i, "sentences": sentences}) + "\n"
            for i, sentences in (("d0", [["a", "b"]]), ("d1", [["a"], ["b", token, token]]))
        )
        message = f"malformed JSONL record 1: token {token!r} contains a tab, CR or LF"
        with pytest.raises(ValueError, match=re.escape(message)):
            ingest_corpus(io.StringIO(payload))

    def test_plaintext_dir(self, tmp_path):
        (tmp_path / "b.txt").write_text("Second file here.")
        (tmp_path / "a.txt").write_text("First sentence. And ANOTHER one!")
        (tmp_path / "ignored.dat").write_text("binary-ish")
        corpus = ingest_corpus(tmp_path, format="plaintext-dir", role="generic")
        assert [doc.id for doc in corpus] == ["a", "b"]
        assert corpus.documents[0].sentences == [
            ["first", "sentence"],
            ["and", "another", "one"],
        ]

    @pytest.mark.parametrize("format", ["jsonl", "plaintext-dir"])
    def test_equal_tokens_share_one_object(self, tmp_path, format):
        texts = {"d1": "Alpha beta alpha. Gamma alpha!", "d2": "Beta gamma. Alpha."}
        if format == "jsonl":
            source = tmp_path / "corpus.jsonl"
            source.write_text(
                "".join(
                    json.dumps({"id": i, "sentences": [tokenize(s) for s in split_sentences(t)]}) + "\n"
                    for i, t in texts.items()
                )
            )
        else:
            source = tmp_path / "docs"
            source.mkdir()
            for i, t in texts.items():
                (source / f"{i}.txt").write_text(t)
        corpus = ingest_corpus(source, format=format)
        assert [doc.sentences for doc in corpus] == [
            [["alpha", "beta", "alpha"], ["gamma", "alpha"]],
            [["beta", "gamma"], ["alpha"]],
        ]
        shared: dict[str, str] = {}
        for doc in corpus:
            for sentence in doc.sentences:
                for token in sentence:
                    assert shared.setdefault(token, token) is token

    def test_plaintext_requires_directory(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            ingest_corpus(tmp_path / "missing", format="plaintext-dir")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown corpus format"):
            ingest_corpus(tmp_path, format="xml")


def per_token_sentence_check(sentence) -> bool:
    """The check ``_parse_jsonl_record`` ran on each sentence before it
    checked types per sentence, verbatim: True means malformed."""
    return not isinstance(sentence, list) or any(not isinstance(t, str) or not t for t in sentence)


@pytest.mark.parametrize(
    "sentence, malformed",
    [
        pytest.param(["a", "b"], False, id="tokens"),
        pytest.param([], False, id="empty-sentence"),
        pytest.param(["a", ["b"]], True, id="nested-list"),
        pytest.param(["a", 1], True, id="int"),
        pytest.param([1.5], True, id="float"),
        pytest.param([None], True, id="null"),
        pytest.param([True], True, id="true"),
        pytest.param(["a", ""], True, id="empty-string"),
        pytest.param([{"t": "a"}], True, id="object"),
        pytest.param("ab", True, id="string-sentence"),
        pytest.param(None, True, id="null-sentence"),
    ],
)
def test_sentence_check_accepts_what_the_per_token_check_accepts(sentence, malformed):
    assert per_token_sentence_check(sentence) is malformed
    record = io.StringIO(json.dumps({"id": "d1", "sentences": [["x"], sentence]}))
    if malformed:
        with pytest.raises(ValueError, match="record 0: sentences must be lists of non-empty strings"):
            ingest_corpus(record)
    else:
        expected = [["x"], sentence] if sentence else [["x"]]  # an empty sentence is dropped
        assert ingest_corpus(record).documents[0].sentences == expected


class TestExport:
    def test_round_trip_is_lossless(self, tmp_path):
        original = Corpus(
            documents=[
                Document(id="d1", sentences=[["a", "b"], ["c"]], paragraphs=[[0], [1]]),
                Document(id="d2", sentences=[["b", "b"]]),
            ],
            role="reference",
        )
        path = tmp_path / "out.jsonl"
        export_corpus(original, path)
        loaded = ingest_corpus(path, role="reference")
        assert loaded.documents == original.documents

    def test_export_of_an_ingested_corpus_is_byte_identical(self, tmp_path):
        lines = [
            {"id": "d1", "sentences": [["über", "b"], ["b", "über", "c"]], "paragraphs": [[0, 1]]},
            {"id": "d2", "sentences": [["c", "b"], ["日本", "b"]]},
        ]
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        export_corpus(Corpus(documents=[Document(**line) for line in lines], role="target"), first)
        export_corpus(ingest_corpus(first), second)
        assert second.read_bytes() == first.read_bytes()

    def test_round_trip_randomized(self, tmp_path):
        rng = random.Random(42)
        vocab = [f"w{i}" for i in range(40)]
        docs = []
        for i in range(25):
            sentences = [
                [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
                for _ in range(rng.randint(1, 6))
            ]
            docs.append(Document(id=f"doc-{i}", sentences=sentences))
        original = Corpus(documents=docs, role="target")
        path = tmp_path / "rand.jsonl"
        export_corpus(original, path)
        assert ingest_corpus(path).documents == original.documents


class TestTermStats:
    def test_hand_counts(self):
        corpus = Corpus(
            documents=[
                Document(id="d1", sentences=[["a", "a", "b"]]),
                Document(id="d2", sentences=[["a"], ["c"]]),
            ],
            role="target",
        )
        stats = term_stats(corpus)
        assert stats.tf == {"a": 3, "b": 1, "c": 1}
        assert stats.df == {"a": 2, "b": 1, "c": 1}
        assert stats.tf_doc["d1"] == {"a": 2, "b": 1}

    def test_totals_agree_with_token_counts(self):
        rng = random.Random(7)
        vocab = [f"w{i}" for i in range(15)]
        docs = [
            Document(
                id=f"d{i}",
                sentences=[
                    [rng.choice(vocab) for _ in range(rng.randint(1, 10))]
                    for _ in range(rng.randint(1, 5))
                ],
            )
            for i in range(30)
        ]
        corpus = Corpus(documents=docs, role="target")
        stats = term_stats(corpus)
        assert sum(stats.tf.values()) == sum(doc.token_count for doc in docs)
        for doc in docs:
            assert sum(stats.tf_doc[doc.id].values()) == doc.token_count
        for term, df in stats.df.items():
            assert df == sum(1 for doc in docs if term in stats.tf_doc[doc.id])

    def test_empty_corpus_rejected(self):
        corpus = Corpus(documents=[Document(id="d", sentences=[])], role="target")
        stats = term_stats(corpus)
        assert stats.tf == {}
        with pytest.raises(ValueError, match="empty corpus"):
            term_stats(Corpus(documents=[], role="target"))
