"""Tests for corpus ingestion, tokenization, and term statistics."""

from __future__ import annotations

import io
import json
import math
import os
import random
import re
import signal
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dictsieve import (
    Corpus,
    Dictionary,
    DictionaryEntry,
    Document,
    EvalReport,
    PseudorelSet,
    RankedEntry,
    RankedList,
    boost,
    export_corpus,
    fit_lda,
    ingest_corpus,
    save_cooc,
    save_dictionary,
    save_model,
    save_ranked_list,
    split_sentences,
    term_stats,
    tokenize,
)
from dictsieve.cli import PipelineConfig, write_manifest
from dictsieve.cooc import CoocMatrix
from dictsieve.corpus import FloatText, TextFloat, open_text, publish, read_rows, write_rows
from dictsieve.evaluation import write_eval_report, write_nd_series, write_pseudorels, write_wins_series
from test_topics import EDGE_VALUES


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
        message = "document 1: duplicate document id 'x' (first at document 0)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Corpus(documents=docs, role="target")

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="unknown corpus role"):
            Corpus(documents=[Document(id="x", sentences=[["a"]])], role="training")

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_paragraph_index_names_the_document(self, bad):
        docs = [Document("ok", [["a"]]), Document("d1", [["a"], [], ["b"]], paragraphs=[[0], [bad]])]
        message = f"document 1: paragraph sentence index {bad} is out of range for 3 sentences"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Corpus(documents=docs, role="reference")

    @pytest.mark.parametrize(
        "sentences, paragraphs, repeated",
        [
            ([["a", "b"], ["c"]], [[0, 0], [0]], 0),
            ([["a"], ["b"], ["c"]], [[0, 1], [1]], 1),
            ([["a"], [], ["b"]], [[2], [0, 2]], 2),
        ],
    )
    def test_repeated_paragraph_index_names_the_document(self, sentences, paragraphs, repeated):
        docs = [Document("ok", [["a"]]), Document("d1", sentences, paragraphs=paragraphs)]
        message = f"document 1: paragraph sentence index {repeated} appears more than once"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Corpus(documents=docs, role="reference")

    @pytest.mark.parametrize("paragraphs", [[[True]], [[0.0]], [(0,)], ([0],), [[0], "1"]])
    def test_paragraph_groups_that_ingest_rejects_are_rejected_when_built(self, paragraphs):
        """Export would write ``true`` and ``0.0`` for the first two, which
        ingest rejects; groups must be lists, as in a JSONL record."""
        docs = [Document("ok", [["a"]]), Document("d1", [["a"], ["b"]], paragraphs=paragraphs)]
        message = "document 1: 'paragraphs' must be lists of sentence indices"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Corpus(documents=docs, role="reference")

    def test_hand_built_documents_drop_their_empty_sentences_as_ingest_does(self):
        docs = [Document("d1", [[], ["a"], []], paragraphs=[[1, 2], [0]]), Document("d2", [])]
        corpus = Corpus(documents=docs, role="reference")
        assert corpus.documents == [Document("d1", [["a"]], paragraphs=[[0], []]), Document("d2", [])]
        assert corpus.coding.sentence_starts.tolist() == [0, 1]
        assert corpus.coding.document_starts.tolist() == [0, 1, 1]
        records = "".join(
            json.dumps({"id": doc.id, "sentences": doc.sentences, "paragraphs": doc.paragraphs}) + "\n" for doc in docs
        )
        assert ingest_corpus(io.StringIO(records), role="reference").documents == corpus.documents

    @pytest.mark.parametrize(
        "doc_id, sentences, message",
        [
            ("d1", [["a\tb", ""]], "document 1: token 'a\\tb' contains a tab, CR or LF"),
            ("d1", [["a"], ["b\rc"]], "document 1: token 'b\\rc' contains a tab, CR or LF"),
            ("d1", [["b\ud800"]], "document 1: token 'b\\ud800' contains a lone surrogate, which UTF-8 cannot encode"),
            ("d1", [["a", ""]], "document 1: sentences must be lists of non-empty strings"),
            ("d1", [["a", 3]], "document 1: sentences must be lists of non-empty strings"),
            ("d1", [[["a"]]], "document 1: sentences must be lists of non-empty strings"),
            ("d1", ["ab", ("c",)], "document 1: sentences must be lists of non-empty strings"),
            ("d1", "abc", "document 1: sentences must be lists of non-empty strings"),
            (5, [["a"]], "document 1: document id 5 is not a string"),
            ("a\tb", [["a"]], "document 1: document id 'a\\tb' contains a tab, CR or LF"),
            ("#x", [["a"]], "document 1: document id '#x' starts with '#'"),
            (" y", [["a"]], "document 1: document id ' y' has leading or trailing whitespace"),
            ("", [["a"]], "document 1: document id '' is empty"),
        ],
    )
    def test_what_ingest_rejects_is_rejected_when_built(self, doc_id, sentences, message):
        docs = [Document("ok", [["a", "b"]]), Document(doc_id, sentences)]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Corpus(documents=docs, role="target")

    def test_a_hand_built_corpus_ingests_back_to_the_same_coding(self, tmp_path):
        docs = [
            Document("d1", [["über", "b"], ["b", "über", "c"]], paragraphs=[[1], [0]]),
            Document("d2", [["c"], ["日本", "a", "a"]]),
            Document("d3", []),
        ]
        corpus = Corpus(documents=docs, role="generic")
        export_corpus(corpus, tmp_path / "c.jsonl")
        built, read = corpus.coding, ingest_corpus(tmp_path / "c.jsonl", role="generic").coding
        assert (read.vocab, read.ids, read.paragraphs) == (built.vocab, built.ids, built.paragraphs)
        for name in ("codes", "sentence_starts", "document_starts"):
            assert getattr(read, name).tolist() == getattr(built, name).tolist()


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
        with pytest.raises(ValueError, match=f"<stream>:2: paragraph sentence index {bad} is out of range"):
            ingest_corpus(io.StringIO(payload))

    @pytest.mark.parametrize(
        "sentences, paragraphs, repeated",
        [
            ([["a", "b"], ["c"]], [[0, 0], [0]], 0),
            ([["a"], ["b"], ["c"]], [[0, 1], [1]], 1),
            ([["a"], [], ["b"]], [[2], [0, 2]], 2),
        ],
    )
    def test_repeated_paragraph_index_reports_the_record(self, sentences, paragraphs, repeated):
        payload = json.dumps({"id": "ok", "sentences": [["a"]]}) + "\n" + json.dumps(
            {"id": "d1", "sentences": sentences, "paragraphs": paragraphs}
        )
        with pytest.raises(ValueError, match=f"<stream>:2: paragraph sentence index {repeated} appears more than once"):
            ingest_corpus(io.StringIO(payload))

    def test_a_bad_line_comes_before_a_later_undecodable_one(self, tmp_path):
        """Lines are decoded one at a time, so a bad record on line 3 is
        reported although line 5 holds a byte that is not UTF-8."""
        lines = [json.dumps({"id": f"d{i}", "sentences": [["a"]]}).encode() for i in range(5)]
        lines[2] = json.dumps({"id": "d2", "sentences": "bad"}).encode()
        lines[4] = lines[4].replace(b'"a"', b'"\xff"')
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: sentences must be lists of non-empty strings$"):
            ingest_corpus(path)
        lines[2] = lines[1].replace(b"d1", b"d2")
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: not UTF-8 text$"):
            ingest_corpus(path)

    def test_boolean_paragraph_indices_rejected(self):
        record = json.dumps({"id": "d1", "sentences": [["a"], ["b"]], "paragraphs": [[True], [False]]})
        with pytest.raises(ValueError, match="<stream>:1: 'paragraphs' must be lists of sentence indices"):
            ingest_corpus(io.StringIO(record))

    def test_zero_documents_is_an_error(self):
        with pytest.raises(ValueError, match="zero documents"):
            ingest_corpus(io.StringIO(""))

    def test_zero_documents_names_the_file(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n \n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: zero documents$"):
            ingest_corpus(path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path))}: zero documents$"):
            ingest_corpus(tmp_path, format="plaintext-dir")

    def test_paragraph_groups_are_checked_before_tokens(self):
        record = json.dumps({"id": "d1", "sentences": [["a\tb"]], "paragraphs": [[1]]})
        message = "<stream>:1: paragraph sentence index 1 is out of range for 1 sentences"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ingest_corpus(io.StringIO(record))

    def test_malformed_record_reports_index(self):
        payload = json.dumps({"id": "ok", "sentences": [["a"]]}) + "\nnot json\n"
        with pytest.raises(ValueError, match="<stream>:2: invalid JSON"):
            ingest_corpus(io.StringIO(payload))

    def test_errors_name_the_file_and_its_one_based_line(self, tmp_path):
        path = tmp_path / "reference.jsonl"
        path.write_text(json.dumps({"id": "a", "sentences": [["x"]]}) + "\n\n" + json.dumps({"id": "b"}) + "\n")
        message = f"{path}:3: expected object with 'id' and 'sentences'"
        with pytest.raises(ValueError, match=re.escape(message)):
            ingest_corpus(path)
        with open(path, encoding="utf-8") as stream, pytest.raises(ValueError, match=re.escape(message)):
            ingest_corpus(stream)

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
            (" d1", "has leading or trailing whitespace"),
            ("d1\u00a0", "has leading or trailing whitespace"),
            ("", "is empty"),
        ],
    )
    def test_doc_ids_that_artifact_lines_cannot_hold_are_rejected(self, tmp_path, doc_id, problem):
        payload = "".join(json.dumps({"id": i, "sentences": [["a"]]}) + "\n" for i in ("ok", doc_id))
        with pytest.raises(ValueError, match=re.escape(f"<stream>:2: document id {doc_id!r} {problem}")):
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
        message = f"<stream>:2: token {token!r} contains a tab, CR or LF"
        with pytest.raises(ValueError, match=re.escape(message)):
            ingest_corpus(io.StringIO(payload))

    @pytest.mark.parametrize("field", ["token", "id"])
    def test_lone_surrogates_are_rejected_where_they_are_read(self, tmp_path, field):
        bad = "b\ud800"
        records = [{"id": "d0", "sentences": [["a"]]}, {"id": "d1", "sentences": [["a", "b"]]}]
        if field == "token":
            records[1]["sentences"][0][1] = bad
            message = f":2: token {bad!r} contains a lone surrogate, which UTF-8 cannot encode"
        else:
            records[1]["id"] = bad
            message = f":2: document id {bad!r} contains a lone surrogate, which UTF-8 cannot encode"
        # json.dumps escapes the surrogate as \ud800, so the file is plain ASCII
        payload = "".join(json.dumps(record) + "\n" for record in records)
        path = tmp_path / "corpus.jsonl"
        path.write_text(payload, encoding="ascii")
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            ingest_corpus(path)
        with pytest.raises(ValueError, match=re.escape(f"<stream>{message}")):
            ingest_corpus(io.StringIO(payload))

    def test_a_file_name_that_is_not_utf_8_is_rejected_as_a_doc_id(self, tmp_path):
        # the file system hands the 0xff byte back as the surrogate \udcff
        path = tmp_path / "d\udcff.txt"
        path.write_text("A b.")
        with pytest.raises(ValueError, match=re.escape(f"{path}: document id 'd\\udcff' contains a lone surrogate")):
            ingest_corpus(tmp_path, format="plaintext-dir")

    def test_duplicate_document_id_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            "".join(json.dumps({"id": i, "sentences": [["a"]]}) + "\n" for i in ("d1", "d2", "d3")) + "\n"
            + json.dumps({"id": "d2", "sentences": [["b"]]}) + "\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}:5: duplicate document id 'd2' (first at {path}:2)")):
            ingest_corpus(path)
        payload = "".join(json.dumps({"id": "d1", "sentences": [[t]]}) + "\n" for t in ("a", "b"))
        with pytest.raises(ValueError, match=re.escape("<stream>:2: duplicate document id 'd1' (first at <stream>:1)")):
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

    def test_plaintext_drops_a_sentence_without_tokens(self, tmp_path):
        (tmp_path / "a.txt").write_text("First one. --- ... Last one!")
        corpus = ingest_corpus(tmp_path, format="plaintext-dir")
        assert corpus.documents[0].sentences == [["first", "one"], ["last", "one"]]
        assert corpus.coding.sentence_starts.tolist() == [0, 2, 4]

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
    """The check the JSONL reader ran on each sentence before it
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
        with pytest.raises(ValueError, match="<stream>:1: sentences must be lists of non-empty strings"):
            ingest_corpus(record)
    else:
        expected = [["x"], sentence] if sentence else [["x"]]  # an empty sentence is dropped
        assert ingest_corpus(record).documents[0].sentences == expected


@pytest.mark.parametrize(
    "sentences",
    [
        pytest.param([["a", ["b"]]], id="list"),
        pytest.param([["a", {"t": "b"}]], id="object"),
        pytest.param([["a", True]], id="true"),
        pytest.param([["a", False]], id="false"),
        pytest.param([["a", None]], id="null"),
        pytest.param([["a", 1]], id="int"),
        pytest.param([["a", float("nan")]], id="nan"),
        pytest.param([["a", ""]], id="empty-string"),
        pytest.param([["a"], "b"], id="string-sentence-after-a-valid-one"),
        pytest.param([["a"], 1], id="int-sentence-after-a-valid-one"),
        pytest.param([["a"], {"s": ["b"]}], id="object-sentence-after-a-valid-one"),
    ],
)
def test_malformed_tokens_are_rejected_after_equal_strings_were_kept(sentences):
    """Each distinct token is checked once, so a token the memo does not hold
    as a string must fail even when its text was kept before."""
    kept = json.dumps({"id": "d0", "sentences": [["a", "b", "1", "true", "false", "null", "nan", "NaN"]]})
    payload = kept + "\n" + json.dumps({"id": "d1", "sentences": sentences}) + "\n"
    with pytest.raises(ValueError, match="^<stream>:2: sentences must be lists of non-empty strings$"):
        ingest_corpus(io.StringIO(payload))


class TestFloatText:
    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_each_zero_keeps_its_own_text(self, first, second):
        text = FloatText()
        assert [text[first], text[second], text[first]] == [repr(first), repr(second), repr(first)]
        assert not text

    def test_equal_values_are_formatted_once(self):
        text = FloatText()
        assert [text[v] for v in (0.1 + 0.2, 1 / 3, 0.1 + 0.2, 5e-324)] == [
            "0.30000000000000004",
            "0.3333333333333333",
            "0.30000000000000004",
            "5e-324",
        ]
        assert list(text) == [0.1 + 0.2, 1 / 3, 5e-324]


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


def frozen_term_stats(corpus: Corpus) -> tuple[Counter, Counter, dict[str, Counter]]:
    """Reference: tf(w), df(w) and tf(w,d) from one Counter per document,
    updated document by document."""
    tf: Counter = Counter()
    df: Counter = Counter()
    tf_doc: dict[str, Counter] = {}
    for doc in corpus.documents:
        counts = Counter(doc.tokens())
        tf_doc[doc.id] = counts
        tf.update(counts)
        df.update(counts.keys())
    return tf, df, tf_doc


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

    def test_a_document_without_tokens_has_no_terms(self):
        corpus = Corpus(documents=[Document(id="d", sentences=[[]])], role="target")
        stats = term_stats(corpus)
        assert stats.tf == stats.df == stats.tf_doc["d"] == {}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counts_equal_the_frozen_counter_loop_in_order(self, seed):
        """tf and df hold the loop's terms in its order, first occurrence
        first, so a message that names the first term of ``tf`` the model
        lacks names the same one; tf_doc and the per-document counts agree
        with the loop's Counters."""
        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(40)]
        docs = [
            Document(
                id=f"d{i}",
                sentences=[rng.choices(vocab, k=rng.randint(0, 9)) for _ in range(rng.randint(0, 4))],
            )
            for i in range(50)
        ]
        corpus = Corpus(documents=docs, role="target")
        tf, df, tf_doc = frozen_term_stats(corpus)
        stats = term_stats(corpus)
        assert list(stats.tf.items()) == list(tf.items())
        assert list(stats.df.items()) == list(df.items())
        assert type(stats.tf) is type(stats.df) is Counter
        assert stats.doc_ids == tuple(tf_doc)
        assert stats.doc_tokens.tolist() == [sum(counts.values()) for counts in tf_doc.values()]
        assert stats.doc_unique.tolist() == list(map(len, tf_doc.values()))
        assert [list(counts.items()) for counts in stats.tf_doc.values()] == [
            list(counts.items()) for counts in tf_doc.values()
        ]
        assert stats.tf_doc is stats.tf_doc


class TestTextFloat:
    def test_each_distinct_text_is_converted_once(self):
        number = TextFloat()
        assert [number[t] for t in ("0.5", "-0.0", "0.5", "0.0", "1e-320")] == [0.5, -0.0, 0.5, 0.0, 1e-320]
        assert list(number) == ["0.5", "-0.0", "0.0", "1e-320"]
        assert math.copysign(1.0, number["-0.0"]) == -1.0

    def test_a_text_that_is_not_a_number_raises_value_error(self):
        number = TextFloat()
        with pytest.raises(ValueError):
            number["many"]
        assert not number


# lines that the row test inserts, with the fields ``read_rows`` must yield
# for each (None for a blank line, which it skips)
INSERTED_LINES = {
    "\n": None,
    " \n": None,
    "\t\n": None,
    "\r\n": None,
    "a\tb\n": ["a", "b"],
    "\ta\t\n": ["", "a", ""],
    "é\t€\n": ["é", "€"],
}


class TestReadRows:
    """``read_rows`` yields the line numbers and fields of the lines the test
    writes, and fails at the first line without the expected field count."""

    @staticmethod
    def outcome(path, width):
        rows = []
        with open_text(path) as stream:
            stream.readline()
            try:
                rows.extend(read_rows(stream, path, width, 2))
            except ValueError as exc:
                return rows, str(exc)
        return rows, None

    @pytest.mark.parametrize("seed", range(6))
    def test_rows_and_the_first_bad_line(self, tmp_path, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 4)
        # (text, fields) of every line after the header, in file order
        lines = []
        for i in range(rng.choice((0, 3, 15000))):
            fields = [f"f{i}.{j}" for j in range(width)]
            lines.append(("\t".join(fields) + "\n", fields))
        # one valid 70,000-character line, then blank, CRLF, non-ASCII and bad lines
        fields = ["x" * 70000] + ["y"] * (width - 1)
        lines.insert(rng.randrange(len(lines) + 1), ("\t".join(fields) + "\n", fields))
        for _ in range(rng.randint(0, 8)):
            text = rng.choice(list(INSERTED_LINES))
            lines.insert(rng.randrange(len(lines) + 1), (text, INSERTED_LINES[text]))
        if lines and rng.random() < 0.5:
            # a blank last line without its LF is no line, or a lone CR's blank one
            lines[-1] = (lines[-1][0].rstrip("\n"), lines[-1][1])
        path = tmp_path / "rows.tsv"
        path.write_bytes(("header\n" + "".join(text for text, _ in lines)).encode())

        expected_rows, expected_error = [], None
        for lineno, (_, fields) in enumerate(lines, start=2):
            if fields is None:
                continue
            if len(fields) != width:
                expected_error = f"{path}:{lineno}: expected {width} tab-separated fields, got {len(fields)}"
                break
            expected_rows.append((lineno, fields))
        assert self.outcome(path, width) == (expected_rows, expected_error)

    @pytest.mark.parametrize(
        "line_3, line_5, message",
        [
            (b"a\tb", b"\xff\tb\tc", "3: expected 3 tab-separated fields, got 2"),
            (b"\xff\tb\tc", b"a\tb", "3: not UTF-8 text"),
            (b"a\t\xff", b"a\tb", "3: not UTF-8 text"),
            (b"a\tb\tc", b"\xff\tb\tc", "5: not UTF-8 text"),
        ],
    )
    def test_bad_lines_in_file_order_around_an_undecodable_one(self, tmp_path, line_3, line_5, message):
        """A byte that is not UTF-8 is reported at its own line, after the
        lines before it are yielded, and after an earlier bad line."""
        path = tmp_path / "rows.tsv"
        path.write_bytes(b"header\n" + b"\n".join([b"a\tb\tc", line_3, b"a\tb\tc", line_5]) + b"\n")
        rows = []
        with open_text(path) as stream:
            stream.readline()
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{message}$"):
                for lineno, _ in read_rows(stream, path, 3, 2):
                    rows.append(lineno)
        assert rows == list(range(2, int(message.split(":")[0])))


def f_string_rows(path, rows, header: str) -> None:
    """The artifact writers before ``write_rows``: an f-string per line, an
    int or a str field formatted as ``{field}`` and a float as ``{field!r}``,
    written through a UTF-8 text stream."""
    with open(path, "w", encoding="utf-8") as out:
        out.write(header)
        for row in rows:
            out.write("\t".join(f"{field!r}" if isinstance(field, float) else f"{field}" for field in row) + "\n")


# a field's text as the records keep it: no tab, CR, LF or lone surrogate
FIELD_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\r\n"))


def dictionary_changed_after_it_was_built() -> Dictionary:
    dictionary = Dictionary([DictionaryEntry("a", 1.0, 1, boost(1))], "tfidf")
    dictionary.entries.append(DictionaryEntry("b\ud800", 0.5, 2, boost(2)))
    return dictionary


def model_changed_after_it_was_built():
    model = fit_lda(Corpus([Document("d1", [["a", "b"]])], "reference"), 1, iterations=2)
    model.vocab = ("a", "b\ud800")
    return model


RANKED = RankedList("s", [RankedEntry("d1", 2.0, 1), RankedEntry("a\ud800", 1.0, 2)])
PSEUDORELS = PseudorelSet(frozenset({"a\ud800"}), (("a\ud800", 1),), frozenset({"a\ud800"}))


class TestWriteRows:
    @settings(deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.sampled_from(EDGE_VALUES) | st.floats() | st.integers() | FIELD_TEXT, max_size=5), max_size=8
        ),
        header=st.sampled_from(["", "#dictsieve-dictionary\tmethod=tfidf\tn=3\n", "# system_id=tm:context:alpha=2\n"]),
    )
    def test_the_bytes_of_the_f_string_writers(self, tmp_path_factory, rows, header):
        directory = tmp_path_factory.mktemp("rows")
        write_rows(directory / "rows.tsv", rows, header)
        f_string_rows(directory / "f_string.tsv", rows, header)
        assert (directory / "rows.tsv").read_bytes() == (directory / "f_string.tsv").read_bytes()

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: write_rows(path, [("a", 1), ("b\ud800", 2)], "header\n"),
            lambda path: save_ranked_list(RANKED, path),
            lambda path: save_dictionary(dictionary_changed_after_it_was_built(), path),
            lambda path: save_model(model_changed_after_it_was_built(), path),
            lambda path: write_eval_report(EvalReport({"s\ud800": 0.5}, PSEUDORELS, []), path),
            lambda path: write_pseudorels(PSEUDORELS, path),
            lambda path: write_nd_series([("d1", 2.0), ("a\ud800", 1.0)], path),
            lambda path: write_wins_series([("d1", 2), ("a\ud800", 1)], path),
        ],
        ids=["write_rows", "ranked-list", "dictionary", "model", "eval-report", "pseudorels", "nd-series", "wins-series"],
    )
    def test_a_field_utf8_cannot_encode_leaves_the_file_as_it_was(self, tmp_path, write):
        path = tmp_path / "artifact.tsv"
        with pytest.raises(UnicodeEncodeError):
            write(path)
        assert not path.exists()
        path.write_bytes(b"an earlier artifact\n")
        with pytest.raises(UnicodeEncodeError):
            write(path)
        assert path.read_bytes() == b"an earlier artifact\n"


# A child process that runs one writer over ``path`` (its argument) with
# ``corpus.open`` patched: the second write to a temporary file, or the close
# of one that got a single write, flushes it and kills the process.
KILLING_CHILD = """
import os, signal, sys
from dictsieve import corpus

class Killing:
    def __init__(self, stream):
        self.stream, self.writes = stream, 0
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        self.kill()
    def write(self, data):
        self.writes += 1
        if self.writes == 2:
            self.kill()
        return self.stream.write(data)
    def kill(self):
        self.stream.flush()
        os.kill(os.getpid(), signal.SIGKILL)

def killing_open(file, mode="r", *args, **kwargs):
    stream = open(file, mode, *args, **kwargs)
    return Killing(stream) if str(file).endswith(".tmp") else stream

corpus.open = killing_open
path = sys.argv[1]
print(os.getpid(), flush=True)
"""

# name -> (file name, the earlier write, the killed write as child code)
KILLED_WRITES = {
    "export_corpus": (
        "corpus.jsonl",
        lambda path: export_corpus(Corpus([Document("d1", [["a"]]), Document("d2", [["b"]])], "target"), path),
        "from dictsieve import Corpus, Document, export_corpus\n"
        "export_corpus(Corpus([Document(f'd{i}', [['a', 'b']]) for i in range(3)], 'target'), path)",
    ),
    "save_cooc": (
        "cooc.tsv",
        lambda path: save_cooc(CoocMatrix.from_pairs(("a", "b"), {("a", "b"): 0.5}, "filtered"), path),
        # 140 terms, every pair: more pair lines than one ``_PAIRS_PER_WRITE`` chunk
        "import numpy as np\n"
        "from dictsieve.cooc import _PAIRS_PER_WRITE, CoocMatrix, save_cooc\n"
        "a, b = np.triu_indices(140, 1)\n"
        "assert len(a) > _PAIRS_PER_WRITE\n"
        "terms = tuple(f't{i:03d}' for i in range(140))\n"
        "save_cooc(CoocMatrix(terms, a * 140 + b, np.full(len(a), 0.5), 'filtered'), path)",
    ),
    "save_ranked_list": (
        "s.tsv",
        lambda path: save_ranked_list(RankedList("s", [RankedEntry("d1", 2.0, 1)]), path),
        "from dictsieve import RankedEntry, RankedList, save_ranked_list\n"
        "save_ranked_list(RankedList('t', [RankedEntry(f'd{i}', 1.0, i) for i in range(1, 351)]), path)",
    ),
    "write_manifest": (
        "manifest.json",
        lambda path: write_manifest(PipelineConfig(n_topics=2), path),
        "from dictsieve.cli import PipelineConfig, write_manifest\n"
        "write_manifest(PipelineConfig(n_topics=3), path)",
    ),
}


class TestPublish:
    @pytest.mark.parametrize("writer", sorted(KILLED_WRITES))
    def test_a_killed_write_keeps_the_earlier_artifact(self, tmp_path, writer):
        """A writer killed partway (SIGKILL, which no ``except`` sees)
        leaves the earlier file and its sidecar byte for byte, beside at
        most the child's temporary file."""
        name, write_earlier, code = KILLED_WRITES[writer]
        path = tmp_path / name
        write_earlier(path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run(
            [sys.executable, "-c", KILLING_CHILD + code, str(path)], env=env, capture_output=True, text=True
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert set(after) - set(before) <= {f"{name}.{child.stdout.strip()}.tmp"}
        assert {key: after[key] for key in before} == before

    def test_a_chunk_that_raises_keeps_the_earlier_file(self, tmp_path):
        def chunks():
            yield b"new "
            raise OSError("no more")

        path = tmp_path / "artifact.tsv"
        path.write_bytes(b"an earlier artifact\n")
        with pytest.raises(OSError, match="no more"):
            publish(path, chunks())
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.tsv"]
        assert path.read_bytes() == b"an earlier artifact\n"
        publish(path, [b"new ", bytearray(b"file\n")])
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.tsv"]
        assert path.read_bytes() == b"new file\n"

    @staticmethod
    def _linked(tmp_path) -> tuple[Path, Path]:
        """A 0640 file holding ``old`` and a symlink to it in another
        directory."""
        (tmp_path / "real").mkdir()
        (tmp_path / "out").mkdir()
        target = tmp_path / "real" / "artifact.tsv"
        target.write_bytes(b"old\n")
        target.chmod(0o640)
        link = tmp_path / "out" / "artifact.tsv"
        link.symlink_to(target)
        return link, target

    def test_a_symlinked_path_is_written_through(self, tmp_path):
        link, target = self._linked(tmp_path)
        write_rows(link, [("a", 1)])
        assert link.is_symlink() and link.resolve() == target
        assert target.read_bytes() == b"a\t1\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["artifact.tsv", "artifact.tsv", "out", "real"]

    def test_an_overwritten_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "artifact.tsv"
        path.write_bytes(b"old\n")
        path.chmod(0o640)
        publish(path, [b"new\n"])
        assert path.read_bytes() == b"new\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_a_new_file_gets_the_umask_default(self, tmp_path):
        umask = os.umask(0o027)
        try:
            publish(tmp_path / "artifact.tsv", [b"new\n"])
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "artifact.tsv").stat().st_mode) == 0o640

    def test_a_chunk_that_raises_through_a_symlink_keeps_the_earlier_file(self, tmp_path):
        def chunks():
            yield b"new "
            raise OSError("no more")

        link, target = self._linked(tmp_path)
        with pytest.raises(OSError, match="no more"):
            publish(link, chunks())
        assert link.is_symlink() and target.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["artifact.tsv", "artifact.tsv", "out", "real"]
