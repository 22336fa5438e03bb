"""Corpus ingestion and term frequency statistics.

A document is an ordered list of sentences, each sentence an ordered list of
token strings.  Corpora arrive either pre-segmented as JSONL (the canonical
interchange format, which lets external lemmatizers and sentence splitters do
the heavy lifting) or as a directory of plaintext files that are segmented
and tokenized here with a deterministic, language-neutral baseline.
"""

from __future__ import annotations

import io
import json
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

ROLES = ("reference", "generic", "target")
FORMATS = ("jsonl", "plaintext-dir")

# Unicode letters and digits; punctuation and underscore split tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Sentence ends at . ! ? followed by whitespace or end of text.
_SENTENCE_RE = re.compile(r"[.!?](?:\s+|$)")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation, keeping digits."""
    return _TOKEN_RE.findall(text.lower())


def split_sentences(text: str) -> list[str]:
    return [s for s in _SENTENCE_RE.split(text) if s.strip()]


@dataclass
class Document:
    """One document: an id plus ordered, tokenized sentences.

    ``paragraphs`` optionally groups sentence indices into paragraph units;
    topic modeling treats each group as a separate modeling document when
    present.
    """

    id: str
    sentences: list[list[str]]
    paragraphs: list[list[int]] | None = None

    def tokens(self) -> list[str]:
        return [t for sentence in self.sentences for t in sentence]

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)


@dataclass
class Corpus:
    """A collection of documents with a role tag and derived vocabulary."""

    documents: list[Document]
    role: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown corpus role {self.role!r}, expected one of {ROLES}")
        seen: set[str] = set()
        for doc in self.documents:
            if doc.id in seen:
                raise ValueError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)

    @cached_property
    def vocabulary(self) -> frozenset[str]:
        """Every distinct token of the corpus, built on first use."""
        return frozenset().union(*(sentence for doc in self.documents for sentence in doc.sentences))

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)


class TermStats:
    """Frequency statistics over a corpus.

    Exposes corpus-wide term frequency tf(w), per-document tf(w,d), whose
    keys are the unique-term set U_d of each document, and document
    frequency df(w).
    """

    def __init__(self, tf: Counter, df: Counter, tf_doc: dict[str, Counter]):
        self.tf = tf
        self.df = df
        self.tf_doc = tf_doc


def term_stats(corpus: Corpus) -> TermStats:
    """Count tf(w), tf(w,d) and df(w) for every term of the corpus."""
    if not corpus.documents:
        raise ValueError("cannot compute term statistics of an empty corpus")
    tf: Counter = Counter()
    df: Counter = Counter()
    tf_doc: dict[str, Counter] = {}
    for doc in corpus.documents:
        counts = Counter(doc.tokens())
        tf_doc[doc.id] = counts
        tf.update(counts)
        df.update(counts.keys())
    return TermStats(tf, df, tf_doc)


def _parse_jsonl_record(line: str, index: int) -> Document:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSONL record {index}: {exc}") from None
    if not isinstance(record, dict) or "id" not in record or "sentences" not in record:
        raise ValueError(f"malformed JSONL record {index}: expected object with 'id' and 'sentences'")
    doc_id = record["id"]
    sentences = record["sentences"]
    if not isinstance(doc_id, str) or not isinstance(sentences, list):
        raise ValueError(f"malformed JSONL record {index}: 'id' must be a string and 'sentences' a list")
    cleaned: list[list[str]] = []
    # position of each kept sentence among the kept ones, by its index in the record
    kept_at: dict[int, int] = {}
    for position, sentence in enumerate(sentences):
        if type(sentence) is not list or not {str}.issuperset(map(type, sentence)) or "" in sentence:
            raise ValueError(f"malformed JSONL record {index}: sentences must be lists of non-empty strings")
        if sentence:
            kept_at[position] = len(cleaned)
            cleaned.append(list(sentence))
    paragraphs = record.get("paragraphs")
    if paragraphs is not None:
        if not isinstance(paragraphs, list) or any(
            # type(), not isinstance(): JSON true and false are Python bools, a subclass of int
            not isinstance(p, list) or any(type(i) is not int for i in p) for p in paragraphs
        ):
            raise ValueError(f"malformed JSONL record {index}: 'paragraphs' must be lists of sentence indices")
        for group in paragraphs:
            for i in group:
                if not 0 <= i < len(sentences):
                    raise ValueError(
                        f"malformed JSONL record {index}: paragraph sentence index {i} is out of range "
                        f"for {len(sentences)} sentences"
                    )
        # empty sentences were dropped above, so renumber onto the kept ones
        paragraphs = [[kept_at[i] for i in p if i in kept_at] for p in paragraphs]
    return Document(id=doc_id, sentences=cleaned, paragraphs=paragraphs)


def _ingest_jsonl(stream: io.TextIOBase, role: str) -> Corpus:
    documents = []
    for index, line in enumerate(stream):
        if not line.strip():
            continue
        documents.append(_parse_jsonl_record(line, index))
    if not documents:
        raise ValueError("zero documents after parsing")
    return Corpus(documents=documents, role=role)


def _ingest_plaintext_dir(directory: Path, role: str) -> Corpus:
    documents = []
    for path in sorted(directory.glob("*.txt")):
        with open_text(path) as stream:
            text = stream.read()
        sentences = [tokens for raw in split_sentences(text) if (tokens := tokenize(raw))]
        documents.append(Document(id=path.stem, sentences=sentences))
    if not documents:
        raise ValueError(f"zero documents found under {directory}")
    return Corpus(documents=documents, role=role)


@contextmanager
def open_text(path):
    """Open ``path`` for reading as UTF-8 text.

    A byte sequence that is not UTF-8 is reported as ``path:line: not
    UTF-8 text`` at the first line that does not decode.  UTF-8 never holds
    a newline or carriage-return byte inside a multi-byte sequence, so that
    line is found by decoding the file line by line.
    """
    with open(path, "r", encoding="utf-8") as stream:
        try:
            yield stream
        except UnicodeDecodeError:
            for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
            raise


def ingest_corpus(source, format: str = "jsonl", role: str = "target") -> Corpus:
    """Read a corpus from ``source``.

    ``source`` is a file path (either format) or an open text stream (JSONL
    only).  ``format`` is ``jsonl`` or ``plaintext-dir``.  Empty sentences are
    dropped; a corpus with zero documents is an error.
    """
    if format == "jsonl":
        if hasattr(source, "read"):
            return _ingest_jsonl(source, role)
        with open_text(source) as stream:
            return _ingest_jsonl(stream, role)
    if format == "plaintext-dir":
        directory = Path(source)
        if not directory.is_dir():
            raise ValueError(f"not a directory: {directory}")
        return _ingest_plaintext_dir(directory, role)
    raise ValueError(f"unknown corpus format {format!r}")


def export_corpus(corpus: Corpus, path) -> None:
    """Write a corpus as canonical JSONL; round-trips through ingest_corpus."""
    with open(path, "w", encoding="utf-8") as out:
        for doc in corpus.documents:
            record: dict = {"id": doc.id, "sentences": doc.sentences}
            if doc.paragraphs is not None:
                record["paragraphs"] = doc.paragraphs
            out.write(json.dumps(record, ensure_ascii=False) + "\n")
