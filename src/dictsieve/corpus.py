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
from itertools import compress
from pathlib import Path

import numpy as np

ROLES = ("reference", "generic", "target")
FORMATS = ("jsonl", "plaintext-dir")

# Unicode letters and digits; punctuation and underscore split tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Sentence ends at . ! ? followed by whitespace or end of text.
_SENTENCE_RE = re.compile(r"[.!?](?:\s+|$)")

# Doc ids and tokens are fields of the line-based artifacts, where a tab,
# CR or LF would split the field or the line.
_FIELD_BREAK_RE = re.compile(r"[\t\r\n]")

# JSON can escape a lone surrogate ("\ud800"), which UTF-8 cannot encode, so
# every artifact write would fail on it.
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")

_MALFORMED_SENTENCES = "sentences must be lists of non-empty strings"

# ``read_blocks`` reads about this many characters of whole lines at a time:
# enough lines that its per-block array work is cheap per line, few enough
# that a reader's memory does not grow with the file.
_BLOCK_CHARS = 1 << 16

# every byte but TAB and LF, which ``bytes.translate`` deletes to leave the
# field and line separators of a block
_NOT_TAB_OR_LF = bytes(sorted(set(range(256)) - {9, 10}))


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


class _SharedTokens(dict):
    """token -> the one ``str`` kept for it.

    A token is checked the first time it is looked up, so each distinct
    token is checked once: it must be a non-empty ``str`` without a tab, CR,
    LF or lone surrogate.  An unhashable token (a JSON list or object) fails
    in the lookup itself; ``_parse_jsonl_record`` reports that as the same
    malformed sentence.
    """

    def __missing__(self, token: str) -> str:
        if type(token) is not str or not token:
            raise ValueError(_MALFORMED_SENTENCES)
        if _FIELD_BREAK_RE.search(token):
            raise ValueError(f"token {token!r} contains a tab, CR or LF")
        if _SURROGATE_RE.search(token):
            raise ValueError(f"token {token!r} contains a lone surrogate, which UTF-8 cannot encode")
        self[token] = token
        return token


def _check_doc_id(doc_id: str, where: str) -> None:
    """``pseudorels.txt`` holds one doc id per line, and its reader strips
    each line and skips blank lines and lines starting with '#'."""
    if _FIELD_BREAK_RE.search(doc_id):
        raise ValueError(f"{where}: document id {doc_id!r} contains a tab, CR or LF")
    if _SURROGATE_RE.search(doc_id):
        raise ValueError(f"{where}: document id {doc_id!r} contains a lone surrogate, which UTF-8 cannot encode")
    if doc_id.startswith("#"):
        raise ValueError(f"{where}: document id {doc_id!r} starts with '#'")
    if not doc_id or doc_id != doc_id.strip():
        raise ValueError(f"{where}: document id {doc_id!r} is empty or has leading or trailing whitespace")


def _parse_jsonl_record(line: str, where: str, memo: _SharedTokens) -> Document:
    """One JSONL line as a document; ``where`` is its ``file:line``."""
    try:
        record = json.loads(line)
    # RecursionError: arrays or objects nested deeper than the recursion limit
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{where}: invalid JSON: {exc}") from None
    if not isinstance(record, dict) or "id" not in record or "sentences" not in record:
        raise ValueError(f"{where}: expected object with 'id' and 'sentences'")
    doc_id = record["id"]
    sentences = record["sentences"]
    if not isinstance(doc_id, str) or not isinstance(sentences, list):
        raise ValueError(f"{where}: 'id' must be a string and 'sentences' a list")
    _check_doc_id(doc_id, where)
    if not {list}.issuperset(map(type, sentences)):
        raise ValueError(f"{where}: {_MALFORMED_SENTENCES}")
    intern = memo.__getitem__
    try:
        cleaned = [list(map(intern, sentence)) for sentence in sentences if sentence]
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    except TypeError:  # an unhashable token
        raise ValueError(f"{where}: {_MALFORMED_SENTENCES}") from None
    paragraphs = record.get("paragraphs")
    if paragraphs is not None:
        if not isinstance(paragraphs, list) or any(
            # type(), not isinstance(): JSON true and false are Python bools, a subclass of int
            not isinstance(p, list) or any(type(i) is not int for i in p) for p in paragraphs
        ):
            raise ValueError(f"{where}: 'paragraphs' must be lists of sentence indices")
        seen = set()
        for group in paragraphs:
            for i in group:
                if not 0 <= i < len(sentences):
                    raise ValueError(
                        f"{where}: paragraph sentence index {i} is out of range for {len(sentences)} sentences"
                    )
                # a repeated index would count the sentence's tokens twice
                # in the topic model's units
                if i in seen:
                    raise ValueError(f"{where}: paragraph sentence index {i} appears more than once")
                seen.add(i)
        # empty sentences were dropped above, so renumber onto the kept ones:
        # the position of each kept sentence by its index in the record
        kept = (i for i, sentence in enumerate(sentences) if sentence)
        kept_at = {i: position for position, i in enumerate(kept)}
        paragraphs = [[kept_at[i] for i in p if i in kept_at] for p in paragraphs]
    return Document(id=doc_id, sentences=cleaned, paragraphs=paragraphs)


def _ingest_jsonl(stream: io.TextIOBase, role: str, name) -> Corpus:
    """Errors name the record as ``name:line``, lines counted from 1."""
    documents = []
    memo = _SharedTokens()
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        doc = _parse_jsonl_record(line, f"{name}:{lineno}", memo)
        if first_line.setdefault(doc.id, lineno) != lineno:
            raise ValueError(f"{name}:{lineno}: duplicate document id {doc.id!r} (first on line {first_line[doc.id]})")
        documents.append(doc)
    if not documents:
        raise ValueError(f"{name}: zero documents after parsing")
    return Corpus(documents=documents, role=role)


def _ingest_plaintext_dir(directory: Path, role: str) -> Corpus:
    documents = []
    memo = _SharedTokens()
    for path in sorted(directory.glob("*.txt")):
        _check_doc_id(path.stem, str(path))
        with open_text(path) as stream:
            text = stream.read()
        sentences = [list(map(memo.__getitem__, tokens)) for raw in split_sentences(text) if (tokens := tokenize(raw))]
        documents.append(Document(id=path.stem, sentences=sentences))
    if not documents:
        raise ValueError(f"zero documents found under {directory}")
    return Corpus(documents=documents, role=role)


class FloatText(dict):
    """float -> ``repr(float)``, so a writer formats each distinct value once.

    A zero is never kept: ``0.0`` and ``-0.0`` are one key with two texts.
    """

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value:
            self[value] = text
        return text


class TextFloat(dict):
    """text -> ``float(text)``, so a reader converts each distinct number
    text once.  A text that is not a number raises ``ValueError``."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


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


def read_header(stream, path, magic: str, kind: str, key: str) -> tuple[str, int]:
    """Read the first line of an artifact file, ``magic<TAB>key=value<TAB>n=count``.

    Returns the value of ``key`` and the count ``n``; a missing or
    malformed field is reported as ``path:1``.
    """
    fields = stream.readline().rstrip("\n").split("\t")
    if fields[0] != magic:
        raise ValueError(f"not a {kind} file: {path}")
    values = {}
    for text in fields[1:]:
        name, sep, value = text.partition("=")
        if not sep:
            raise ValueError(f"{path}:1: header field {text!r} is not name=value")
        values[name] = value
    for name in (key, "n"):
        if name not in values:
            raise ValueError(f"{path}:1: header has no {name}= field")
    n_text = values["n"]
    if not n_text.isdecimal():
        raise ValueError(f"{path}:1: n={n_text!r} is not a count")
    return values[key], int(n_text)


def read_blocks(stream, path, width: int, start: int):
    """Yield (line numbers, columns) for the non-blank lines of the rest of
    ``stream``, its first line numbered ``start``, a block of whole lines at
    a time: ``columns`` holds ``width`` lists, the i-th field of every line
    in the i-th.  A line without exactly ``width`` tab-separated fields is
    reported as ``path:line`` once the lines before it have been yielded,
    so a caller meets every bad line in file order."""
    separators = b"\t" * (width - 1) + b"\n"
    while lines := stream.readlines(_BLOCK_CHARS):
        if not lines[-1].endswith("\n"):  # the file's last line
            lines[-1] += "\n"
        numbers = np.arange(start, start + len(lines), dtype=np.int64)
        start += len(lines)
        blank = np.fromiter(map(str.isspace, lines), bool, len(lines))
        if blank.any():
            lines = list(compress(lines, ~blank))
            numbers = numbers[~blank]
        block = "".join(lines)
        good = len(lines)
        marks = block.encode().translate(None, _NOT_TAB_OR_LF)
        if marks != separators * good:
            counts = [len(tabs) + 1 for tabs in marks.split(b"\n")]
            good = next(i for i, count in enumerate(counts) if count != width)
        if good:  # the fields of the lines before a bad one split in step
            fields = block.replace("\n", "\t").split("\t")
            yield numbers[:good], [fields[i : good * width : width] for i in range(width)]
        if good < len(lines):
            raise ValueError(f"{path}:{numbers[good]}: expected {width} tab-separated fields, got {counts[good]}")


def ingest_corpus(source, format: str = "jsonl", role: str = "target") -> Corpus:
    """Read a corpus from ``source``.

    ``source`` is a file path (either format) or an open text stream (JSONL
    only); a JSONL error names the file and line, ``<stream>`` standing for
    a stream without a ``name``.  ``format`` is ``jsonl`` or ``plaintext-dir``.

    Empty sentences are dropped.  These are errors: a corpus with zero
    documents; a JSONL sentence that is not a list; a token that is not a
    string, is empty, or holds a tab, CR, LF or lone surrogate; a doc id
    that holds a tab, CR, LF or lone surrogate, is empty, starts with '#',
    has leading or trailing whitespace, or repeats an earlier record's id.
    Each distinct token is checked once.  Equal tokens share one ``str``
    object across the corpus, so memory grows with the vocabulary rather
    than with each token's own copy.
    """
    if format == "jsonl":
        if hasattr(source, "read"):
            return _ingest_jsonl(source, role, getattr(source, "name", "<stream>"))
        with open_text(source) as stream:
            return _ingest_jsonl(stream, role, source)
    if format == "plaintext-dir":
        directory = Path(source)
        if not directory.is_dir():
            raise ValueError(f"not a directory: {directory}")
        return _ingest_plaintext_dir(directory, role)
    raise ValueError(f"unknown corpus format {format!r}")


def export_corpus(corpus: Corpus, path) -> None:
    """Write a corpus as canonical JSONL; round-trips through ingest_corpus."""
    # one encoder per file: json.dumps builds a new one per call when given
    # a non-default option
    encode = json.JSONEncoder(ensure_ascii=False).encode
    with open(path, "w", encoding="utf-8") as out:
        for doc in corpus.documents:
            record: dict = {"id": doc.id, "sentences": doc.sentences}
            if doc.paragraphs is not None:
                record["paragraphs"] = doc.paragraphs
            out.write(encode(record) + "\n")
