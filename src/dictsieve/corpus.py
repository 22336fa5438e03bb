"""Corpus ingestion and term frequency statistics.

A document is an ordered list of sentences, each sentence an ordered list of
token strings.  A corpus holds them coded: one sorted vocabulary and one
int32 token array with sentence and document offsets (``Coding``), which
every stage reads; its documents are views of that coding.  Corpora arrive
either pre-segmented as JSONL (the canonical interchange format, which lets
external lemmatizers and sentence splitters do the heavy lifting) or as a
directory of plaintext files that are segmented and tokenized here with a
deterministic, language-neutral baseline.

``export_corpus`` also writes the coding beside the JSONL file, as
``<path>.coding``, keyed by the sha256 of the JSONL bytes.  ``ingest_corpus``
builds the corpus from that sidecar when the key matches the file, so a
corpus that one stage exported is not parsed again by the next; it parses
the JSONL when the sidecar is missing or was written for other bytes.  The
sidecar's container, which the co-occurrence matrices' ``.pairs`` sidecars
share, is ``SidecarFormat``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import stat
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

ROLES = ("reference", "generic", "target")
FORMATS = ("jsonl", "plaintext-dir")

# Unicode letters and digits; punctuation and underscore split tokens.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# Sentence ends at . ! ? followed by whitespace or end of text.
_SENTENCE_RE = re.compile(r"[.!?](?:\s+|$)")

# what a field of an artifact line may not hold (see ``field_error``), and
# what ``_Utf8Lines`` finds in a line that is not UTF-8
_FIELD_BREAK_RE = re.compile(r"[\t\r\n]")
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")

_MALFORMED_SENTENCES = "sentences must be lists of non-empty strings"

# a sidecar header takes about 300 bytes, so a longer first line is malformed
_HEADER_LIMIT = 1024
# ``file_sha256`` reads this many bytes at a time
_HASH_CHUNK = 1 << 20
# ``export_corpus`` formats and writes blocks of whole documents of about
# this many tokens, so the text it holds stays bounded; 4x larger blocks
# wrote no faster and held 2.5x the memory
_JSONL_BLOCK_TOKENS = 1 << 14
_SHA256_RE = re.compile(r"[0-9a-f]{64}")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation, keeping digits."""
    return _TOKEN_RE.findall(text.lower())


def split_sentences(text: str) -> list[str]:
    return [s for s in _SENTENCE_RE.split(text) if s.strip()]


class Document:
    """One document: an id plus ordered, tokenized sentences.

    ``paragraphs`` optionally groups sentence indices into paragraph units;
    topic modeling treats each group as a separate modeling document when
    present.

    ``Document(id, sentences, paragraphs)`` holds the sentences it is given.
    The documents of a ``Corpus`` are views of the corpus's ``Coding``: their
    ``sentences`` are built from the codes on each call, and ``token_count``
    is read from the offsets.  Equality, as for a dataclass,
    compares the id, the sentences and the paragraphs.
    """

    __slots__ = ("id", "paragraphs", "_sentences", "_coding", "_index")

    def __init__(self, id: str, sentences: list[list[str]], paragraphs: list[list[int]] | None = None):
        self.id = id
        self.paragraphs = paragraphs
        self._sentences = sentences
        self._coding = None

    @classmethod
    def _view(cls, coding: Coding, index: int) -> Document:
        doc = cls.__new__(cls)
        doc.id = coding.ids[index]
        doc.paragraphs = coding.paragraphs[index]
        doc._coding = coding
        doc._index = index
        return doc

    def _bounds(self) -> list[int]:
        """The token offsets of the view's sentences, its end included."""
        first, last = self._coding.document_starts[self._index : self._index + 2].tolist()
        return self._coding.sentence_starts[first : last + 1].tolist()

    @property
    def sentences(self) -> list[list[str]]:
        if self._coding is None:
            return self._sentences
        bounds = self._bounds()
        start = bounds[0]
        words = list(map(self._coding.vocab.__getitem__, self._coding.codes[start : bounds[-1]].tolist()))
        return [words[a - start : b - start] for a, b in zip(bounds, bounds[1:])]

    def tokens(self) -> list[str]:
        return [t for sentence in self.sentences for t in sentence]

    @property
    def token_count(self) -> int:
        if self._coding is None:
            return sum(len(s) for s in self._sentences)
        bounds = self._bounds()
        return bounds[-1] - bounds[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Document):
            return NotImplemented
        return (self.id, self.sentences, self.paragraphs) == (other.id, other.sentences, other.paragraphs)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Document(id={self.id!r}, sentences={self.sentences!r}, paragraphs={self.paragraphs!r})"


@dataclass(frozen=True, eq=False)
class Coding:
    """A corpus as integers, the one form every stage reads.

    ``vocab`` holds the corpus's distinct tokens, sorted, and ``codes``
    (int32) every token in corpus order as its index in ``vocab``, 4 bytes a
    token.  Sentence i is
    ``codes[sentence_starts[i]:sentence_starts[i + 1]]``, counting the
    sentences of all documents one after another, and document j holds
    sentences ``document_starts[j]:document_starts[j + 1]``; both offset
    arrays are int64 and end with the total.  ``ids`` and ``paragraphs``
    hold each document's id and paragraph groups.  Every coding holds at
    least one document and no empty sentence, however it was built.
    """

    vocab: tuple[str, ...]
    codes: np.ndarray
    sentence_starts: np.ndarray
    document_starts: np.ndarray
    ids: list[str]
    paragraphs: list[list[list[int]] | None]


def _offsets(lengths: list[int]) -> np.ndarray:
    """0 and the running totals of ``lengths``, as int64."""
    starts = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.array(lengths, dtype=np.int64), out=starts[1:])
    return starts


def _check_paragraphs(paragraphs, n_sentences: int, where: str) -> None:
    """Paragraph groups must be lists of int sentence indices, and each
    index must name one of ``n_sentences`` sentences, and at most once: a
    repeated index would count the sentence's tokens twice in the topic
    model's units."""
    if not isinstance(paragraphs, list) or any(
        # type(), not isinstance(): JSON true and false are Python bools, a subclass of int
        not isinstance(p, list) or any(type(i) is not int for i in p) for p in paragraphs
    ):
        raise ValueError(f"{where}: 'paragraphs' must be lists of sentence indices")
    seen = set()
    for group in paragraphs:
        for i in group:
            if not 0 <= i < n_sentences:
                raise ValueError(f"{where}: paragraph sentence index {i} is out of range for {n_sentences} sentences")
            if i in seen:
                raise ValueError(f"{where}: paragraph sentence index {i} appears more than once")
            seen.add(i)


class Corpus:
    """A collection of documents with a role tag, held as one ``Coding``.

    ``Corpus(documents, role)`` codes the given documents through a
    ``_Coder``, as ingest codes a file's records, so it drops empty
    sentences and rejects what ingest rejects: no documents, and a bad or
    repeated document id, token or paragraph group, reported as ``document
    i`` by the document's index in ``documents``.  ``documents`` are views
    of the coding, built on first use.
    """

    def __init__(self, documents: list[Document], role: str):
        _check_role(role)
        coder = _Coder()
        for index, doc in enumerate(documents):
            coder.add(doc.id, doc.sentences, doc.paragraphs, f"document {index}")
        self.coding = coder.coding(f"{role} corpus")
        self.role = role

    @classmethod
    def _coded(cls, coding: Coding, role: str) -> Corpus:
        """A corpus of a coding whose ids and paragraphs are already checked."""
        _check_role(role)
        corpus = cls.__new__(cls)
        corpus.coding = coding
        corpus.role = role
        return corpus

    @cached_property
    def documents(self) -> list[Document]:
        return [Document._view(self.coding, i) for i in range(len(self))]

    @cached_property
    def vocabulary(self) -> frozenset[str]:
        """Every distinct token of the corpus."""
        return frozenset(self.coding.vocab)

    def __len__(self) -> int:
        return len(self.coding.ids)

    def __iter__(self):
        return iter(self.documents)

    def __repr__(self) -> str:
        return f"Corpus(role={self.role!r}, documents={len(self)}, tokens={len(self.coding.codes)})"


def _check_role(role: str) -> None:
    if role not in ROLES:
        raise ValueError(f"unknown corpus role {role!r}, expected one of {ROLES}")


class TermStats:
    """Frequency statistics over a corpus.

    ``tf`` and ``df`` are Counters of each term's corpus-wide frequency
    tf(w) and document frequency df(w), their terms in order of first
    occurrence.  ``doc_ids``, ``doc_tokens`` and ``doc_unique`` give each
    document's id, token count |d| and unique-term count |U_d|, in corpus
    order, the counts as int64 arrays.  ``tf_doc`` maps each document id to
    its Counter tf(w,d), whose keys are U_d.

    ``term_stats`` counts all but ``tf_doc`` in array passes over the
    corpus's coding; ``tf_doc`` is built from the coding on first read, and
    kept.  ``TermStats(tf, df, tf_doc)`` holds the Counters it is given and
    takes the per-document counts from ``tf_doc``, in its order.
    """

    def __init__(self, tf: Counter, df: Counter, tf_doc: dict[str, Counter]):
        self.tf = tf
        self.df = df
        self.tf_doc = tf_doc
        self.doc_ids = tuple(tf_doc)
        self.doc_tokens = np.array([sum(counts.values()) for counts in tf_doc.values()], dtype=np.int64)
        self.doc_unique = np.array(list(map(len, tf_doc.values())), dtype=np.int64)

    @classmethod
    def _counted(
        cls, coding: Coding, tf: Counter, df: Counter, doc_tokens: np.ndarray, doc_unique: np.ndarray
    ) -> TermStats:
        stats = cls.__new__(cls)
        stats.tf, stats.df, stats._coding = tf, df, coding
        stats.doc_ids, stats.doc_tokens, stats.doc_unique = tuple(coding.ids), doc_tokens, doc_unique
        return stats

    @cached_property
    def tf_doc(self) -> dict[str, Counter]:
        coding = self._coding
        word = coding.vocab.__getitem__
        bounds = coding.sentence_starts[coding.document_starts].tolist()
        return {
            doc_id: Counter(map(word, coding.codes[start:stop].tolist()))
            for doc_id, start, stop in zip(coding.ids, bounds, bounds[1:])
        }


def term_stats(corpus: Corpus) -> TermStats:
    """Count tf(w), df(w), |d| and |U_d| for the corpus from its codes, in
    array passes: |d| from the offsets, tf(w) by a bincount of the codes,
    and df(w) and |U_d| from the distinct (document, term) pairs, which one
    sort of a key ``document * V + code`` per token finds.  ``tf`` and
    ``df`` list their terms in order of first occurrence, as a loop over
    the tokens would."""
    coding = corpus.coding
    codes, n_terms, n_docs, n_tokens = coding.codes, len(coding.vocab), len(coding.ids), len(coding.codes)
    doc_tokens = np.diff(coding.sentence_starts[coding.document_starts])
    keys = np.repeat(np.arange(n_docs, dtype=np.int64) * n_terms, doc_tokens) + codes
    keys.sort()
    pair_doc, pair_term = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n_terms)
    first = np.full(n_terms, n_tokens)
    np.minimum.at(first, codes, np.arange(n_tokens))
    order = np.argsort(first)[: np.count_nonzero(first < n_tokens)]
    terms = list(map(coding.vocab.__getitem__, order.tolist()))
    tf = Counter(dict(zip(terms, np.bincount(codes, minlength=n_terms)[order].tolist())))
    df = Counter(dict(zip(terms, np.bincount(pair_term, minlength=n_terms)[order].tolist())))
    return TermStats._counted(coding, tf, df, doc_tokens, np.bincount(pair_doc, minlength=n_docs))


class _TokenIds(dict):
    """token -> its number, in order of first occurrence.

    Each distinct token is checked once, when first looked up: it must be
    a field (see ``field_error``).  One that is not a non-empty ``str``, or
    is unhashable (which ``_Coder.add`` catches), is a malformed sentence.
    """

    def __missing__(self, token: str) -> int:
        if (error := field_error("token", token)) is not None:
            raise ValueError(error if type(token) is str and token else _MALFORMED_SENTENCES)
        number = self[token] = len(self)
        return number


class _Coder:
    """Numbers a corpus's tokens, a document at a time, and builds its
    ``Coding``; every reader and ``Corpus(documents)`` code through it."""

    def __init__(self):
        self.types = _TokenIds()
        self.ids: list[int] = []
        self.lengths: list[int] = []
        self.n_sentences: list[int] = []
        # each document id -> where its document was added
        self.doc_ids: dict[str, str] = {}
        self.paragraphs: list = []

    def add(self, doc_id: str, sentences: list, paragraphs: list | None, where: str) -> None:
        """Code one document without its empty sentences, its paragraph
        groups checked against ``sentences`` and renumbered onto the kept
        ones.  ``doc_id`` must pass ``check_doc_id`` and be new, and
        ``sentences`` must be a list of lists.  An error is reported as
        ``where: ...`` (a repeated id also names its first ``where``) and
        gives the corpus up."""
        check_doc_id(doc_id, where)
        if doc_id in self.doc_ids:
            raise ValueError(f"{where}: duplicate document id {doc_id!r} (first at {self.doc_ids[doc_id]})")
        if type(sentences) is not list or not {list}.issuperset(map(type, sentences)):
            raise ValueError(f"{where}: {_MALFORMED_SENTENCES}")
        if paragraphs is not None:
            _check_paragraphs(paragraphs, len(sentences), where)
        # the list is copied only when it has an empty sentence
        kept = sentences if all(sentences) else [sentence for sentence in sentences if sentence]
        try:
            self.ids.extend(map(self.types.__getitem__, chain.from_iterable(kept)))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        except TypeError:  # an unhashable token
            raise ValueError(f"{where}: {_MALFORMED_SENTENCES}") from None
        if paragraphs is not None and kept is not sentences:
            # each kept sentence's position by its index
            kept_at = {i: position for position, i in enumerate(i for i, sentence in enumerate(sentences) if sentence)}
            paragraphs = [[kept_at[i] for i in p if i in kept_at] for p in paragraphs]
        self.lengths.extend(map(len, kept))
        self.n_sentences.append(len(kept))
        self.doc_ids[doc_id] = where
        self.paragraphs.append(paragraphs)

    def coding(self, where: str) -> Coding:
        """Sort the vocabulary and map each token's first-occurrence number
        onto it; the number list is emptied before the codes are gathered.
        A corpus without documents is reported as ``where: zero documents``."""
        if not self.doc_ids:
            raise ValueError(f"{where}: zero documents")
        numbers = np.fromiter(self.ids, np.int32, len(self.ids))
        self.ids.clear()
        vocab = tuple(sorted(self.types))
        rank = np.empty(len(vocab), dtype=np.int32)
        rank[list(map(self.types.__getitem__, vocab))] = np.arange(len(vocab), dtype=np.int32)
        offsets = _offsets(self.lengths), _offsets(self.n_sentences)
        return Coding(vocab, rank[numbers], *offsets, list(self.doc_ids), self.paragraphs)


def field_error(kind: str, text) -> str | None:
    """Why ``text``, called ``kind``, cannot be a field of an artifact line,
    or None: a field is a non-empty ``str`` with no tab, CR or LF, which
    split fields and lines, and no lone surrogate, which UTF-8 cannot encode."""
    if type(text) is not str:
        return f"{kind} {text!r} is not a string"
    if not text:
        return f"{kind} {text!r} is empty"
    if _FIELD_BREAK_RE.search(text):
        return f"{kind} {text!r} contains a tab, CR or LF"
    if _SURROGATE_RE.search(text):
        return f"{kind} {text!r} contains a lone surrogate, which UTF-8 cannot encode"
    return None


def fields_error(kind: str, texts: tuple) -> str | None:
    """``field_error`` of the first of ``texts`` that is not a field, or
    None; they are checked as one joined string before one by one."""
    if {str}.issuperset(map(type, texts)) and all(texts) and field_error(kind, "".join(texts)) is None:
        return None
    return next(filter(None, map(field_error, repeat(kind), texts)), None)


def check_doc_id(doc_id: str, where: str) -> None:
    """A document id is a field (see ``field_error``) that neither starts
    with '#' nor has leading or trailing whitespace, since ``read_pseudorels``
    skips blank lines and lines starting with '#' after leading whitespace."""
    if (error := field_error("document id", doc_id)) is not None:
        raise ValueError(f"{where}: {error}")
    if doc_id.startswith("#"):
        raise ValueError(f"{where}: document id {doc_id!r} starts with '#'")
    if doc_id != doc_id.strip():
        raise ValueError(f"{where}: document id {doc_id!r} has leading or trailing whitespace")


def _ingest_jsonl(stream, role: str, name) -> Corpus:
    """Code each non-blank line as a document; errors name the record as
    ``name:line``, lines counted from 1."""
    coder = _Coder()
    for lineno, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        where = f"{name}:{lineno}"
        try:
            record = json.loads(line)
        # RecursionError: arrays or objects nested deeper than the recursion limit
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"{where}: invalid JSON: {exc}") from None
        if not isinstance(record, dict) or "id" not in record or "sentences" not in record:
            raise ValueError(f"{where}: expected object with 'id' and 'sentences'")
        coder.add(record["id"], record["sentences"], record.get("paragraphs"), where)
    return Corpus._coded(coder.coding(name), role)


def _ingest_plaintext_dir(directory: Path, role: str) -> Corpus:
    coder = _Coder()
    for path in sorted(directory.glob("*.txt")):
        with open_text(path) as stream:
            coder.add(path.stem, list(map(tokenize, split_sentences(stream.read()))), None, str(path))
    return Corpus._coded(coder.coding(str(directory)), role)


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


class _Utf8Lines:
    """A file's text for the line readers, each line checked for UTF-8 as it
    is handed out.

    The file is decoded with ``surrogateescape``, so its text layer, which
    decodes ahead of the lines asked for, never fails, and a byte that is
    not UTF-8 stays in its line as a lone surrogate.  ``readline``, iteration
    and ``read`` report the first such line as ``path:line: not UTF-8 text``
    when they reach it, after every line before it.  A valid UTF-8 file
    holds no lone surrogate, so no line of one is rejected.
    """

    def __init__(self, stream, path):
        self._stream = stream
        self._path = path
        self._lineno = 0

    def _checked(self, line: str) -> str:
        self._lineno += 1
        if not line.isascii() and _SURROGATE_RE.search(line):
            raise ValueError(f"{self._path}:{self._lineno}: not UTF-8 text")
        return line

    def readline(self) -> str:
        line = self._stream.readline()
        return self._checked(line) if line else line

    def __iter__(self):
        return map(self._checked, self._stream)

    def read(self) -> str:
        text = self._stream.read()
        if not text.isascii() and (escaped := _SURROGATE_RE.search(text)):
            lineno = self._lineno + text.count("\n", 0, escaped.start()) + 1
            raise ValueError(f"{self._path}:{lineno}: not UTF-8 text")
        return text


@contextmanager
def open_text(path):
    """Open ``path`` for reading as UTF-8 text.

    A byte sequence that is not UTF-8 is reported as ``path:line: not
    UTF-8 text`` at the first line that holds one, once the lines before it
    have been read (see ``_Utf8Lines``).  Lines end at LF, CR or CRLF, as
    in text mode.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as stream:
        yield _Utf8Lines(stream, path)


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


def read_rows(stream, path, width: int, start: int):
    """Yield (line number, fields) for the non-blank lines of the rest of
    ``stream``, its first line numbered ``start``.  A line without exactly
    ``width`` tab-separated fields is reported as ``path:line``, and one
    that is not UTF-8 by ``open_text``'s stream as it is read, so a caller
    meets every bad line in file order."""
    for lineno, line in enumerate(stream, start=start):
        if not line.strip():
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} tab-separated fields, got {len(fields)}")
        yield lineno, fields


def publish(path, chunks) -> None:
    """Write the byte strings ``chunks`` to ``<file>.<pid>.tmp``, unsynced,
    and rename it onto ``<file>``, the file ``path`` names once its symlinks
    are resolved, so a link at ``path`` is written through.  The new file
    takes an existing file's permission bits, and a file that did not exist
    gets the umask's.  A write that raises leaves the earlier file and no
    temporary one; a killed one leaves both files."""
    path = os.path.realpath(path)
    temp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as out:
            for chunk in chunks:
                out.write(chunk)
        with suppress(FileNotFoundError):
            os.chmod(temp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_rows(path, rows, header: str = "") -> None:
    """Publish ``header``, then each row as tab-separated fields ended by
    LF, each as ``str(field)`` (an int's or float's ``repr``), through one
    ``%s`` format per row width.  A field that UTF-8 cannot encode raises
    before ``publish``, and leaves the file at ``path`` as it was."""
    data = bytearray(header.encode())
    formats = {}
    for row in map(tuple, rows):
        line = formats.get(len(row)) or formats.setdefault(len(row), "\t".join(["%s"] * len(row)) + "\n")
        data += (line % row).encode()
    publish(path, [data])


def file_sha256(path) -> str:
    """The sha256 of a file's bytes, read a fixed-size chunk at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        while chunk := stream.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class SidecarFormat:
    """A binary sidecar beside a text artifact, ``<text path>.<kind>``, which
    a reader takes in place of parsing the text while the text is unchanged.

    Its header line is the tag ``#dictsieve-<kind>`` and tab-separated
    ``name=value`` fields: ``version=1``, the text file's ``<text>_bytes``
    and ``<text>_sha256``, one count for each name in ``counts``, and the
    ``payload_sha256`` of the rest of the file, the payload, whose layout
    the format's user decides.  ``write`` publishes the text, then its
    sidecar (see ``publish``).
    """

    kind: str
    text: str
    counts: tuple[str, ...]

    @property
    def magic(self) -> bytes:
        return f"#dictsieve-{self.kind}".encode()

    @property
    def fields(self) -> list[str]:
        return ["version", f"{self.text}_bytes", f"{self.text}_sha256", *self.counts, "payload_sha256"]

    def path(self, text_path) -> Path:
        return Path(f"{text_path}.{self.kind}")

    def write(self, text_path, chunks, counts, payload) -> None:
        """Publish the byte strings ``chunks`` at ``text_path``, then its
        sidecar: ``counts``, the published text's size and sha256, and the
        ``payload`` parts (bytes or contiguous arrays, hashed and written in
        place).  A failed sidecar write leaves the new text and any earlier
        sidecar, which ``read`` ignores: it was written for other bytes."""
        publish(text_path, chunks)
        digest = hashlib.sha256()
        for part in payload:
            digest.update(part)
        values = [1, os.stat(text_path).st_size, file_sha256(text_path), *counts, digest.hexdigest()]
        header = "".join(f"\t{name}={value}" for name, value in zip(self.fields, values)) + "\n"
        publish(self.path(text_path), [self.magic + header.encode(), *payload])

    def read(self, text_path) -> tuple[list[int], bytes] | None:
        """The header counts and the payload of the sidecar of
        ``text_path``, or None when there is no sidecar, when the file there
        is not a sidecar of this format version, or when it was written for
        other text bytes (another length or sha256).  A malformed header or
        a payload that does not match its sha256 raises ``ValueError``
        naming the sidecar."""
        sidecar = self.path(text_path)
        try:
            stream = open(sidecar, "rb")
        except FileNotFoundError:
            return None
        with stream:
            fields = self._header(stream, sidecar)
            if (
                fields is None
                or int(fields[f"{self.text}_bytes"]) != os.stat(text_path).st_size
                or fields[f"{self.text}_sha256"] != file_sha256(text_path)
            ):
                return None
            payload = stream.read()
        if hashlib.sha256(payload).hexdigest() != fields["payload_sha256"]:
            raise ValueError(f"{sidecar}: payload does not match its sha256")
        return [int(fields[name]) for name in self.counts], payload

    def _header(self, stream, sidecar: Path) -> dict[str, str] | None:
        """The header fields of a sidecar, or None for a file that is not a
        sidecar of this format version.  A malformed header raises."""
        line = stream.readline(_HEADER_LIMIT)
        if not line.startswith(self.magic + b"\tversion=1\t"):
            return None
        try:
            fields = dict(field.split("=", 1) for field in line.decode("ascii").rstrip("\n").split("\t")[1:])
        except ValueError:  # a field without '=' or a byte that is not ASCII
            fields = {}
        if (
            not line.endswith(b"\n")
            or list(fields) != self.fields
            or not all(fields[name].isdecimal() for name in (f"{self.text}_bytes", *self.counts))
            or not all(_SHA256_RE.fullmatch(fields[name]) for name in (f"{self.text}_sha256", "payload_sha256"))
        ):
            raise ValueError(f"{sidecar}:1: malformed {self.kind} header")
        return fields


# a corpus's coding beside its exported JSONL (see ``export_corpus``)
_CODING = SidecarFormat("coding", "jsonl", ("vocab", "documents", "sentences", "tokens"))


def _ingest_coded(path, role: str) -> Corpus | None:
    """The corpus of ``path`` read from its sidecar, or None when there is no
    sidecar or it was written for other JSONL bytes."""
    found = _CODING.read(path)
    if found is None:
        return None
    counts, payload = found
    return Corpus._coded(_decode_coding(payload, *counts, _CODING.path(path)), role)


def _decode_coding(payload: bytes, n_vocab: int, n_docs: int, n_sentences: int, n_tokens: int, sidecar) -> Coding:
    """Check a sidecar's payload as ingest checks a JSONL file, with array
    operations, and return its coding."""
    text_size = len(payload) - 4 * n_tokens - 8 * (n_sentences + 1) - 8 * (n_docs + 1)
    try:
        text = payload[: max(text_size, 0)].decode("utf-8")
    except UnicodeDecodeError:
        raise ValueError(f"{sidecar}: not UTF-8 text") from None
    # LF only: str.splitlines would also break at characters tokens may hold
    lines = text.split("\n")
    if text_size < 0 or len(lines) != n_vocab + n_docs + 2 or lines[-1]:
        raise ValueError(f"{sidecar}: payload size does not match the header counts")
    vocab = tuple(lines[:n_vocab])
    ids = lines[n_vocab : n_vocab + n_docs]

    if not all(map(str.__lt__, vocab, vocab[1:])):
        raise ValueError(f"{sidecar}: vocabulary is not strictly increasing")
    # strict UTF-8 decoding leaves no lone surrogate, and LF splits the
    # lines, so a bad token is empty (and first) or holds a tab or CR
    if (vocab and not vocab[0] or "\t" in text or "\r" in text) and (error := fields_error("token", vocab)):
        raise ValueError(f"{sidecar}: {error}")
    if not ids:
        raise ValueError(f"{sidecar}: zero documents")
    # str.split() splits at str.isspace, which str.strip strips, so it
    # returns the ids unchanged only if none is empty or holds whitespace
    # (a tab and a CR included); those pass check_doc_id unless they start
    # with '#', and any other ids are checked one by one
    joined = "\n".join(ids)
    if joined.split() != ids or "\n#" in "\n" + joined:
        for doc_id in ids:
            check_doc_id(doc_id, str(sidecar))
    if len(set(ids)) != n_docs:
        raise ValueError(f"{sidecar}: duplicate document id")

    at = text_size + 4 * n_tokens
    codes = np.frombuffer(payload, "<i4", n_tokens, text_size).astype(np.int32)
    sentence_starts = np.frombuffer(payload, "<i8", n_sentences + 1, at).astype(np.int64)
    document_starts = np.frombuffer(payload, "<i8", n_docs + 1, at + 8 * (n_sentences + 1)).astype(np.int64)
    if n_tokens and not (codes.min() >= 0 and codes.max() < n_vocab):
        raise ValueError(f"{sidecar}: token code out of range for {n_vocab} tokens")
    if not (sentence_starts[0] == 0 and sentence_starts[-1] == n_tokens and (np.diff(sentence_starts) > 0).all()):
        raise ValueError(f"{sidecar}: sentence offsets do not run from 0 up to {n_tokens} tokens")
    if not (document_starts[0] == 0 and document_starts[-1] == n_sentences and (np.diff(document_starts) >= 0).all()):
        raise ValueError(f"{sidecar}: document offsets do not run from 0 up to {n_sentences} sentences")

    try:
        paragraphs = json.loads(lines[-2])
    except (json.JSONDecodeError, RecursionError):
        raise ValueError(f"{sidecar}: paragraph groups are not JSON") from None
    if not isinstance(paragraphs, list) or len(paragraphs) != n_docs:
        raise ValueError(f"{sidecar}: expected the paragraph groups of {n_docs} documents")
    n_doc_sentences = np.diff(document_starts).tolist()
    for doc_id, groups, n in zip(ids, paragraphs, n_doc_sentences):
        if groups is not None:
            _check_paragraphs(groups, n, f"{sidecar}: document {doc_id!r}")
    return Coding(vocab, codes, sentence_starts, document_starts, ids, paragraphs)


def ingest_corpus(source, format: str = "jsonl", role: str = "target") -> Corpus:
    """Read a corpus from ``source``.

    ``source`` is a file path (either format) or an open text stream (JSONL
    only); a JSONL error names the file and line, ``<stream>`` standing for
    a stream without a ``name``.  ``format`` is ``jsonl`` or ``plaintext-dir``.

    Empty sentences are dropped.  These are errors: a corpus with zero
    documents; a JSONL sentence that is not a list; a token or doc id that
    is not a field (see ``field_error``); a doc id that ``check_doc_id``
    rejects or that repeats an earlier record's id, whose ``file:line`` the
    error also names.
    Each distinct token is checked once, in the same dict probe that
    numbers it; the corpus keeps one ``Coding`` of its tokens, so memory
    grows with the vocabulary plus 4 bytes a token.

    A JSONL file path with a sidecar (see ``export_corpus``) whose length
    and sha256 match the file is read from the sidecar, which gives the
    coding that parsing the file gives; a sidecar for other bytes, or a file
    that is not a sidecar of this format version, is ignored.  The sidecar
    is checked as a JSONL file is, and a damaged one raises ``ValueError``
    naming it.  A stream or a plaintext directory is always parsed.
    """
    if format == "jsonl":
        if hasattr(source, "read"):
            return _ingest_jsonl(source, role, getattr(source, "name", "<stream>"))
        corpus = _ingest_coded(source, role)
        if corpus is not None:
            return corpus
        with open_text(source) as stream:
            return _ingest_jsonl(stream, role, source)
    if format == "plaintext-dir":
        directory = Path(source)
        if not directory.is_dir():
            raise ValueError(f"not a directory: {directory}")
        return _ingest_plaintext_dir(directory, role)
    raise ValueError(f"unknown corpus format {format!r}")


def _jsonl_lines(coding: Coding):
    """Yield the corpus's JSONL text as bytes, a block of whole documents of
    about ``_JSONL_BLOCK_TOKENS`` tokens at a time.

    A block is one ``join`` over pieces of one table: each type's JSON
    string, the separators after a token (``, ``, ``], [`` at a sentence's
    end, ``]]`` at a document's), and each document's head, which carries
    the line end of the document before it; one last head ends the text.
    """
    n_vocab, n_docs = len(coding.vocab), len(coding.ids)
    # each document's first token and, last, the number of tokens
    doc_tokens = coding.sentence_starts[coding.document_starts]
    empty = (doc_tokens[1:] == doc_tokens[:-1]).tolist()
    encode = json.JSONEncoder(ensure_ascii=False).encode
    tails = ["}\n" if p is None else ', "paragraphs": ' + encode(p) + "}\n" for p in coding.paragraphs]
    heads = [
        tail + '{"id": ' + encode_basestring(doc_id) + (', "sentences": []' if blank else ', "sentences": [[')
        for tail, doc_id, blank in zip(["", *tails], coding.ids, empty)
    ]
    table = np.array([*map(encode_basestring, coding.vocab), ", ", "], [", "]]", *heads, tails[-1]], dtype=object)
    comma, first_head = n_vocab, n_vocab + 3
    a = 0
    while a < n_docs:
        b = int(np.searchsorted(doc_tokens, doc_tokens[a] + _JSONL_BLOCK_TOKENS, "right")) - 1
        b = max(b, a + 1)
        offset, stop = int(doc_tokens[a]), int(doc_tokens[b])
        starts = doc_tokens[a : b + 1] - offset
        separators = np.full(stop - offset, comma)
        sentence_ends = coding.sentence_starts[coding.document_starts[a] + 1 : coding.document_starts[b] + 1]
        separators[sentence_ends - offset - 1] = comma + 1
        separators[starts[1:][starts[1:] != starts[:-1]] - 1] = comma + 2
        # token t of the block's document j sits after the j + 1 heads up to
        # it, the t tokens before it and their separators
        at = 2 * np.arange(stop - offset) + np.repeat(np.arange(1, b - a + 1), np.diff(starts))
        pieces = np.empty(2 * (stop - offset) + b - a + (b == n_docs), dtype=np.int64)
        pieces[at] = coding.codes[offset:stop]
        pieces[at + 1] = separators
        pieces[2 * starts[:-1] + np.arange(b - a)] = np.arange(first_head + a, first_head + b)
        if b == n_docs:
            pieces[-1] = first_head + n_docs
        yield "".join(table[pieces].tolist()).encode()
        a = b


def export_corpus(corpus: Corpus, path) -> None:
    """Write a corpus as canonical JSONL; round-trips through ingest_corpus.

    The lines are the bytes of ``json.JSONEncoder(ensure_ascii=False)`` on
    each document's record.  Each type's JSON string is formatted once, by
    the encoder's own string function, and the text is gathered from one
    table of those strings, the separators and each document's head, a block
    of whole documents of about ``_JSONL_BLOCK_TOKENS`` tokens per write.

    The coding goes to the sidecar ``<path>.coding``, which ``ingest_corpus``
    reads in place of the JSONL.  Its header line is ``#dictsieve-coding``
    and tab-separated ``name=value`` fields: ``version=1``, the JSONL's
    ``jsonl_bytes`` and ``jsonl_sha256``, the ``vocab``, ``documents``,
    ``sentences`` and ``tokens`` counts, and the ``payload_sha256`` of the
    rest of the file (see ``SidecarFormat``).  The payload holds the
    vocabulary and the doc ids as LF-terminated UTF-8 lines, the paragraph
    groups as one JSON line, then the codes (``<i4``) and the sentence and
    document offsets (``<i8``) as raw arrays, so equal corpora write equal
    bytes.  ``SidecarFormat.write`` publishes the JSONL, then its
    sidecar.
    """
    coding = corpus.coding
    text = "\n".join([*coding.vocab, *coding.ids, json.dumps(coding.paragraphs, separators=(",", ":")), ""])
    # the arrays are written and hashed in place, not copied
    payload = [
        text.encode(),
        np.ascontiguousarray(coding.codes, dtype="<i4"),
        np.ascontiguousarray(coding.sentence_starts, dtype="<i8"),
        np.ascontiguousarray(coding.document_starts, dtype="<i8"),
    ]
    counts = [len(coding.vocab), len(coding.ids), len(coding.sentence_starts) - 1, len(coding.codes)]
    _CODING.write(path, _jsonl_lines(coding), counts, payload)
