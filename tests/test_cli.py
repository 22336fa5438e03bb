"""Command-line interface tests, run in process through main()."""

from __future__ import annotations

import argparse
import importlib.util
import json
import random
import re
from dataclasses import fields
from pathlib import Path

import pytest

import planted
from dictsieve import (
    Corpus,
    Document,
    cli,
    export_corpus,
    ingest_corpus,
    load_cooc,
    load_dictionary,
    load_model,
    load_ranked_list,
)
from dictsieve.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    PipelineConfig,
    build_parser,
    build_pipeline_config,
    main,
    parse_alphas,
    parse_ranges,
    parse_topic_ids,
    read_config_file,
    system_filename,
)
from dictsieve.evaluation import read_judgments, read_pseudorels


def subparser(command: str) -> argparse.ArgumentParser:
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


@pytest.fixture(scope="module")
def corpora_dir(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("corpora")
    export_corpus(planted.build_reference(), base / "reference.jsonl")
    export_corpus(planted.build_generic(), base / "generic.jsonl")
    export_corpus(planted.build_target(n_background=10), base / "target.jsonl")
    return base


def write_zipf_corpora(directory: Path, rng: random.Random) -> None:
    """Reference, generic and target JSONL of 40, 40 and 60 documents over
    one 40-term Zipf vocabulary; the generic corpus ranks the terms in
    another order, so filtering keeps part of each profile."""
    vocab = [f"w{i:02d}" for i in range(40)]
    weights = [1.0 / rank for rank in range(1, len(vocab) + 1)]
    for role, n_docs in (("reference", 40), ("generic", 40), ("target", 60)):
        ranked = rng.sample(vocab, len(vocab)) if role == "generic" else vocab
        documents = [
            Document(
                id=f"{role}{i}",
                sentences=[rng.choices(ranked, weights, k=rng.randint(2, 10)) for _ in range(rng.randint(1, 6))],
            )
            for i in range(n_docs)
        ]
        export_corpus(Corpus(documents=documents, role=role), directory / f"{role}.jsonl")


@pytest.fixture(scope="module")
def pipeline_dir(corpora_dir, tmp_path_factory) -> Path:
    """One full pipeline run shared by the artifact checks."""
    out_dir = tmp_path_factory.mktemp("pipeline")
    config = out_dir / "run.conf"
    config.write_text(
        "\n".join(
            [
                "# planted pipeline",
                f"reference = {corpora_dir / 'reference.jsonl'}",
                f"generic = {corpora_dir / 'generic.jsonl'}",
                f"target = {corpora_dir / 'target.jsonl'}",
                f"out_dir = {out_dir / 'out'}",
                "n_topics = 2",
                "n_terms = 16",
                "iterations = 60",
                "seed = 7",
                "lda_alpha = 0.5",
                "alphas = 0:4:2",
                "k = 50",
            ]
        )
        + "\n"
    )
    assert main(["run", "--config", str(config)]) == EXIT_OK
    return out_dir / "out"


class TestParsers:
    def test_alpha_range_is_inclusive(self):
        assert parse_alphas("0:30:2") == tuple(float(a) for a in range(0, 31, 2))

    def test_alpha_list(self):
        assert parse_alphas("0,2.5,7") == (0.0, 2.5, 7.0)

    def test_alpha_bad_spec(self):
        for bad in ("", "1:2", "5:1:2", "1:5:0", "a,b"):
            with pytest.raises(cli.UsageError):
                parse_alphas(bad)

    def test_topic_ids(self):
        assert parse_topic_ids("") == frozenset()
        assert parse_topic_ids("3,1") == frozenset({1, 3})
        with pytest.raises(cli.UsageError):
            parse_topic_ids("1,x")

    def test_ranges(self):
        assert parse_ranges("1-10,101-110") == ((1, 10), (101, 110))
        with pytest.raises(cli.UsageError):
            parse_ranges("10")

    def test_system_filename_strips_awkward_characters(self):
        assert system_filename("tm:context:alpha=2.5") == "tm_context_alpha_2.5.tsv"


class TestConfigFile:
    def test_round_trip_of_known_keys(self, tmp_path):
        path = tmp_path / "a.conf"
        path.write_text("# comment\nn_topics = 8\nslope=0.5\n\nexclude = 1,2\n")
        values = read_config_file(path)
        assert values == {"n_topics": "8", "slope": "0.5", "exclude": "1,2"}

    def test_unknown_key_is_a_usage_error_with_location(self, tmp_path):
        path = tmp_path / "a.conf"
        path.write_text("n_topics = 8\ntypo_key = 1\n")
        with pytest.raises(cli.UsageError, match=r"a\.conf:2"):
            read_config_file(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "a.conf"
        path.write_text("just words\n")
        with pytest.raises(cli.UsageError, match="expected key=value"):
            read_config_file(path)


class TestExitCodes:
    def test_unknown_subcommand_is_usage(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage(self, capsys):
        assert main(["ingest", "--bogus"]) == EXIT_USAGE

    def test_missing_input_file_is_data(self, capsys, tmp_path):
        code = main(
            ["ingest", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_DATA
        assert "[ingest]" in capsys.readouterr().err

    def test_handler_crash_is_internal(self, capsys, monkeypatch, tmp_path):
        def boom(args):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli, "cmd_ingest", boom)
        code = main(["ingest", "--input", str(tmp_path / "x"), "--out", str(tmp_path / "y")])
        assert code == EXIT_INTERNAL
        assert "wires crossed" in capsys.readouterr().err

    def test_run_without_generic_fails_in_the_cooc_stage(
        self, corpora_dir, tmp_path, capsys
    ):
        code = main(
            [
                "run",
                "--reference", str(corpora_dir / "reference.jsonl"),
                "--target", str(corpora_dir / "target.jsonl"),
                "--out-dir", str(tmp_path / "out"),
                "--n-topics", "2",
                "--iterations", "5",
                "--alphas", "0",
            ]
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "[build-cooc]" in err
        assert "generic corpus required" in err

    @pytest.mark.parametrize(
        "prior, value",
        [("beta", "0"), ("alpha", "0"), ("alpha", "nan"), ("alpha", "inf")],
    )
    def test_bad_lda_priors_fail_before_any_sampling(
        self, corpora_dir, tmp_path, capsys, monkeypatch, prior, value
    ):
        def no_sampling(*args):
            raise AssertionError("sampled with a bad prior")

        monkeypatch.setattr("dictsieve.topics._gibbs_states", no_sampling)
        reference = str(corpora_dir / "reference.jsonl")
        fit = ["fit-topics", "--corpus", reference, "--n-topics", "2", "--out", str(tmp_path / "model.tsv")]
        assert main(fit + [f"--{prior}", value]) == EXIT_DATA
        assert f"[fit-topics] {prior} must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "model.tsv").exists()

        run_flag = "--lda-alpha" if prior == "alpha" else "--beta"
        run = [
            "run",
            "--reference", reference,
            "--generic", str(corpora_dir / "generic.jsonl"),
            "--target", str(corpora_dir / "target.jsonl"),
            "--out-dir", str(tmp_path / "out"),
            "--n-topics", "2",
        ]
        assert main(run + [run_flag, value]) == EXIT_DATA
        assert f"[fit-topics] {prior} must be finite and > 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.tsv").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n-topics", "0", "[fit-topics] n_topics must be >= 1"),
            ("--iterations", "0", "[fit-topics] iterations must be >= 1"),
            ("--lda-alpha", "0", "[fit-topics] alpha must be finite and > 0, got 0.0"),
            ("--beta", "0", "[fit-topics] beta must be finite and > 0, got 0.0"),
            ("--slope", "2", "[sweep] slope must be in [0, 1], got 2.0"),
            ("--alphas", "1,nan", "[sweep] alpha must be >= 0 and finite, got nan"),
            ("--alphas", "2,2", "[sweep] alpha 2 is repeated"),
            ("--top-m", "0", "[fuse] top_m must be >= 1"),
            ("--fraction", "0", "[fuse] fraction must be in (0, 1]"),
        ],
    )
    def test_run_checks_every_stage_setting_before_writing_anything(
        self, corpora_dir, tmp_path, capsys, flag, value, message
    ):
        options = {
            "--reference": str(corpora_dir / "reference.jsonl"),
            "--generic": str(corpora_dir / "generic.jsonl"),
            "--target": str(corpora_dir / "target.jsonl"),
            "--out-dir": str(tmp_path / "out"),
            "--n-topics": "2",
            flag: value,
        }
        assert main(["run", *(item for option in options.items() for item in option)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err
        assert "[ingest]" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "drop, extra, message",
        [
            (None, ["--exclude", "5"], "[extract-dict] topic ids out of range 1..2: [5]"),
            (None, ["--exclude", "1,2"], "[extract-dict] all topics excluded"),
            ("--generic", [], "[build-cooc] generic corpus required to filter co-occurrence data"),
        ],
        ids=["exclude-out-of-range", "exclude-all", "no-generic"],
    )
    def test_run_checks_exclusions_and_the_generic_corpus_before_writing_anything(
        self, corpora_dir, tmp_path, capsys, drop, extra, message
    ):
        options = {
            "--reference": str(corpora_dir / "reference.jsonl"),
            "--generic": str(corpora_dir / "generic.jsonl"),
            "--target": str(corpora_dir / "target.jsonl"),
            "--out-dir": str(tmp_path / "out"),
            "--n-topics": "2",
        }
        options.pop(drop, None)
        argv = ["run", *(item for option in options.items() for item in option), *extra]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err
        assert "[ingest]" not in err
        assert not (tmp_path / "out").exists()


class TestSubcommands:
    def test_ingest_writes_canonical_jsonl(self, corpora_dir, tmp_path, capsys):
        out = tmp_path / "canonical.jsonl"
        code = main(
            [
                "ingest",
                "--input", str(corpora_dir / "reference.jsonl"),
                "--role", "reference",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert out.exists()
        first = json.loads(out.read_text().splitlines()[0])
        assert set(first) >= {"id", "sentences"}

    def test_fit_inspect_and_extract(self, corpora_dir, tmp_path, capsys):
        model_path = tmp_path / "model.tsv"
        code = main(
            [
                "fit-topics",
                "--corpus", str(corpora_dir / "reference.jsonl"),
                "--n-topics", "2",
                "--alpha", "0.5",
                "--iterations", "60",
                "--seed", "7",
                "--out", str(model_path),
            ]
        )
        assert code == EXIT_OK
        assert main(["inspect-topics", "--model", str(model_path), "--terms", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line and line[0].isdigit()]
        assert len(lines) == 2
        for line in lines:
            topic_id, weight, terms = line.split("\t")
            assert 0.0 <= float(weight) <= 1.0
            assert len(terms.split()) == 3

        dict_path = tmp_path / "dict.tsv"
        code = main(
            [
                "extract-dict",
                "--method", "tm",
                "--corpus", str(corpora_dir / "reference.jsonl"),
                "--model", str(model_path),
                "--n", "16",
                "--out", str(dict_path),
            ]
        )
        assert code == EXIT_OK
        assert dict_path.read_text().startswith("#dictsieve-dictionary")

    def test_extract_tm_without_model_is_usage(self, corpora_dir, tmp_path, capsys):
        code = main(
            [
                "extract-dict",
                "--method", "tm",
                "--corpus", str(corpora_dir / "reference.jsonl"),
                "--out", str(tmp_path / "d.tsv"),
            ]
        )
        assert code == EXIT_USAGE

    def test_rank_smoke(self, pipeline_dir, corpora_dir, tmp_path):
        out = tmp_path / "ranked.tsv"
        code = main(
            [
                "rank",
                "--target", str(corpora_dir / "target.jsonl"),
                "--dict", str(pipeline_dir / "dict_tm.tsv"),
                "--cooc", str(pipeline_dir / "cooc_filtered_tm.tsv"),
                "--mode", "context",
                "--alpha", "2",
                "--k", "25",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header == "# system_id=tm:context:alpha=2"

    def test_rank_context_without_cooc_is_data_error(
        self, pipeline_dir, corpora_dir, tmp_path, capsys
    ):
        code = main(
            [
                "rank",
                "--target", str(corpora_dir / "target.jsonl"),
                "--dict", str(pipeline_dir / "dict_tm.tsv"),
                "--mode", "context",
                "--alpha", "2",
                "--out", str(tmp_path / "r.tsv"),
            ]
        )
        assert code == EXIT_DATA
        assert "[rank]" in capsys.readouterr().err


    def test_rank_with_a_matrix_for_another_dictionary_is_data_error(
        self, pipeline_dir, corpora_dir, tmp_path, capsys
    ):
        code = main(
            [
                "rank",
                "--target", str(corpora_dir / "target.jsonl"),
                "--dict", str(pipeline_dir / "dict_tm.tsv"),
                "--cooc", str(pipeline_dir / "cooc_filtered_tfidf.tsv"),
                "--mode", "context",
                "--alpha", "2",
                "--out", str(tmp_path / "r.tsv"),
            ]
        )
        assert code == EXIT_DATA
        assert "do not match the dictionary" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cooc_args, message",
        [
            (["--cooc-tm", "cooc_filtered_tfidf.tsv"], "do not match the dictionary terms"),
            ([], "co-occurrence matrix required for mode 'context'"),
        ],
    )
    def test_sweep_with_a_missing_or_foreign_matrix_is_data_error(
        self, pipeline_dir, corpora_dir, tmp_path, capsys, cooc_args, message
    ):
        if cooc_args:
            cooc_args = [cooc_args[0], str(pipeline_dir / cooc_args[1])]
        code = main(
            [
                "sweep",
                "--target", str(corpora_dir / "target.jsonl"),
                "--dict-tm", str(pipeline_dir / "dict_tm.tsv"),
                *cooc_args,
                "--alphas", "0,2",
                "--out-dir", str(tmp_path / "sweep"),
            ]
        )
        assert code == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_rank_rejects_a_dictionary_with_a_nan_boost(self, corpora_dir, tmp_path, capsys):
        dictionary = tmp_path / "dict.tsv"
        dictionary.write_text("#dictsieve-dictionary\tmethod=tfidf\tn=1\n7\ta\t1.0\tnan\n")
        code = main(
            [
                "rank",
                "--target", str(corpora_dir / "target.jsonl"),
                "--dict", str(dictionary),
                "--out", str(tmp_path / "r.tsv"),
            ]
        )
        assert code == EXIT_DATA
        assert f"{dictionary}:2: rank 7 is out of order, expected 1" in capsys.readouterr().err

    def test_filter_rejects_a_header_without_provenance(self, tmp_path, capsys):
        reference = tmp_path / "ref.tsv"
        generic = tmp_path / "gen.tsv"
        reference.write_text("#dictsieve-cooc\tprovenance=reference\tn=2\n#terms\ta\tb\na\tb\t0.5\n")
        generic.write_text("#dictsieve-cooc\tn=2\n#terms\ta\tb\na\tb\t0.4\n")
        code = main(
            [
                "filter-cooc",
                "--reference", str(reference),
                "--generic", str(generic),
                "--out", str(tmp_path / "f.tsv"),
            ]
        )
        assert code == EXIT_DATA
        assert f"{generic}:1: header has no provenance= field" in capsys.readouterr().err

    def test_filter_rejects_a_reversed_pair_with_its_location(self, tmp_path, capsys):
        reference = tmp_path / "ref.tsv"
        generic = tmp_path / "gen.tsv"
        reference.write_text("#dictsieve-cooc\tprovenance=reference\tn=2\n#terms\ta\tb\na\tb\t0.5\n")
        generic.write_text("#dictsieve-cooc\tprovenance=generic\tn=2\n#terms\ta\tb\nb\ta\t0.4\n")
        code = main(
            [
                "filter-cooc",
                "--reference", str(reference),
                "--generic", str(generic),
                "--out", str(tmp_path / "f.tsv"),
            ]
        )
        assert code == EXIT_DATA
        assert f"{generic}:3: pair ('b', 'a') is not in lexicographic order" in capsys.readouterr().err

    def test_fit_topics_follows_paragraphs_past_empty_sentences(self, tmp_path, capsys):
        corpus = tmp_path / "ref.jsonl"
        record = {"id": "d", "sentences": [[], ["x", "y"], ["z"]], "paragraphs": [[1], [2]]}
        corpus.write_text(json.dumps(record) + "\n")
        args = ["fit-topics", "--corpus", str(corpus), "--n-topics", "2", "--iterations", "2"]
        assert main(args + ["--out", str(tmp_path / "model.tsv")]) == EXIT_OK
        record["paragraphs"] = [[1], [3]]
        corpus.write_text(json.dumps(record) + "\n")
        assert main(args + ["--out", str(tmp_path / "bad.tsv")]) == EXIT_DATA
        assert "record 0: paragraph sentence index 3 is out of range" in capsys.readouterr().err

    def test_extract_rejects_a_model_whose_phi_row_is_not_a_distribution(
        self, pipeline_dir, corpora_dir, tmp_path, capsys
    ):
        lines = (pipeline_dir / "model.tsv").read_text().splitlines()
        head = lines[10].split("\t")[:2]
        assert head == ["phi", "1"]
        lines[10] = "\t".join(head + ["5.0"] * (len(lines[10].split("\t")) - 2))
        model = tmp_path / "model.tsv"
        model.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "extract-dict",
                "--method", "tm",
                "--corpus", str(corpora_dir / "reference.jsonl"),
                "--model", str(model),
                "--out", str(tmp_path / "d.tsv"),
            ]
        )
        assert code == EXIT_DATA
        assert f"{model}:11: phi row 1 sums to" in capsys.readouterr().err
        assert not (tmp_path / "d.tsv").exists()

    def test_a_model_without_topics_is_rejected_with_its_location(
        self, pipeline_dir, corpora_dir, tmp_path, capsys
    ):
        lines = (pipeline_dir / "model.tsv").read_text().splitlines()
        lines[1] = "n_topics\t0"
        model = tmp_path / "model.tsv"
        model.write_text("\n".join(lines) + "\n")
        assert main(["inspect-topics", "--model", str(model)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert f"[inspect-topics] {model}:2: n_topics must be >= 1, got 0" in captured.err
        assert captured.out == ""
        args = ["extract-dict", "--method", "tm", "--corpus", str(corpora_dir / "reference.jsonl")]
        assert main(args + ["--model", str(model), "--out", str(tmp_path / "d.tsv")]) == EXIT_DATA
        assert f"[extract-dict] {model}:2: n_topics must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "d.tsv").exists()

    @pytest.mark.parametrize(
        "rows, lineno, message",
        [
            (["a\tsystems/a.tsv"], 2, "expected 3 tab-separated fields, got 2"),
            (["a\tsystems/a.tsv\tyes"], 2, "biased must be 0 or 1, got 'yes'"),
            (["a\tsystems/a.tsv\t1", "", "a\tsystems/b.tsv\t0"], 4, "duplicate system id 'a'"),
        ],
    )
    def test_fuse_rejects_a_malformed_system_index(self, tmp_path, capsys, rows, lineno, message):
        index = tmp_path / "systems.tsv"
        index.write_text("system_id\tfile\tbiased\n" + "\n".join(rows) + "\n")
        code = main(["fuse", "--systems-dir", str(tmp_path)])
        assert code == EXIT_DATA
        assert f"{index}:{lineno}: {message}" in capsys.readouterr().err


# every reader of a file the tool takes as input, called on ``path``
TEXT_READERS = {
    "jsonl": ingest_corpus,
    "plaintext-dir": lambda path: ingest_corpus(path.parent, format="plaintext-dir"),
    "dictionary": load_dictionary,
    "matrix": load_cooc,
    "ranked-list": load_ranked_list,
    "model": load_model,
    "systems.tsv": cli._read_system_index,
    "pseudorels": read_pseudorels,
    "judgments": read_judgments,
    "config": read_config_file,
}


class TestNotUtf8:
    @pytest.mark.parametrize("lineno", [1, 3])
    @pytest.mark.parametrize("reader", list(TEXT_READERS))
    def test_each_reader_names_the_line(self, tmp_path, reader, lineno):
        path = tmp_path / "input" / "doc.txt"
        path.parent.mkdir()
        lines = [b"ok"] * 4
        lines[lineno - 1] = b"caf\xe9 \xff"
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: not UTF-8 text$"):
            TEXT_READERS[reader](path)

    def test_a_bad_byte_past_the_first_read_buffer(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = json.dumps({"id": "d", "sentences": [["word"] * 40]}).encode()
        records = [record.replace(b'"d"', f'"d{i}"'.encode()) for i in range(2000)]
        records[1499] = records[1499].replace(b"word", b"w\xffrd", 1)
        path.write_bytes(b"\n".join(records) + b"\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1500: not UTF-8 text$"):
            ingest_corpus(path)

    def test_ingest_of_latin_1_exits_2_and_writes_nothing(self, tmp_path, capsys):
        source = tmp_path / "latin1.jsonl"
        lines = [{"id": "a", "sentences": [["tea"]]}, {"id": "b", "sentences": [["café"]]}]
        source.write_bytes("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in lines).encode("latin-1"))
        out = tmp_path / "out.jsonl"
        assert main(["ingest", "--input", str(source), "--out", str(out)]) == EXIT_DATA
        assert f"[ingest] {source}:2: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()


class TestPipelineArtifacts:
    EXPECTED = (
        "corpus_reference.jsonl",
        "corpus_generic.jsonl",
        "corpus_target.jsonl",
        "model.tsv",
        "dict_tm.tsv",
        "dict_tfidf.tsv",
        "cooc_reference_tm.tsv",
        "cooc_generic_tm.tsv",
        "cooc_filtered_tm.tsv",
        "cooc_reference_tfidf.tsv",
        "cooc_generic_tfidf.tsv",
        "cooc_filtered_tfidf.tsv",
        "systems.tsv",
        "eval_report.tsv",
        "pseudorels.txt",
        "nd_series.tsv",
        "wins_series.tsv",
        "manifest.json",
    )

    def test_all_artifacts_present(self, pipeline_dir):
        for name in self.EXPECTED:
            assert (pipeline_dir / name).exists(), name

    def test_sweep_directory_matches_its_index(self, pipeline_dir):
        index_lines = (pipeline_dir / "systems.tsv").read_text().splitlines()
        assert index_lines[0] == "system_id\tfile\tbiased"
        rows = [line.split("\t") for line in index_lines[1:]]
        # three alphas plus context-only, for each of the two dictionaries
        assert len(rows) == 8
        assert sum(1 for row in rows if row[2] == "1") == 4
        for _, fname, _ in rows:
            assert (pipeline_dir / fname).exists()

    def test_manifest_is_timestamp_free_and_hashes_inputs(self, pipeline_dir):
        manifest = json.loads((pipeline_dir / "manifest.json").read_text())
        assert manifest["package"] == "dictsieve"
        assert set(manifest) == {"package", "version", "config", "inputs"}
        assert set(manifest["inputs"]) == {"reference", "generic", "target"}
        for entry in manifest["inputs"].values():
            assert len(entry["sha256"]) == 64

    def test_directory_hash_separates_member_names_from_contents(self, tmp_path):
        left, right = tmp_path / "left", tmp_path / "right"
        left.mkdir()
        right.mkdir()
        (left / "ab").write_text("c")
        (right / "a").write_text("bc")
        assert cli._sha256_path(left) != cli._sha256_path(right)

    def test_fuse_recomputes_from_the_sweep_directory(self, pipeline_dir, tmp_path, capsys):
        out_dir = tmp_path / "fused"
        code = main(
            [
                "fuse",
                "--systems-dir", str(pipeline_dir),
                "--top-m", "10",
                "--fraction", "0.5",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert (out_dir / "eval_report.tsv").exists()
        assert (out_dir / "pseudorels.txt").exists()
        assert "pseudorels" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "corpora, n_topics, iterations, n_terms",
        [("planted", 2, 60, 16), ("zipf", 3, 5, 30)],
        ids=["planted", "zipf"],
    )
    def test_subcommand_chain_reproduces_run(
        self, corpora_dir, tmp_path, capsys, corpora, n_topics, iterations, n_terms
    ):
        if corpora == "zipf":
            corpora_dir = tmp_path / "zipf"
            corpora_dir.mkdir()
            write_zipf_corpora(corpora_dir, random.Random(1))
        run_dir = tmp_path / "run"
        inputs = {role: str(corpora_dir / f"{role}.jsonl") for role in ("reference", "generic", "target")}
        run = [
            "run", *(item for role, path in inputs.items() for item in (f"--{role}", path)),
            "--out-dir", str(run_dir), "--n-topics", str(n_topics), "--lda-alpha", "0.5",
            "--iterations", str(iterations), "--seed", "7", "--n-terms", str(n_terms), "--alphas", "0:4:2",
            "--k", "50",
        ]
        assert main(run) == EXIT_OK
        out = tmp_path / "chain"
        out.mkdir()
        corpus = {role: str(out / f"corpus_{role}.jsonl") for role in ("reference", "generic", "target")}
        commands = [
            ["ingest", "--input", inputs[role], "--role", role, "--out", path] for role, path in corpus.items()
        ]
        commands.append(
            [
                "fit-topics", "--corpus", corpus["reference"], "--n-topics", str(n_topics), "--alpha", "0.5",
                "--iterations", str(iterations), "--seed", "7", "--out", str(out / "model.tsv"),
            ]
        )
        for method in ("tm", "tfidf"):
            model = ["--model", str(out / "model.tsv")] if method == "tm" else []
            commands.append(
                ["extract-dict", "--method", method, "--corpus", corpus["reference"], *model,
                 "--n", str(n_terms), "--out", str(out / f"dict_{method}.tsv")]
            )
        for method in ("tm", "tfidf"):
            for role in ("reference", "generic"):
                commands.append(
                    ["build-cooc", "--corpus", corpus[role], "--dict", str(out / f"dict_{method}.tsv"),
                     "--role", role, "--out", str(out / f"cooc_{role}_{method}.tsv")]
                )
            commands.append(
                ["filter-cooc", "--reference", str(out / f"cooc_reference_{method}.tsv"),
                 "--generic", str(out / f"cooc_generic_{method}.tsv"),
                 "--out", str(out / f"cooc_filtered_{method}.tsv")]
            )
        commands.append(
            ["sweep", "--target", corpus["target"],
             "--dict-tm", str(out / "dict_tm.tsv"), "--dict-tfidf", str(out / "dict_tfidf.tsv"),
             "--cooc-tm", str(out / "cooc_filtered_tm.tsv"), "--cooc-tfidf", str(out / "cooc_filtered_tfidf.tsv"),
             "--alphas", "0:4:2", "--k", "50", "--out-dir", str(out)]
        )
        commands.append(["fuse", "--systems-dir", str(out)])
        assert len(commands) == 14
        for argv in commands:
            assert main(argv) == EXIT_OK, argv

        def tree(root: Path) -> dict[str, bytes]:
            return {
                path.relative_to(root).as_posix(): path.read_bytes()
                for path in sorted(root.rglob("*"))
                if path.is_file() and path.name != "manifest.json"
            }

        from_run, from_chain = tree(run_dir), tree(out)
        assert len(from_run) == 25
        assert from_chain.keys() == from_run.keys()
        for name, data in from_run.items():
            assert from_chain[name] == data, name

    def test_map_subcommand(self, pipeline_dir, tmp_path, capsys):
        index_lines = (pipeline_dir / "systems.tsv").read_text().splitlines()[1:]
        fname = index_lines[0].split("\t")[1]
        rels = tmp_path / "rels.txt"
        rels.write_text((pipeline_dir / "pseudorels.txt").read_text())
        code = main(
            ["map", "--ranked", str(pipeline_dir / fname), "--rels", str(rels)]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out.strip()
        system_id, value = out.split("\t")
        assert 0.0 <= float(value) <= 1.0

    def test_p_at_k_subcommand(self, pipeline_dir, tmp_path, capsys):
        index_lines = (pipeline_dir / "systems.tsv").read_text().splitlines()[1:]
        fname = index_lines[0].split("\t")[1]
        ranked_path = pipeline_dir / fname
        doc_ids = [
            line.split("\t")[1]
            for line in ranked_path.read_text().splitlines()
            if line and not line.startswith("#")
        ]
        rels = frozenset((pipeline_dir / "pseudorels.txt").read_text().split())
        judgments = tmp_path / "judgments.tsv"
        judgments.write_text(
            "".join(f"{doc_id}\t{int(doc_id in rels)}\n" for doc_id in doc_ids)
        )
        out_path = tmp_path / "p.tsv"
        code = main(
            [
                "p-at-k",
                "--ranked", str(ranked_path),
                "--judgments", str(judgments),
                "--ranges", "1-10,11-20",
                "--out", str(out_path),
            ]
        )
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0] == "from\tto\tprecision"
        assert len(lines) >= 2


class TestPrecedence:
    def test_flags_override_config_values(self, corpora_dir, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(
            "\n".join(
                [
                    f"reference = {corpora_dir / 'reference.jsonl'}",
                    f"generic = {corpora_dir / 'generic.jsonl'}",
                    f"target = {corpora_dir / 'target.jsonl'}",
                    f"out_dir = {tmp_path / 'from_config'}",
                    "n_topics = 2",
                    "n_terms = 16",
                    "iterations = 5",
                    "alphas = 0",
                    "k = 20",
                ]
            )
            + "\n"
        )
        flag_dir = tmp_path / "from_flag"
        code = main(["run", "--config", str(config), "--out-dir", str(flag_dir)])
        assert code == EXIT_OK
        assert flag_dir.exists()
        assert not (tmp_path / "from_config").exists()

    def test_environment_supplies_the_output_directory(
        self, corpora_dir, tmp_path, monkeypatch, capsys
    ):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(env_dir))
        code = main(
            [
                "run",
                "--reference", str(corpora_dir / "reference.jsonl"),
                "--generic", str(corpora_dir / "generic.jsonl"),
                "--target", str(corpora_dir / "target.jsonl"),
                "--n-topics", "2",
                "--n-terms", "16",
                "--iterations", "5",
                "--alphas", "0",
                "--k", "20",
            ]
        )
        assert code == EXIT_OK
        assert (env_dir / "manifest.json").exists()

    def test_flag_beats_environment(self, corpora_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "ignored"))
        flag_dir = tmp_path / "explicit"
        code = main(
            [
                "run",
                "--reference", str(corpora_dir / "reference.jsonl"),
                "--generic", str(corpora_dir / "generic.jsonl"),
                "--target", str(corpora_dir / "target.jsonl"),
                "--out-dir", str(flag_dir),
                "--n-topics", "2",
                "--n-terms", "16",
                "--iterations", "5",
                "--alphas", "0",
                "--k", "20",
            ]
        )
        assert code == EXIT_OK
        assert flag_dir.exists()
        assert not (tmp_path / "ignored").exists()

    def test_run_requires_the_three_essentials(self, capsys):
        assert main(["run", "--n-topics", "2"]) == EXIT_USAGE


# (subcommand, option dest, config key) for every subcommand default that
# mirrors a config key
MIRRORED_DEFAULTS = (
    ("ingest", "format", "format"),
    ("fit-topics", "alpha", "lda_alpha"),
    ("fit-topics", "beta", "beta"),
    ("fit-topics", "iterations", "iterations"),
    ("fit-topics", "seed", "seed"),
    ("extract-dict", "n", "n_terms"),
    ("extract-dict", "exclude", "exclude"),
    ("rank", "slope", "slope"),
    ("rank", "k", "k"),
    ("sweep", "alphas", "alphas"),
    ("sweep", "k", "k"),
    ("sweep", "slope", "slope"),
    ("fuse", "top_m", "top_m"),
    ("fuse", "fraction", "fraction"),
)

# config key -> (config-file value, a different flag value), both valid
CONFIG_VALUES = {
    "reference": ("ref-a.jsonl", "ref-b.jsonl"),
    "generic": ("gen-a.jsonl", "gen-b.jsonl"),
    "target": ("tgt-a.jsonl", "tgt-b.jsonl"),
    "out_dir": ("out-a", "out-b"),
    "format": ("jsonl", "plaintext-dir"),
    "n_topics": ("3", "5"),
    "n_terms": ("10", "20"),
    "slope": ("0.25", "0.5"),
    "alphas": ("0:4:2", "1,3"),
    "k": ("10", "20"),
    "seed": ("1", "2"),
    "lda_alpha": ("0.25", "0.5"),
    "beta": ("0.02", "0.03"),
    "iterations": ("10", "20"),
    "exclude": ("1", "2"),
    "top_m": ("10", "20"),
    "fraction": ("0.25", "0.75"),
}


class TestRunFlags:
    def test_each_config_key_is_a_run_flag(self):
        flags = {
            action.dest: action.option_strings
            for action in subparser("run")._actions
            if action.dest not in ("help", "config")
        }
        assert flags == {f.name: ["--" + f.name.replace("_", "-")] for f in fields(PipelineConfig)}
        assert len(flags) == 17

    @pytest.mark.parametrize("key", [f.name for f in fields(PipelineConfig)])
    def test_the_flag_beats_the_config_file(self, key, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.OUT_DIR_ENV, raising=False)
        file_value, flag_value = CONFIG_VALUES[key]
        values = {"reference": "ref.jsonl", "target": "tgt.jsonl", "n_topics": "4", key: file_value}
        config_path = tmp_path / "run.conf"
        config_path.write_text("".join(f"{name} = {value}\n" for name, value in values.items()))
        flag = "--" + key.replace("_", "-")
        parser = build_parser()
        from_file = build_pipeline_config(parser.parse_args(["run", "--config", str(config_path)]))
        from_flag = build_pipeline_config(parser.parse_args(["run", "--config", str(config_path), flag, flag_value]))
        assert str(getattr(from_file, key)) == file_value
        assert str(getattr(from_flag, key)) == flag_value
        assert type(getattr(from_flag, key)) is type(getattr(from_file, key))

    @pytest.mark.parametrize("command, dest, key", MIRRORED_DEFAULTS)
    def test_subcommand_defaults_are_the_config_defaults(self, command, dest, key):
        assert subparser(command).get_default(dest) == getattr(PipelineConfig(), key)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_an_unknown_format_is_a_usage_error_before_any_stage(
        self, source, corpora_dir, tmp_path, capsys
    ):
        out_dir = tmp_path / "out"
        args = [
            "run",
            "--reference", str(corpora_dir / "reference.jsonl"),
            "--target", str(corpora_dir / "target.jsonl"),
            "--out-dir", str(out_dir),
            "--n-topics", "2",
        ]
        if source == "flag":
            args += ["--format", "bogus"]
        else:
            config_path = tmp_path / "run.conf"
            config_path.write_text("format = bogus\n")
            args += ["--config", str(config_path)]
        assert main(args) == EXIT_USAGE
        assert "format must be one of jsonl, plaintext-dir, got 'bogus'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_the_traced_benchmark_finds_every_cli_name_it_wraps(self):
        path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        names = [name for module, name, *_ in spans.WRAPPED if module == "cli"]
        assert names
        for name in names:
            assert callable(getattr(cli, name, None)), name
