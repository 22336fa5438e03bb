"""Benchmark of the dictsieve pipeline on seeded synthetic corpora.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run generates the workload's corpora from ``--seed`` (several times,
to time set-up and to check that generation is deterministic), then runs
jobs as a closed loop: one client, one job at a time, each job in a fresh
child process (``bench/job.py``), until ``--seconds`` have passed and every
pipeline seed has run at least once and one of them twice.  Each job is
checked, and the last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of the traced
run (``--trace 1``).  Every failed job, subcommand or check counts in
``failed``; ``failed / attempted`` is the ops_failed_ratio.

Workloads (sizes are chosen so one job takes a few seconds):

- sweep-wide: the default 34-system alpha sweep over a mid-size target, so
  scoring, ranking and the sweep dominate and the sampler does little;
- lda-deep: many Gibbs sweeps over the reference and a 4-system sweep, so
  the sampler dominates and scoring does almost nothing;
- stage-chain: the 14 subcommands in process through ``cli.main``, each
  reading back the files the stage before it wrote, over a large generic
  corpus, so ingest, co-occurrence and artifact I/O dominate.

End-to-end metrics (``--trace 0``):

- job_s: median time of the jobs, from input files to a complete output
  directory;
- setup_s: median corpus generation time plus the median time a job
  process takes to import dictsieve and warm up;
- peak_rss_mb: median ``ru_maxrss`` of the job processes, read right after
  the job and before any check;
- planted_map: mean, over the pipeline seeds, of the mean MAP of every
  swept system against the generator's planted on-topic documents.

The traced run (``--trace 1``) alternates untraced and traced jobs; the
per-layer metrics are medians over the traced ones (see ``spans.py``), and
trace.overhead_s is the traced minus the untraced median job_s.

Every reported time is a wall time rescaled to a fixed reference CPU speed
by the calibration loop of ``speed.py``, timed in the same process right
before and right after the measured interval; the raw wall times are
printed alongside.
"""

from __future__ import annotations

import os

# one process at a time and no extra threads, numpy's BLAS included; set
# before numpy is imported here or in a job
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# a fixed string-hash seed gives every job the same dict and set layouts, so
# job times do not vary with per-process hash randomization
os.environ["PYTHONHASHSEED"] = "0"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from corpora import CorpusSizes, generate  # noqa: E402
from spans import expected_spans, layer_metrics, layer_self_times, summarize  # noqa: E402
from speed import loop_seconds, speed_factor  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = Path("src")
WORK = Path(".bench_work")

PIPELINE_SEEDS = 3  # planted_map is averaged over this many LDA seeds
MIN_JOBS = PIPELINE_SEEDS + 1  # so one seed repeats and determinism is checked
SETUPS = 5
LAUNCH_LIMIT_S = 140.0  # no job starts later than this into a run
RUN_LIMIT_S = 175.0

N_TOPICS = 23
N_TERMS = 500
K = 2000
SLOPE = 0.7
TOP_M = 50
FRACTION = 0.5


@dataclass(frozen=True)
class Workload:
    sizes: CorpusSizes
    iterations: int
    alphas: str
    n_alphas: int
    chain: bool = False


WORKLOADS = {
    "sweep-wide": Workload(CorpusSizes(reference=100, generic=400, target=350), 3, "0:30:2", 16),
    "lda-deep": Workload(CorpusSizes(reference=150, generic=200, target=400), 25, "0", 1),
    "stage-chain": Workload(CorpusSizes(reference=100, generic=6000, target=1200), 2, "0", 1, chain=True),
}

END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "planted_map": "MAP"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if ".us_per_" in name:
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Ledger:
    """Operations attempted and failed: jobs, subcommands and checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(directory).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def average_precision(doc_ids: list[str], relevant: frozenset[str]) -> float:
    hits = 0
    total = 0.0
    for rank, doc_id in enumerate(doc_ids, start=1):
        if doc_id in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def _tsv_rows(path: Path) -> list[list[str]]:
    """Rows of a TSV file with a header line, header dropped."""
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()[1:] if line]


def check_outputs(out: Path, workload: Workload, planted: frozenset[str], ledger: Ledger) -> float:
    """Check the sweep and fusion outputs; return the mean MAP of all swept
    systems against the planted on-topic documents."""
    index = _tsv_rows(out / "systems.tsv")
    ids = [row[0] for row in index]
    ledger.check(
        "system inventory",
        len(ids) == 2 * (workload.n_alphas + 1)
        and len(set(ids)) == len(ids)
        and {"tm:context:alpha=0", "tfidf:context:alpha=0"} <= set(ids),
        f"{len(ids)} systems",
    )
    lists_ok = True
    precisions = []
    for system_id, fname, _ in index:
        lines = (out / fname).read_text(encoding="utf-8").splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        scores = [float(row[2]) for row in rows]
        lists_ok = lists_ok and (
            lines[0] == f"# system_id={system_id}"
            and [int(row[0]) for row in rows] == list(range(1, len(rows) + 1))
            and all(a >= b for a, b in zip(scores, scores[1:]))
        )
        precisions.append(average_precision([row[1] for row in rows], planted))
    ledger.check("ranks 1..m with non-increasing scores", lists_ok)

    pool = len(_tsv_rows(out / "wins_series.tsv"))
    rels = (out / "pseudorels.txt").read_text(encoding="utf-8").split()
    ledger.check(
        "pseudorel count",
        len(rels) == math.ceil(FRACTION * pool),
        f"{len(rels)} pseudorels from a pool of {pool}",
    )
    maps = {row[0]: float(row[1]) for row in _tsv_rows(out / "eval_report.tsv")}
    ledger.check(
        "MAP in [0, 1] for every system",
        set(maps) == set(ids) and all(0.0 <= value <= 1.0 for value in maps.values()),
    )
    return statistics.fmean(precisions)


def environment() -> dict:
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or "unknown"
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=30,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "dirty": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def job_config(inputs: dict, out: Path, workload: Workload, seed: int) -> dict:
    """PipelineConfig fields of one job; paths are relative to the checkout,
    so the manifest, and with it the output digest, does not depend on where
    the checkout lives."""
    return {
        "reference": str(inputs["reference"]),
        "generic": str(inputs["generic"]),
        "target": str(inputs["target"]),
        "out_dir": str(out),
        "n_topics": N_TOPICS,
        "n_terms": N_TERMS,
        "iterations": workload.iterations,
        "alphas": workload.alphas,
        "k": K,
        "slope": SLOPE,
        "seed": seed,
        "top_m": TOP_M,
        "fraction": FRACTION,
    }


def spawn_job(spec: dict, work: Path, timeout: float) -> tuple[dict | None, str]:
    """Run one job in a fresh child process and wait for it to end.

    Returns the job's result (None if the child failed) and the last line
    the child wrote to standard error.
    """
    spec_path = work / "job.json"
    result_path = Path(spec["result"])
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "job.py"), str(spec_path)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, "timed out"
    stderr_tail = " ".join(proc.stderr.strip().splitlines()[-1:])
    if proc.returncode != 0 or not result_path.is_file():
        return None, stderr_tail
    return json.loads(result_path.read_text(encoding="utf-8")), stderr_tail


def print_shares(share_rows: list[dict]) -> None:
    """Median share of traced job_s spent in each layer's own code."""
    layers = sorted({layer for row in share_rows for layer in row})
    shares = {layer: statistics.median(row.get(layer, 0.0) for row in share_rows) for layer in layers}
    print("self time share of traced job_s: " + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))
    print(
        "purpose: scoring+retrieval+evaluation={:.3f} topics={:.3f} corpus+cooc={:.3f}".format(
            shares.get("scoring", 0.0) + shares.get("retrieval", 0.0) + shares.get("evaluation", 0.0),
            shares.get("topics", 0.0),
            shares.get("corpus", 0.0) + shares.get("cooc", 0.0),
        )
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / SRC / "dictsieve" / "__init__.py").is_file():
        print(f"no dictsieve sources under {ROOT / SRC}: run from a dictsieve checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    run_start = time.perf_counter()
    workload = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "input").mkdir(parents=True)
    ledger = Ledger()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))

    # set-up: generate the corpora several times; each pass must write the
    # same bytes
    inputs = {role: work / "input" / f"{role}.jsonl" for role in ("reference", "generic", "target")}
    generate_s = []
    input_digests = set()
    loop_before = loop_seconds()
    for _ in range(SETUPS):
        start = time.perf_counter()
        planted = generate(workload.sizes, args.seed, inputs)
        generate_s.append(time.perf_counter() - start)
        input_digests.add(tuple(file_digest(path) for path in inputs.values()))
    generate_scale = speed_factor(loop_before, loop_seconds())
    ledger.check("generator is deterministic", len(input_digests) == 1)

    out = work / "out"
    seeds = [args.seed * PIPELINE_SEEDS + i for i in range(PIPELINE_SEEDS)]
    digests: dict[int, str] = {}
    planted_maps: dict[int, float] = {}
    untraced: list[dict] = []
    traced: list[dict] = []
    layer_rows: list[dict] = []
    share_rows: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    job_index = 0
    while job_index < MIN_JOBS or time.perf_counter() < deadline:
        elapsed = time.perf_counter() - run_start
        if elapsed > LAUNCH_LIMIT_S:
            break
        seed = seeds[job_index % PIPELINE_SEEDS]
        with_trace = bool(args.trace) and job_index % 2 == 1
        job_index += 1
        shutil.rmtree(out, ignore_errors=True)
        spec = {
            "src": str(SRC),
            "config": job_config(inputs, out, workload, seed),
            "chain": workload.chain,
            "trace": with_trace,
            "check_unigram": seed not in digests,
            "result": str(work / "result.json"),
        }
        result, stderr_tail = spawn_job(spec, work, timeout=max(5.0, RUN_LIMIT_S - elapsed))
        if not ledger.check("job", result is not None, stderr_tail):
            break
        for code in result["codes"]:
            ledger.check("subcommand exit code", code == 0, f"exit {code}: {stderr_tail}")
        if any(result["codes"]):
            break
        ledger.check(
            "dictsieve imported from the checkout",
            Path(result["package"]).is_relative_to((ROOT / SRC).resolve()),
            result["package"],
        )
        mean_map = check_outputs(out, workload, planted, ledger)
        digest = tree_digest(out)
        if seed in digests:
            ledger.check("byte-identical rerun", digest == digests[seed], f"pipeline seed {seed}")
        else:
            digests[seed] = digest
            planted_maps[seed] = mean_map
        if "unigram_ok" in result:
            ledger.check("alpha=0 equals unigram ranking", result["unigram_ok"], f"pipeline seed {seed}")
        scale = speed_factor(*result["loop_s"])
        result["job_s"] = result["wall_s"] * scale
        result["import_s"] = result["import_wall_s"] * scale
        print(
            f"job {job_index} pipeline_seed={seed} traced={int(with_trace)} "
            f"job_s={result['job_s']:.4f} wall_s={result['wall_s']:.4f} speed_factor={scale:.4f} "
            f"peak_rss_mb={result['peak_rss_kb'] / 1024:.1f}"
        )
        if not with_trace:
            untraced.append(result)
            continue
        traced.append(result)
        table = summarize(result["spans"], scale)
        missing = [name for name in expected_spans(workload.chain) if name not in table]
        if ledger.check("every traced span was called", not missing, ", ".join(missing)):
            layer_rows.append(layer_metrics(table, result["counts"]))
            share_rows.append({
                layer: seconds / result["job_s"] for layer, seconds in layer_self_times(table).items()
            })

    failed = len(ledger.failures)
    print(f"loadavg_after {os.getloadavg()}")
    for seed, digest in sorted(digests.items()):
        print(f"output digest pipeline_seed={seed} sha256={digest}")
    for line in ledger.failures:
        print(f"FAILED {line}")
    print(f"ops_failed_ratio {failed}/{ledger.attempted} = {failed / ledger.attempted:g}")
    print("waits: none; the pipeline is single-threaded and in-process, so no layer waits on another")

    metrics = {}
    if failed == 0 and not args.trace:
        job_times = [r["job_s"] for r in untraced]
        print(
            f"job_s n={len(job_times)} min={min(job_times):.4f} "
            f"median={statistics.median(job_times):.4f} max={max(job_times):.4f}; "
            f"wall_s median={statistics.median(r['wall_s'] for r in untraced):.4f}"
        )
        for seed, value in sorted(planted_maps.items()):
            print(f"planted_map pipeline_seed={seed} {value:.6f}")
        values = {
            "job_s": statistics.median(job_times),
            "setup_s": statistics.median(generate_s) * generate_scale
            + statistics.median(r["import_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in untraced) / 1024.0,
            "planted_map": statistics.fmean(planted_maps.values()),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}
    elif failed == 0:
        values = {name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]}
        values["trace.overhead_s"] = statistics.median(r["job_s"] for r in traced) - statistics.median(
            r["job_s"] for r in untraced
        )
        metrics = {name: {"value": value, "unit": per_layer_unit(name)} for name, value in values.items()}
        print_shares(share_rows)

    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted, "failed": failed, "metrics": metrics}))
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
