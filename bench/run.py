"""coherelab benchmark: seeded CLI workloads, checked against numpy references.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sweep-ring300 --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all

Each workload runs in its own child process (``worker.py``) with BLAS
pinned to one thread and ``COHERELAB_THREADS=2``, against input files
generated from ``--seed``.  ``--trace 0`` times whole CLI commands in a
closed loop with one client and reports the end-to-end metrics;
``--trace 1`` replays one command under spans and reports the per-layer
metrics.  Every output is checked row by row against an independent
numpy reference computed before the timed region.  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed``
count checked output rows, ``metrics`` maps names to value and unit.
The full record (environment, input hashes, calls, spans) is written
under ``.bench_work/results``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: the reference must not leave worker
# threads competing with the timed child for the cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import refcheck  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COHERELAB_THREADS = "2"
# Time the worker may take beyond --seconds: input generation, the
# reference, the call running when the time is up, the set-up windows and
# the traced replay with its probes.
MARGIN_S = 120.0

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class BenchError(RuntimeError):
    """The benchmark itself could not produce a measurement."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["COHERELAB_THREADS"] = COHERELAB_THREADS
    return env


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    env = child_env()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "COHERELAB_THREADS": env["COHERELAB_THREADS"],
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def run_child(job: dict, workdir: Path, timeout: float) -> dict:
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(job_path)],
            env=child_env(), cwd=ROOT, stdout=sys.stderr, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    result = Path(job["result"])
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_workload(spec, seed: int, seconds: int, trace: bool) -> dict:
    started = perf_counter()
    label = f"{spec.name}-seed{seed}-trace{int(trace)}"
    workdir = WORK / f"run-{label}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        inputs = gen.generate(spec, seed, workdir / "inputs")
        hashes = inputs.sha256()
        reference = refcheck.reference_for(inputs)
        setup_kind = "model" if "model" in inputs.files else "net"
        job = {
            "argv": spec.argv(inputs, workdir / "out.csv"),
            "out": str(workdir / "out.csv"),
            "setup_kind": setup_kind,
            "setup_file": str(inputs.files[setup_kind]),
            "seconds": seconds,
            "trace": trace,
            "n": inputs.n,
            "edges": inputs.edges,
            "result": str(workdir / "result.json"),
        }
        remaining = seconds + MARGIN_S - (perf_counter() - started)
        record = run_child(job, workdir, remaining)
        checks = refcheck.check_calls(record["calls"], reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(workload=spec.name, seed=seed, seconds=seconds, trace=trace,
                  environment=environment(seed), inputs=hashes)
    record["attempted"] = sum(c.rows for c in checks)
    record["failed"] = sum(c.failed for c in checks)
    record["worst_deviation"] = max(c.worst for c in checks)
    record["check_notes"] = sorted({note for c in checks for note in c.notes})[:10]
    record["check_info"] = [c.info for c in checks]
    if trace:
        values = record["layers"]
    else:
        call_s = sorted(c["seconds"] for c in record["calls"])
        values = {
            # Low order statistics, not medians: on a shared 2-core VM,
            # neighbours slow stretches of seconds to minutes by up to 1.8x,
            # so a run's median follows how much of it fell in such a
            # stretch.  run_s is the 10th percentile (nearest rank) of the
            # calls, not the fastest, because the two-thread trial pool has
            # rare calls that run 20% faster; setup_s is the fastest set-up.
            "run_s": call_s[len(call_s) // 10],
            "setup_s": min(record["setup_s"]),
            "peak_rss_mb": record["peak_rss_mb"],
        }
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"measured {sorted(values)}, BENCHMARK.json declares {declared}")
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{label}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {int(record['trace'])}  seconds {record['seconds']}")
    print("  env    " + json.dumps(record["environment"], sort_keys=True))
    print("  inputs " + json.dumps(record["inputs"], sort_keys=True))
    calls = record["calls"]
    for name, metric in record["metrics"].items():
        line = f"  {name:<28} {metric['value']:.6g} {metric['unit']}"
        if name == "run_s":
            line += f"  (10th percentile of {len(calls)} calls: " + ", ".join(
                f"{c['seconds']:.3f}" for c in calls) + ")"
        elif name == "setup_s":
            line += f"  (fastest of {len(record['setup_s'])})"
        print(line)
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'fail_frac':<28} {failed / attempted:.6g}  ({failed} of {attempted} rows; "
          f"worst deviation {record['worst_deviation']:.3g})")
    for info in {json.dumps(i, sort_keys=True) for i in record["check_info"] if i}:
        print(f"  check  {info}")
    for note in record["check_notes"]:
        print(f"  FAILED {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.SPECS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DECLARED["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "coherelab" / "__init__.py").is_file():
        print(f"bench: no coherelab sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(gen.SPECS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(gen.SPECS[name], args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in records for name, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
