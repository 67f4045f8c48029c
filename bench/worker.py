"""One workload run in a fresh process: ``python3 worker.py JOB.json``.

``run.py`` writes the job (CLI arguments, input paths, mode) and reads
back the record this script writes to ``job["result"]``.  Keeping each
workload in its own process keeps the peak resident set per workload.

Timed mode runs ``coherelab.cli.main`` in a closed loop, one call after
another, until ``seconds`` have passed, and times set-up (the input
reader, repeated) before and between the calls.  Traced mode runs the command once untraced to
warm the process, replays it step by step under spans, runs it untraced
again for comparison, probes the inner layers at the same inputs, and
reruns the compute stage with one thread.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from coherelab import cli  # noqa: E402
from coherelab.coherence import (  # noqa: E402
    BoundHypothesisViolated,
    FrequencyGrid,
    NetworkModel,
    gbar_value,
    incoherence,
    lemma4_bound,
    report_csv_header,
    report_csv_row,
    sweep,
    transfer_matrix,
)
from coherelab.concentration import (  # noqa: E402
    CompleteFamily,
    concentration_csv_lines,
    concentration_experiment,
    sample_nodes,
)
from coherelab.netfile import read_model_file, read_network_file  # noqa: E402
from coherelab.network import complete_graph, laplacian_from_edges  # noqa: E402
from coherelab.rational import ExcessiveDegree, RationalTF, harmonic_mean  # noqa: E402
from coherelab.timedomain import (  # noqa: E402
    ImpulseAll,
    closed_loop,
    simulate,
    trajectory_csv_lines,
)

from gen import sha256_file  # noqa: E402
from tracing import COMPOSED, PROBED, Tracer, layer_metrics  # noqa: E402

SETUP_WINDOW_S = 0.25
SETUP_REPS = (2, 1000)  # per window: at least, at most


def _run_cli(argv: list[str]) -> tuple[int, float]:
    start = perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # a crash of the command is a failed call, not a failed benchmark
        traceback.print_exc()
        code = -1
    return code, perf_counter() - start


def _keep_output(job: dict, seen: dict[str, str], index: int) -> dict:
    """Keep each distinct output once for the reference check."""
    out = Path(job["out"])
    if not out.exists():
        return {}
    digest = sha256_file(out)
    if digest in seen:
        out.unlink()
    else:
        seen[digest] = f"out-{index}.csv"
        out.rename(out.with_name(seen[digest]))
    return {"output": seen[digest], "sha256": digest}


def _time_setup(read, path: str, setup: list[float]) -> None:
    """One window of repeated set-up; windows sit before and between the
    timed calls, so the samples span the whole run."""
    start = perf_counter()
    for rep in range(SETUP_REPS[1]):
        if rep >= SETUP_REPS[0] and perf_counter() - start >= SETUP_WINDOW_S:
            break
        t0 = perf_counter()
        read(path)
        setup.append(perf_counter() - t0)


def timed(job: dict) -> dict:
    read = read_model_file if job["setup_kind"] == "model" else read_network_file
    path = job["setup_file"]
    read(path)  # first call pays lazy imports; users pay them once per process
    setup: list[float] = []
    _time_setup(read, path, setup)
    calls: list[dict] = []
    seen: dict[str, str] = {}
    start = perf_counter()
    while not calls or perf_counter() - start < job["seconds"]:
        code, seconds = _run_cli(job["argv"])
        calls.append({"rc": code, "seconds": seconds, **_keep_output(job, seen, len(calls))})
        _time_setup(read, path, setup)
    return {"calls": calls, "setup_s": setup}


# ---------------------------------------------------------------------------
# traced mode
# ---------------------------------------------------------------------------


def _write(text: str, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _grid(args):
    make = FrequencyGrid.logarithmic if args.spacing == "log" else FrequencyGrid.linear
    return make(args.sigma, args.omega_min, args.omega_max, args.points)


def _build(tr: Tracer, laplacian, nodes, coupling):
    with tr.span("coherence.model_build_s", "probe"):
        net = NetworkModel(laplacian, nodes, coupling)
    with tr.span("rational.harmonic_mean_s", "probe"):
        try:
            harmonic_mean(net.nodes)
        except ExcessiveDegree:
            pass
    return net


def _evaluate(tr: Tracer, net, points) -> None:
    with tr.span("coherence.node_eval_s", "probe"):
        for s in points:
            gbar_value(net, s)
    with tr.span("coherence.transfer_s", "probe"):
        for s in points:
            transfer_matrix(net, s)
    with tr.span("coherence.incoherence_s", "probe"):
        for s in points:
            incoherence(net, s)


def _probe_file_network(tr: Tracer, job: dict, net, points) -> None:
    with tr.span("network.laplacian_s", "probe"):
        lap = laplacian_from_edges(job["n"], job["edges"])
    _evaluate(tr, _build(tr, lap, net.nodes, net.coupling), points)


def _replay_sweep(tr: Tracer, args, job: dict) -> dict:
    with tr.span("netfile.read_s", "composed"):
        net = read_network_file(args.net, tol_cancel=args.tol_cancel)
    grid = _grid(args)
    kwargs = dict(with_bounds=not args.no_bounds, margin=args.margin,
                  tol_zero=args.tol_zero, tol_classify=args.tol_classify)
    with tr.span("coherence.sweep_s", "composed"):
        result = sweep(net, grid, **kwargs)
    with tr.span("cli.format_s", "composed"):
        text = "\n".join([report_csv_header(), *map(report_csv_row, result.reports)]) + "\n"
    _write(text, args.out)
    points = [complex(s) for s in grid.points]

    def probe() -> tuple[int, int]:
        _probe_file_network(tr, job, net, points)
        if result.m1 is None:
            return 0, 0
        bounded = 0
        with tr.span("coherence.bound_s", "probe"):
            for s in points:
                try:
                    bound = lemma4_bound(net, s, result.m1, result.m2, tol_zero=args.tol_zero)
                except BoundHypothesisViolated:
                    bound = None
                bounded += bound is not None
        return bounded, len(points)

    return {"compute": "coherence.sweep_s", "rerun": lambda: sweep(net, grid, **kwargs),
            "probe": probe}


def _replay_concentrate(tr: Tracer, args, job: dict) -> dict:
    if args.family != "complete":
        raise ValueError(f"replay supports --family complete, got {args.family!r}")
    with tr.span("netfile.read_s", "composed"):
        model = read_model_file(args.model)
    sizes = [int(tok) for tok in args.sizes.split(",")]
    grid = _grid(args)

    def run():
        return concentration_experiment(model, CompleteFamily(), sizes, grid, args.trials,
                                        args.epsilon, args.seed, tol_pole=args.tol_pole)

    with tr.span("concentration.experiment_s", "composed"):
        table = run()
    with tr.span("cli.format_s", "composed"):
        text = "\n".join(concentration_csv_lines(table)) + "\n"
    _write(text, args.out)

    def probe() -> tuple[int, int]:
        points = [complex(s) for s in grid.points]
        coupling = RationalTF([1.0], [1.0])  # the experiment's default coupling
        for n in sizes:
            with tr.span("network.laplacian_s", "probe"):
                lap = complete_graph(n)
            for trial in range(args.trials):
                with tr.span("concentration.sample_s", "probe"):
                    nodes = sample_nodes(model, n, seed=args.seed, spawn_prefix=(n, trial))
                _evaluate(tr, _build(tr, lap, nodes, coupling), points)
        return 0, 0

    return {"compute": "concentration.experiment_s", "rerun": run, "probe": probe}


def _replay_simulate(tr: Tracer, args, job: dict) -> dict:
    if args.input != "impulse" or args.reference:
        raise ValueError("replay supports --input impulse without --reference")
    with tr.span("netfile.read_s", "composed"):
        net = read_network_file(args.net, tol_cancel=args.tol_cancel)
    with tr.span("timedomain.closed_loop_s", "composed"):
        ss = closed_loop(net)
    with tr.span("timedomain.simulate_s", "composed"):
        trajectory = simulate(ss, ImpulseAll(), args.t_end, args.dt)
    with tr.span("timedomain.csv_s", "composed"):
        lines = trajectory_csv_lines(trajectory)
    with tr.span("cli.format_s", "composed"):
        text = "\n".join(lines) + "\n"
    _write(text, args.out)

    def probe() -> tuple[int, int]:
        _probe_file_network(tr, job, net, [])  # no frequency points on this path
        return 0, 0

    return {"compute": "timedomain.simulate_s",
            "rerun": lambda: simulate(ss, ImpulseAll(), args.t_end, args.dt), "probe": probe}


REPLAYS = {
    "sweep": _replay_sweep,
    "concentrate": _replay_concentrate,
    "simulate": _replay_simulate,
}


def traced(job: dict) -> dict:
    seen: dict[str, str] = {}
    calls = []

    def untraced() -> float:
        code, seconds = _run_cli(job["argv"])
        calls.append({"rc": code, "seconds": seconds, **_keep_output(job, seen, len(calls))})
        return seconds

    untraced()  # the first call in a process pays one-off costs; keep it out of the comparison
    tr = Tracer()
    with tr.span("cli.main", "composed") as root:
        args = cli.build_parser().parse_args(job["argv"])
        stages = REPLAYS[args.command](tr, args, job)
    tr.cover(COMPOSED, "composed")
    calls.append({"rc": 0, "seconds": root["end"] - root["start"], **_keep_output(job, seen, 1)})
    untraced_s = untraced()

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bounded, attempts = stages["probe"]()
    tr.cover(PROBED, "probe")

    threads = os.environ.get("COHERELAB_THREADS")
    os.environ["COHERELAB_THREADS"] = "1"
    try:
        with tr.span(stages["compute"], "serial"):
            stages["rerun"]()
    finally:
        if threads is None:
            del os.environ["COHERELAB_THREADS"]
        else:
            os.environ["COHERELAB_THREADS"] = threads

    metrics = layer_metrics(tr, root["id"], untraced_s, bounded, attempts, stages["compute"])
    return {"calls": calls, "layers": metrics, "spans": tr.spans}


def peak_rss_mb() -> float:
    """Peak resident set of this process image, in MiB.

    On Linux ``ru_maxrss`` also counts the parent's resident set at the
    fork, so the kernel's high-water mark of this image comes first.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    if Path(cli.__file__).resolve().parent != (SRC / "coherelab").resolve():
        raise ImportError(f"coherelab imported from {cli.__file__}, not from {SRC}")
    record = traced(job) if job["trace"] else timed(job)
    record["peak_rss_mb"] = peak_rss_mb()
    Path(job["result"]).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
