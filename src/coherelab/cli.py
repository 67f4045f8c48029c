"""Command-line front end.

One analysis per process: parse the input files, run the requested
computation, and write the result (CSV or a short text report) to stdout
or ``--out``.  The file is opened only once the computation has
succeeded and is removed if writing it fails, so a failing command
leaves none; ``simulate`` streams its rows
(``timedomain.write_trajectory_csv``).  Exit codes: 0 success, 1
validation error (bad flags, malformed files, unsatisfied
preconditions), output that could not be written or a stdout closed
before the output was written, 2 numerical failure.
Identical arguments, files, and seeds produce byte-identical output under
one BLAS thread setting; the ``COHERELAB_THREADS`` environment variable
caps, on Linux, the forked processes that compute ``sweep``'s grid points,
``converge``'s multipliers and ``concentrate``'s trials (one block of
trials of each size), where the work is large and no BLAS pool runs, and
that format ``simulate``'s rows (one block of rows each), 0 = automatic;
no other command uses them.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from ._parallel import thread_count
from .aggregate import _aggregate_of_mean, _aggregation_error, aggregate_to_text
from .coherence import (
    DEFAULT_MARGIN,
    DEFAULT_TOL_CLASSIFY,
    ConvergenceRow,
    FrequencyGrid,
    _fmt,
    convergence_study,
    evaluate_point,
    report_csv_header,
    report_csv_row,
    rhp_uniform_check,
    sweep,
)
from .concentration import (
    CompleteFamily,
    RingFamily,
    concentration_csv_lines,
    concentration_experiment,
)
from .errors import NumericalError, ValidationError
from .netfile import read_model_file, read_network_file
from .rational import DEFAULT_TOL_CANCEL, DEFAULT_TOL_ZERO, harmonic_mean
from .timedomain import (
    ImpulseAll,
    InputSignal,
    SinusoidAll,
    StepNode,
    closed_loop,
    coherent_reference,
    simulate,
    write_trajectory_csv,
)

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Small parsers for structured flag values
# ---------------------------------------------------------------------------


def _parse_input(spec: str) -> InputSignal:
    parts = spec.split(":")
    try:
        if parts[0] == "impulse" and len(parts) == 1:
            return ImpulseAll()
        if parts[0] == "step" and len(parts) == 3:
            return StepNode(int(parts[1]), float(parts[2]))
        if parts[0] == "sin" and len(parts) == 3:
            return SinusoidAll(float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise ValidationError(f"--input {spec!r}: {exc}") from exc
    raise ValidationError(
        "--input must be 'impulse', 'step:<node>:<magnitude>', or "
        f"'sin:<omega>:<amplitude>', got {spec!r}"
    )


def _parse_family(spec: str):
    if spec == "complete":
        return CompleteFamily()
    if spec == "ring":
        return RingFamily()
    if spec.startswith("ring:"):
        try:
            ratio = float(spec.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"--family {spec!r}: {exc}") from exc
        return RingFamily(ratio)
    raise ValidationError(
        f"--family must be 'complete' or 'ring:<ratio>', got {spec!r}"
    )


def _parse_floats(spec: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"{flag} {spec!r}: {exc}") from exc
    if not values:
        raise ValidationError(f"{flag} needs at least one value, got {spec!r}")
    return values


def _parse_ints(spec: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"{flag} {spec!r}: {exc}") from exc
    if not values:
        raise ValidationError(f"{flag} needs at least one value, got {spec!r}")
    return values


def _build_grid(args) -> FrequencyGrid:
    if args.spacing == "log":
        return FrequencyGrid.logarithmic(
            args.sigma, args.omega_min, args.omega_max, args.points
        )
    return FrequencyGrid.linear(
        args.sigma, args.omega_min, args.omega_max, args.points
    )


def _convergence_csv(rows: list[ConvergenceRow]) -> str:
    lines = ["alpha,value,bound,kind"]
    for row in rows:
        lines.append(
            ",".join([_fmt(row.alpha), _fmt(row.value), _fmt(row.bound), row.kind])
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Command handlers: args -> (writer of the output, exit code)
# ---------------------------------------------------------------------------


def _text(text: str):
    """Writer of an output already formatted as ``text``."""
    return lambda stream: stream.write(text)


def _cmd_eval(args):
    net = read_network_file(args.net, tol_cancel=args.tol_cancel)
    report = evaluate_point(
        net,
        complex(args.sigma, args.omega),
        m1=args.m1,
        m2=args.m2,
        tol_zero=args.tol_zero,
        tol_classify=args.tol_classify,
        keep_transfer=False,
    )
    return _text(report_csv_header() + "\n" + report_csv_row(report) + "\n"), 0


def _cmd_sweep(args):
    net = read_network_file(args.net, tol_cancel=args.tol_cancel)
    grid = _build_grid(args)
    result = sweep(
        net,
        grid,
        with_bounds=not args.no_bounds,
        margin=args.margin,
        tol_zero=args.tol_zero,
        tol_classify=args.tol_classify,
    )
    lines = [report_csv_header()]
    lines.extend(report_csv_row(report) for report in result.reports)
    return _text("\n".join(lines) + "\n"), 0


def _cmd_converge(args):
    net = read_network_file(args.net, tol_cancel=args.tol_cancel)
    rows = convergence_study(
        net,
        complex(args.sigma, args.omega),
        _parse_floats(args.alphas, "--alphas"),
        tol_zero=args.tol_zero,
        tol_classify=args.tol_classify,
    )
    return _text(_convergence_csv(rows)), 0


def _cmd_simulate(args):
    thread_count()  # a bad COHERELAB_THREADS fails here, before --out is opened
    net = read_network_file(args.net, tol_cancel=args.tol_cancel)
    signal = _parse_input(args.input)
    trajectory = simulate(closed_loop(net), signal, args.t_end, args.dt)
    reference = None
    if args.reference:
        reference = coherent_reference(net, signal, args.t_end, trajectory.dt)
    return lambda stream: write_trajectory_csv(trajectory, stream, reference), 0


def _cmd_concentrate(args):
    thread_count()  # a bad COHERELAB_THREADS fails here, before any work
    model = read_model_file(args.model)
    table = concentration_experiment(
        model,
        _parse_family(args.family),
        _parse_ints(args.sizes, "--sizes"),
        _build_grid(args),
        args.trials,
        args.epsilon,
        args.seed,
        tol_pole=args.tol_pole,
    )
    return _text("\n".join(concentration_csv_lines(table)) + "\n"), 0


def _cmd_aggregate(args):
    net = read_network_file(args.net, tol_cancel=args.tol_cancel)
    mean = harmonic_mean(net.nodes)
    text = aggregate_to_text(_aggregate_of_mean(mean, net.n)) + "\n"
    if args.compare:
        if args.input is None or args.t_end is None:
            raise ValidationError("--compare needs --input and --t-end")
        error = _aggregation_error(net, _parse_input(args.input), args.t_end, args.dt, mean)
        text += f"aggregation_error: {repr(error)}\n"
    return _text(text), 0


def _cmd_check(args):
    net = read_network_file(args.net, tol_cancel=args.tol_cancel)
    lines = [net.assumptions.summary()]
    try:
        lines.append(f"uniform-coherence check: {rhp_uniform_check(net)}")
    except ValidationError as exc:
        lines.append(f"uniform-coherence check: undetermined: {exc}")
    return _text("\n".join(lines) + "\n"), 0 if net.assumptions.ok else 1


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _add_common(sub, *, net=True):
    if net:
        sub.add_argument("--net", required=True, metavar="FILE",
                         help="network description file")
        sub.add_argument("--tol-cancel", type=float, default=DEFAULT_TOL_CANCEL,
                         help="pole/zero cancellation tolerance (default %(default)g)")
    sub.add_argument("--out", metavar="FILE",
                     help="write output here instead of stdout")


def _add_point(sub):
    sub.add_argument("--sigma", type=float, required=True,
                     help="real part of the probe point")
    sub.add_argument("--omega", type=float, required=True,
                     help="imaginary part of the probe point")


def _add_grid(sub, *, sigma_default=None):
    if sigma_default is None:
        sub.add_argument("--sigma", type=float, required=True,
                         help="real part shared by all grid points")
    else:
        sub.add_argument("--sigma", type=float, default=sigma_default,
                         help="real part shared by all grid points (default %(default)s)")
    sub.add_argument("--omega-min", type=float, default=0.1,
                     help="smallest imaginary part (default %(default)s)")
    sub.add_argument("--omega-max", type=float, default=2.0,
                     help="largest imaginary part (default %(default)s)")
    sub.add_argument("--points", type=int, default=50,
                     help="number of grid points (default %(default)s)")
    sub.add_argument("--spacing", choices=("lin", "log"), default="lin",
                     help="grid spacing (default %(default)s)")


def _add_eval_tols(sub):
    sub.add_argument("--tol-zero", type=float, default=DEFAULT_TOL_ZERO,
                     help="vanishing-value tolerance (default %(default)g)")
    sub.add_argument("--tol-classify", type=float, default=DEFAULT_TOL_CLASSIFY,
                     help="pole/zero classification distance (default %(default)g)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coherelab",
        description="Frequency-domain coherence analysis of dynamical networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(
        dest="command", required=True, metavar="COMMAND", parser_class=_Parser
    )

    p = commands.add_parser("eval",
                            help="coherence report at one complex point")
    _add_common(p)
    _add_point(p)
    p.add_argument("--m1", type=float, default=None,
                   help="envelope constant for the coherent dynamics magnitude")
    p.add_argument("--m2", type=float, default=None,
                   help="envelope constant for the inverse node gains")
    _add_eval_tols(p)
    p.set_defaults(handler=_cmd_eval)

    p = commands.add_parser("sweep",
                            help="coherence reports over a frequency grid")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN,
                   help="safety factor for derived envelope constants (default %(default)s)")
    p.add_argument("--no-bounds", action="store_true",
                   help="skip the incoherence bound column")
    _add_eval_tols(p)
    p.set_defaults(handler=_cmd_sweep)

    p = commands.add_parser("converge",
                            help="incoherence versus coupling-strength multipliers")
    _add_common(p)
    _add_point(p)
    p.add_argument("--alphas", required=True,
                   help="comma-separated positive multipliers, e.g. 1,4,16")
    _add_eval_tols(p)
    p.set_defaults(handler=_cmd_converge)

    p = commands.add_parser("simulate",
                            help="closed-loop time response sampled on a uniform grid")
    _add_common(p)
    p.add_argument("--input", required=True,
                   help="impulse | step:<node>:<magnitude> | sin:<omega>:<amplitude>")
    p.add_argument("--t-end", type=float, required=True, help="simulation horizon")
    p.add_argument("--dt", type=float, default=None,
                   help="output spacing (default: auto from system stiffness)")
    p.add_argument("--reference", action="store_true",
                   help="append the coherent-reference output column")
    p.set_defaults(handler=_cmd_simulate)

    p = commands.add_parser("concentrate",
                            help="Monte-Carlo dynamics-concentration experiment")
    _add_common(p, net=False)
    p.add_argument("--model", required=True, metavar="FILE",
                   help="random transfer-function model file")
    p.add_argument("--family", required=True,
                   help="graph family: complete | ring:<neighbour ratio>")
    p.add_argument("--sizes", required=True,
                   help="comma-separated increasing network sizes, e.g. 20,50,100")
    p.add_argument("--trials", type=int, default=50,
                   help="Monte-Carlo trials per size (default %(default)s)")
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="exceedance threshold (default %(default)s)")
    p.add_argument("--seed", type=int, default=None,
                   help="experiment seed (default: the model file's seed)")
    _add_grid(p, sigma_default=0.5)
    p.add_argument("--tol-pole", type=float, default=1e-6,
                   help="minimum grid distance from expected-dynamics poles "
                        "(default %(default)g)")
    p.set_defaults(handler=_cmd_concentrate)

    p = commands.add_parser("aggregate",
                            help="aggregate dynamics of the node ensemble")
    _add_common(p)
    p.add_argument("--compare", action="store_true",
                   help="also simulate and report the aggregation error")
    p.add_argument("--input", default=None,
                   help="input signal for --compare (same grammar as simulate)")
    p.add_argument("--t-end", type=float, default=None,
                   help="simulation horizon for --compare")
    p.add_argument("--dt", type=float, default=None,
                   help="output spacing for --compare")
    p.set_defaults(handler=_cmd_aggregate)

    p = commands.add_parser("check",
                            help="model assumptions and uniform-coherence eligibility")
    _add_common(p)
    p.set_defaults(handler=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        write, code = args.handler(args)
    except ValidationError as exc:
        print(f"coherelab: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"coherelab: numerical failure: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            print(f"coherelab: error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
        try:
            with fh:
                write(fh)
        except OSError as exc:  # a full disk, say
            if os.path.isfile(args.out):
                os.unlink(args.out)
            print(f"coherelab: error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 1
    else:
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed the pipe (``| head``): send what is still
            # buffered to devnull, so that the flush at exit cannot fail too.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        except OSError as exc:
            print(f"coherelab: error: cannot write the output: {exc}", file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
