"""Command-line front end.

One verb per activity: ``scan`` and ``diagonal`` sample the geometry and
write CSV/JSON, ``classify`` reports one point, ``verify-paper`` runs the
tabulated-expansion verification, ``verify-self`` runs the package's own
invariant suite, ``bus-power`` evaluates bus injections from a network
JSON file, and ``plot-script`` emits a standalone matplotlib script for a
scan file.

Exit codes: 0 success, 1 domain or data error (message on stderr; a float
result out of range and a scan too large to allocate count as data
errors), 2 usage error. Angles may be given in degrees with ``--unit
deg``; files always store radians. All randomized commands take
``--seed`` and rerun byte-identically. Scans evaluate their points on
one thread in blocks of a fixed size and write their files in blocks of
rows, and their bytes do not depend on where the blocks split.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from . import __version__, scan_io
from .errors import PowergeomError
from .geometry import StabilityClass, check_finite, geometry_report
from .models import FlowKind, PowerModel, bus_injections, load_bus_network
from .stability import (
    DEFAULT_BOUNDS,
    locate_transitions,
    scan_diagonal,
    scan_grid,
)


def verify_against_autodiff(*args, **kwargs):
    """:func:`powergeom.verify.verify_against_autodiff`, with ``verify``
    (and its tables) loaded on the first call, so that other verbs never
    load it."""
    from . import verify
    return verify.verify_against_autodiff(*args, **kwargs)


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True,
                   choices=[k.value for k in FlowKind],
                   help="which flow surface")
    p.add_argument("--v", type=float, default=1.0,
                   help="bus voltage magnitude (default 1)")
    p.add_argument("--r0", type=float, default=1.0,
                   help="base resistance (default 1)")


def _add_unit_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--unit", choices=["rad", "deg"], default="rad",
                   help="unit of input angles (files always store radians)")


def _add_domain_args(p: argparse.ArgumentParser, second_axis: bool) -> None:
    p.add_argument("--min", type=float, default=DEFAULT_BOUNDS[0],
                   help="axis lower bound (default -1.55 rad)")
    p.add_argument("--max", type=float, default=DEFAULT_BOUNDS[1],
                   help="axis upper bound (default 1.55 rad)")
    if second_axis:
        p.add_argument("--min2", type=float, default=None,
                       help="second-axis lower bound (defaults to --min)")
        p.add_argument("--max2", type=float, default=None,
                       help="second-axis upper bound (defaults to --max)")


def _angle(value: float, unit: str) -> float:
    return math.radians(value) if unit == "deg" else value


def _model_from(args) -> PowerModel:
    return PowerModel(FlowKind.parse(args.model), v=args.v, r0=args.r0)


def _transition_summary(transitions) -> str:
    lines = [f"det zero crossings: {len(transitions.det_zeros)}"]
    for z in transitions.det_zeros[:20]:
        where = "diagonal" if z.line == "diag" else f"{z.line} at {z.level:.6g}"
        lines.append(f"  {where}: root={z.root:.12g} bracket={z.bracket:.3g} "
                     f"det={z.det_at_root:.3g}")
    if len(transitions.det_zeros) > 20:
        lines.append(f"  ... {len(transitions.det_zeros) - 20} more")
    lines.append(f"curvature spikes (|R| > {transitions.spike_threshold:g}): "
                 f"{len(transitions.curvature_spikes)}")
    return "\n".join(lines)


def _write_scan(args, scan, to_table, find_transitions: bool) -> int:
    """Write ``to_table(scan)`` to ``--out`` a block of rows at a time and
    report it; a write that fails part way leaves no file behind, and a
    scan with a non-finite quantity writes none."""
    check_finite(scan.columns, scan.spec.model.k)
    summary = ""
    if find_transitions:  # first, so a rejected threshold writes nothing
        summary = _transition_summary(locate_transitions(
            scan, spike_threshold=args.spike_threshold))
    table = to_table(scan)
    scan_io.write_table(table, args.out, args.format)
    print(f"wrote {len(table.rows)} records to {args.out}")
    if summary:
        print(summary)
    return 0


def _cmd_scan(args) -> int:
    lo1 = _angle(args.min, args.unit)
    hi1 = _angle(args.max, args.unit)
    lo2 = _angle(args.min2, args.unit) if args.min2 is not None else lo1
    hi2 = _angle(args.max2, args.unit) if args.max2 is not None else hi1
    scan = scan_grid(_model_from(args), (lo1, hi1), (lo2, hi2), n=args.n)
    return _write_scan(args, scan, scan_io.grid_table,
                       args.spike_threshold is not None)


def _cmd_diagonal(args) -> int:
    bounds = (_angle(args.min, args.unit), _angle(args.max, args.unit))
    scan = scan_diagonal(_model_from(args), bounds, n=args.n)
    return _write_scan(args, scan, scan_io.diagonal_table, True)


def _cmd_classify(args) -> int:
    report = geometry_report(_model_from(args), (_angle(args.a1, args.unit),
                                                 _angle(args.a2, args.unit)))
    metric, cls = report.metric, report.classification
    out = {"a1": report.point[0], "a2": report.point[1], "class": cls.label,
           "value": report.value, "g11": metric.g11, "g12": metric.g12,
           "g22": metric.g22, "det": report.det,
           "curvature": (None if cls is StabilityClass.DEGENERATE
                         else report.curvature)}
    print(json.dumps(out, indent=1))
    return 0


def _cmd_verify_paper(args) -> int:
    model = _model_from(args)
    report = verify_against_autodiff(model, samples=args.samples,
                                     seed=args.seed)
    text = report.to_json() if args.format == "json" else report.render_text()
    if args.out:
        scan_io.write_text(args.out, [text])
        discrepant = report.discrepant_ids()
        short = report.short_ids()
        print(f"wrote report to {args.out}: "
              f"{len(report.verified_ids())} verified, "
              f"{len(discrepant)} discrepant"
              + (f" ({', '.join(discrepant)})" if discrepant else "")
              + (f", {len(short)} short ({', '.join(short)})"
                 if short else ""))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify_self(args) -> int:
    from .selfcheck import run_self_checks
    results = run_self_checks(samples=args.samples, seed=args.seed)
    failed = 0
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted, with its quotes doubled, when it
    holds a comma, a quote or a line break. (``csv.writer`` with a ``\\n``
    line terminator leaves a lone ``\\r`` unquoted, and a reader rejects
    the record.)"""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cmd_bus_power(args) -> int:
    net = load_bus_network(args.network)
    injections = bus_injections(net)
    if args.format == "csv":
        lines = ["bus,p,q"]
        lines += [f"{_csv_field(bus.id)},{scan_io.format_float(inj.p)},"
                  f"{scan_io.format_float(inj.q)}"
                  for bus, inj in zip(net.buses, injections)]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(
            {"injections": [{"bus": bus.id, "p": inj.p, "q": inj.q}
                            for bus, inj in zip(net.buses, injections)]},
            indent=1) + "\n"
    if args.out:
        scan_io.write_text(args.out, [text], args.network)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_plot_script(args) -> int:
    out = scan_io.emit_plot_script(args.scan, field=args.field,
                                   out_path=args.out)
    print(f"wrote {out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="powergeom",
        description="Intrinsic fluctuation geometry of power-flow surfaces.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="grid scan of the geometry")
    _add_model_args(p)
    _add_domain_args(p, second_axis=True)
    _add_unit_arg(p)
    p.add_argument("--n", type=int, default=64, help="samples per axis")
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--spike-threshold", type=float, default=None,
                   help="also report transitions with this |R| spike cutoff")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("diagonal", help="scan along the equal-angle line")
    _add_model_args(p)
    _add_domain_args(p, second_axis=False)
    _add_unit_arg(p)
    p.add_argument("--n", type=int, default=101, help="number of samples")
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--spike-threshold", type=float, default=None,
                   help="|R| spike cutoff (default 1e6/k)")
    p.set_defaults(handler=_cmd_diagonal)

    p = sub.add_parser("classify", help="stability class of one point")
    _add_model_args(p)
    _add_unit_arg(p)
    p.add_argument("--a1", type=float, required=True)
    p.add_argument("--a2", type=float, required=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("verify-paper",
                       help="verify tabulated expansions against the jets")
    _add_model_args(p)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="report file (default stdout)")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(handler=_cmd_verify_paper)

    p = sub.add_parser("verify-self", help="run the invariant self-checks")
    p.add_argument("--samples", type=int, default=100,
                   help="points per sampled check; above 100 acts as 100")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify_self)

    p = sub.add_parser("bus-power", help="bus injections of a network file")
    p.add_argument("network", help="network JSON file")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(handler=_cmd_bus_power)

    p = sub.add_parser("plot-script",
                       help="emit a standalone plotting script for a scan")
    p.add_argument("scan", help="scan CSV file")
    p.add_argument("--field", choices=sorted(scan_io.PLOT_FIELDS),
                   default="det")
    p.add_argument("--out", default=None,
                   help="script path (default <scan>.plot_<field>.py)")
    p.set_defaults(handler=_cmd_plot_script)

    # argparse's own pattern takes "-1e-5" for an option, not a value.
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (PowergeomError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:  # a float result out of range
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # arrays too large to allocate
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
