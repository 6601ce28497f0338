"""Command-line surface tying the library together.

Every subcommand reads one zipper system, either from a JSON config file
or from a preset (``--example1 p=0.3``, ``--example1 q1=0.4,y1=0.3,y2=1``,
``--example2 h=0.5``), and exits 0 on success, 1 on a validation or
verification failure, and 2 on usage or parse errors.  All outputs are
byte-deterministic given identical flags and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .attractor import Segments, chaos_game, refine, segment_level
from .config_io import (
    RenderSpec,
    build_system,
    config_from_system,
    config_to_json,
    export_csv,
    export_svg,
    format_number,
    parse_config,
)
from .errors import (
    DegenerateInput,
    InvalidConfig,
    ParseError,
    ShapeError,
    ZeroTangent,
    ZipperLiftError,
    ZipperViolation,
)
from .families import Example1Config, Example2Config, build_example1, build_example2
from .parametrization import eval_f
from .smoothing import build_lift, eval_g, inverse_design, smooth_zipper
from .verification import (
    VerificationReport,
    derivative_check,
    eventual_contraction_check,
    integral_residual,
    parametrization_residual,
    quadrature_check,
    tangent_scan,
)
from .zipper import inspect_zipper, product_zipper

SUITES = ("feq", "quad", "deriv", "tangent", "contraction")


def _parse_assignments(text, allowed, preset):
    values = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise InvalidConfig(f"{preset}: expected key=value, got {piece!r}")
        key, _, raw = piece.partition("=")
        key = key.strip()
        if key not in allowed:
            raise InvalidConfig(f"{preset}: unknown parameter {key!r}")
        try:
            values[key] = float(raw)
        except ValueError:
            raise InvalidConfig(f"{preset}: {raw!r} is not a number") from None
    return values


def _resolve_system(args):
    """Build (zipper, line) from the config file or preset flags."""
    sources = [
        source for source in (args.config, args.example1, args.example2)
        if source is not None
    ]
    if len(sources) != 1:
        raise InvalidConfig("give exactly one of: a config file, --example1, --example2")
    if args.example1 is not None:
        values = _parse_assignments(
            args.example1, ("p", "q1", "x1", "y1", "y2"), "--example1"
        )
        return build_example1(Example1Config(**values))
    if args.example2 is not None:
        values = _parse_assignments(args.example2, ("h",), "--example2")
        return build_example2(Example2Config(h_param=values["h"]))
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InvalidConfig(f"cannot read config {args.config!r}: {exc}") from None
    return build_system(parse_config(text))


def _add_config_arguments(parser):
    parser.add_argument("config", nargs="?", help="path to a zipper config JSON file")
    parser.add_argument(
        "--example1", metavar="PARAMS",
        help="interval-family preset, e.g. p=0.3 or q1=0.4,y1=0.3,y2=1",
    )
    parser.add_argument(
        "--example2", metavar="PARAMS", help="rotation-family preset, e.g. h=0.5"
    )


def _cmd_validate(args):
    zipper, line = _resolve_system(args)
    report = inspect_zipper(
        zipper.maps, zipper.vertices, zipper.signature,
        contraction=zipper.contraction_mode,
    )
    print(report.summary())
    return 0 if report.valid else 1


def _evaluation_payload(t, result):
    return {
        "t": t,
        "value": [float(v) for v in result.value],
        "errorBound": float(result.error_bound),
        "depth": int(result.depth),
    }


def _cmd_eval_f(args):
    zipper, line = _resolve_system(args)
    result = eval_f(args.t, zipper, line, tol=args.tol)
    print(json.dumps(_evaluation_payload(args.t, result)))
    return 0


def _cmd_eval_g(args):
    zipper, line = _resolve_system(args)
    lift = build_lift(zipper, line)
    result = eval_g(args.t, zipper, line, lift, tol=args.tol)
    print(json.dumps(_evaluation_payload(args.t, result)))
    return 0


def _cmd_lift(args):
    zipper, line = _resolve_system(args)
    lift = build_lift(zipper, line)
    lifted = smooth_zipper(zipper, line, lift)
    text = config_to_json(config_from_system(lifted, line))
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    total = ", ".join(format_number(v) for v in lift.h)
    print(f"wrote {args.out} (total integral: {total})")
    return 0


def _cmd_render(args):
    if args.chaos and args.points < 1:
        raise InvalidConfig(f"--points must be at least 1, got {args.points}")
    zipper, line = _resolve_system(args)
    if args.lifted:
        target = smooth_zipper(zipper, line, build_lift(zipper, line))
    else:
        target = product_zipper(zipper, line)
    projection = None
    if args.project:
        parts = args.project.split(",")
        if len(parts) != 2:
            raise InvalidConfig("--project needs two comma-separated axis indices")
        projection = (int(parts[0]), int(parts[1]))
    spec = RenderSpec(
        depth=args.depth, width=args.width, height=args.height,
        stroke_width=args.stroke_width, projection=projection,
    )
    # the depth-d rows are computed segment by segment in the exports, from
    # the small polyline P_k; the junction check runs before any file opens
    base = refine(target, segment_level(target, spec.depth), line=line)
    segments = Segments(target, base, spec.depth, line=line)
    export_svg(segments, spec, args.svg)
    written = [args.svg]
    if args.csv:
        export_csv(segments, args.csv)
        written.append(args.csv)
    if args.chaos:
        export_csv(chaos_game(target, args.points, args.seed), args.chaos)
        written.append(args.chaos)
    print("wrote " + " ".join(written))
    return 0


def _cmd_verify(args):
    zipper, line = _resolve_system(args)
    lift = build_lift(zipper, line)
    lifted = smooth_zipper(zipper, line, lift)
    wanted = SUITES if args.suite == "all" else (args.suite,)
    reports = []
    for suite in wanted:
        if suite == "feq":
            reports.append(parametrization_residual(
                zipper, line, samples=args.samples, seed=args.seed))
            reports.append(integral_residual(
                zipper, line, lift, samples=args.samples, seed=args.seed))
        elif suite == "quad":
            reports.append(quadrature_check(zipper, line, lift))
        elif suite == "deriv":
            reports.append(derivative_check(
                zipper, line, lift, sample_count=args.deriv_samples, seed=args.seed))
        elif suite == "tangent":
            try:
                reports.append(tangent_scan(
                    zipper, line, lift, sample_count=args.tangent_samples))
            except ZeroTangent as exc:
                print(f"tangent scan aborted: {exc}", file=sys.stderr)
                reports.append(VerificationReport(
                    "tangent-scan", float("inf"), 0, False, 0.0))
        elif suite == "contraction":
            reports.append(eventual_contraction_check(lifted))
    print(json.dumps([report.as_dict() for report in reports], indent=2))
    return 0 if all(report.passed for report in reports) else 1


def _cmd_inverse_design(args):
    q2 = args.q2 if args.q2 is not None else 1.0 - args.q1
    y1, y2 = inverse_design(args.q1, q2, args.x1, args.g1, args.g2)
    zipper, line = build_example1(Example1Config(q1=args.q1, y1=y1, y2=y2))
    payload = {
        "y1": y1,
        "y2": y2,
        "config": json.loads(config_to_json(config_from_system(zipper, line))),
    }
    print(json.dumps(payload, indent=2))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zipperlift",
        description="Smooth self-affine curves from self-similar zippers.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("validate", help="check the zipper axioms")
    _add_config_arguments(sub)
    sub.set_defaults(func=_cmd_validate)

    sub = commands.add_parser("eval-f", help="evaluate the parametrization")
    _add_config_arguments(sub)
    sub.add_argument("--t", type=float, required=True)
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.set_defaults(func=_cmd_eval_f)

    sub = commands.add_parser("eval-g", help="evaluate the integral curve")
    _add_config_arguments(sub)
    sub.add_argument("--t", type=float, required=True)
    sub.add_argument("--tol", type=float, default=1e-9)
    sub.set_defaults(func=_cmd_eval_g)

    sub = commands.add_parser("lift", help="emit the lifted zipper as a config")
    _add_config_arguments(sub)
    sub.add_argument("--out", required=True, help="output config path")
    sub.set_defaults(func=_cmd_lift)

    sub = commands.add_parser("render", help="export attractor polylines")
    _add_config_arguments(sub)
    sub.add_argument("--depth", type=int, default=12)
    sub.add_argument("--svg", required=True, help="output SVG path")
    sub.add_argument("--csv", help="optional CSV path for the polyline")
    sub.add_argument("--lifted", action="store_true",
                     help="render the lifted (integral-curve) attractor")
    sub.add_argument("--project", help="two comma-separated axis indices")
    sub.add_argument("--width", type=int, default=800)
    sub.add_argument("--height", type=int, default=600)
    sub.add_argument("--stroke-width", type=float, default=1.0)
    sub.add_argument("--chaos", help="optional CSV path for chaos-game points")
    sub.add_argument("--points", type=int, default=10_000,
                     help="chaos-game point count")
    sub.add_argument("--seed", type=int, default=0, help="chaos-game seed")
    sub.set_defaults(func=_cmd_render)

    sub = commands.add_parser("verify", help="run the numerical check suites")
    _add_config_arguments(sub)
    sub.add_argument("--suite", choices=("all",) + SUITES, default="all")
    sub.add_argument("--samples", type=int, default=400)
    sub.add_argument("--deriv-samples", type=int, default=48)
    sub.add_argument("--tangent-samples", type=int, default=256)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_verify)

    sub = commands.add_parser(
        "inverse-design",
        help="recover interval-family heights from integral data",
    )
    sub.add_argument("--q1", type=float, required=True)
    sub.add_argument("--q2", type=float, default=None)
    sub.add_argument("--x1", type=float, required=True)
    sub.add_argument("--g1", type=float, required=True)
    sub.add_argument("--g2", type=float, required=True)
    sub.set_defaults(func=_cmd_inverse_design)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ShapeError, InvalidConfig, DegenerateInput, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZipperViolation as exc:
        print(f"invalid zipper: {exc}", file=sys.stderr)
        return 1
    except ZipperLiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
