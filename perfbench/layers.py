"""Traced run: per-layer spans around the library calls of zipperlift's CLI.

Each traced command runs in a fresh interpreter, as the CLI runs it.  The
child rebinds the library names that ``zipperlift.cli`` imports to wrappers
that record a span around every call, then calls ``zipperlift.cli.main``
with the command's arguments and captures its stdout.  So the traced run
executes the program itself, and a change to a subcommand shows up in the
spans.  A second child runs a fixed probe of every layer on the workload's
systems: small ``validate``, ``lift``, ``render`` and ``verify`` calls
through the same wrapped CLI, plus the seeded ``eval_f``/``eval_g``
batches.  So every per-layer metric exists on every workload: on a workload
that bypasses a layer, that layer's figure is the probe alone.

Spans live in memory as dicts and are written out once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from zipperlift import build_lift, eval_f, eval_f_many, eval_g, smooth_zipper
from zipperlift import cli

from workloads import PRESETS, System

#: Evaluation tolerance of the probe batches.
PROBE_TOL = 1e-9
#: Points in the batched ``eval_f_many`` probe, and in the scalar
#: ``eval_f``/``eval_g`` probes that record descent depths.
EVAL_F_BATCH = 20_000
SCALAR_BATCH = 400
#: Polyline and chaos sizes of the small render probe.
PROBE_POINTS = 4096
#: ``verify`` options of the oracle probe: every check, few samples.
PROBE_VERIFY = ["--suite", "all", "--samples", "16", "--deriv-samples", "4",
                "--tangent-samples", "16"]

VERIFICATION_CHECKS = (
    "parametrization_residual", "integral_residual", "quadrature_check",
    "derivative_check", "tangent_scan", "eventual_contraction_check",
)

#: Layer span of each library name that ``zipperlift.cli`` calls.
CLI_LAYERS = {
    "build_example1": "families.build",
    "build_example2": "families.build",
    "parse_config": "config_io.parse",
    "build_system": "zipper.validate",
    "inspect_zipper": "zipper.validate",
    "product_zipper": "zipper.product",
    "build_lift": "smoothing.lift",
    "smooth_zipper": "smoothing.lift",
    "config_from_system": "config_io.emit",
    "config_to_json": "config_io.emit",
    "refine": "attractor.refine",
    "chaos_game": "attractor.chaos_game",
    "export_csv": "config_io.export_csv",
    "export_svg": "config_io.export_svg",
    **{check: f"verification.{check}" for check in VERIFICATION_CHECKS},
}


class Tracer:
    """Nested spans: name, parent span id, start, end and a dict of counts."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, **fields):
        record = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                  "name": name, "fields": fields}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield fields
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def _record_counts(name, fields, args, result):
    """Counts a call delivers, taken after its span has closed."""
    if name == "refine":
        fields["points"] = result.points.shape[0]
    elif name == "chaos_game":
        fields["points"] = result.shape[0]
    elif name in ("export_csv", "export_svg"):
        fields["bytes"] = os.path.getsize(args[-1])


def _wrap(name, function, tracer):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        with tracer.span(CLI_LAYERS[name]) as fields:
            result = function(*args, **kwargs)
        _record_counts(name, fields, args, result)
        if name in ("build_example1", "build_example2", "build_system"):
            zipper = result[0]
            with tracer.span("geometry.norms"):
                zipper.linear_norms, zipper.diameter_bound
        return result
    return traced


def install_spans(tracer):
    """Rebind the library names ``zipperlift.cli`` calls to span-recording
    wrappers.  Only the CLI module's own names change, so calls made inside
    the library stay inside their caller's span."""
    for name in CLI_LAYERS:
        setattr(cli, name, _wrap(name, getattr(cli, name), tracer))


def run_cli(argv, tracer):
    """``zipperlift.cli.main(argv)`` under a ``command`` span: (stdout, exit code)."""
    out = io.StringIO()
    with tracer.span("command", command=" ".join(argv)), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return out.getvalue(), code


def resolve_system(system, workdir="."):
    """(zipper, line) of a system, built by the CLI's own loader."""
    args = cli.build_parser().parse_args(["validate"] + system.cli_args())
    if args.config is not None:
        args.config = os.path.join(workdir, args.config)
    return cli._resolve_system(args)


def setup_child(systems_json):
    """Set-up as every CLI call pays it: build each system and its lift."""
    for fields in json.loads(systems_json):
        zipper, line = resolve_system(System(**fields))
        smooth_zipper(zipper, line, build_lift(zipper, line))


def trace_command(argv_json, result_path, import_s):
    """Run one CLI command with spans in this fresh interpreter and write the
    spans, its stdout, its exit code and the time the spans cover."""
    tracer = Tracer()
    install_spans(tracer)
    text, code = run_cli(json.loads(argv_json), tracer)
    attributed = import_s + sum(r["end"] - r["start"] for r in tracer.spans
                                if r["parent"] == 0)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "stdout": text, "code": code,
                   "import_s": import_s, "attributed_s": attributed}, handle)


def trace_probe(systems_json, seed, result_path):
    """Run every layer on each system: small CLI calls of each subcommand
    and the seeded evaluation batches at tolerance 1e-9."""
    tracer = Tracer()
    install_spans(tracer)
    rng = np.random.default_rng([seed, 11])
    for flag, value in PRESETS:
        resolve_system(System("probe", preset=(flag, value)))
    for k, entry in enumerate(json.loads(systems_json)):
        system = System(**entry)
        source = system.cli_args()
        run_cli(["validate"] + source, tracer)
        run_cli(["lift"] + source + ["--out", f"probe{k}-lifted.json"], tracer)
        run_cli(["validate", f"probe{k}-lifted.json"], tracer)
        zipper, line = resolve_system(system)
        depth = int(math.log(PROBE_POINTS) / math.log(zipper.map_count)) - 1
        run_cli(["render"] + source + [
            "--depth", str(depth), "--project", "0,1", "--svg", f"probe{k}.svg",
            "--csv", f"probe{k}.csv", "--chaos", f"probe{k}-chaos.csv",
            "--points", str(PROBE_POINTS)], tracer)
        run_cli(["verify"] + source + PROBE_VERIFY, tracer)

        ts = rng.uniform(0.0, 1.0, EVAL_F_BATCH)
        with tracer.span("parametrization.eval_f_many", points=ts.size) as fields:
            _, bounds = eval_f_many(ts, zipper, line, tol=PROBE_TOL)
        fields["radius_over_tol_max"] = float(bounds.max()) / PROBE_TOL
        with tracer.span("parametrization.eval_f", points=SCALAR_BATCH) as fields:
            results = [eval_f(float(t), zipper, line, tol=PROBE_TOL)
                       for t in ts[:SCALAR_BATCH]]
        fields["depth_sum"] = sum(result.depth for result in results)
        lift = build_lift(zipper, line)
        with tracer.span("smoothing.eval_g", points=SCALAR_BATCH) as fields:
            results = [eval_g(float(t), zipper, line, lift, tol=PROBE_TOL)
                       for t in ts[:SCALAR_BATCH]]
        fields["depth_sum"] = sum(result.depth for result in results)
        fields["radius_over_tol_max"] = max(r.error_bound for r in results) / PROBE_TOL
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans}, handle)


def span_cost(samples=20_000):
    """Seconds one recorded span adds over the bare call it wraps."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibration"):
            pass
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        pass
    return max(traced - (time.perf_counter() - start), 0.0) / samples


def layer_metrics(spans, unattributed, per_span):
    """Per-layer metrics from the spans of a traced run.

    ``trace.overhead_s`` is the span count times the calibrated cost of one
    span.  The difference between a traced and an untraced pass would
    measure the same thing, but run-to-run noise (about 10% of a pass) is
    orders of magnitude larger than the spans cost.
    """
    time_in = defaultdict(float)
    totals = defaultdict(float)
    for record in spans:
        name = record["name"]
        time_in[name] += record["end"] - record["start"]
        for key, value in record["fields"].items():
            if isinstance(value, (int, float)):
                if key == "radius_over_tol_max":
                    totals[name, key] = max(totals[name, key], value)
                else:
                    totals[name, key] += value

    def rate(name, key):
        return totals[name, key] / time_in[name]

    metrics = {}
    for layer in ("families.build", "zipper.validate", "zipper.product", "geometry.norms",
                  "smoothing.lift", "config_io.parse", "config_io.emit",
                  "config_io.export_csv", "config_io.export_svg", "attractor.refine",
                  "attractor.chaos_game"):
        metrics[f"{layer}_s"] = (time_in[layer], "s")
    for kind in ("csv", "svg"):
        name = f"config_io.export_{kind}"
        metrics[f"{name}_bytes"] = (totals[name, "bytes"], "bytes")
        metrics[f"{name}_mb_per_s"] = (rate(name, "bytes") / 1e6, "MB/s")
    metrics["attractor.refine_points"] = (totals["attractor.refine", "points"], "count")
    metrics["attractor.refine_points_per_s"] = (rate("attractor.refine", "points"), "1/s")
    metrics["attractor.chaos_points_per_s"] = (rate("attractor.chaos_game", "points"), "1/s")
    metrics["parametrization.eval_f_per_s"] = (
        rate("parametrization.eval_f_many", "points"), "1/s")
    metrics["parametrization.depth_mean"] = (
        totals["parametrization.eval_f", "depth_sum"]
        / totals["parametrization.eval_f", "points"], "count")
    metrics["parametrization.radius_over_tol_max"] = (
        totals["parametrization.eval_f_many", "radius_over_tol_max"], "ratio")
    metrics["smoothing.eval_g_per_s"] = (rate("smoothing.eval_g", "points"), "1/s")
    metrics["smoothing.eval_g_depth_mean"] = (
        totals["smoothing.eval_g", "depth_sum"] / totals["smoothing.eval_g", "points"],
        "count")
    metrics["smoothing.radius_over_tol_max"] = (
        totals["smoothing.eval_g", "radius_over_tol_max"], "ratio")
    for check in VERIFICATION_CHECKS:
        metrics[f"verification.{check}_s"] = (time_in[f"verification.{check}"], "s")

    metrics["trace.unattributed_s"] = (unattributed, "s")
    metrics["trace.overhead_s"] = (len(spans) * per_span, "s")
    return metrics
