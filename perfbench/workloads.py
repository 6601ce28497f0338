"""Benchmark workloads: the systems each one runs and the commands it issues.

Three workloads, each stressing different layers of zipperlift:

* ``verify-presets``: ``verify --suite all`` on both presets.  Evaluation
  and oracle path (scalar ``eval_g`` loops, ``eval_f_many``); exports
  nothing.
* ``render-presets``: ``render --depth 18 --svg --csv`` on both presets.
  Subdivision plus CSV/SVG export; evaluates no ``g``.
* ``generated-zippers``: seeded normal-form zippers with m = 3..5 maps in
  R^2/R^3, random (partly reversed) signatures and non-uniform nodes, run
  through validate, lift, validate-lifted, verify and a lifted chaos render.
  The only workload with config files, ``chaos_game`` and n >= 3.

Commands use the CLI's default sample and chaos seeds, as a user typing
them would.  The benchmark seed draws the generated zippers and the output
check samples; the program sees only the generated configs and flags.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("verify-presets", "render-presets", "generated-zippers")

PRESETS = (("--example1", "p=0.3"), ("--example2", "h=0.5"))

#: Subdivision depth of ``render-presets``: 2^19 + 1 = 524,289 points.
RENDER_DEPTH = 18

#: (maps, dimension) of the zippers drawn per seed.  Fixing the shapes keeps
#: the work per pass comparable across seeds; everything else is random.
GENERATED_SHAPES = ((3, 2), (4, 3), (5, 3))

#: Chaos-game points per generated render.
CHAOS_POINTS = 100_000

#: Polyline size the generated render depth aims at.  A fixed depth would
#: blow up with m (5 maps at depth 9 is about 10^7 points).
TARGET_POLYLINE_POINTS = 1.2e5

#: Interval widths are multiples of 1/NODE_GRID, so interval images of the
#: dyadic samples that ``parametrization_residual`` draws stay exact.
NODE_GRID = 64


@dataclass(frozen=True)
class System:
    """One zipper system as the CLI receives it: a preset or a config file."""

    label: str
    preset: tuple[str, str] | None = None
    config_path: str | None = None

    def cli_args(self):
        return list(self.preset) if self.preset else [self.config_path]


@dataclass(frozen=True)
class Command:
    """One CLI call.  ``kind`` is the subcommand; the rest are its options."""

    kind: str
    system: System
    outputs: tuple[str, ...] = ()
    depth: int = 0
    lifted: bool = False
    chaos_points: int = 0

    @property
    def name(self):
        return f"{self.kind}:{self.system.label}"

    def argv(self):
        """Arguments after ``python -m zipperlift``."""
        args = [self.kind] + self.system.cli_args()
        if self.kind == "lift":
            args += ["--out", self.outputs[0]]
        elif self.kind == "verify":
            args += ["--suite", "all"]
        elif self.kind == "render":
            args += ["--depth", str(self.depth), "--svg", self.outputs[0],
                     "--csv", self.outputs[1]]
            if self.lifted:
                args += ["--project", "0,1", "--lifted"]
            if self.chaos_points:
                args += ["--chaos", self.outputs[2], "--points", str(self.chaos_points)]
        return args


@dataclass
class Workload:
    name: str
    seed: int
    systems: list[System]
    commands: list[Command]
    configs: dict[str, str] = field(default_factory=dict)  # file name -> JSON text


def render_depth(map_count):
    """Depth whose polyline size m^(d+1) + 1 is nearest TARGET_POLYLINE_POINTS."""
    return round(math.log(TARGET_POLYLINE_POINTS) / math.log(map_count)) - 1


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def _perpendicular_unit(rng, axis):
    v = rng.normal(size=axis.size)
    v -= (v @ axis) * axis
    return v / np.linalg.norm(v)


def _scale_to_norm(chord_part, perp_part, target):
    """A = chord_part + s * perp_part with ||A||_2 = target (bisection on s).

    ||A(s)|| is convex in s and starts below ``target`` at s = 0, so the
    crossing is unique.
    """
    low, high = 0.0, 1.0
    while np.linalg.norm(chord_part + high * perp_part, 2) < target:
        high *= 2.0
    for _ in range(60):
        mid = 0.5 * (low + high)
        if np.linalg.norm(chord_part + mid * perp_part, 2) < target:
            low = mid
        else:
            high = mid
    return chord_part + low * perp_part


def random_zipper_config(rng, map_count, dimension):
    """Draw a zipper in normal form, valid by construction, as a config dict.

    ``S_i(z) = entry_i + sign_i A_i z`` with z_0 = 0 and b = z_m.  ``A_i``
    sends b onto the chord z_i - z_{i-1} and adds a random part on b's
    orthogonal complement, scaled so that ||A_i|| = q_i^gamma_i with
    gamma_i in [0.7, 0.8].  The exponent keeps f Hölder of order > 1/2, the
    regularity the derivative oracle assumes, and bounds every ||A_i|| below
    1; its narrow range keeps descent depths, and so the work per pass,
    comparable across seeds.  Vertices follow the chord direction in proportion to the interval
    widths, with sideways jitter of at most a quarter width, so each chord
    is shorter than its target norm.
    """
    m, n = int(map_count), int(dimension)
    # interval widths: multiples of 1/NODE_GRID, jittered around 1/m
    weights = rng.uniform(0.7, 1.3, size=m)
    units = np.maximum(1, np.floor(NODE_GRID * weights / weights.sum())).astype(int)
    units[int(np.argmax(units))] += NODE_GRID - int(units.sum())
    if np.all(units == units[0]):
        units[0] -= 1
        units[-1] += 1
    nodes = np.concatenate([[0], np.cumsum(units)]) / NODE_GRID
    widths = np.diff(nodes)

    signature = rng.integers(0, 2, size=m)
    if not signature.any():
        signature[rng.integers(0, m)] = 1

    b = _unit(rng, n)
    vertices = np.zeros((m + 1, n))
    for k in range(1, m):
        reach = 0.25 * min(widths[k - 1], widths[k]) * rng.uniform()
        vertices[k] = nodes[k] * b + reach * _perpendicular_unit(rng, b)
    vertices[m] = b

    projector = np.eye(n) - np.outer(b, b)
    maps = []
    for i in range(m):
        chord = vertices[i + 1] - vertices[i]
        target = widths[i] ** rng.uniform(0.7, 0.8)
        linear = _scale_to_norm(np.outer(chord, b), rng.normal(size=(n, n)) @ projector,
                                target)
        if signature[i]:
            maps.append({"linear": (-linear).tolist(),
                         "translation": vertices[i + 1].tolist()})
        else:
            maps.append({"linear": linear.tolist(), "translation": vertices[i].tolist()})
    return {
        "dimension": n,
        "maps": maps,
        "vertices": vertices.tolist(),
        "signature": [int(bit) for bit in signature],
        "lineNodes": nodes.tolist(),
    }


def build_workload(name, seed):
    """The systems and commands of one workload at one seed."""
    if name == "verify-presets":
        systems = [System(f"{flag[2:]}:{value}", preset=(flag, value))
                   for flag, value in PRESETS]
        commands = [Command("verify", s) for s in systems]
        return Workload(name, seed, systems, commands)
    if name == "render-presets":
        systems = [System(f"{flag[2:]}:{value}", preset=(flag, value))
                   for flag, value in PRESETS]
        commands = [
            Command("render", s, outputs=(f"render{k}.svg", f"render{k}.csv"),
                    depth=RENDER_DEPTH)
            for k, s in enumerate(systems)
        ]
        return Workload(name, seed, systems, commands)
    if name == "generated-zippers":
        rng = np.random.default_rng([seed, 2015])
        systems, commands, configs = [], [], {}
        for k, (m, n) in enumerate(GENERATED_SHAPES):
            path, lifted_path = f"zipper{k}.json", f"zipper{k}-lifted.json"
            configs[path] = json.dumps(random_zipper_config(rng, m, n), indent=2) + "\n"
            source = System(f"zipper{k}(m={m},n={n})", config_path=path)
            lifted = System(f"zipper{k}-lifted", config_path=lifted_path)
            systems.append(source)
            commands += [
                Command("validate", source),
                Command("lift", source, outputs=(lifted_path,)),
                Command("validate", lifted),
                Command("verify", source),
                Command("render", source,
                        outputs=(f"zipper{k}.svg", f"zipper{k}.csv", f"zipper{k}-chaos.csv"),
                        depth=render_depth(m), lifted=True, chaos_points=CHAOS_POINTS),
            ]
        return Workload(name, seed, systems, commands, configs)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
