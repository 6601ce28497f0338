"""Render attractors: subdivision polylines, SVG/CSV export, chaos game.

The product of a zipper with its line zipper has the graph of f as its
attractor; the lifted zipper has the graph of the integral g.  Rendering
the first gives the jagged curve, the second its smooth integral arc.
Outputs land in demos/output/.
"""

from pathlib import Path

from scipy.spatial import cKDTree

from zipperlift import (
    Example1Config,
    Example2Config,
    RenderSpec,
    build_example1,
    build_example2,
    build_lift,
    chaos_game,
    export_csv,
    export_svg,
    hausdorff_residual,
    product_zipper,
    refine,
    smooth_zipper,
)

out = Path(__file__).parent / "output"
out.mkdir(exist_ok=True)

zipper, line = build_example1(Example1Config(p=0.3))
graph = product_zipper(zipper, line)           # attractor: graph of f
arc = smooth_zipper(zipper, line, build_lift(zipper, line))  # graph of g

for name, system in (("interval_graph", graph), ("interval_arc", arc)):
    polyline = refine(system, 12, line=line)
    residual = hausdorff_residual(polyline, system)
    print(f"{name}: {polyline.points.shape[0]} points, "
          f"mesh bound {polyline.mesh_bound:.2e}, invariance residual {residual:.2e}")
    export_svg(polyline, RenderSpec(depth=12), out / f"{name}.svg")
    export_csv(polyline, out / f"{name}.csv")

# the rotation family's integral arc lives in R^3; project out the
# parameter to see the planar smooth curve
rotation, rline = build_example2(Example2Config(h_param=0.5))
rarc = smooth_zipper(rotation, rline, build_lift(rotation, rline))
polyline = refine(rarc, 12, line=rline)
export_svg(polyline, RenderSpec(depth=12, projection=(1, 2)), out / "rotation_arc.svg")
print(f"rotation_arc: {polyline.points.shape[0]} points -> rotation_arc.svg")

# chaos game: random iteration accumulates on the same attractor
cloud = chaos_game(graph, count=20_000, seed=7)
export_csv(cloud, out / "chaos_cloud.csv")
reference = refine(graph, 12, line=line)
worst = cKDTree(reference.points).query(cloud, k=1)[0].max()
print(f"chaos cloud: 20000 points, worst distance to subdivision {worst:.2e}")
print("wrote", sorted(p.name for p in out.iterdir()))
