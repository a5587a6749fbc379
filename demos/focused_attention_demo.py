"""Run the density-guided focused-attention block, ``dafm_forward``, and
count what it costs.

The block pools the selected dense regions into a small bank of agent
vectors and attends through them instead of forming the full pixel-by-pixel
affinity.  The bank is pooled to at most 7x7 agents at any image size, so
the multiply-adds that ``count_macs`` records around ``dafm_forward`` (local
branch, bank, projections and both gated stages) grow linearly with image
size.  Global attention is not run: its L x L score matrix is costed by
hand for comparison.
"""

from densefocus.dafm import dafm_forward, dafm_params, expected_agents
from densefocus.density import gt_density
from densefocus.ops import count_macs
from densefocus.params import seeded_uniform
from densefocus.synthgen import SceneSpec, generate_scene

# pretend backbone: lift the grayscale image to 8 channels
channels, embed = 8, 8
lift = seeded_uniform(1, "demo.lift", (channels, 1, 1, 1), 1)


def scene_features(size):
    spec = SceneSpec(width=size, height=size, n_clusters=2,
                     objects_per_cluster=(4, 7), object_size=(3, 8),
                     cluster_spread=6.0, seed=9)
    image, annotations = generate_scene(spec)
    x = (lift * image).reshape(channels, size, size)
    return x, gt_density(annotations, size, size).values


x, density = scene_features(64)
n_agents = expected_agents(64, 64)
params = dafm_params(channels, embed, n_agents, seed=2)
with count_macs() as counter:
    out, inter = dafm_forward(x, density, params, thresh_mode="quantile",
                              thresh_value=0.10, return_intermediates=True)

print(f"features {x.shape} -> attended {out.shape}")
print(f"{len(inter.regions.rectangles)} dense rectangles selected, "
      f"bank of {n_agents} agents")
sel = inter.refined_mask[0] > 0
print(f"bank pooled from {int(sel.sum())} of {sel.size} pixels "
      f"({100 * sel.mean():.1f}%), then attended against the whole map")

length = 64 * 64
# q/k/v and output projections, then the L x L scores and their mix with the values
global_macs = 4 * length * channels * embed + 2 * length * length * embed
print(f"MACs at 64x64, C=d={channels}: dafm_forward {counter.macs:,} counted vs "
      f"global attention {global_macs:,} by hand  "
      f"({global_macs / counter.macs:.1f}x cheaper)")
for s in (32, 64, 128):
    xs, ds = scene_features(s)
    with count_macs() as counter:
        dafm_forward(xs, ds, dafm_params(channels, embed, expected_agents(s, s), seed=2))
    print(f"  {s:>3}x{s:<3} dafm_forward: {counter.macs:>11,} MACs "
          f"({counter.macs / (s * s):,.0f} per pixel, {expected_agents(s, s)} agents)")
