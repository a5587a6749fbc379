"""Run the density-guided two-stage attention and count what it costs.

The module pools the selected dense regions into a small bank of agent
vectors and attends through them instead of forming the full pixel-by-pixel
affinity.  The bank is pooled to at most 7x7 agents at any image size, so
its multiply-add count grows linearly with image size.
"""

import numpy as np

from densefocus.complexity import (measured_global_attention_macs,
                                   measured_ifam_macs)
from densefocus.dafm import dafm_forward, dafm_params, expected_agents
from densefocus.density import gt_density
from densefocus.params import seeded_uniform
from densefocus.synthgen import SceneSpec, generate_scene

spec = SceneSpec(width=64, height=64, n_clusters=2,
                 objects_per_cluster=(4, 7), object_size=(3, 8),
                 cluster_spread=6.0, seed=9)
image, annotations = generate_scene(spec)
density = gt_density(annotations, 64, 64).values

# pretend backbone: lift the grayscale image to 8 channels
channels, embed = 8, 8
lift = seeded_uniform(1, "demo.lift", (channels, 1, 1, 1), 1)
x = (lift * image).reshape(channels, 64, 64)

n_agents = expected_agents(64, 64)
params = dafm_params(channels, embed, n_agents, seed=2)
out, inter = dafm_forward(x, density, params, thresh_mode="quantile",
                          thresh_value=0.10, return_intermediates=True)

print(f"features {x.shape} -> attended {out.shape}")
print(f"{len(inter.regions.rectangles)} dense rectangles selected, "
      f"bank of {n_agents} agents")
sel = inter.refined_mask[0] > 0
print(f"bank pooled from {int(sel.sum())} of {sel.size} pixels "
      f"({100 * sel.mean():.1f}%), then attended against the whole map")

focused = measured_ifam_macs(64, 64, 32, 32, n_agents)
dense = measured_global_attention_macs(64, 64, 32, 32)
print(f"measured MACs at 64x64, C=d=32: focused {focused:,} vs "
      f"global {dense:,}  ({dense / focused:.1f}x cheaper)")
for s in (32, 64, 128):
    macs = measured_ifam_macs(s, s, 32, 32, expected_agents(s, s))
    print(f"  {s:>3}x{s:<3} focused pass: {macs:>12,} MACs "
          f"({macs / (s * s):,.0f} per pixel)")
