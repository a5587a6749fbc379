"""Fit the micro density branch, then score jittered detections.

Part one runs a short gradient-descent loop on the eight-scene corpus and
prints the loss every few steps.  Part two perturbs the ground truth of a
fresh scene into fake detections and runs the size-bucketed AP report on
them, which is the same protocol the command-line `eval` uses.
"""

from densefocus.evalkit import ap_report
from densefocus.synthgen import SceneSpec, generate_scene, perturb_detections
from densefocus.train import train_demo

steps = 40
trace = train_demo(steps=steps, lr=0.05, seed=7)
print(f"density-branch fit, {steps} steps:")
for i in range(0, steps + 1, 8):
    print(f"  step {i:>3}  loss {trace[i]:.6f}")
print(f"loss fell {100 * (1 - trace[-1] / trace[0]):.1f}% "
      f"(from {trace[0]:.6f} to {trace[-1]:.6f})")

spec = SceneSpec(width=128, height=128, n_clusters=3,
                 objects_per_cluster=(5, 9), object_size=(3, 10),
                 cluster_spread=8.0, seed=21)
_, annotations = generate_scene(spec)
print(f"\nevaluation scene: {len(annotations)} ground-truth objects")

for jitter in (0.0, 1.0, 2.5):
    dets = perturb_detections(annotations, jitter_px=jitter, drop_rate=0.15,
                              score_noise=0.05, seed=3)
    report = ap_report(dets, annotations)
    print(f"  jitter {jitter:>3.1f}px: {len(dets)} detections  "
          f"ap50 {report.ap50:.3f}  ap {report.ap:.3f}  "
          f"ap_vt {report.ap_vt:.3f}  ap_t {report.ap_t:.3f}  "
          f"(tp {report.tp} fp {report.fp} fn {report.fn})")
print("looser boxes cost the strict thresholds first; the very-tiny bucket "
      "drops fastest because one pixel of jitter moves its IoU the most")
