"""One benchmark workload in its own process.

    python3 bench/workloads.py --workload infer --seed 1 --seconds 30 --trace 0
    python3 bench/workloads.py --workload eval_dense --seed 1 --rounds 2 --trace 1
    python3 bench/workloads.py --workload train_dgb --seed 1 --setup-only

The process sets up its inputs from the seed, runs one warm-up round, then
a closed loop (one caller, next op when the previous one ends) of whole
rounds for --seconds (or exactly --rounds rounds), then checks the outputs
kept from the first timed round.  Its last stdout line is one JSON object
that bench/run.py reads.  BLAS threads are pinned by the parent's
environment before numpy loads.

With --trace 1 every public call into a library module from this file is
wrapped in a span (wall time, MACs via count_macs, minor faults via
getrusage).  Timed rounds alternate traced and untraced so the tracing
overhead is measured in the same process; the warm-up round additionally
runs tracemalloc inside the dafm, dffm and backward spans for peak
allocation.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import io
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from densefocus import (DgbConfig, SceneSpec, Var, ap_report, backward,  # noqa: E402
                        count_macs, dafm_forward, dafm_params, density_loss,
                        dffm_forward, dffm_params, dgb_forward, dgb_params,
                        expected_agents, generate_scene, gt_density,
                        load_annotation_file, perturb_detections, refine_mask,
                        save_annotation_file, seeded_uniform, threshold_mask)
from densefocus import autodiff as ad  # noqa: E402
from densefocus import ops  # noqa: E402

import refs  # noqa: E402

RESULTS = Path(__file__).resolve().parent / "results"


# ---------------------------------------------------------------------------
# tracing

class Tracer:
    """Spans around public library calls, kept in memory until the end.

    ``on`` switches span recording; ``alloc`` additionally runs tracemalloc
    inside the spans that ask for it.  A span's parent is the op it ran in
    (-1 in set-up).
    """

    def __init__(self):
        self.on = False
        self.alloc = False
        self.phase = "setup"
        self.op = -1
        self.spans: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, alloc: bool = False, **attrs):
        if not self.on:
            yield
            return
        rec = {"name": name, "phase": self.phase, "op": self.op, **attrs}
        alloc = alloc and self.alloc
        if alloc:
            tracemalloc.start()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        with count_macs() as counter:
            start = time.perf_counter()
            try:
                yield
            finally:
                end = time.perf_counter()
                rec["minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                rec["macs"] = counter.macs
                if alloc:
                    rec["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                rec["start"], rec["end"] = start, end
                self.spans.append(rec)


# ---------------------------------------------------------------------------
# infer: gt_density -> threshold + refine -> dafm -> dffm

INFER_SIZE = 112        # see README: the largest size that stayed steady
INFER_CHANNELS = 16
INFER_SCENES = 3
INFER_KERNELS = (3, 6, 9)
DFFM_CHECK_SCALES = (24.0, 4.0)     # input, mix projectors
DFFM_CHECK_CROP = 24


class Infer:
    name = "infer"

    def __init__(self, seed: int, tr: Tracer):
        s, c = INFER_SIZE, INFER_CHANNELS
        images, self.annotations = [], []
        for i in range(INFER_SCENES):
            spec = SceneSpec(width=s, height=s, n_clusters=6,
                             objects_per_cluster=(12, 12), object_size=(3, 9),
                             cluster_spread=8.0, seed=seed * 1000 + i)
            with tr.span("synthgen.generate_scene"):
                image, anns = generate_scene(spec, image_id=i + 1)
            images.append(image)
            self.annotations.append(anns)
        with tr.span("params.build"):
            base = seeded_uniform(seed, "bench.infer.features", (c, s, s), c)
            self.dafm = dafm_params(c, c, expected_agents(s, s), seed)
            self.dffm = dffm_params(c, INFER_KERNELS, seed)
        # each scene's image is added to every channel of the shared features
        self.features = [base + image for image in images]
        self.ops_per_round = INFER_SCENES

    def op(self, i: int, tr: Tracer):
        s = INFER_SIZE
        x, anns = self.features[i], self.annotations[i]
        with tr.span("density.gt_density"):
            density = gt_density(anns, s, s)
        with tr.span("regions.select"):
            raw = threshold_mask(density)
            refined, regions = refine_mask(raw)
        with tr.span("dafm.forward", alloc=True, px=s * s):
            y, inter = dafm_forward(x, density, self.dafm, return_intermediates=True)
        with tr.span("dffm.forward", alloc=True, px=s * s):
            z = dffm_forward(y, density, self.dffm, INFER_KERNELS)
        return {"density": density, "raw": raw, "refined": refined,
                "regions": regions, "y": y, "inter": inter, "z": z}

    @staticmethod
    def same(a, b) -> bool:
        return np.array_equal(a["z"], b["z"]) and np.array_equal(a["y"], b["y"])

    def check(self, outs) -> dict:
        s = INFER_SIZE
        checks = {}
        p = self.dafm
        for i, out in enumerate(outs):
            x, tag = self.features[i], f"scene{i}"
            local = refs.depthwise_separable(x, p.dw_w, p.pw_w, p.pw_b)
            inter = out["inter"]
            gathered, y_ref = refs.dafm_stages(x, inter.bank, p.ifam, local)
            checks[f"{tag}.dafm_gathered_1e-9"] = _close(inter.gathered, gathered, 1e-9)
            checks[f"{tag}.dafm_output_1e-9"] = _close(out["y"], y_ref, 1e-9)

            zero = dafm_forward(x, np.zeros((1, s, s)), p)
            exact_local = ops.depthwise_separable_conv(x, p.dw_w, p.pw_w, p.pw_b)
            checks[f"{tag}.dafm_zero_density_is_local_exactly"] = bool(
                np.array_equal(zero, exact_local))
            checks[f"{tag}.local_branch_1e-9"] = _close(exact_local, local, 1e-9)

            checks[f"{tag}.rectangles_cover_raw_mask"] = _rectangles_ok(
                out["raw"][0], out["refined"][0], out["regions"].rectangles)
            checks[f"{tag}.dafm_selection_matches_explicit"] = bool(
                np.array_equal(inter.raw_mask, out["raw"])
                and inter.regions.rectangles == out["regions"].rectangles)

            ok_mass = True
            total = np.zeros((s, s))
            for ann in self.annotations[i]:
                stamp, inside = refs.density_stamp(ann.cx, ann.cy, ann.width,
                                                   ann.height, s, s)
                total += stamp
                if inside:
                    ok_mass &= 0.9 <= float(stamp.sum()) <= 1.0
            checks[f"{tag}.object_mass_in_0.9_1"] = bool(ok_mass)
            checks[f"{tag}.density_map_1e-12"] = _close(
                out["density"].values[0], total, 1e-12, absolute=True)

            z_ref = refs.dffm(out["y"], out["density"].values, self.dffm, INFER_KERNELS)
            checks[f"{tag}.dffm_output_1e-9"] = _close(out["z"], z_ref, 1e-9)

        # On the DAFM output (values ~1e5) the C x C affinity softmax is
        # one-hot, so the band branch hardly moves DFFM's output.  Compare
        # again where it does: a crop of the densest area of the features,
        # with input and mix projectors scaled as the repo's gradcheck does.
        k = DFFM_CHECK_CROP
        density = outs[0]["density"].values
        row, col = np.unravel_index(int(np.argmax(density[0])), density.shape[1:])
        r0, c0 = (min(max(v - k // 2, 0), s - k) for v in (row, col))
        crop = DFFM_CHECK_SCALES[0] * self.features[0][:, r0:r0 + k, c0:c0 + k]
        d_crop = density[:, r0:r0 + k, c0:c0 + k]
        paths = [dataclasses.replace(path, mix_high=DFFM_CHECK_SCALES[1] * path.mix_high,
                                     mix_low=DFFM_CHECK_SCALES[1] * path.mix_low)
                 for path in self.dffm.paths]
        sharp = dataclasses.replace(self.dffm, paths=paths)
        checks["dffm_conditioned_crop_1e-9"] = _close(
            dffm_forward(crop, d_crop, sharp, INFER_KERNELS),
            refs.dffm(crop, d_crop, sharp, INFER_KERNELS), 1e-9)
        return checks


def _close(got, want, tol, absolute=False) -> bool:
    """max |got - want| <= tol, scaled by max(1, max |want|) unless absolute."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or not np.isfinite(got).all():
        return False
    scale = 1.0 if absolute else max(1.0, float(np.abs(want).max()))
    return bool(np.abs(got - want).max() <= tol * scale)


def _rectangles_ok(raw, refined, rects) -> bool:
    """Every raw pixel lies in a rectangle, every rectangle edge touches a
    raw pixel (tight bounds), and the refined mask is their filled union."""
    if not 1 <= len(rects) <= 2:
        return False
    covered = np.zeros_like(raw, dtype=bool)
    for r0, r1, c0, c1 in rects:
        inside = raw[r0:r1 + 1, c0:c1 + 1]
        if not (inside[0].any() and inside[-1].any()
                and inside[:, 0].any() and inside[:, -1].any()):
            return False
        covered[r0:r1 + 1, c0:c1 + 1] = True
    return bool(np.all(covered[raw == 1.0])
                and np.array_equal(refined, covered.astype(np.float64)))


# ---------------------------------------------------------------------------
# train_dgb: one SGD step of the density branch over 8 scenes

TRAIN_SCENES = 8
TRAIN_SIZE = 64
TRAIN_LR = 0.05
# The initial weights use train_demo's default seed; the scenes follow
# --seed.  At many other weight seeds the branch's output ReLU is dead at
# init, the gradient is exactly zero and the loss cannot fall (CHANGES.md).
TRAIN_PARAM_SEED = 7
FD_COORDS = 4
FD_EPS = 1e-7


class TrainDgb:
    name = "train_dgb"

    def __init__(self, seed: int, tr: Tracer):
        self.cfg = DgbConfig()
        self.scenes = []
        s = TRAIN_SIZE
        # the scene recipe train_demo uses
        for i in range(TRAIN_SCENES):
            spec = SceneSpec(width=s, height=s, n_clusters=2,
                             objects_per_cluster=(3, 6), object_size=(3, 8),
                             cluster_spread=7.0, seed=seed * 1000 + i)
            with tr.span("synthgen.generate_scene"):
                image, anns = generate_scene(spec, image_id=i + 1)
            with tr.span("density.gt_density"):
                target = gt_density(anns, s, s).values
            self.scenes.append((image, target))
        with tr.span("params.build"):
            self.params = dgb_params(self.cfg, 1, TRAIN_PARAM_SEED)
        self.seed = seed
        self.losses: list[float] = []
        self.ops_per_round = 1

    def batch_loss(self, leaves, tr: Tracer):
        acc = None
        for image, target in self.scenes:
            with tr.span("density.dgb_forward"):
                pred = dgb_forward(image, leaves, self.cfg)
            term = density_loss(pred, target)
            acc = term if acc is None else ad.add(acc, term)
        return ad.scale(acc, 1.0 / len(self.scenes))

    def op(self, i: int, tr: Tracer):
        leaves = {name: Var(self.params[name]) for name in self.params}
        before = {name: self.params[name] for name in self.params}
        loss = self.batch_loss(leaves, tr)
        with tr.span("autodiff.backward", alloc=True):
            backward(loss)
        grads = {name: leaves[name].grad for name in leaves}
        for name, g in grads.items():
            if g is not None:
                self.params[name] = self.params[name] - TRAIN_LR * g
        self.losses.append(float(loss.value))
        return {"before": before, "grads": grads}

    @staticmethod
    def same(a, b) -> bool:
        return True  # parameters move every step; the loss trend is checked

    def check(self, outs) -> dict:
        first = outs[0]
        point = {name: np.array(v) for name, v in first["before"].items()}
        off = Tracer()

        def f(arrays):
            return float(np.asarray(self.batch_loss(arrays, off)))

        rng = np.random.default_rng(self.seed)
        names = sorted(point)
        ok = True
        for name in rng.choice(names, size=FD_COORDS, replace=False):
            index = int(rng.integers(point[name].size))
            fd = refs.central_difference(f, point, name, index, FD_EPS)
            g = float(first["grads"][name].reshape(-1)[index])
            ok &= abs(fd - g) <= 1e-5 * max(abs(fd), abs(g), 1e-4)
        losses = self.losses
        return {"tape_grad_vs_central_difference_1e-5": bool(ok),
                "loss_finite": all(math.isfinite(v) for v in losses),
                "loss_falls": len(losses) >= 2 and losses[-1] < losses[0]}


# ---------------------------------------------------------------------------
# eval_dense: load gt + detections, AP report at max_dets=1500

EVAL_MAX_DETS = 1500    # AI-TOD setting
EVAL_DENSE = dict(width=192, height=192, n_clusters=10, objects_per_cluster=(20, 20),
                  object_size=(2, 20), cluster_spread=10.0)
EVAL_SPARSE_PER_CLUSTER = (3, 6, 9, 12, 15, 18, 15, 12, 9, 6)   # 2 clusters each


class EvalDense:
    name = "eval_dense"

    def __init__(self, seed: int, tr: Tracer):
        images, gts = {}, []
        specs = [SceneSpec(seed=seed * 1000, **EVAL_DENSE)]
        specs += [SceneSpec(width=64, height=64, n_clusters=2, objects_per_cluster=(k, k),
                            object_size=(2, 24), cluster_spread=6.0,
                            seed=seed * 1000 + 1 + i)
                  for i, k in enumerate(EVAL_SPARSE_PER_CLUSTER)]
        for image_id, spec in enumerate(specs, start=1):
            with tr.span("synthgen.generate_scene"):
                _, anns = generate_scene(spec, image_id=image_id)
            images[image_id] = {"width": spec.width, "height": spec.height,
                                "file_name": f"image{image_id}"}
            gts += anns
        with tr.span("synthgen.perturb_detections"):
            dets = perturb_detections(gts, jitter_px=1.5, drop_rate=0.0,
                                      score_noise=0.05, seed=seed)
        RESULTS.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="eval-", dir=RESULTS))
        self.gt_path = self.workdir / "gt.json"
        self.det_path = self.workdir / "dets.json"
        with tr.span("tensorfile.save_annotations"):
            save_annotation_file(self.gt_path, images, gts)
        with tr.span("tensorfile.save_annotations"):
            save_annotation_file(self.det_path, images, dets)
        self.n_gt = len(gts)
        self.ops_per_round = 1

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def op(self, i: int, tr: Tracer):
        with tr.span("tensorfile.load_annotations"):
            _, gts, _ = load_annotation_file(self.gt_path)
        with tr.span("tensorfile.load_annotations"):
            _, _, dets = load_annotation_file(self.det_path)
        with tr.span("evalkit.ap_report"):
            report = ap_report(dets, gts, max_dets=EVAL_MAX_DETS)
        return {"report": report.to_dict(), "gts": gts, "dets": dets}

    @staticmethod
    def same(a, b) -> bool:
        return a["report"] == b["report"]

    def check(self, outs) -> dict:
        import oracles
        out = outs[0]
        want = oracles.brute_force_report(
            [(d.image_id, d.category_id, d.bbox, d.score) for d in out["dets"]],
            [(g.image_id, g.category_id, g.to_xywh()) for g in out["gts"]],
            max_dets=EVAL_MAX_DETS)
        got = out["report"]
        fields = set(got) == set(want) and all(
            got[k] == want[k] if isinstance(want[k], int) else abs(got[k] - want[k]) < 1e-12
            for k in want)
        return {"report_equals_brute_force_oracle": bool(fields),
                "tp_plus_fn_is_gt_count": got["tp"] + got["fn"] == self.n_gt,
                "loaded_gt_count": len(out["gts"]) == self.n_gt}


WORKLOADS = {w.name: w for w in (Infer, TrainDgb, EvalDense)}


# ---------------------------------------------------------------------------
# environment fingerprint

def fingerprint() -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        np.show_runtime()
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    threads = None
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "numpy": np.__version__,
        "python": sys.version,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": threads,
                 "env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "simd": config.get("SIMD Extensions"),
        "show_runtime": buf.getvalue(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# measurement loop

def run(args) -> dict:
    tr = Tracer()
    tr.on = args.trace
    wl = WORKLOADS[args.workload](args.seed, tr)
    result = {"setup_done": time.monotonic()}
    try:
        if not args.setup_only:
            result.update(_measure(wl, tr, args))
    finally:
        if isinstance(wl, EvalDense):
            wl.close()
    result["spans"] = tr.spans
    return result


def _measure(wl, tr: Tracer, args) -> dict:
    n = wl.ops_per_round
    # warm-up round, outside the timed section; traced runs measure
    # allocation peaks here so tracemalloc never slows a timed op
    tr.phase, tr.alloc = "warmup", args.trace
    for i in range(n):
        wl.op(i, tr)
    tr.alloc = False
    tr.phase = "timed"

    latencies, traced, errors = [], [], []
    firsts: list = [None] * n
    attempted = failed = mismatched = 0
    rounds = 0
    loop_start = time.perf_counter()
    while True:
        if args.rounds is not None:
            if rounds >= args.rounds:
                break
        elif time.perf_counter() - loop_start >= args.seconds:
            break
        tr.on = args.trace and rounds % 2 == 0
        for i in range(n):
            tr.op = attempted
            attempted += 1
            start = time.perf_counter()
            try:
                out = wl.op(i, tr)
            except Exception as exc:  # a failed op is counted, the loop goes on
                failed += 1
                errors.append(f"op {attempted - 1}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - start)
            traced.append(tr.on)
            if firsts[i] is None:
                firsts[i] = out
            elif not wl.same(out, firsts[i]):
                mismatched += 1
        rounds += 1
    loop_wall = time.perf_counter() - loop_start
    tr.on = False
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    kept = [o for o in firsts if o is not None]
    checks = wl.check(kept) if kept else {"an_op_succeeded": False}
    checks["repeat_ops_identical"] = mismatched == 0
    return {"attempted": attempted, "failed": failed, "errors": errors[:10],
            "latencies": latencies, "traced": traced, "loop_wall": loop_wall,
            "peak_rss_kb": peak_rss_kb, "checks": checks, "env": fingerprint()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--rounds", type=int, default=None,
                   help="run exactly this many timed rounds instead of --seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    args.trace = bool(args.trace)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
