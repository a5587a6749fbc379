"""Acceptance suite: one test per release criterion.

Each test prints a single ``PASS criterion N`` line once all of its
assertions hold, so a verbose run reads as a checklist.  Oracles live in
``oracles.py`` and are written straight from the definitions rather than
by calling back into the library.
"""

import itertools
import json
import time

import numpy as np
import pytest

import oracles
from densefocus import autodiff as ad
from densefocus import ops
from densefocus.cli import cli_dispatch
from densefocus.dafm import dafm_forward, dafm_params, expected_agents
from densefocus.density import BBoxAnnotation, gt_density
from densefocus.dffm import dffm_forward, dffm_params, frequency_masks
from densefocus.evalkit import SIZE_BUCKETS, Detection, ap_report
from densefocus.params import seeded_uniform
from densefocus.regions import refine_mask
from densefocus.rng import Rng
from densefocus.train import GRADCHECK_TOLERANCE, _gradcheck_cases, train_demo


def ok(n, msg):
    print(f"PASS criterion {n}: {msg}")


# ---------------------------------------------------------------------------
# 1. exhaustive region-refinement oracle

def test_criterion_01_region_refinement_exhaustive():
    start = time.monotonic()
    for bits in range(65536):
        mask = np.array([(bits >> i) & 1 for i in range(16)],
                        dtype=float).reshape(1, 4, 4)
        got_mask, got_regions = refine_mask(mask)
        ref_mask, ref_rects = oracles.reference_region_refine(mask)
        assert np.array_equal(got_mask, ref_mask), f"mask mismatch at {bits:#06x}"
        assert got_regions.rectangles == ref_rects, f"rects mismatch at {bits:#06x}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    ok(1, f"refine_mask equals the straight-line reference on all 65,536 "
          f"4x4 masks in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. DCT suite

def test_criterion_02_dct_suite():
    shapes = [(1, 1, 1), (1, 2, 3), (2, 4, 4), (1, 5, 7), (2, 8, 8),
              (1, 16, 16), (1, 31, 17), (1, 32, 32)]
    for i, shape in enumerate(shapes):
        x = seeded_uniform(i + 1, f"accept.dct.{i}", shape, 1)
        spectrum = ops.dct2(x)
        assert np.max(np.abs(ops.idct2(spectrum) - x)) < 1e-9
        energy_x = float(np.sum(x * x))
        energy_s = float(np.sum(spectrum * spectrum))
        assert abs(energy_x - energy_s) <= 1e-12 * energy_x
        assert np.max(np.abs(spectrum - oracles.naive_dct2(x))) < 1e-9
        assert np.max(np.abs(ops.idct2(x) - oracles.naive_idct2(x))) < 1e-9
    ok(2, f"round-trip < 1e-9, Parseval < 1e-12, definition oracle < 1e-9 "
          f"on {len(shapes)} sizes up to 32x32")


# ---------------------------------------------------------------------------
# 3. frequency conservation

def test_criterion_03_frequency_conservation():
    for case in range(20):
        c = 1 + case % 3
        h, w = 4 + case % 5, 4 + (case * 3) % 7
        x = seeded_uniform(case + 1, f"accept.freq.x.{case}", (c, h, w), 2)
        d = np.abs(seeded_uniform(case + 1, f"accept.freq.d.{case}", (1, h, w), 1))
        mask_w = seeded_uniform(case + 1, f"accept.freq.w.{case}", (1, c, 1, 1), c)
        mask_b = seeded_uniform(case + 1, f"accept.freq.b.{case}", (1,), 1)
        m_low, m_high = frequency_masks(x, d, mask_w, mask_b)
        assert np.array_equal(m_low + m_high, np.ones_like(m_low))
        spectrum = ops.dct2(x)
        f_low, f_high = spectrum * m_low, spectrum * m_high
        assert np.max(np.abs((f_low + f_high) - spectrum)) < 1e-9
        assert np.max(np.abs(ops.idct2(f_low) + ops.idct2(f_high) - x)) < 1e-9
    ok(3, "band masks complement exactly and splits recompose the spectrum "
          "and the signal < 1e-9 on 20 seeded cases")


# ---------------------------------------------------------------------------
# 4. gradient checks

def away(a, gap=0.05):
    moved = np.where(np.abs(a) < gap, np.sign(a) * gap, a)
    return np.where(moved == 0.0, gap, moved)


def wsum(out):
    val = out.value if isinstance(out, ad.Var) else np.asarray(out)
    w = seeded_uniform(97, "accept.grad.w" + "x".join(map(str, val.shape)),
                       val.shape, 1)
    return ad.sum_all(ad.multiply(out, w))


def per_op_cases(seed):
    def u(name, shape, fan=1):
        return seeded_uniform(seed, f"accept.grad.{name}", shape, fan)

    x = u("x", (2, 6, 6))
    y = u("y", (2, 6, 6))
    off = np.arange(2)[:, None, None] * 5.0
    rows = u("rows", (36, 2))
    m_a, m_b = u("ma", (4, 3)), u("mb", (3, 5))
    yield "add", lambda a, b: wsum(ad.add(a, b)), [u("bx", (2, 1, 6)), y]
    yield "subtract", lambda a, b: wsum(ad.subtract(a, b)), [x, y]
    yield "multiply", lambda a, b: wsum(ad.multiply(a, b)), [x, y]
    yield "scale", lambda a: wsum(ad.scale(a, -1.75)), [x]
    yield "reshape", lambda a: wsum(ad.reshape(a, (8, 9))), [x]
    yield "transpose2d", lambda a: wsum(ad.transpose2d(a)), [m_a]
    yield "chw_to_rows", lambda a: wsum(ad.chw_to_rows(a)), [x]
    yield "rows_to_chw", lambda a: wsum(ad.rows_to_chw(a, (2, 6, 6))), [rows]
    yield "concat_channels", lambda a, b: wsum(ad.concat_channels(a, b)), [x, y]
    yield "sum_all", lambda a: ad.sum_all(a), [x]
    yield "mean_all", lambda a: ad.mean_all(a), [x]
    yield ("mean_axes", lambda a: wsum(ad.mean_axes(a, (1, 2), keepdims=True)),
           [x])
    yield "max_channels", lambda a: wsum(ad.max_channels(a)), [x + off]
    yield "sigmoid", lambda a: wsum(ad.sigmoid(a)), [x]
    yield "relu", lambda a: wsum(ad.relu(a)), [away(x)]
    yield "softmax", lambda a: wsum(ad.softmax(a, axis=-1)), [m_a]
    yield "matmul", lambda a, b: wsum(ad.matmul(a, b)), [m_a, m_b]
    yield ("conv2d",
           lambda a, w, b: wsum(ad.conv2d(a, w, b, stride=2, pad=1)),
           [x, u("cw", (3, 2, 3, 3), 18), u("cb", (3,), 1)])
    yield "avg_pool", lambda a: wsum(ad.avg_pool(a, 4)), [x]
    yield ("depthwise_separable",
           lambda a, dw, pw, b: wsum(ad.conv2d(ad.depthwise_conv(a, dw), pw, b, 1, 0)),
           [x, u("dw", (2, 1, 3, 3), 9), u("pw", (4, 2, 1, 1), 2),
            u("pb", (4,), 1)])
    yield "bilinear_up", lambda a: wsum(ad.bilinear_resize(a, 9, 11)), [x]
    yield "bilinear_down", lambda a: wsum(ad.bilinear_resize(a, 2, 3)), [x]
    yield "dct2", lambda a: wsum(ad.dct2(a)), [x]
    yield "idct2", lambda a: wsum(ad.idct2(a)), [x]
    yield ("channel_attention",
           lambda a, wr, we: wsum(ad.channel_attention(a, wr, we)),
           [np.abs(x) + 0.1, np.abs(u("car", (1, 2), 2)) + 0.2, u("cae", (2, 1), 1)])
    yield ("spatial_attention",
           lambda a, w: wsum(ad.spatial_attention(a, w)),
           [x + off, u("saw", (1, 2, 7, 7), 98)])


def test_criterion_04_gradient_checks():
    start = time.monotonic()
    seeds = (1, 2, 3)
    n_cases = 0
    for seed in seeds:
        for label, fn, point in per_op_cases(seed):
            err = ad.grad_check(fn, point, eps=1e-6, seed=seed)
            assert err < GRADCHECK_TOLERANCE, f"{label} seed {seed}: {err:.3e}"
            n_cases += 1
        for module in ("density", "dafm", "dffm"):
            for label, fn, point in _gradcheck_cases(module, seed):
                err = ad.grad_check(fn, point, eps=1e-6, seed=seed)
                assert err < GRADCHECK_TOLERANCE, f"{label} seed {seed}: {err:.3e}"
                n_cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    ok(4, f"{n_cases} finite-difference checks (every op + composed density/"
          f"attention/fusion graphs, 3 seeds) < 1e-5 in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. density mass and equivariance

def test_criterion_05_density_mass():
    for gamma in (2.0, 3.0, 4.5, 5.0, 6.5, 8.0):
        side = gamma * np.sqrt(2.0)
        ann = BBoxAnnotation(1, 1, 32.0, 32.0, side, side)
        mass = gt_density([ann], 64, 64).mass()
        assert 0.985 <= mass <= 1.001, f"gamma {gamma}: mass {mass}"

    rng = Rng(402).derive("accept.mass")
    anns = []
    for i in range(20):
        cx, cy = rng.uniform(16.0, 48.0), rng.uniform(16.0, 48.0)
        side = rng.uniform(2.0, 5.0) * np.sqrt(2.0)
        anns.append(BBoxAnnotation(1, 1, cx, cy, side, side))
    mass = gt_density(anns, 64, 64).mass()
    assert 0.985 * 20 <= mass <= 1.001 * 20

    base = BBoxAnnotation(1, 1, 24.0, 24.0, 4.0, 5.0)
    moved = BBoxAnnotation(1, 1, 33.0, 29.0, 4.0, 5.0)
    d_base = gt_density([base], 64, 64).values
    d_moved = gt_density([moved], 64, 64).values
    assert np.array_equal(d_moved, np.roll(d_base, (5, 9), axis=(1, 2)))
    ok(5, "single-object mass in [0.985, 1.001] for gamma in [2, 8], "
          "20-object mass in the scaled band, translation bit-exact")


# ---------------------------------------------------------------------------
# 6. compute reduction

def dafm_macs(s, c=32):
    """Multiply-adds of one dafm_forward on a C x s x s map whose density
    marks one dense block, at the bank size the block derives."""
    x = seeded_uniform(1, "accept.macs.x", (c, s, s), c)
    density = np.zeros((1, s, s))
    density[0, s // 4:s // 2, s // 8:3 * s // 4] = 1.0
    params = dafm_params(c, c, expected_agents(s, s), 1)
    with ops.count_macs() as counter:
        dafm_forward(x, density, params)
    return counter.macs


def test_criterion_06_compute_reduction():
    macs = {s: dafm_macs(s) for s in (32, 64, 128)}
    ratio = macs[64] / oracles.global_attention_macs(64, 64, 32, 32)
    assert ratio <= 0.25

    per_pixel = [m / (s * s) for s, m in macs.items()]
    spread = max(per_pixel) / min(per_pixel)
    assert spread <= 1.05
    ok(6, f"dafm_forward needs {100 * ratio:.1f}% of global-attention "
          f"MACs at 64x64; per-pixel cost varies {100 * (spread - 1):.2f}% "
          f"across 32^2..128^2")


# ---------------------------------------------------------------------------
# 7. evaluator vs. brute force

SIZES = (2.0, 3.5, 5.0, 9.0, 13.0, 18.0, 26.0, 34.0, 42.0)


def eval_scenario(seed):
    rng = Rng(seed).derive("accept.eval")
    gts, dets = [], []
    for image_id in (1, 2):
        for _ in range(rng.randint(1, 4)):
            cat = rng.randint(1, 3)
            size = SIZES[rng.randint(0, len(SIZES) - 1)]
            x, y = rng.uniform(0.0, 80.0), rng.uniform(0.0, 80.0)
            w = size * rng.uniform(0.8, 1.25)
            h = size * rng.uniform(0.8, 1.25)
            gts.append(BBoxAnnotation.from_xywh(image_id, cat, x, y, w, h))
            if rng.uniform(0.0, 1.0) < 0.85:
                jx = x + rng.uniform(-0.3, 0.3) * w
                jy = y + rng.uniform(-0.3, 0.3) * h
                jw = w * rng.uniform(0.7, 1.3)
                jh = h * rng.uniform(0.7, 1.3)
                dets.append(Detection(image_id, cat, (jx, jy, jw, jh),
                                      rng.uniform(0.05, 1.0)))
        dets.append(Detection(image_id, rng.randint(1, 3),
                              (rng.uniform(0.0, 90.0), rng.uniform(0.0, 90.0),
                               6.0, 6.0), rng.uniform(0.05, 1.0)))
    return dets[:12], gts


def test_criterion_07_evaluator_oracle():
    n_checked = 0
    for seed, max_dets in itertools.product(range(1, 7), (100, 2)):
        dets, gts = eval_scenario(seed)
        got = ap_report(dets, gts, max_dets=max_dets).to_dict()
        want = oracles.brute_force_report(
            [(d.image_id, d.category_id, d.bbox, d.score) for d in dets],
            [(g.image_id, g.category_id, g.to_xywh()) for g in gts],
            max_dets=max_dets)
        for key in want:
            if isinstance(want[key], int):
                assert got[key] == want[key], f"seed {seed} {key}"
            else:
                assert abs(got[key] - want[key]) < 1e-12, f"seed {seed} {key}"
            n_checked += 1

    perfect_gts = [BBoxAnnotation.from_xywh(1, 1, 2.0, 2.0, 7.0, 7.0),
                   BBoxAnnotation.from_xywh(1, 1, 20.0, 2.0, 10.0, 10.0),
                   BBoxAnnotation.from_xywh(1, 2, 2.0, 30.0, 20.0, 20.0),
                   BBoxAnnotation.from_xywh(1, 2, 40.0, 40.0, 40.0, 40.0)]
    perfect_dets = [Detection(g.image_id, g.category_id, g.to_xywh(), 0.9)
                    for g in perfect_gts]
    report = ap_report(perfect_dets, perfect_gts).to_dict()
    for key, value in report.items():
        if key in ("tp", "fp", "fn"):
            assert value == {"tp": 4, "fp": 0, "fn": 0}[key]
        else:
            assert value == 1.0, f"{key} = {value}"

    rng = Rng(9).derive("accept.buckets")
    areas = [rng.uniform(0.0, 2000.0) for _ in range(300)]
    areas += [64.0, 256.0, 1024.0, 0.25, 1.0e9]
    for area in areas:
        hits = sum(lo <= area < hi for _, lo, hi in SIZE_BUCKETS)
        assert hits == 1, f"area {area} in {hits} buckets"
    ok(7, f"ap_report matches the staircase oracle on 12 scenarios "
          f"({n_checked} fields, < 1e-12), perfect detections score 1.0, "
          f"size buckets partition")


# ---------------------------------------------------------------------------
# 8. kernel-set configurability

KERNEL_SETS = [(3, 5, 7), (5, 7, 9), (3, 6, 9), (6, 9, 12),
               (6, 7, 8), (6, 7, 8, 9), (3, 5, 7, 9), (3, 6, 9, 12)]


def test_criterion_08_kernel_sets():
    x = seeded_uniform(3, "accept.kernels.x", (2, 72, 72), 2)
    d = np.abs(seeded_uniform(3, "accept.kernels.d", (1, 72, 72), 1))
    for kernel_set in KERNEL_SETS:
        params = dffm_params(2, kernel_set, 5)
        out = dffm_forward(x, d, params, kernel_set)
        assert out.shape == x.shape, f"{kernel_set}: {out.shape}"
        assert np.isfinite(out).all()
    ok(8, f"fusion runs shape-preservingly for all {len(KERNEL_SETS)} "
          f"supported kernel sets on 72x72")


# ---------------------------------------------------------------------------
# 9. training demo

def test_criterion_09_train_demo():
    first = train_demo(steps=200, lr=0.05, seed=7)
    second = train_demo(steps=200, lr=0.05, seed=7)
    assert first == second
    assert len(first) == 201
    drop = 1.0 - first[-1] / first[0]
    assert drop >= 0.50, f"loss only fell {100 * drop:.1f}%"
    ok(9, f"density loss falls {100 * drop:.1f}% over 200 steps at seed 7, "
          f"identically across two runs")


# ---------------------------------------------------------------------------
# 10. end-to-end determinism

def pipeline(tmp_path, tag, capsys):
    root = tmp_path / tag
    root.mkdir()
    spec = tmp_path / "spec.json"
    if not spec.exists():
        spec.write_text(json.dumps({
            "width": 48, "height": 48, "n_clusters": 2,
            "objects_per_cluster": [3, 6], "object_size": [3, 8],
            "cluster_spread": 6.0, "seed": 23}))
    params = tmp_path / "params.json"
    if not params.exists():
        params.write_text(json.dumps({"seed": 5, "bank_kernel": 4}))

    scene = root / "scene"
    assert cli_dispatch(["synth", "--spec", str(spec),
                         "--out-dir", str(scene)]) == 0
    assert cli_dispatch(["gt-density", "--annotations",
                         str(scene / "annotations.json"),
                         "--out", str(root / "density.drmt"),
                         "--heatmap", str(root / "density.pgm")]) == 0
    assert cli_dispatch(["select-regions", "--density",
                         str(root / "density.drmt"),
                         "--out-dir", str(root / "regions")]) == 0
    assert cli_dispatch(["dafm", "--features", str(scene / "image.drmt"),
                         "--density", str(root / "density.drmt"),
                         "--params", str(params),
                         "--out", str(root / "attn.drmt")]) == 0
    assert cli_dispatch(["dffm", "--features", str(root / "attn.drmt"),
                         "--density", str(root / "density.drmt"),
                         "--params", str(params),
                         "--out", str(root / "fused.drmt")]) == 0
    assert cli_dispatch(["eval", "--gt", str(scene / "annotations.json"),
                         "--dets", str(scene / "detections.json"),
                         "--csv", str(root / "report.csv")]) == 0
    stdout = capsys.readouterr().out
    artifacts = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            artifacts[str(path.relative_to(root))] = path.read_bytes()
    return stdout, artifacts


def test_criterion_10_pipeline_determinism(tmp_path, capsys):
    out_a, files_a = pipeline(tmp_path, "a", capsys)
    out_b, files_b = pipeline(tmp_path, "b", capsys)
    assert out_a == out_b
    assert sorted(files_a) == sorted(files_b)
    assert len(files_a) >= 11
    for name in files_a:
        assert files_a[name] == files_b[name], f"{name} differs between runs"
    ok(10, f"synth -> gt-density -> select-regions -> dafm -> dffm -> eval "
           f"reproduces {len(files_a)} artifacts byte-identically")
