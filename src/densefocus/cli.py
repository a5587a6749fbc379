"""Command-line surface: argument parsing and dispatch over :mod:`.tensorfile`.

Subcommands: synth, gt-density, calibrate, select-regions, dafm, dffm,
eval, gradcheck, train-demo.  Exit codes: 0 success, 2 usage error,
3 file-format error, 4 numeric failure (non-finite values or a gradient
check above tolerance).  All outputs are deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import autodiff as ad
from . import train
from .dafm import dafm_forward, dafm_params, expected_agents
from .density import calib_params, calibrate_density, gt_density
from .dffm import DEFAULT_KERNEL_SET, dffm_forward, dffm_params
from .errors import DenseFocusError, FormatError, InvalidArgumentError, NumericError
from .evalkit import ap_report
from .ops import require_chw, require_finite
from .regions import refine_mask, threshold_mask
from .synthgen import SceneSpec, generate_scene, perturb_detections
from .tensorfile import (load_annotation_file, num_value, range_value, read_json,
                         read_tensor, real_value, save_annotation_file, seed_value,
                         write_heatmap, write_json, write_tensor)


def _read_density(path) -> np.ndarray:
    return require_finite(read_tensor(path), f"density {path}", FormatError)


def _set_fields(doc: dict, parsers: dict) -> dict:
    """The fields that ``doc`` sets, each parsed by ``parsers[key]``, as
    keyword arguments; a field it omits keeps the library's default."""
    return {key: parse(key, doc[key]) for key, parse in parsers.items() if key in doc}


def _resolve_seed(args, doc: dict) -> int:
    return args.seed if args.seed is not None else seed_value("seed", doc.get("seed", 0))


def _seed_arg(text: str) -> int:
    """``--seed``: an integer under the seed-field rule; a usage error otherwise."""
    try:
        return seed_value("--seed", int(text))
    except (ValueError, FormatError):
        raise argparse.ArgumentTypeError(
            f"must be an integer in [0, 2**64), got {text!r}") from None


def _seed_override(args) -> dict:
    """``--seed`` as keyword arguments if given, else none: the library default applies."""
    return {} if args.seed is None else {"seed": args.seed}


def _verbose(args, msg: str) -> None:
    if args.verbose:
        print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    doc = read_json(args.spec, "scene spec")
    for key in ("width", "height", "n_clusters"):
        if key not in doc:
            raise FormatError(f"scene spec {args.spec}: missing field {key!r}")
    spec = SceneSpec(
        **{key: num_value(key, doc[key]) for key in ("width", "height", "n_clusters")},
        **_set_fields(doc, {"objects_per_cluster": range_value,
                            "object_size": range_value,
                            "cluster_spread": real_value,
                            "seed": seed_value}) | _seed_override(args))
    image, annotations = generate_scene(spec, image_id=args.image_id)
    require_finite(image, "synth image")
    # every draw, and so every flag check, before the first write
    dets = perturb_detections(annotations, jitter_px=args.jitter,
                              drop_rate=args.drop, score_noise=args.score_noise,
                              seed=spec.seed + 1)
    os.makedirs(args.out_dir, exist_ok=True)
    write_tensor(os.path.join(args.out_dir, "image.drmt"), image)
    write_heatmap(os.path.join(args.out_dir, "image.pgm"), image)
    images = {args.image_id: {"width": spec.width, "height": spec.height,
                              "file_name": "image.drmt"}}
    save_annotation_file(os.path.join(args.out_dir, "annotations.json"),
                         images, annotations)
    save_annotation_file(os.path.join(args.out_dir, "detections.json"),
                         images, dets)
    _verbose(args, f"synth: {len(annotations)} objects, {len(dets)} detections")
    return 0


def cmd_gt_density(args) -> int:
    images, annotations, _ = load_annotation_file(args.annotations)
    if args.image_id not in images:
        raise InvalidArgumentError(f"gt-density: image id {args.image_id} not in file")
    img = images[args.image_id]
    anns = [a for a in annotations if a.image_id == args.image_id]
    dmap = gt_density(anns, int(img["height"]), int(img["width"]))
    require_finite(dmap.values, "gt density")
    write_tensor(args.out, dmap.values)
    if args.heatmap:
        write_heatmap(args.heatmap, dmap.values)
    _verbose(args, f"gt-density: {len(anns)} objects, mass {dmap.mass():.4f}, "
                   f"{dmap.skipped} skipped")
    return 0


def cmd_calibrate(args) -> int:
    doc = read_json(args.params, "calibrate params")
    params = calib_params(_resolve_seed(args, doc),
                          **_set_fields(doc, {"c_mid": num_value}))
    d = _read_density(args.density)
    out = calibrate_density(d, params)
    require_finite(out, "calibrated density")
    write_tensor(args.out, out)
    if args.heatmap:
        write_heatmap(args.heatmap, out)
    return 0


def cmd_select_regions(args) -> int:
    d = _read_density(args.density)
    mask = threshold_mask(d, args.mode, args.value)
    refined, regions = refine_mask(mask)
    os.makedirs(args.out_dir, exist_ok=True)
    write_tensor(os.path.join(args.out_dir, "mask.drmt"), refined)
    write_heatmap(os.path.join(args.out_dir, "mask.pgm"), refined)
    write_json(os.path.join(args.out_dir, "regions.json"), regions.to_json_dict())
    _verbose(args, f"select-regions: {len(regions.rectangles)} rectangles")
    return 0


def cmd_dafm(args) -> int:
    doc = read_json(args.params, "attention params")
    seed = _resolve_seed(args, doc)
    x = require_chw(read_tensor(args.features), "dafm features")
    d = _read_density(args.density)
    n_agents = expected_agents(x.shape[1], x.shape[2])
    embed = num_value("embed", doc.get("embed", x.shape[0]))
    params = dafm_params(x.shape[0], embed, n_agents, seed,
                         **_set_fields(doc, {"dw_kernel": num_value}))
    out, inter = dafm_forward(
        x, d, params, return_intermediates=True,
        **_set_fields(doc, {"thresh_mode": lambda key, value: value,
                            "thresh_value": real_value}))
    require_finite(out, "dafm output")
    write_tensor(args.out, out)
    if args.dump_dir:
        os.makedirs(args.dump_dir, exist_ok=True)
        write_tensor(os.path.join(args.dump_dir, "raw_mask.drmt"), inter.raw_mask)
        write_tensor(os.path.join(args.dump_dir, "refined_mask.drmt"),
                     inter.refined_mask)
        write_json(os.path.join(args.dump_dir, "regions.json"), inter.regions.to_json_dict())
        if inter.bank is not None:
            write_tensor(os.path.join(args.dump_dir, "bank.drmt"), inter.bank)
            write_tensor(os.path.join(args.dump_dir, "gathered.drmt"), inter.gathered)
    _verbose(args, f"dafm: {len(inter.regions.rectangles)} regions")
    return 0


def cmd_dffm(args) -> int:
    doc = read_json(args.params, "fusion params")
    seed = _resolve_seed(args, doc)
    p = require_chw(read_tensor(args.features), "dffm features")
    d = _read_density(args.density)
    try:
        kernel_set = tuple(int(k) for k in args.kernels.split(",") if k != "")
    except ValueError:
        raise InvalidArgumentError(f"dffm: bad --kernels value {args.kernels!r}")
    params = dffm_params(p.shape[0], kernel_set, seed,
                         **_set_fields(doc, {"ca_reduction": num_value,
                                             "sa_kernel": num_value}))
    out = dffm_forward(p, d, params, kernel_set)
    require_finite(out, "dffm output")
    write_tensor(args.out, out)
    return 0


def cmd_eval(args) -> int:
    _, gts, _ = load_annotation_file(args.gt)
    _, _, dets = load_annotation_file(args.dets)
    report = ap_report(dets, gts, max_dets=args.max_dets).to_dict()
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.csv:
        keys = sorted(report)
        with open(args.csv, "w", encoding="utf-8") as f:
            f.write(",".join(keys) + "\n")
            f.write(",".join(repr(report[k]) for k in keys) + "\n")
    return 0


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    worst = 0.0
    for label, fn, point in train._gradcheck_cases(args.module, seed):
        err = ad.grad_check(fn, point, eps=1e-6, seed=seed)
        _verbose(args, f"gradcheck {label}: max rel error {err:.3e}")
        worst = np.maximum(worst, err)  # a NaN error stays the maximum
    print(f"max relative error: {worst:.6e}")
    if not worst < train.GRADCHECK_TOLERANCE:
        raise NumericError(
            f"gradcheck: {worst:.3e} above tolerance {train.GRADCHECK_TOLERANCE}")
    return 0


def cmd_train_demo(args) -> int:
    trace = train.train_demo(steps=args.steps, lr=args.lr, **_seed_override(args))
    lines = ["step,loss"]
    lines += [f"{i},{v!r}" for i, v in enumerate(trace)]
    payload = "\n".join(lines) + "\n"
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            f.write(payload)
    else:
        sys.stdout.write(payload)
    _verbose(args, f"train-demo: initial {trace[0]:.6f}, final {trace[-1]:.6f}")
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densefocus",
        description="Density-guided tiny-object pipeline tools")
    parser.add_argument("--seed", type=_seed_arg, default=None,
                        help="override the seed from spec/params files; "
                             "an integer in [0, 2**64)")
    parser.add_argument("--verbose", action="store_true",
                        help="progress diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--image-id", type=int, default=1)
    p.add_argument("--jitter", type=float, default=1.0)
    p.add_argument("--drop", type=float, default=0.1)
    p.add_argument("--score-noise", type=float, default=0.05)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gt-density", help="render the ground-truth density map")
    p.add_argument("--annotations", required=True)
    p.add_argument("--image-id", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--heatmap", default=None)
    p.set_defaults(func=cmd_gt_density)

    p = sub.add_parser("calibrate", help="calibrate a density map to (0,1)")
    p.add_argument("--density", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--heatmap", default=None)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("select-regions", help="threshold + cluster a density map")
    p.add_argument("--density", required=True)
    p.add_argument("--mode", choices=("quantile", "absolute"), default="quantile")
    p.add_argument("--value", type=float, default=0.10)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_select_regions)

    p = sub.add_parser("dafm", help="density-guided focused attention")
    p.add_argument("--features", required=True)
    p.add_argument("--density", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-dir", default=None)
    p.set_defaults(func=cmd_dafm)

    p = sub.add_parser("dffm", help="dual-frequency feature fusion")
    p.add_argument("--features", required=True)
    p.add_argument("--density", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--kernels", default=",".join(str(k) for k in DEFAULT_KERNEL_SET))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dffm)

    p = sub.add_parser("eval", help="COCO-protocol AP report")
    p.add_argument("--gt", required=True)
    p.add_argument("--dets", required=True)
    p.add_argument("--max-dets", type=int, default=1500,
                   help="detections kept per (image, category), by score "
                        "(default 1500, the AI-TOD setting)")
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--module", choices=("ops", "density", "dafm", "dffm"),
                   required=True)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train-demo", help="micro density-branch training run")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--trace", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_train_demo)
    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DenseFocusError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
