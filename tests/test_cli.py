"""Command-line interface: artifacts, exit codes, determinism."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import densefocus
from densefocus import autodiff as ad
from densefocus import cli
from densefocus.cli import cli_dispatch
from densefocus.dafm import dafm_forward, dafm_params
from densefocus.density import calib_params
from densefocus.dffm import dffm_params
from densefocus.errors import (DenseFocusError, FormatError, InvalidArgumentError,
                               NumericError, UnsupportedOperationError)
from densefocus.evalkit import ap_report
from densefocus.params import seeded_uniform
from densefocus.synthgen import SceneSpec, generate_scene, perturb_detections
from densefocus.tensorfile import (load_annotation_file, read_tensor,
                                   save_annotation_file, write_tensor)
from densefocus.train import GRADCHECK_TOLERANCE, train_demo
from test_io import HOSTILE_JSON


def run(*argv):
    return cli_dispatch(list(argv))


def test_module_entry_point_runs_without_runtime_warning():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "densefocus.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr
    assert "usage" in proc.stdout


def test_package_resolves_cli_names_lazily():
    assert {"cli_dispatch", "main"} <= set(densefocus.__all__)
    assert densefocus.cli_dispatch is cli.cli_dispatch
    assert densefocus.main is cli.main
    with pytest.raises(AttributeError):
        densefocus.no_such_name


@pytest.fixture
def scene_dir(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "width": 48, "height": 48, "n_clusters": 2,
        "objects_per_cluster": [3, 6], "object_size": [3, 8],
        "cluster_spread": 6.0, "seed": 11}))
    out = tmp_path / "scene"
    assert run("synth", "--spec", str(spec), "--out-dir", str(out)) == 0
    return out


def test_synth_writes_all_artifacts(scene_dir):
    image = read_tensor(scene_dir / "image.drmt")
    assert image.shape == (1, 48, 48)
    assert (scene_dir / "image.pgm").read_bytes().startswith(b"P5\n48 48\n255\n")
    gt_doc = json.loads((scene_dir / "annotations.json").read_text())
    det_doc = json.loads((scene_dir / "detections.json").read_text())
    assert {"images", "annotations", "categories"} <= set(gt_doc)
    assert gt_doc["images"][0]["width"] == 48
    assert all("score" not in a for a in gt_doc["annotations"])
    assert all("score" in a for a in det_doc["annotations"])


def test_synth_is_deterministic(tmp_path, scene_dir):
    spec = tmp_path / "spec.json"
    out2 = tmp_path / "again"
    assert run("synth", "--spec", str(spec), "--out-dir", str(out2)) == 0
    for name in ("image.drmt", "image.pgm", "annotations.json", "detections.json"):
        assert (out2 / name).read_bytes() == (scene_dir / name).read_bytes()


def test_seed_flag_overrides_spec_file(tmp_path, scene_dir):
    spec = tmp_path / "spec.json"
    out2 = tmp_path / "reseeded"
    assert run("--seed", "12", "synth", "--spec", str(spec),
               "--out-dir", str(out2)) == 0
    assert ((out2 / "image.drmt").read_bytes()
            != (scene_dir / "image.drmt").read_bytes())


def test_gt_density_command(tmp_path, scene_dir):
    out = tmp_path / "density.drmt"
    hm = tmp_path / "density.pgm"
    assert run("gt-density", "--annotations", str(scene_dir / "annotations.json"),
               "--out", str(out), "--heatmap", str(hm)) == 0
    d = read_tensor(out)
    assert d.shape == (1, 48, 48)
    n_objects = len(json.loads(
        (scene_dir / "annotations.json").read_text())["annotations"])
    assert 0.985 * n_objects <= d.sum() <= 1.001 * n_objects
    assert hm.read_bytes().startswith(b"P5\n")


def test_calibrate_command(tmp_path, scene_dir):
    density = tmp_path / "density.drmt"
    run("gt-density", "--annotations", str(scene_dir / "annotations.json"),
        "--out", str(density))
    params = tmp_path / "calib.json"
    params.write_text(json.dumps({"seed": 3, "c_mid": 4}))
    out = tmp_path / "calibrated.drmt"
    assert run("calibrate", "--density", str(density), "--params", str(params),
               "--out", str(out)) == 0
    c = read_tensor(out)
    assert c.shape == (1, 48, 48)
    assert np.all(c > 0.0) and np.all(c < 1.0)


def test_select_regions_command(tmp_path):
    density = tmp_path / "d.drmt"
    d = np.zeros((1, 16, 16))
    d[0, 2:5, 3:7] = 1.0
    write_tensor(density, d)
    out = tmp_path / "sel"
    assert run("select-regions", "--density", str(density), "--mode", "absolute",
               "--value", "0.5", "--out-dir", str(out)) == 0
    mask = read_tensor(out / "mask.drmt")
    assert np.array_equal(mask, d)
    doc = json.loads((out / "regions.json").read_text())
    assert doc["shape"] == [16, 16]
    assert doc["rectangles"] == [
        {"row_min": 3, "row_max": 5, "col_min": 4, "col_max": 7}]


def test_dafm_and_dffm_commands(tmp_path):
    feats = tmp_path / "x.drmt"
    density = tmp_path / "d.drmt"
    write_tensor(feats, seeded_uniform(5, "cli.x", (4, 16, 16), 4))
    write_tensor(density, np.abs(seeded_uniform(5, "cli.d", (1, 16, 16), 1)))
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"seed": 2}))
    out = tmp_path / "attn.drmt"
    dump = tmp_path / "dump"
    assert run("dafm", "--features", str(feats), "--density", str(density),
               "--params", str(params), "--out", str(out),
               "--dump-dir", str(dump)) == 0
    assert read_tensor(out).shape == (4, 16, 16)
    assert read_tensor(dump / "refined_mask.drmt").shape == (1, 16, 16)
    assert (dump / "regions.json").exists()

    params.write_text(json.dumps({"seed": 2}))
    out2 = tmp_path / "fused.drmt"
    assert run("dffm", "--features", str(feats), "--density", str(density),
               "--params", str(params), "--kernels", "3,6,9",
               "--out", str(out2)) == 0
    assert read_tensor(out2).shape == (4, 16, 16)


def test_eval_command(tmp_path, scene_dir, capsys):
    csv = tmp_path / "report.csv"
    assert run("eval", "--gt", str(scene_dir / "annotations.json"),
               "--dets", str(scene_dir / "detections.json"),
               "--csv", str(csv)) == 0
    report = json.loads(capsys.readouterr().out)
    assert {"ap", "ap50", "ap75", "ap_vt", "ap_t", "ap_s", "ap_m"} <= set(report)
    assert report["ap50"] > 0.0
    header, row = csv.read_text().splitlines()
    assert header.split(",") == sorted(report)
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["ap50"]) == report["ap50"]


def test_eval_default_keeps_dense_images_whole(tmp_path, capsys):
    # one image with 120 objects of one category: a 100-detection cap would cut it
    spec = SceneSpec(width=96, height=96, n_clusters=4, objects_per_cluster=(30, 30),
                     object_size=(2, 10), cluster_spread=8.0, seed=3)
    _, gts = generate_scene(spec)
    dets = perturb_detections(gts, jitter_px=1.0, score_noise=0.05, seed=3)
    assert len(dets) > 100 and len({(d.image_id, d.category_id) for d in dets}) == 1
    images = {1: {"width": 96, "height": 96, "file_name": ""}}
    gt_path, det_path = tmp_path / "gt.json", tmp_path / "dets.json"
    save_annotation_file(gt_path, images, gts)
    save_annotation_file(det_path, images, dets)
    assert run("eval", "--gt", str(gt_path), "--dets", str(det_path)) == 0
    report = json.loads(capsys.readouterr().out)
    _, loaded_gts, _ = load_annotation_file(gt_path)
    _, _, loaded_dets = load_annotation_file(det_path)
    want = ap_report(loaded_dets, loaded_gts, max_dets=1500).to_dict()
    assert report == want
    assert report != ap_report(loaded_dets, loaded_gts, max_dets=100).to_dict()


def test_eval_non_finite_bbox_exits_3(tmp_path, scene_dir, capsys):
    gt_path = scene_dir / "annotations.json"
    doc = json.loads(gt_path.read_text())
    doc["annotations"][0]["bbox"][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))     # writes the JSON literal NaN
    assert run("eval", "--gt", str(bad), "--dets",
               str(scene_dir / "detections.json")) == 3
    assert "non-finite bbox" in capsys.readouterr().err
    assert run("eval", "--gt", str(gt_path), "--dets", str(bad)) == 3


@pytest.mark.parametrize("change", [
    {"annotations": [{"id": 1, "image_id": 1, "category_id": 1}]},      # no bbox
    {"annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 2, 3]}]},
    {"annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 2, 3, 4],
                      "score": float("nan")}]},
    {"annotations": ["not an object"]},
    {"images": [{"id": 1, "height": 48}]},                                  # no width
])
def test_malformed_annotation_file_exits_3(tmp_path, scene_dir, change, capsys):
    doc = json.loads((scene_dir / "annotations.json").read_text())
    doc.update(change)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good_dets = str(scene_dir / "detections.json")
    assert run("eval", "--gt", str(bad), "--dets", good_dets) == 3
    assert run("eval", "--gt", good_dets, "--dets", str(bad)) == 3
    assert run("gt-density", "--annotations", str(bad), "--out", str(tmp_path / "d")) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command,doc,code", [
    ("dafm", {"seed": "x"}, 3),
    ("dffm", {"seed": "x"}, 3),
    ("calibrate", {"seed": "x"}, 3),
    ("dafm", {"seed": True}, 3),
    ("dafm", {"embed": 2.5}, 3),
    ("dafm", {"thresh_value": "top"}, 3),
    ("dffm", {"sa_kernel": [7]}, 3),
    ("calibrate", {"c_mid": None}, 3),
    ("dafm", {"dw_kernel": 0}, 2),
    ("dafm", {"dw_kernel": -1}, 2),
    ("dafm", {"seed": 2.0, "dw_kernel": 3.0}, 0),
    ("dffm", {"ca_reduction": 0}, 2),
    ("dffm", {"ca_reduction": -3}, 2),
])
def test_params_file_fields(tmp_path, command, doc, code, capsys):
    feats, density = tmp_path / "x.drmt", tmp_path / "d.drmt"
    write_tensor(feats, seeded_uniform(5, "cli.x", (4, 16, 16), 4))
    write_tensor(density, np.abs(seeded_uniform(5, "cli.d", (1, 16, 16), 1)))
    params = tmp_path / "p.json"
    params.write_text(json.dumps(doc))
    inputs = (["--density", str(density)] if command == "calibrate"
              else ["--features", str(feats), "--density", str(density)])
    assert run(command, *inputs, "--params", str(params),
               "--out", str(tmp_path / "o.drmt")) == code
    capsys.readouterr()


# each command's optional spec/params fields, under the library callable whose
# keyword default applies when a file omits them
OPTIONAL_FIELDS = {
    "synth": {SceneSpec: ("objects_per_cluster", "object_size", "cluster_spread")},
    "calibrate": {calib_params: ("c_mid",)},
    "dafm": {dafm_params: ("dw_kernel",),
             dafm_forward: ("thresh_mode", "thresh_value")},
    "dffm": {dffm_params: ("ca_reduction", "sa_kernel")},
}


@pytest.mark.parametrize("command", sorted(OPTIONAL_FIELDS))
def test_omitted_fields_take_library_defaults(tmp_path, command):
    """A spec or params file that omits every optional field writes the same
    bytes as one that spells out the library's defaults."""
    feats, density = tmp_path / "x.drmt", tmp_path / "d.drmt"
    write_tensor(feats, seeded_uniform(5, "cli.x", (4, 16, 16), 4))
    write_tensor(density, np.abs(seeded_uniform(5, "cli.d", (1, 16, 16), 1)))
    base = ({"width": 32, "height": 32, "n_clusters": 2, "seed": 3} if command == "synth"
            else {"seed": 2})
    defaults = {name: inspect.signature(fn).parameters[name].default
                for fn, names in OPTIONAL_FIELDS[command].items() for name in names}

    def outputs(name, doc):
        params, out = tmp_path / f"{name}.json", tmp_path / name
        params.write_text(json.dumps(doc))
        if command == "synth":
            args = ["--spec", str(params), "--out-dir", str(out)]
        else:
            os.makedirs(out)
            args = ["--density", str(density), "--params", str(params),
                    "--out", str(out / "out.drmt")]
            args += {"calibrate": ["--heatmap", str(out / "out.pgm")],
                     "dafm": ["--features", str(feats), "--dump-dir", str(out)],
                     "dffm": ["--features", str(feats)]}[command]
        assert run(command, *args) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    omitted = outputs("omitted", base)
    assert omitted and omitted == outputs("spelled", {**base, **defaults})


@pytest.mark.parametrize("module", ["ops", "density", "dafm", "dffm"])
def test_gradcheck_command(module, capsys):
    assert run("--seed", "1", "gradcheck", "--module", module) == 0
    out = capsys.readouterr().out
    assert out.startswith("max relative error:")
    assert float(out.split(":")[1]) < GRADCHECK_TOLERANCE


@pytest.mark.parametrize("seed", range(20))
def test_dafm_gradcheck_passes_at_every_seed(seed, capsys):
    # eps 1e-6 against the 1e-5 tolerance reads the derivative, not roundoff,
    # at the 8x8 check point's 16 agents
    assert run("--seed", str(seed), "gradcheck", "--module", "dafm") == 0
    capsys.readouterr()


def test_gradcheck_command_exits_4_on_a_nan_gradient(monkeypatch, capsys):
    nan_vjp = ad.defop(lambda x: 2.0 * x, lambda g, out, needs, x: (np.full(x.shape, np.nan),))
    twice = ad.defop(lambda x: 2.0 * x, lambda g, out, needs, x: (2.0 * g,))
    cases = [("nan", lambda x: ad.sum_all(nan_vjp(x)), np.ones(3)),
             ("exact", lambda x: ad.sum_all(twice(x)), np.ones(3))]
    monkeypatch.setattr(cli.train, "_gradcheck_cases", lambda module, seed: cases)
    assert run("gradcheck", "--module", "ops") == 4
    out = capsys.readouterr()
    assert out.out == "max relative error: nan\n"
    assert "above tolerance" in out.err


@pytest.mark.parametrize("flag", [("--drop", "2"), ("--drop", "-0.5"),
                                  ("--jitter", "-1"), ("--score-noise", "-0.1"),
                                  ("--jitter", "nan"), ("--score-noise", "inf"),
                                  ("--jitter", "1e200")])
def test_synth_bad_detection_flag_writes_nothing(tmp_path, flag, capsys):
    # two clusters, so that a jitter of 1e200 overflows some box's area
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"width": 64, "height": 64, "n_clusters": 2}))
    out = tmp_path / "scene"
    assert run("synth", "--spec", str(spec), "--out-dir", str(out), *flag) == 2
    assert "perturb_detections" in capsys.readouterr().err
    assert not out.exists()


def test_train_demo_command(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert run("train-demo", "--steps", "2", "--trace", str(trace)) == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 4
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == train_demo(steps=2)
    assert run("train-demo", "--steps", "0") == 0
    assert capsys.readouterr().out.count("\n") == 2


def test_exit_code_usage_errors(tmp_path, capsys):
    assert run("synth", "--spec", str(tmp_path / "missing.json"),
               "--out-dir", str(tmp_path / "o")) == 2
    assert run("train-demo", "--steps", "-1") == 2
    assert run("no-such-command") == 2
    assert run("gt-density", "--annotations", str(tmp_path / "x.json")) == 2
    capsys.readouterr()


@pytest.mark.parametrize("exc, code", [
    (InvalidArgumentError("bad"), 2), (UnsupportedOperationError("bad"), 2),
    (DenseFocusError("bad"), 2), (NotADirectoryError("bad"), 2),
    (FormatError("bad"), 3), (NumericError("bad"), 4),
])
def test_exit_code_per_error_class(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_train_demo", fail)
    assert run("train-demo", "--steps", "1") == code
    assert capsys.readouterr().err == "error: bad\n"


def test_unwritable_out_dir_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"width": 16, "height": 16, "n_clusters": 1}))
    assert run("synth", "--spec", str(spec), "--out-dir", str(blocker / "o")) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_exit_code_format_errors(tmp_path, capsys):
    corrupt = tmp_path / "corrupt.drmt"
    corrupt.write_bytes(b"NOPE" + bytes(20))
    assert run("select-regions", "--density", str(corrupt),
               "--out-dir", str(tmp_path / "o")) == 3
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"height": 32}))
    assert run("synth", "--spec", str(spec), "--out-dir", str(tmp_path / "o")) == 3
    assert "missing field" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"width": "x"}, {"width": 32.5}, {"width": None}, {"n_clusters": True},
    {"object_size": 5}, {"object_size": [3, 8, 9]}, {"object_size": [3.5, 8]},
    {"objects_per_cluster": ["a", 3]},
    {"cluster_spread": float("nan")}, {"cluster_spread": float("inf")},
    {"cluster_spread": "8"},
])
def test_scene_spec_faults_exit_3(tmp_path, change, capsys):
    doc = {"width": 32, "height": 32, "n_clusters": 1}
    doc.update(change)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))    # writes the JSON literals NaN/Infinity
    assert run("synth", "--spec", str(spec), "--out-dir", str(tmp_path / "o")) == 3
    assert f"field {next(iter(change))!r}" in capsys.readouterr().err


@pytest.mark.parametrize("mode, code", [(5, 3), (None, 3), (["quantile"], 3), ("bogus", 2)])
def test_dafm_thresh_mode_must_be_a_known_string(tmp_path, mode, code, capsys):
    """A non-string mode is malformed input; an unknown string is a usage error."""
    feats, density, params = tmp_path / "x.drmt", tmp_path / "d.drmt", tmp_path / "p.json"
    write_tensor(feats, seeded_uniform(5, "cli.x", (4, 16, 16), 4))
    write_tensor(density, np.abs(seeded_uniform(5, "cli.d", (1, 16, 16), 1)))
    params.write_text(json.dumps({"seed": 2, "thresh_mode": mode}))
    out = tmp_path / "attn.drmt"
    assert run("dafm", "--features", str(feats), "--density", str(density),
               "--params", str(params), "--out", str(out)) == code
    assert repr(mode) in capsys.readouterr().err
    assert not out.exists()


def test_synth_with_a_spread_whose_offsets_overflow_exits_0(tmp_path):
    # at seed 4 some offsets drawn with a 1e308 spread are infinite; their
    # boxes clamp to the image like any other offset past its edge
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"width": 32, "height": 32, "n_clusters": 2,
                                "object_size": [3, 8], "cluster_spread": 1e308,
                                "seed": 4}))
    assert run("synth", "--spec", str(spec), "--out-dir", str(tmp_path / "o")) == 0
    _, anns, _ = load_annotation_file(tmp_path / "o" / "annotations.json")
    assert anns and all(0 <= a.cx - a.width / 2 and a.cx + a.width / 2 <= 32
                        for a in anns)


def test_exit_code_numeric_errors(tmp_path, capsys):
    # finite input whose fusion overflows: the non-finite output is exit 4
    feats = tmp_path / "x.drmt"
    density = tmp_path / "d.drmt"
    write_tensor(feats, 1e300 * seeded_uniform(5, "cli.x", (4, 16, 16), 4))
    write_tensor(density, np.abs(seeded_uniform(5, "cli.d", (1, 16, 16), 1)))
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"seed": 1}))
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("dffm", "--features", str(feats), "--density", str(density),
                   "--params", str(params), "--out", str(tmp_path / "f.drmt")) == 4
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["all-nan", "one-nan", "one-inf"])
@pytest.mark.parametrize("command", ["select-regions", "dafm", "dffm", "calibrate"])
def test_non_finite_density_exits_3(tmp_path, capsys, command, bad):
    d = np.full((1, 32, 32), np.nan) if bad == "all-nan" else np.ones((1, 32, 32))
    d[0, 3, 3] = {"all-nan": np.nan, "one-nan": np.nan, "one-inf": np.inf}[bad]
    density = tmp_path / "d.drmt"
    write_tensor(density, d)
    feats = tmp_path / "x.drmt"
    write_tensor(feats, seeded_uniform(5, "cli.x", (4, 32, 32), 4))
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"seed": 1}))
    out = tmp_path / "out"
    args = {"select-regions": ["--out-dir", str(out)],
            "calibrate": ["--params", str(params), "--out", str(out)]}.get(
        command, ["--features", str(feats), "--params", str(params), "--out", str(out)])
    assert run(command, "--density", str(density), *args) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "synth" in capsys.readouterr().out


def json_input_argv(command, path, tmp_path, scene_dir):
    """``command``'s argv with ``path`` as its JSON input and valid other inputs."""
    feats, density = tmp_path / "x.drmt", tmp_path / "d.drmt"
    write_tensor(feats, seeded_uniform(5, "cli.x", (4, 16, 16), 4))
    write_tensor(density, np.abs(seeded_uniform(5, "cli.d", (1, 16, 16), 1)))
    out = str(tmp_path / "out")
    return {
        "synth": ["synth", "--spec", path, "--out-dir", out],
        "gt-density": ["gt-density", "--annotations", path, "--out", out],
        "eval-gt": ["eval", "--gt", path, "--dets", str(scene_dir / "detections.json"),
                    "--csv", out],
        "eval-dets": ["eval", "--gt", str(scene_dir / "annotations.json"), "--dets", path,
                      "--csv", out],
        "calibrate": ["calibrate", "--params", path, "--density", str(density), "--out", out],
        "dafm": ["dafm", "--params", path, "--features", str(feats), "--density", str(density),
                 "--out", out],
        "dffm": ["dffm", "--params", path, "--features", str(feats), "--density", str(density),
                 "--out", out],
    }[command]


@pytest.mark.parametrize("name", sorted(HOSTILE_JSON))
@pytest.mark.parametrize("command", ["synth", "gt-density", "eval-gt", "eval-dets",
                                     "calibrate", "dafm", "dffm"])
def test_unreadable_json_input_exits_3(tmp_path, scene_dir, command, name, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(HOSTILE_JSON[name])
    assert run(*json_input_argv(command, str(bad), tmp_path, scene_dir)) == 3
    assert "invalid JSON" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change", [
    {"bbox": ["1", "1", "3", "3"]}, {"score": "0.9"}, {"score": False},
    {"bbox": [1, True, 3, 3]},
], ids=["numeric-string-bbox", "numeric-string-score", "false-score", "bool-in-bbox"])
def test_annotation_numbers_that_are_not_json_numbers_exit_3(tmp_path, scene_dir, change,
                                                             capsys):
    for role in ("eval-gt", "eval-dets"):
        doc = json.loads((scene_dir / "detections.json").read_text())
        doc["annotations"][0].update(change)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(*json_input_argv(role, str(bad), tmp_path, scene_dir)) == 3
        assert "must be a number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_extents_numpy_cannot_allocate_exit_2(tmp_path, capsys):
    """Extents of at least 2**32 per side, which numpy refuses before it
    allocates anything, exit 2; a width past float range is malformed (3)."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"width": 10 ** 12, "height": 10 ** 12, "n_clusters": 1}))
    out = tmp_path / "scene"
    assert run("synth", "--spec", str(spec), "--out-dir", str(out)) == 2
    assert "generate_scene: cannot allocate" in capsys.readouterr().err
    assert not out.exists()
    ann = tmp_path / "ann.json"
    ann.write_text(json.dumps({
        "images": [{"id": 1, "width": 1e300, "height": 1e300}],
        "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [1, 1, 3, 3]}],
        "categories": [{"id": 1}]}))
    density = tmp_path / "d.drmt"
    assert run("gt-density", "--annotations", str(ann), "--out", str(density),
               "--heatmap", str(tmp_path / "d.pgm")) == 2
    assert "gt_density: cannot allocate" in capsys.readouterr().err
    assert not density.exists() and not (tmp_path / "d.pgm").exists()
    spec.write_text(json.dumps({"width": 10 ** 400, "height": 32, "n_clusters": 1}))
    assert run("synth", "--spec", str(spec), "--out-dir", str(out)) == 3
    assert not out.exists()


@pytest.mark.parametrize("command,field", [("calibrate", "c_mid"), ("dafm", "embed"),
                                           ("dafm", "dw_kernel"), ("dffm", "sa_kernel")])
def test_parameter_sizes_numpy_cannot_allocate_exit_2(tmp_path, capsys, command, field):
    """A params-file size whose tensor numpy refuses before it allocates
    anything (more than 2**63 bytes) exits 2; odd, so kernels pass their rule."""
    feats, density = tmp_path / "x.drmt", tmp_path / "d.drmt"
    write_tensor(feats, seeded_uniform(5, "cli.x", (4, 16, 16), 4))
    write_tensor(density, np.abs(seeded_uniform(5, "cli.d", (1, 16, 16), 1)))
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"seed": 2, field: 10 ** 20 + 1}))
    inputs = [] if command == "calibrate" else ["--features", str(feats)]
    out = tmp_path / "o.drmt"
    assert run(command, *inputs, "--density", str(density), "--params", str(params),
               "--out", str(out)) == 2
    assert "seeded_uniform: cannot allocate" in capsys.readouterr().err
    assert not out.exists()
