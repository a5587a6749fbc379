"""Seeded fuzzing of the file-reading commands and the flags of the
file-free ones: every input ends in a documented exit code (0, 2, 3 or 4),
never a Python traceback."""

import json
import time

import numpy as np

from densefocus.cli import cli_dispatch
from densefocus.rng import Rng
from densefocus.tensorfile import write_tensor
from test_io import HOSTILE_JSON

CASES = 300
TIME_BUDGET_S = 10.0

# odd values for any params field, next to each field's valid one
FIELD_VALUES = (0, -1, 2.5, "x", None, [7], True, 64)
PARAMS_FIELDS = {
    "calibrate": {"seed": 3, "c_mid": 4},
    "dafm": {"seed": 3, "embed": 4, "bank_kernel": 4, "dw_kernel": 3,
             "thresh_mode": "absolute", "thresh_value": 0.5},
    "dffm": {"seed": 3, "ca_reduction": 2, "sa_kernel": 3},
}
SPECIAL_VALUES = (np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0)


def pick(rng, seq):
    return seq[rng.randint(0, len(seq) - 1)]


def fuzz_tensor(rng, channels=1):
    """A [channels,H,W] map with extents 3-9 half of the time, else ndim 0-4
    and extents 0-9; uniform entries at a random scale, in a third of
    tensors with some NaN, +-inf and -0.0."""
    if rng.random() < 0.5:
        shape = [channels, rng.randint(3, 9), rng.randint(3, 9)]
    else:
        shape = [rng.randint(0, 9) for _ in range(rng.randint(0, 4))]
    arr = rng.randoms(int(np.prod(shape))) * pick(rng, (1.0, 1.0, -1.0, 1e3, 1e300))
    if rng.random() < 0.3:
        for i in range(arr.size):
            if rng.random() < 0.1:
                arr[i] = pick(rng, SPECIAL_VALUES)
    return arr.reshape(shape)


def fuzz_params(rng, fields):
    doc = {}
    for key, valid in fields.items():
        if rng.random() < 0.5:
            doc[key] = valid if rng.random() < 0.7 else pick(rng, FIELD_VALUES)
    return doc


def fuzz_annotations(rng):
    """An annotation document with missing fields, odd image extents and
    zero-size, outside or non-numeric boxes."""
    images = [{"id": 1, "width": pick(rng, (16, 16, 16, 0, -4, 2.5, "x")),
               "height": pick(rng, (12, 12, 12, 0, 9))}]
    anns = []
    for i in range(rng.randint(0, 5)):
        ann = {"id": i + 1, "image_id": pick(rng, (1, 1, 2)),
               "category_id": pick(rng, (1, 1, 5)),
               "bbox": pick(rng, ([2, 3, 4, 5], [6, 1, 2.5, 3], [2, 3, 0, 5], [2, 3, 4, 0],
                                  [0, 0, 0, 0], [30, 30, 4, 4], [-3, -3, 2, 2],
                                  [1, 2, 3], ["a", 1, 1, 1], None, 7))}
        if rng.random() < 0.2:
            ann["score"] = pick(rng, (0.5, "x", None))
        if rng.random() < 0.1:
            del ann[pick(rng, ("image_id", "category_id", "bbox"))]
        anns.append(ann)
    doc = {"images": images, "annotations": anns, "categories": [{"id": 1}]}
    if rng.random() < 0.1:
        del doc[pick(rng, ("images", "annotations", "categories"))]
    if rng.random() < 0.1:
        del images[0][pick(rng, ("id", "width", "height"))]
    return doc


def fuzz_argv(rng, tmp_path, case):
    command = pick(rng, ("select-regions", "calibrate", "dafm", "dffm", "gt-density"))
    out = str(tmp_path / f"out{case}")
    if command == "gt-density":
        path = tmp_path / f"ann{case}.json"
        path.write_text(json.dumps(fuzz_annotations(rng)))
        return [command, "--annotations", str(path), "--out", out,
                "--image-id", pick(rng, ("1", "1", "2")), "--heatmap", out + ".pgm"]
    density = tmp_path / f"d{case}.drmt"
    write_tensor(density, fuzz_tensor(rng))
    argv = [command, "--density", str(density)]
    if command == "select-regions":
        return argv + ["--out-dir", out, "--mode", pick(rng, ("quantile", "absolute")),
                       "--value", pick(rng, ("0.1", "0.5", "0", "-1", "2.5", "1"))]
    params = tmp_path / f"p{case}.json"
    params.write_text(json.dumps(fuzz_params(rng, PARAMS_FIELDS[command])))
    argv += ["--params", str(params), "--out", out]
    if command == "calibrate":
        return argv + ["--heatmap", out + ".pgm"]
    features = tmp_path / f"x{case}.drmt"
    write_tensor(features, fuzz_tensor(rng, channels=rng.randint(1, 4)))
    argv += ["--features", str(features)]
    if command == "dafm":
        return argv + ["--dump-dir", out + "_dump"]
    return argv + ["--kernels", pick(rng, ("3", "1,2", "0", "x", "", "64", "-1,2"))]


def test_fuzzed_commands_end_in_a_documented_exit_code(tmp_path, capsys):
    rng = Rng(20261019)
    start = time.perf_counter()
    codes = {}
    with np.errstate(all="ignore"):
        for case in range(CASES):
            argv = fuzz_argv(rng, tmp_path, case)
            code = cli_dispatch(argv)
            assert code in (0, 2, 3, 4), argv
            codes[code] = codes.get(code, 0) + 1
            capsys.readouterr()
    assert time.perf_counter() - start < TIME_BUDGET_S
    # the generator reaches success and every error class
    assert set(codes) == {0, 2, 3, 4}, codes


# whole files that are not a UTF-8 JSON object: non-UTF-8 bytes, 100,000
# nested "[", a 5,000-digit integer and a top-level array
HOSTILE_FILES = tuple(HOSTILE_JSON.values()) + (b"[1, 2]",)
# values that break a number field: numeric strings, bools, NaN and Infinity
# (written as those JSON literals) among them.  None is a positive integer, so
# an odd extent never pairs a small side with an impossible one, which numpy
# would try to allocate
ODD_NUMBERS = (0, -1, 2.5, "7", "0.5", "x", None, True, False, [7],
               float("nan"), float("inf"), -float("inf"))
# small extents, and pairs of at least 2**32 per side, which numpy refuses
# before it allocates anything
SPEC_EXTENTS = ((16, 16), (32, 24), (64, 64), (5, 64), (10 ** 12, 10 ** 12),
                (2 ** 32, 2 ** 32))
ANN_EXTENTS = ((16, 16), (64, 48), (1e300, 1e300))


def odd_or(rng, valid, p_odd=0.3):
    return pick(rng, ODD_NUMBERS) if rng.random() < p_odd else valid


def fuzz_spec(rng):
    """A scene spec with extents up to 64 or impossible, up to 8 clusters,
    and odd values in any numeric field."""
    width, height = pick(rng, SPEC_EXTENTS)
    doc = {"width": odd_or(rng, width, 0.1), "height": odd_or(rng, height, 0.1),
           "n_clusters": odd_or(rng, rng.randint(0, 8), 0.1)}
    optional = {"objects_per_cluster": [odd_or(rng, 2, 0.15), odd_or(rng, 6, 0.15)],
                "object_size": [odd_or(rng, 2, 0.15), odd_or(rng, 4, 0.15)],
                "cluster_spread": odd_or(rng, 4.0), "seed": odd_or(rng, 5)}
    for key, value in optional.items():
        if rng.random() < 0.4:
            doc[key] = value
    return doc


def fuzz_annotation_doc(rng, scored, p_odd):
    """An annotation document whose boxes lie inside its image; with
    probability ``p_odd`` one extent, bbox value or score is an odd value."""
    width, height = pick(rng, ANN_EXTENTS)
    anns = []
    for i in range(rng.randint(0, 6)):
        ann = {"id": i + 1, "image_id": 1, "category_id": 1,
               "bbox": [rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0),
                        rng.uniform(1.0, 6.0), rng.uniform(1.0, 6.0)]}
        if scored:
            ann["score"] = rng.random()
        anns.append(ann)
    image = {"id": 1, "width": width, "height": height}
    if rng.random() < p_odd:
        if anns and rng.random() < 0.8:
            ann = pick(rng, anns)
            if scored and rng.random() < 0.4:
                ann["score"] = pick(rng, ODD_NUMBERS)
            else:
                ann["bbox"][rng.randint(0, 3)] = pick(rng, ODD_NUMBERS)
        else:
            image[pick(rng, ("width", "height"))] = pick(rng, ODD_NUMBERS)
    return {"images": [image], "annotations": anns, "categories": [{"id": 1}]}


def json_bytes(rng, doc):
    """``doc`` as JSON, or in some cases a hostile file in its place."""
    return pick(rng, HOSTILE_FILES) if rng.random() < 0.15 else json.dumps(doc).encode()


def fuzz_json_input(rng, tmp_path, case):
    """(the fuzzed input's role, argv) for a synth spec or one file of an
    eval pair; the other file of a pair is valid."""
    out = str(tmp_path / f"out{case}")
    role = pick(rng, ("synth spec", "eval gt", "eval dets"))
    if role == "synth spec":
        spec = tmp_path / f"spec{case}.json"
        spec.write_bytes(json_bytes(rng, fuzz_spec(rng)))
        return role, ["synth", "--spec", str(spec), "--out-dir", out]
    paths = {}
    for name in ("gt", "dets"):
        fuzzed = role == f"eval {name}"
        doc = fuzz_annotation_doc(rng, scored=name == "dets", p_odd=0.5 if fuzzed else 0.0)
        paths[name] = tmp_path / f"{name}{case}.json"
        paths[name].write_bytes(json_bytes(rng, doc) if fuzzed else json.dumps(doc).encode())
    return role, ["eval", "--gt", str(paths["gt"]), "--dets", str(paths["dets"]),
                  "--csv", out]


def test_fuzzed_spec_and_annotation_files_end_in_a_documented_exit_code(tmp_path, capsys):
    rng = Rng(20261020)
    start = time.perf_counter()
    codes = {}
    for case in range(CASES):
        role, argv = fuzz_json_input(rng, tmp_path, case)
        code = cli_dispatch(argv)
        assert code in (0, 2, 3, 4), argv
        codes.setdefault(role, set()).add(code)
        capsys.readouterr()
    assert time.perf_counter() - start < TIME_BUDGET_S
    # every JSON input reaches success and the format error; impossible
    # extents reach the usage error
    assert all({0, 3} <= codes[role] for role in ("synth spec", "eval gt", "eval dets")), codes
    assert 2 in codes["synth spec"], codes


FLAG_CASES = 40


def fuzz_flags(rng, tmp_path, case):
    """train-demo with at most one step, or gradcheck of ops, density or an
    unknown module, under odd flag values."""
    argv = ["--seed", pick(rng, ("0", "1", "-1", "x", str(2 ** 64)))] if rng.random() < 0.3 else []
    if rng.random() < 0.5:
        argv += ["gradcheck", "--module", pick(rng, ("ops", "density", "no-such-module"))]
    else:
        argv += ["train-demo", "--steps", pick(rng, ("0", "1", "-1", "1.5", "x")),
                 "--lr", pick(rng, ("0.05", "0", "-1", "nan", "inf", "1e308", "x"))]
        if rng.random() < 0.5:
            argv += ["--trace", str(tmp_path / f"trace{case}.csv")]
    if rng.random() < 0.1:
        argv.append("--no-such-flag")
    return argv


def test_fuzzed_flags_end_in_a_documented_exit_code(tmp_path, capsys):
    rng = Rng(20261021)
    start = time.perf_counter()
    codes = {}
    with np.errstate(all="ignore"):
        for case in range(FLAG_CASES):
            argv = fuzz_flags(rng, tmp_path, case)
            code = cli_dispatch(argv)
            assert code in (0, 2, 3, 4), argv
            command = "train-demo" if "train-demo" in argv else "gradcheck"
            codes.setdefault(command, set()).add(code)
            capsys.readouterr()
    assert time.perf_counter() - start < TIME_BUDGET_S
    assert {0, 2} <= codes["train-demo"] and {0, 2} <= codes["gradcheck"], codes


# seeds Rng would alias (it keeps a seed's low 64 bits), and the range's two ends
OUT_OF_RANGE_SEEDS = (-1, -2 ** 63, 2 ** 64, 2 ** 64 + 7, 2 ** 100)
EDGE_SEEDS = (0, 2 ** 64 - 1)


def test_seeds_outside_the_generator_range_are_refused(tmp_path, capsys):
    """A seed outside [0, 2**64) exits 2 from --seed and 3 as the seed field
    of a spec or params file, before any file is written; 0 and 2**64 - 1 run."""
    density = tmp_path / "d.drmt"
    write_tensor(density, np.ones((1, 6, 6)))

    def run(argv):
        code = cli_dispatch(argv)
        capsys.readouterr()
        return code

    def file_seed_commands(seed, case):
        spec, params = tmp_path / f"spec{case}.json", tmp_path / f"params{case}.json"
        spec.write_text(json.dumps({"width": 32, "height": 32, "n_clusters": 1, "seed": seed}))
        params.write_text(json.dumps({"seed": seed}))
        return (["synth", "--spec", str(spec), "--out-dir", str(tmp_path / f"scene{case}")],
                ["calibrate", "--density", str(density), "--params", str(params),
                 "--out", str(tmp_path / f"calib{case}.drmt")])

    for case, seed in enumerate(OUT_OF_RANGE_SEEDS + EDGE_SEEDS):
        want_flag, want_file = (0, 0) if seed in EDGE_SEEDS else (2, 3)
        for argv in (["train-demo", "--steps", "0"], ["gradcheck", "--module", "ops"]):
            assert run(["--seed", str(seed)] + argv) == want_flag, (seed, argv)
        for argv in file_seed_commands(seed, case):
            assert run(argv) == want_file, (seed, argv)
        written = (tmp_path / f"scene{case}").exists(), (tmp_path / f"calib{case}.drmt").exists()
        assert written == ((True, True) if seed in EDGE_SEEDS else (False, False)), seed
