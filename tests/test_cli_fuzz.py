"""Seeded fuzzing of the file-reading commands: every input ends in a
documented exit code (0, 2, 3 or 4), never a Python traceback."""

import json
import time

import numpy as np

from densefocus.cli import cli_dispatch
from densefocus.rng import Rng
from densefocus.tensorfile import write_tensor

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
