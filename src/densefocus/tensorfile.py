"""On-disk formats: the binary tensor container, PGM heatmaps, the
COCO-subset annotation JSON, and the one JSON reader, number rule and JSON
writer that every input file and artifact go through.

Tensor container layout (all little-endian):
  bytes 0-3   magic "DRMT"
  byte  4     version, currently 1
  byte  5     dtype code, 0 = float64
  byte  6     ndim
  then        ndim x uint32 dims
  then        row-major float64 payload, 8 * prod(dims) bytes
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from . import autodiff as ad
from .density import BBoxAnnotation, density_values
from .errors import FormatError, InvalidArgumentError
from .evalkit import Detection
from .ops import as_tensor, require_box, require_finite

MAGIC = b"DRMT"
VERSION = 1
DTYPE_F64 = 0


def write_tensor(path, tensor) -> None:
    arr = as_tensor(tensor, "tensor")
    if arr.ndim > 255:
        raise InvalidArgumentError(f"write_tensor: ndim {arr.ndim} exceeds 255")
    for d in arr.shape:
        if d >= 2 ** 32:
            raise InvalidArgumentError(f"write_tensor: dim {d} exceeds uint32")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(bytes([VERSION, DTYPE_F64, arr.ndim]))
        f.write(struct.pack("<%dI" % arr.ndim, *arr.shape))
        f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 7:
        raise FormatError(f"tensor file truncated at byte {len(blob)} (header needs 7)")
    if blob[0:4] != MAGIC:
        raise FormatError("bad magic at byte 0")
    if blob[4] != VERSION:
        raise FormatError(f"unsupported version {blob[4]} at byte 4")
    if blob[5] != DTYPE_F64:
        raise FormatError(f"unsupported dtype code {blob[5]} at byte 5")
    ndim = blob[6]
    off = 7
    if len(blob) < off + 4 * ndim:
        raise FormatError(f"truncated dims at byte {len(blob)}")
    dims = struct.unpack_from("<%dI" % ndim, blob, off) if ndim else ()
    off += 4 * ndim
    count = math.prod(dims)
    if count > (1 << 40):
        raise FormatError(f"dim overflow at byte 7: product {count}")
    expected = 8 * count
    if len(blob) - off != expected:
        raise FormatError(
            f"payload length {len(blob) - off} != {expected} at byte {off}")
    arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
    return arr.reshape(dims).astype(np.float64, copy=True)


def write_heatmap(path, density_map) -> None:
    """Min-max normalize a [1,H,W] or [H,W] map, or a graph node's value, to
    8-bit binary PGM (P5).  Constant maps emit 128; non-finite ones raise NumericError."""
    arr = require_finite(ad.value_of(density_values(density_map)), "write_heatmap")[0]
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        scaled = np.rint((arr - lo) / (hi - lo) * 255.0)
        pixels = np.clip(scaled, 0, 255).astype(np.uint8)
    else:
        pixels = np.full(arr.shape, 128, dtype=np.uint8)
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(pixels.tobytes())


# ---------------------------------------------------------------------------
# annotation JSON (COCO subset)

def load_annotation_file(path):
    """Parse and validate an annotation JSON.

    Returns (images, annotations, detections): ``images`` maps id ->
    {width, height, file_name}; annotations are clamped to image bounds at
    ingestion and must stay positive-area; entries carrying a score also
    appear in ``detections``.
    """
    doc = read_json(path, "annotation file")
    for section in ("images", "annotations", "categories"):
        if not isinstance(doc.get(section), list):
            raise FormatError(f"annotation file {path}: missing list {section!r}")

    try:
        return _parse_annotation_doc(doc)
    except FormatError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # a missing field, a non-object entry, or a bbox that is not four values
        raise FormatError(
            f"annotation file {path}: malformed entry ({type(exc).__name__}: {exc})") from exc


def _parse_annotation_doc(doc):
    images, extents = {}, {}
    for im in doc["images"]:
        if not all(0 < number(v, f"image {im['id']}: width and height") < math.inf
                   for v in (im["width"], im["height"])):
            raise FormatError(f"image {im['id']}: width and height must be positive numbers")
        images[im["id"]] = {"width": im["width"], "height": im["height"],
                            "file_name": im.get("file_name", "")}
        extents[im["id"]] = float(im["width"]), float(im["height"])
    category_ids = {c["id"] for c in doc["categories"]}

    # one read per field, and a message only when a check fails: the number
    # rule's messages get the entry's name on the way out
    annotations, detections = [], []
    for ann in doc["annotations"]:
        aid = ann.get("id", "?")
        img_id = ann["image_id"]
        if img_id not in extents:
            raise FormatError(f"annotation {aid}: dangling image_id {img_id}")
        cat_id = ann["category_id"]
        if cat_id not in category_ids:
            raise FormatError(f"annotation {aid}: dangling category_id {cat_id}")
        try:
            # five labels: an overlong bbox meets the number rule on its fifth value
            x, y, w, h = map(number, ann["bbox"], ("bbox value",) * 5)
        except FormatError as exc:
            raise FormatError(f"annotation {aid}: {exc}") from None
        require_box(x, y, w, h, f"annotation {aid}", error=FormatError)
        # clamp to the image, bit for bit max(0.0, x) and min(img_w, x + w)
        img_w, img_h = extents[img_id]
        x1, y1 = x + w, y + h
        x, y = (x if x > 0.0 else 0.0), (y if y > 0.0 else 0.0)
        w, h = (x1 if x1 < img_w else img_w) - x, (y1 if y1 < img_h else img_h) - y
        if w <= 0 or h <= 0:
            raise FormatError(f"annotation {aid}: bbox fully outside image")
        score = ann.get("score")
        if score is not None:
            try:
                score = number(score, "score")
            except FormatError as exc:
                raise FormatError(f"annotation {aid}: {exc}") from None
            if not math.isfinite(score):
                raise FormatError(f"annotation {aid}: non-finite score")
        annotations.append(BBoxAnnotation(img_id, cat_id, x + w / 2.0, y + h / 2.0, w, h, score))
        if score is not None:
            detections.append(Detection(img_id, cat_id, (x, y, w, h), score))
    return images, annotations, detections


def save_annotation_file(path, images: dict, annotations) -> None:
    """Write the COCO-subset JSON.  ``annotations`` may mix BBoxAnnotation
    (score optional) and Detection (score required)."""
    ann_records = []
    cats = set()
    for i, a in enumerate(annotations, start=1):
        box = a.bbox if isinstance(a, Detection) else a.to_xywh()
        rec = {"id": i, "image_id": a.image_id, "category_id": a.category_id,
               "bbox": list(box)}
        if a.score is not None:
            rec["score"] = a.score
        cats.add(rec["category_id"])
        ann_records.append(rec)
    doc = {
        "images": [{"id": k, "width": v["width"], "height": v["height"],
                    "file_name": v.get("file_name", "")}
                   for k, v in sorted(images.items())],
        "annotations": ann_records,
        "categories": [{"id": c, "name": f"category-{c}"} for c in sorted(cats)],
    }
    write_json(path, doc)


def write_json(path, doc) -> None:
    """Write a JSON artifact: one-space indent, sorted keys, a final newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def read_json(path, label: str) -> dict:
    """The one JSON reader: ``path`` must hold a UTF-8 JSON object.  Other bytes,
    bad syntax, nesting too deep to parse, an integer past Python's digit
    limit or a non-object is a FormatError; an unopenable file, an OSError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (ValueError, RecursionError) as exc:   # UnicodeDecodeError is a ValueError
        raise FormatError(f"{label} {path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{label} {path}: expected a JSON object")
    return doc


def number(value, what: str) -> float:
    """The number rule of every input file: an int or a float, never a bool or
    a string, read as a float; an int past float range reads as an infinity."""
    if type(value) is float:
        return value
    if type(value) is not int:
        raise FormatError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def num_value(key: str, value, integer: bool = True):
    """A numeric field of a spec or params file: a finite number, integral
    if ``integer`` (7.0 passes as 7); anything else is a FormatError."""
    real = number(value, f"field {key!r}")
    if not math.isfinite(real) or (integer and not real.is_integer()):
        kind = "an integer" if integer else "a finite number"
        raise FormatError(f"field {key!r} must be {kind}, got {value!r}")
    return int(value) if integer else real


def seed_value(key: str, value) -> int:
    """A seed field: an integer in [0, 2**64).  Rng keeps a seed's low 64
    bits, so a seed outside that range would alias another's streams."""
    seed = num_value(key, value)
    if not 0 <= seed < 2 ** 64:
        raise FormatError(f"field {key!r} must be in [0, 2**64), got {value!r}")
    return seed


def real_value(key: str, value) -> float:
    return num_value(key, value, integer=False)


def range_value(key: str, value) -> tuple:
    """An integer [lo, hi] pair of a spec file."""
    if not isinstance(value, list) or len(value) != 2:
        raise FormatError(f"field {key!r} must be a [lo, hi] pair, got {value!r}")
    return tuple(num_value(key, v) for v in value)
