"""File formats: the binary tensor container, PGM heatmaps, annotation JSON,
the JSON reader and the number rule of input files."""

import json
import math

import numpy as np
import pytest

from densefocus.density import BBoxAnnotation
from densefocus.errors import FormatError, InvalidArgumentError, NumericError
from densefocus.evalkit import Detection
from densefocus.params import seeded_uniform
from densefocus.rng import Rng
from densefocus.tensorfile import (
    load_annotation_file, num_value, number, read_json, read_tensor,
    save_annotation_file, seed_value, write_heatmap, write_tensor,
)

import oracles


# ---------------------------------------------------------------------------
# tensor container

@pytest.mark.parametrize("shape", [(), (5,), (3, 5, 7), (1, 2, 3, 4)])
def test_tensor_roundtrip_bit_exact(tmp_path, shape):
    path = tmp_path / "t.drmt"
    arr = seeded_uniform(1, f"io.{len(shape)}", shape, 2) if shape else np.asarray(3.14)
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.shape == tuple(shape)
    assert back.dtype == np.float64
    assert np.array_equal(back, np.asarray(arr, dtype=np.float64))


def test_tensor_header_layout(tmp_path):
    path = tmp_path / "t.drmt"
    write_tensor(path, np.zeros((2, 3)))
    blob = path.read_bytes()
    assert blob[0:4] == b"DRMT"
    assert blob[4] == 1 and blob[5] == 0 and blob[6] == 2
    assert blob[7:15] == (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
    assert len(blob) == 15 + 8 * 6


def corrupt(path, out, offset, value):
    blob = bytearray(path.read_bytes())
    blob[offset] = value
    out.write_bytes(bytes(blob))


def test_tensor_format_errors_carry_offsets(tmp_path):
    good = tmp_path / "good.drmt"
    write_tensor(good, seeded_uniform(2, "io.err", (2, 2), 2))

    bad = tmp_path / "bad.drmt"
    corrupt(good, bad, 0, ord("X"))
    with pytest.raises(FormatError, match="byte 0"):
        read_tensor(bad)
    corrupt(good, bad, 4, 9)
    with pytest.raises(FormatError, match="version 9 at byte 4"):
        read_tensor(bad)
    corrupt(good, bad, 5, 7)
    with pytest.raises(FormatError, match="dtype code 7 at byte 5"):
        read_tensor(bad)

    short = tmp_path / "short.drmt"
    short.write_bytes(good.read_bytes()[:5])
    with pytest.raises(FormatError, match="truncated"):
        read_tensor(short)
    nodims = tmp_path / "nodims.drmt"
    nodims.write_bytes(good.read_bytes()[:9])
    with pytest.raises(FormatError, match="truncated dims"):
        read_tensor(nodims)
    clipped = tmp_path / "clipped.drmt"
    clipped.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(FormatError, match="payload length"):
        read_tensor(clipped)
    padded = tmp_path / "padded.drmt"
    padded.write_bytes(good.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="payload length"):
        read_tensor(padded)


# ---------------------------------------------------------------------------
# PGM heatmaps

def test_heatmap_golden_bytes(tmp_path):
    path = tmp_path / "hm.pgm"
    write_heatmap(path, np.array([[0.0, 0.5, 1.0], [0.25, 0.75, 1.0]]))
    blob = path.read_bytes()
    assert blob == b"P5\n3 2\n255\n" + bytes([0, 128, 255, 64, 191, 255])


def test_heatmap_constant_is_midgray(tmp_path):
    path = tmp_path / "flat.pgm"
    write_heatmap(path, np.full((1, 2, 2), 0.7))
    assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([128] * 4)


@pytest.mark.parametrize("bad", ["all-nan", "one-nan", "one-inf", "one-neg-inf"])
def test_heatmap_non_finite_raises(tmp_path, bad):
    d = np.full((1, 3, 3), np.nan) if bad == "all-nan" else np.ones((1, 3, 3))
    d[0, 1, 2] = {"all-nan": np.nan, "one-nan": np.nan, "one-inf": np.inf,
                  "one-neg-inf": -np.inf}[bad]
    path = tmp_path / "bad.pgm"
    with pytest.raises(NumericError, match="non-finite"):
        write_heatmap(path, d)
    assert not path.exists()


def test_heatmap_rank_validation(tmp_path):
    with pytest.raises(InvalidArgumentError):
        write_heatmap(tmp_path / "x.pgm", np.zeros((2, 3, 3)))
    with pytest.raises(InvalidArgumentError):
        write_heatmap(tmp_path / "x.pgm", np.zeros(4))


# ---------------------------------------------------------------------------
# annotation JSON

def sample_images():
    return {1: {"width": 64, "height": 48, "file_name": "a.drmt"},
            2: {"width": 32, "height": 32, "file_name": "b.drmt"}}


def test_annotation_roundtrip(tmp_path):
    path = tmp_path / "ann.json"
    anns = [
        BBoxAnnotation.from_xywh(1, 1, 4.25, 6.5, 10.0, 3.0),
        BBoxAnnotation.from_xywh(1, 2, 0.0, 0.0, 1.5, 2.5),
        BBoxAnnotation.from_xywh(2, 1, 3.0, 3.0, 4.0, 4.0, score=0.625),
    ]
    save_annotation_file(path, sample_images(), anns)
    images, loaded, dets = load_annotation_file(path)
    assert images == sample_images()
    assert loaded == anns
    assert dets == [Detection(2, 1, (3.0, 3.0, 4.0, 4.0), 0.625)]


def test_detections_roundtrip(tmp_path):
    path = tmp_path / "det.json"
    dets = [Detection(1, 1, (2.0, 3.0, 4.0, 5.0), 0.875),
            Detection(2, 1, (1.0, 1.0, 2.0, 2.0), 0.375)]
    save_annotation_file(path, sample_images(), dets)
    _, anns, loaded = load_annotation_file(path)
    assert loaded == dets
    assert [a.score for a in anns] == [0.875, 0.375]


def doc_with(annotations):
    return {
        "images": [{"id": 1, "width": 64, "height": 48, "file_name": ""}],
        "annotations": annotations,
        "categories": [{"id": 1, "name": "category-1"}],
    }


def write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return path


def test_load_clamps_to_image_bounds(tmp_path):
    path = write_doc(tmp_path, doc_with([
        {"id": 5, "image_id": 1, "category_id": 1, "bbox": [-3.0, 40.0, 10.0, 20.0]},
    ]))
    _, anns, _ = load_annotation_file(path)
    assert anns[0].to_xywh() == (0.0, 40.0, 7.0, 8.0)


def test_load_dangling_ids_name_the_annotation(tmp_path):
    path = write_doc(tmp_path, doc_with([
        {"id": 9, "image_id": 3, "category_id": 1, "bbox": [0, 0, 2, 2]}]))
    with pytest.raises(FormatError, match="annotation 9: dangling image_id 3"):
        load_annotation_file(path)
    path = write_doc(tmp_path, doc_with([
        {"id": 4, "image_id": 1, "category_id": 8, "bbox": [0, 0, 2, 2]}]))
    with pytest.raises(FormatError, match="annotation 4: dangling category_id 8"):
        load_annotation_file(path)


def test_load_rejects_degenerate_boxes(tmp_path):
    path = write_doc(tmp_path, doc_with([
        {"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 0.0, 2]}]))
    with pytest.raises(FormatError, match="non-positive bbox"):
        load_annotation_file(path)
    path = write_doc(tmp_path, doc_with([
        {"id": 2, "image_id": 1, "category_id": 1, "bbox": [100.0, 0, 4, 2]}]))
    with pytest.raises(FormatError, match="fully outside"):
        load_annotation_file(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("slot", [0, 1, 2, 3])
def test_load_rejects_non_finite_bbox_before_clamping(tmp_path, bad, slot):
    bbox = [1.0, 2.0, 3.0, 4.0]
    bbox[slot] = bad    # written as the JSON literal NaN, Infinity or -Infinity
    path = write_doc(tmp_path, doc_with([
        {"id": 6, "image_id": 1, "category_id": 1, "bbox": bbox}]))
    with pytest.raises(FormatError, match="annotation 6: non-finite bbox"):
        load_annotation_file(path)


def test_load_rejects_malformed_documents(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(FormatError, match="invalid JSON"):
        load_annotation_file(path)
    doc = doc_with([])
    del doc["categories"]
    with pytest.raises(FormatError, match="categories"):
        load_annotation_file(write_doc(tmp_path, doc))


def good_ann(**changes):
    ann = {"id": 3, "image_id": 1, "category_id": 1, "bbox": [1.0, 2.0, 3.0, 4.0]}
    ann.update(changes)
    return ann


def without(record, key):
    return {k: v for k, v in record.items() if k != key}


@pytest.mark.parametrize("doc", [
    doc_with([without(good_ann(), "bbox")]),
    doc_with([without(good_ann(), "image_id")]),
    doc_with([without(good_ann(), "category_id")]),
    dict(doc_with([good_ann()]), images=[{"id": 1, "height": 48}]),
    dict(doc_with([good_ann()]), images=[{"id": 1, "width": "64", "height": 48}]),
    doc_with([good_ann(bbox=[1.0, 2.0, 3.0])]),
    doc_with([good_ann(bbox="1,2,3,4")]),
    doc_with([good_ann(bbox=None)]),
    doc_with([good_ann(score="high")]),
    doc_with([good_ann(score=float("nan"))]),
    doc_with([good_ann(score=float("inf"))]),
    doc_with([[1, 1, 1]]),
    dict(doc_with([good_ann()]), images=[[1, 64, 48]]),
    dict(doc_with([good_ann()]), categories=["one"]),
    7,
], ids=["no-bbox", "no-image_id", "no-category_id", "no-width", "string-width",
        "3-element-bbox", "string-bbox", "null-bbox", "string-score", "nan-score",
        "inf-score", "annotation-not-object", "image-not-object",
        "category-not-object", "document-not-object"])
def test_load_malformed_entries_are_format_errors(tmp_path, doc):
    with pytest.raises(FormatError):
        load_annotation_file(write_doc(tmp_path, doc))


@pytest.mark.parametrize("bbox,score", [
    (["1", "1", "3", "3"], None),
    ([1, True, 3, 3], None),
    ([1.0, 2.0, 3.0, 4.0], "0.9"),
    ([1.0, 2.0, 3.0, 4.0], False),
], ids=["numeric-string-bbox", "bool-in-bbox", "numeric-string-score", "false-score"])
def test_load_annotation_numbers_must_be_json_numbers(tmp_path, bbox, score):
    ann = good_ann(bbox=bbox) if score is None else good_ann(score=score)
    with pytest.raises(FormatError, match="annotation 3: .* must be a number"):
        load_annotation_file(write_doc(tmp_path, doc_with([ann])))


def test_load_annotation_int_past_float_range_is_non_finite(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc_with([good_ann(bbox=[10 ** 400, 2, 3, 4])])))
    with pytest.raises(FormatError, match="annotation 3: non-finite bbox"):
        load_annotation_file(path)


def test_load_annotation_keeps_int_extents_and_reads_int_boxes_as_floats(tmp_path):
    images, anns, dets = load_annotation_file(write_doc(tmp_path, doc_with(
        [good_ann(bbox=[1, 2, 3, 4], score=1)])))
    assert images[1] == {"width": 64, "height": 48, "file_name": ""}
    assert type(images[1]["width"]) is int
    assert anns[0].to_xywh() == (1.0, 2.0, 3.0, 4.0)
    assert dets == [Detection(1, 1, (1.0, 2.0, 3.0, 4.0), 1.0)]
    assert type(dets[0].score) is float


# one fault each, on an annotation that is otherwise good_ann()
FAULTS = {
    "dangling-image": {"image_id": 3},
    "dangling-category": {"category_id": 8},
    "non-number": {"bbox": [1.0, "2", 3.0, 4.0]},
    "non-finite": {"bbox": [1.0, float("nan"), 3.0, 4.0]},
    "non-positive": {"bbox": [1.0, 2.0, 0.0, 4.0]},
    "fully-outside": {"bbox": [100.0, 2.0, 3.0, 4.0]},
    "non-number-score": {"score": "0.9"},
    "non-finite-score": {"score": float("inf")},
}


def load_error(tmp_path, annotations) -> str:
    with pytest.raises(FormatError) as info:
        load_annotation_file(write_doc(tmp_path, doc_with(annotations)))
    return str(info.value)


@pytest.mark.parametrize("first", sorted(FAULTS))
def test_load_reports_the_first_faulty_annotation_in_document_order(tmp_path, first):
    """Whatever fault follows it, the error names the earlier faulty
    annotation, with the message its fault gives alone."""
    alone = load_error(tmp_path, [good_ann(id=1), good_ann(id=2, **FAULTS[first])])
    assert alone.startswith("annotation 2: ")
    for second in FAULTS:
        assert load_error(tmp_path, [good_ann(id=1), good_ann(id=2, **FAULTS[first]),
                                     good_ann(id=3, **FAULTS[second])]) == alone, second


# int, float and mixed image extents
CLAMP_EXTENTS = {1: (64, 48), 2: (37.5, 100.25), 3: (1000, 7.0)}


def clamp_side(rng, extent):
    """A start and a length along an image side: the start is -0.0, negative,
    an int or a float in the image; the far end lands on the edge (exactly,
    when the float sum allows), a hair inside it, past it, or anywhere."""
    start = [-0.0, -rng.uniform(0.0, 4.0), -rng.randint(1, 4), rng.randint(0, int(extent) - 1),
             rng.uniform(0.0, extent)][rng.randint(0, 4)]
    end = [extent, math.nextafter(extent, 0.0), extent + rng.uniform(0.0, 3.0),
           start + rng.uniform(0.5, 8.0)][rng.randint(0, 3)]
    return start, end - start


def test_load_clamps_every_box_as_max_and_min_do(tmp_path):
    """2,000 seeded boxes, each loaded box bit for bit the one that
    oracles.clamp_box gives; -0.0 tells the two apart from a plain compare."""
    rng = Rng(22)
    anns, want = [], []
    while len(anns) < 2000:
        image_id = rng.randint(1, 3)
        img_w, img_h = CLAMP_EXTENTS[image_id]
        (x, w), (y, h) = clamp_side(rng, img_w), clamp_side(rng, img_h)
        box = oracles.clamp_box(float(x), float(y), float(w), float(h), img_w, img_h)
        if w > 0 and h > 0 and box[2] > 0 and box[3] > 0:
            anns.append({"id": len(anns) + 1, "image_id": image_id, "category_id": 1,
                         "bbox": [x, y, w, h], "score": 0.5})
            want.append((image_id, box))
    doc = dict(doc_with(anns), images=[{"id": k, "width": v[0], "height": v[1]}
                                       for k, v in CLAMP_EXTENTS.items()])
    _, loaded, dets = load_annotation_file(write_doc(tmp_path, doc))
    assert len(loaded) == len(dets) == len(want)
    for a, d, (image_id, box) in zip(loaded, dets, want):
        ref = BBoxAnnotation.from_xywh(image_id, 1, *box, score=0.5)
        assert [v.hex() for v in d.bbox] == [v.hex() for v in box]
        assert [v.hex() for v in (a.cx, a.cy, a.width, a.height)] == \
            [v.hex() for v in (ref.cx, ref.cy, ref.width, ref.height)]
    bboxes = [ann["bbox"] for ann in anns]
    sides = [(b[i], b[i + 2], CLAMP_EXTENTS[ann["image_id"]][i])
             for ann, b in zip(anns, bboxes) for i in (0, 1)]
    assert sum(math.copysign(1.0, s) < 0 and s == 0 for s, _, _ in sides) > 50
    assert sum(s < 0 for s, _, _ in sides) > 500
    assert sum(float(s) + float(n) == e for s, n, e in sides) > 200
    assert sum(s + n == math.nextafter(e, 0.0) for s, n, e in sides) > 50
    assert sum(float(s) + float(n) > e for s, n, e in sides) > 500
    assert sum(type(v) is int for b in bboxes for v in b) > 500


# ---------------------------------------------------------------------------
# the JSON reader and the number rule

HOSTILE_JSON = {
    "non-utf8": b'{"seed": "\xff\xfe"}',
    "deep-array": b"[" * 100_000,
    "5000-digit-int": b'{"seed": ' + b"9" * 5000 + b"}",
}


@pytest.mark.parametrize("name", sorted(HOSTILE_JSON))
def test_read_json_turns_unreadable_documents_into_format_errors(tmp_path, name):
    path = tmp_path / "doc.json"
    path.write_bytes(HOSTILE_JSON[name])
    with pytest.raises(FormatError, match=r"params .*doc\.json: invalid JSON"):
        read_json(path, "params")
    with pytest.raises(FormatError, match="invalid JSON"):
        load_annotation_file(path)


def test_read_json_wants_an_object(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('[1, 2]')
    with pytest.raises(FormatError, match="expected a JSON object"):
        read_json(path, "params")
    path.write_text('{"a": [1, 2.5, "x", NaN]}')
    doc = read_json(path, "params")
    assert doc["a"][:3] == [1, 2.5, "x"] and doc["a"][3] != doc["a"][3]
    with pytest.raises(FileNotFoundError):
        read_json(tmp_path / "missing.json", "params")


def test_number_rule():
    assert number(3, "x") == 3.0 and type(number(3, "x")) is float
    assert number(-2.5, "x") == -2.5
    assert number(10 ** 400, "x") == float("inf")
    assert number(-10 ** 400, "x") == -float("inf")
    for bad in (True, False, "1", None, [1], {"a": 1}):
        with pytest.raises(FormatError, match="x must be a number"):
            number(bad, "x")


def test_num_value_integers_and_reals():
    assert num_value("k", 7.0) == 7 and type(num_value("k", 7.0)) is int
    assert num_value("k", 2 ** 63 + 1) == 2 ** 63 + 1      # exact, not through a float
    assert num_value("k", 2, integer=False) == 2.0
    for bad, integer in ((2.5, True), (True, True), ("3", True), (float("nan"), False),
                         (float("inf"), False), (10 ** 400, True), ("0.5", False)):
        with pytest.raises(FormatError, match="field 'k' must be"):
            num_value("k", bad, integer=integer)


def test_seed_value_is_an_integer_in_the_generator_range():
    assert seed_value("seed", 0) == 0 and seed_value("seed", 7.0) == 7
    assert seed_value("seed", 2 ** 64 - 1) == 2 ** 64 - 1
    for bad in (-1, 2 ** 64, 2 ** 100, 2.5, "7", True, None):
        with pytest.raises(FormatError, match="field 'seed' must be"):
            seed_value("seed", bad)
