"""densefocus: density-guided detection blocks for crowded tiny objects.

A numpy library implementing the full pipeline: ground-truth density
rendering and a micro density branch, density-driven region selection,
two-stage focused attention with a compact agent bank, dual-frequency
feature fusion on DCT spectra, a COCO-protocol evaluator with tiny-object
size buckets, synthetic scene generation, deterministic tensor/annotation
file formats, and a small reverse-mode autodiff engine that makes every
block trainable.
"""

from .errors import (DenseFocusError, FormatError, InvalidArgumentError,
                     NumericError, UnsupportedOperationError)
from .rng import Rng, fnv1a64
from .params import seeded_uniform, tree_leaves, tree_replace
from . import ops
from . import autodiff
from .ops import MacCounter, count_macs
from .autodiff import Var, backward, grad_check, vjp
from .density import (BBoxAnnotation, CalibParams, DensityMap, DgbConfig,
                      calib_params, calibrate_density, density_loss,
                      dgb_channel_plan, dgb_forward, dgb_params, gt_density,
                      object_sigma)
from .regions import RegionSet, focus_bank, kmeans2, refine_mask, threshold_mask
from .dafm import (DafmIntermediates, DafmParams, IfamParams, dafm_forward,
                   dafm_params, expected_agents, ifam_forward, ifam_params)
from .dffm import (DEFAULT_KERNEL_SET, DffmParams, EdhParams, FrequencyPair,
                   dffm_forward, dffm_params, edh, edh_params, frequency_masks,
                   frequency_split)
from .evalkit import (IOU_THRESHOLDS, SIZE_BUCKETS, APReport, Detection,
                      ap_report, average_precision, iou, match_detections)
from .synthgen import SceneSpec, generate_scene, perturb_detections
from .tensorfile import (load_annotation_file, read_tensor,
                         save_annotation_file, write_heatmap, write_json, write_tensor)
from .train import train_demo

__version__ = "0.1.0"


def __getattr__(name):
    # the CLI loads on first use, so `python -m densefocus.cli` does not find
    # densefocus.cli already imported by the package
    if name in ("cli_dispatch", "main"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DenseFocusError", "FormatError", "InvalidArgumentError", "NumericError",
    "UnsupportedOperationError",
    "Rng", "fnv1a64", "seeded_uniform", "tree_leaves", "tree_replace",
    "ops", "autodiff", "MacCounter", "count_macs",
    "Var", "backward", "grad_check", "vjp",
    "BBoxAnnotation", "CalibParams", "DensityMap", "DgbConfig",
    "calib_params", "calibrate_density", "density_loss", "dgb_channel_plan",
    "dgb_forward", "dgb_params", "gt_density", "object_sigma",
    "RegionSet", "focus_bank", "kmeans2", "refine_mask", "threshold_mask",
    "DafmIntermediates", "DafmParams", "IfamParams", "dafm_forward",
    "dafm_params", "expected_agents", "ifam_forward", "ifam_params",
    "DEFAULT_KERNEL_SET", "DffmParams", "EdhParams", "FrequencyPair",
    "dffm_forward", "dffm_params", "edh", "edh_params", "frequency_masks",
    "frequency_split",
    "IOU_THRESHOLDS", "SIZE_BUCKETS", "APReport", "Detection", "ap_report",
    "average_precision", "iou", "match_detections",
    "SceneSpec", "generate_scene", "perturb_detections",
    "load_annotation_file", "read_tensor", "save_annotation_file",
    "write_heatmap", "write_json", "write_tensor",
    "cli_dispatch", "main", "train_demo",
    "__version__",
]
