"""Occupancy detection pipeline for low-resolution thermal imagery.

The package covers the full loop: a lossless 16-bit frame codec,
normalized-box annotations, deterministic stratified splitting, a
warm-blob detector, detection metrics (precision, recall, mAP), frame
occupancy timelines with an HVAC control simulation, and a synthetic
scene generator with exact ground truth. The `thermocc` command wires
the pieces together.
"""

from .annot import (Detection, GroundTruthBox, NormalizedBox, PixelBox,
                    from_pixel_box, parse_labels, parse_predictions,
                    serialize_labels, serialize_predictions)
from .detect import (DEFAULT_CONFIG, DetectorConfig, detect_blobs,
                     detect_manifest, nms, score_blob)
from .errors import ThermoccError
from .frame import (ThermalFrame, decode_frame, encode_frame, read_frame,
                    write_frame)
from .manifest import ManifestRecord, read_manifest, write_manifest
from .metrics import (EvalReport, MatchResult, PRCurve, average_precision,
                      evaluate, iou, load_samples, map_range,
                      match_detections, pr_curve, precision_recall,
                      to_pixel_box)
from .occupancy import (ControlPolicy, HvacSchedule, OccupancyConfusion,
                        OccupancyTimeline, compare, detection_timeline,
                        frame_occupancy, manifest_timeline, simulate_control)
from .split import (RatioReport, SplitAssignment, SplitFractions,
                    stratified_split, stratum_counts, verify_ratio)
from .synth import (DatasetSpec, HeadSpec, Scenario, SceneSpec,
                    generate_dataset, generate_scene, plan_dataset,
                    render_frame)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
