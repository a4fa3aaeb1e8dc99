"""The thermocc command line tool.

Subcommands cover the whole workflow: synthesize a dataset, split it,
run the detector, score predictions, derive occupancy and an HVAC
schedule, or do all of it in one `pipeline` run. Exit codes: 0 on
success, 1 for bad input or usage, 2 for unexpected internal errors.
The THERMOCC_SEED environment variable, when set, overrides any
--seed flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import traceback

from .annot import parse_labels, parse_predictions, serialize_predictions
from .detect import (DEFAULT_CONFIG, DetectorConfig, detect_blobs,
                     detect_manifest)
from .errors import ConfigError, ThermoccError
from .manifest import (prediction_filenames, read_manifest, resolve,
                       write_manifest)
from .metrics import DEFAULT_TAU, check_tau, evaluate, load_samples
from .occupancy import (ControlPolicy, compare, detection_timeline,
                        manifest_timeline, simulate_control,
                        write_schedule_csv, write_timeline_csv)
from .plots import emit_plots, timeline_svg
from .split import (DEFAULT_FRACTIONS, SplitFractions, stratified_split,
                    verify_ratio)
from .synth import (DEFAULT_OCCUPIED_FRACTION, FRONTAL_SCENARIOS,
                    MIXED_SCENARIOS, DatasetSpec, generate_dataset,
                    manifest_records, occupied_count, plan_dataset,
                    write_dataset)
from .util import make_dirs, staged_dir, write_text, write_text_atomic


def _apply_env_seed(args) -> None:
    raw = os.environ.get("THERMOCC_SEED")
    if raw is None or not hasattr(args, "seed"):
        return
    try:
        args.seed = int(raw)
    except ValueError:
        raise ConfigError(
            f"THERMOCC_SEED must be an integer, got {raw!r}") from None


def _parse_fractions(text: str) -> SplitFractions:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(
            f"fractions must be three comma-separated numbers, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"fractions must be numeric, got {text!r}") from None
    return SplitFractions(*values)


_SCENARIOS = {"mixed": MIXED_SCENARIOS, "frontal": FRONTAL_SCENARIOS}


def _dataset_spec(args, **extra) -> DatasetSpec:
    return DatasetSpec(frames=args.frames,
                       occupied_fraction=args.occupied_fraction,
                       scenarios=_SCENARIOS[args.scenario], seed=args.seed,
                       noise_sigma=args.sigma, **extra)


def _staged_out(out: str):
    """The one way synth, detect and pipeline make --out. Refuses a used or
    current-directory --out, then returns util.staged_dir for it."""
    try:
        used = os.path.lexists(out) and (not os.path.isdir(out)
                                         or bool(os.listdir(out)))
    except OSError as exc:
        raise ConfigError(f"cannot inspect --out {out}: {exc}") from exc
    if used:
        raise ConfigError(f"--out {out} exists and is not an empty directory")
    run_dir = os.path.realpath(out)  # a symlinked --out keeps its link
    if run_dir == os.getcwd():
        raise ConfigError(f"--out {out} is the current directory")
    return staged_dir(run_dir)


def _write_split(records, assignment, manifest_path: str, out_dir: str):
    """Split stage: subset manifests rebased onto out_dir; writes and
    returns the ratio report."""
    make_dirs(out_dir)
    out_abs = os.path.abspath(out_dir)

    def rebase(path):  # a null labels path stays null
        return path if path is None else os.path.relpath(
            resolve(manifest_path, path), out_abs)

    for name, indices in assignment.subsets().items():
        subset = [dataclasses.replace(rec, frame=rebase(rec.frame),
                                      labels=rebase(rec.labels))
                  for rec in map(records.__getitem__, indices)]
        write_manifest(os.path.join(out_dir, f"{name}.jsonl"), subset)
    report = verify_ratio(assignment, records)
    write_text_atomic(os.path.join(out_dir, "ratio_report.json"),
                      json.dumps(report.to_dict(), indent=2) + "\n")
    return report


def _detect_test_frame(preds_dir: str, test, index, rec, frame, labels):
    """pipeline's follow-up to each written frame: for a test frame, write
    its predictions and return its (predictions, gts) as `eval` reads them
    back, else None. The codec is lossless: detecting on the frame equals
    detecting on its file."""
    if index not in test:
        return None
    text = serialize_predictions(detect_blobs(frame, DEFAULT_CONFIG))
    name, = prediction_filenames([rec])
    write_text(os.path.join(preds_dir, name), text)
    return parse_predictions(text), parse_labels(labels)


def _report_missing_predictions(missing: int, total: int,
                                preds_dir: str) -> None:
    if missing:
        print(f"{missing} of {total} frames have no prediction file "
              f"under {preds_dir}; they count as having no detections")


def _occupancy(records, predictions, tau: float, policy: ControlPolicy,
               out_dir: str):
    """Occupancy stage: timelines, confusion and HVAC schedule CSVs.

    predictions[i] holds the detections of records[i].
    """
    actual = manifest_timeline(records)
    pairs = sorted(zip((r.ts for r in records), predictions),
                   key=lambda p: p[0])
    detected = detection_timeline([ts for ts, _ in pairs],
                                  [preds for _, preds in pairs], tau)
    confusion = compare(actual, detected)
    schedule = simulate_control(detected, policy)
    make_dirs(out_dir)
    write_timeline_csv(os.path.join(out_dir, "timeline.csv"), actual, detected)
    write_schedule_csv(os.path.join(out_dir, "schedule.csv"), schedule)
    return actual, detected, confusion, schedule


def cmd_synth(args) -> int:
    spec = _dataset_spec(args, background_temp=args.background,
                         start_ts=args.start_ts, period=args.period)
    with _staged_out(args.out) as work:
        generate_dataset(spec, work)
    occupied = occupied_count(spec.frames, spec.occupied_fraction)
    print(f"wrote {spec.frames} frames ({occupied} occupied, "
          f"{spec.frames - occupied} empty) under {args.out}")
    return 0


def cmd_split(args) -> int:
    records = read_manifest(args.manifest)
    assignment = stratified_split(records, args.fractions, args.seed)
    report = _write_split(records, assignment, args.manifest, args.out)
    for name, stats in report.subsets.items():
        ratio = "inf" if stats.ratio == float("inf") else f"{stats.ratio:.3f}"
        print(f"{name}: {stats.total} frames ({stats.occupied} occupied / "
              f"{stats.unoccupied} empty, ratio {ratio}, "
              f"{'consistent' if stats.consistent else 'INCONSISTENT'})")
    return 0


def cmd_detect(args) -> int:
    records = read_manifest(args.manifest)
    config = DetectorConfig(warm_threshold=args.warm_threshold,
                            nms_iou=args.nms_iou)
    names = prediction_filenames(records)
    with _staged_out(args.out) as work:
        detections = detect_manifest(records, args.manifest, config)
        for name, dets in zip(names, detections):
            write_text(os.path.join(work, name), serialize_predictions(dets))
    print(f"wrote predictions for {len(records)} frames under {args.out}")
    return 0


def cmd_eval(args) -> int:
    check_tau(args.tau)
    records = read_manifest(args.manifest)
    samples, missing = load_samples(records, args.preds, args.manifest)
    report = evaluate(samples, operating_tau=args.tau)
    _report_missing_predictions(missing, len(records), args.preds)
    if args.out:
        write_text_atomic(args.out, report.to_json())
    print(f"precision {report.precision:.3f}  recall {report.recall:.3f}  "
          f"mAP50 {report.map50:.3f}  mAP50-95 {report.map50_95:.3f}  "
          f"(tau {report.operating_tau})")
    return 0


def cmd_occupancy(args) -> int:
    check_tau(args.tau)
    policy = ControlPolicy(on_delay=args.on_delay, off_hold=args.off_hold)
    records = read_manifest(args.manifest)
    if not records:
        raise ConfigError("manifest holds no records to take occupancy from")
    samples, missing = load_samples(records, args.preds, args.manifest)
    actual, detected, confusion, schedule = _occupancy(
        records, [preds for preds, _ in samples], args.tau, policy, args.out)
    _report_missing_predictions(missing, len(records), args.preds)
    write_text_atomic(os.path.join(args.out, "occupancy_timeline.svg"),
                      timeline_svg(actual, detected, schedule))
    print(f"{len(actual)} frames: occupancy precision "
          f"{confusion.precision:.3f}, recall {confusion.recall:.3f}, "
          f"missed occupied {confusion.missed_occupied}")
    print(f"hvac on fraction {schedule.on_fraction:.3f} "
          f"(runtime reduction {schedule.runtime_reduction:.3f})")
    return 0


def cmd_pipeline(args) -> int:
    # Every argument is checked, and the split made, before --out is staged.
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    stage = _staged_out(args.out)
    check_tau(args.tau)
    policy = ControlPolicy(on_delay=args.on_delay, off_hold=args.off_hold)
    spec = _dataset_spec(args)
    plans = list(enumerate(plan_dataset(spec)))
    records = manifest_records(spec, plans)
    assignment = stratified_split(records, args.fractions, args.seed)
    if not assignment.test:
        raise ConfigError("the split leaves the test subset empty")
    with stage as work:
        preds_dir = os.path.join(work, "preds")
        make_dirs(preds_dir)
        manifest_path, results = write_dataset(
            spec, plans, records, os.path.join(work, "dataset"), args.threads,
            functools.partial(_detect_test_frame, preds_dir,
                              frozenset(assignment.test)))
        samples = [results[i] for i in assignment.test]
        print(f"dataset: {len(records)} frames under "
              f"{os.path.join(args.out, 'dataset')}")

        _write_split(records, assignment, manifest_path,
                     os.path.join(work, "splits"))
        print(f"detector: {len(samples)} test frames scored")

        eval_report = evaluate(samples, operating_tau=args.tau)
        write_text(os.path.join(work, "report.json"), eval_report.to_json())
        print(f"eval: precision {eval_report.precision:.3f}  "
              f"recall {eval_report.recall:.3f}  "
              f"mAP50 {eval_report.map50:.3f}  "
              f"mAP50-95 {eval_report.map50_95:.3f}")

        actual, detected, confusion, schedule = _occupancy(
            [records[i] for i in assignment.test],
            [preds for preds, _ in samples], args.tau, policy,
            os.path.join(work, "occupancy"))
        print(f"occupancy: recall {confusion.recall:.3f}, "
              f"missed occupied {confusion.missed_occupied}, "
              f"hvac on fraction {schedule.on_fraction:.3f}")

        emit_plots(os.path.join(work, "plots"), eval_report.curve,
                   eval_report.map50, actual, detected, schedule)
        print(f"plots under {os.path.join(args.out, 'plots')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermocc", description="Thermal-image occupancy detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags that pipeline shares with a stage's subcommand, declared
    # once with the library's defaults.
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=DatasetSpec.seed)
    scene = argparse.ArgumentParser(add_help=False)
    scene.add_argument("--occupied-fraction", type=float,
                       default=DEFAULT_OCCUPIED_FRACTION,
                       help="fraction of frames with an occupant")
    scene.add_argument("--scenario", choices=_SCENARIOS, default="mixed",
                       help="pose/occlusion mix for occupants")
    scene.add_argument("--sigma", type=float, default=DatasetSpec.noise_sigma,
                       help="pixel noise sigma in Celsius")
    fractions = argparse.ArgumentParser(add_help=False)
    fractions.add_argument("--fractions", type=_parse_fractions,
                           default=DEFAULT_FRACTIONS,
                           help="train,val,test fractions")
    tau = argparse.ArgumentParser(add_help=False)
    tau.add_argument("--tau", type=float, default=DEFAULT_TAU,
                     help="operating confidence threshold")
    policy = argparse.ArgumentParser(add_help=False)
    policy.add_argument("--on-delay", type=float,
                        default=ControlPolicy.on_delay,
                        help="seconds of occupancy before hvac turns on")
    policy.add_argument("--off-hold", type=float,
                        default=ControlPolicy.off_hold,
                        help="seconds of vacancy before hvac turns off")

    p = sub.add_parser("synth", parents=[seed, scene],
                       help="generate a synthetic thermal dataset")
    p.add_argument("--out", required=True, help="dataset directory to create")
    p.add_argument("--frames", type=int, required=True,
                   help="number of frames to generate")
    p.add_argument("--background", type=float,
                   default=DatasetSpec.background_temp,
                   help="background temperature in Celsius")
    p.add_argument("--start-ts", type=int, default=DatasetSpec.start_ts)
    p.add_argument("--period", type=int, default=DatasetSpec.period,
                   help="seconds between frames")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", parents=[seed, fractions],
                       help="stratified train/val/test split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="directory for subset manifests")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("detect", help="run the warm-blob detector")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="prediction directory")
    p.add_argument("--warm-threshold", type=float,
                   default=DEFAULT_CONFIG.warm_threshold,
                   help="blob contour in Celsius")
    p.add_argument("--nms-iou", type=float, default=DEFAULT_CONFIG.nms_iou)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("eval", parents=[tau],
                       help="score predictions against a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--preds", required=True, help="prediction directory")
    p.add_argument("--out", default=None, help="where to write report JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("occupancy", parents=[tau, policy],
                       help="occupancy timeline and HVAC schedule")
    p.add_argument("--manifest", required=True)
    p.add_argument("--preds", required=True, help="prediction directory")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_occupancy)

    p = sub.add_parser("pipeline",
                       parents=[seed, scene, fractions, tau, policy],
                       help="synth + split + detect + eval + occupancy")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--frames", type=int, default=4836)
    p.add_argument("--threads", type=int, default=1,
                   help="number of worker processes for synth and detect")
    p.set_defaults(func=cmd_pipeline)

    return parser


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_env_seed(args)
        if args.out == "":  # "" would write into the current directory
            raise ConfigError("--out must not be empty")
        return args.func(args)
    except SystemExit as exc:  # argparse has printed a usage error or --help
        return 1 if exc.code else 0
    except ThermoccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # pragma: no cover - unexpected bugs
        traceback.print_exc()
        return 2


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
