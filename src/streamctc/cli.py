"""Command-line front end: latency analysis, data and LM tooling, the
training stages (each subcommand runs its stage's trainer from the
pipeline), decoding, metrics, and the full six-stage pipeline.

Exit codes: 0 success unless the command returns another (`selfcheck`'s
2), 1 usage error, 2 runtime error. Every run prints the digest of its
resolved configuration to stderr; human-readable tables go to stdout, held
until the command returns, so a command that fails leaves it empty, and
machine formats are written only to `--out` paths. Flags override
config-file values, each parsed under the name of the `PipelineConfig`
field it sets; `--config` is the path of a JSON config file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import Callable

from . import checks
from .ctc import error_counts, greedy_decode, posteriorgram_to_csv
from .encoder import init_params, load_checkpoint, save_checkpoint
from .lm import load_lm, save_lm, train_ngram
from .masking import VARIANTS, MaskSpec, build_mask, latency_report
from .pipeline import (
    PipelineConfig,
    decode_utterances,
    dev_posteriors,
    generate_dataset,
    load_dataset,
    plan_stages,
    pseudo_label,
    run_two_stage,
    save_dataset,
)
from .pipeline.run import TRAINERS
from .vocab import Vocabulary

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage problems; this tool uses
    1 for usage and 2 for runtime failures, so remap."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _int_tuple(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _announce(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, default=str).encode("utf-8")
    digest = hashlib.sha256(blob).hexdigest()
    print(f"config digest {digest[:16]}", file=sys.stderr)
    return digest


def _config_dict(args) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    if not os.path.exists(args.config):
        raise UsageError(f"config file not found: {args.config}")
    with open(args.config) as fh:
        try:
            loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}")
    if not isinstance(loaded, dict):
        raise UsageError("config file must hold a JSON object")
    return loaded


def _merged_config(args, stage: str | None = None, loaded: dict | None = None) -> PipelineConfig:
    """`loaded` (else the config file, if any) with each flag set on the field
    its dest names; a training stage's --updates sets its own entry of `updates`."""
    d = _config_dict(args) if loaded is None else loaded
    for f in fields(PipelineConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            d[f.name] = value
    d.setdefault("out_dir", ".")
    if stage is not None and getattr(args, "stage_updates", None) is not None:
        updates = d.get("updates", {})
        if isinstance(updates, dict):  # anything else is PipelineConfig's to reject
            d["updates"] = {
                **PipelineConfig(out_dir=".").updates, **updates, stage: args.stage_updates
            }
    try:
        return PipelineConfig.from_dict(d)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad configuration: {exc}")


def _load_labeled(path):
    data = load_dataset(path)
    missing = [u.uid for u in data if not u.text]
    if missing:
        raise ValueError(f"{path}: utterances without labels: {', '.join(missing[:5])}")
    return data


def _write_out(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _maybe_report(args, resolved: dict, digest: str, body: dict) -> None:
    if getattr(args, "report", None) is None:
        return
    clean = {}
    for key, value in body.items():
        if isinstance(value, float) and math.isnan(value):
            value = None
        clean[key] = value
    payload = {"config": resolved, "config_digest": digest, **clean}
    with open(args.report, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _loss_summary(losses) -> str:
    if not losses:
        return "loss (no updates)"
    return f"loss {losses[0]:.6g} -> {losses[-1]:.6g}"


# ---------------------------------------------------------------------------
# mask flags
# ---------------------------------------------------------------------------


def _add_mask_flags(p):
    p.add_argument(
        "--variant",
        required=True,
        choices=VARIANTS,
    )
    p.add_argument("--chunk-ms", type=float)
    p.add_argument("--future-ms", type=float)
    p.add_argument("--chunk-frames", type=int)
    p.add_argument("--future-frames", type=int)
    p.add_argument("--right-frames", type=int)
    p.add_argument("--left-frames", type=int)
    p.add_argument("--frame-ms", type=float, default=20.0)


def _frames_from(ms_value, frame_value, frame_ms, name):
    if ms_value is not None and frame_value is not None:
        raise UsageError(f"pass --{name}-ms or --{name}-frames, not both")
    if ms_value is None:
        return frame_value
    q = ms_value / frame_ms
    if not math.isfinite(q) or abs(q - round(q)) > 1e-9:
        raise UsageError(
            f"--{name}-ms {ms_value:g} is not a whole number of "
            f"{frame_ms:g} ms frames"
        )
    return int(round(q))


def _mask_from_args(args) -> MaskSpec:
    if not 0 < args.frame_ms < math.inf:
        raise UsageError(f"--frame-ms must be finite and > 0, got {args.frame_ms:g}")
    chunk = _frames_from(args.chunk_ms, args.chunk_frames, args.frame_ms, "chunk")
    future = _frames_from(args.future_ms, args.future_frames, args.frame_ms, "future")
    try:
        return MaskSpec(
            variant=args.variant,
            chunk_frames=chunk,
            future_frames=future,
            right_frames=args.right_frames,
            left_limit=args.left_frames,
            frame_ms=args.frame_ms,
        )
    except ValueError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_latency(args) -> None:
    spec = _mask_from_args(args)
    _announce({"cmd": "latency", "spec": spec.to_dict(), "layers": args.layers})
    report = latency_report(spec, args.layers)
    print(report.table())
    if args.out:
        header = "\t".join(
            ["variant", "chunk_ms", "future_ms", "right_frames", "layers", "eil_ms"]
        )
        _write_out(args.out, header + "\n" + report.machine_line())


def cmd_mask_dump(args) -> None:
    spec = _mask_from_args(args)
    _announce({"cmd": "mask-dump", "spec": spec.to_dict(), "frames": args.frames})
    mask = build_mask(spec, args.frames)
    rows = ["".join("#" if x else "." for x in row) for row in mask.allowed]
    print(f"variant {spec.variant}  frames {args.frames}")
    print(f"grid {mask.n_positions} x {mask.n_positions} (# may attend, . blocked)")
    grid = "\n".join(rows)
    print(grid)
    if args.out:
        _write_out(args.out, grid)


def cmd_gen_data(args) -> None:
    config = _merged_config(args)
    vocabulary = Vocabulary.default()
    resolved = {"cmd": "gen-data", "config": config.to_dict()}
    _announce(resolved)
    out_dir = args.data_dir or os.path.join(config.out_dir, "data")
    os.makedirs(out_dir, exist_ok=True)
    split = generate_dataset(config.task(vocabulary), config.sizes, vocabulary)
    names = (
        ("labeled", split.labeled),
        ("unlabeled", split.unlabeled),
        ("dev", split.dev),
    )
    print(f"{'split':<10} {'utterances':>10} {'frames':>8}  file")
    for name, utts in names:
        path = os.path.join(out_dir, f"{name}.bin")
        save_dataset(utts, path)
        frames = sum(u.n_frames for u in utts)
        print(f"{name:<10} {len(utts):>10} {frames:>8}  {path}")


def cmd_train_lm(args) -> None:
    config = _merged_config(args)
    resolved = {
        "cmd": "train-lm",
        "data": args.data,
        "order": config.lm_order,
        "smoothing": config.lm_smoothing,
    }
    digest = _announce(resolved)
    corpus = [u.text for u in _load_labeled(args.data)]
    model = train_ngram(corpus, config.lm_order, config.lm_smoothing)
    file_digest = save_lm(model, args.out)
    print(f"order {model.order}  smoothing {model.smoothing:g}")
    print(f"vocabulary {len(model.vocab)}  contexts {len(model.tokens)}")
    print(f"model digest {file_digest}")
    _maybe_report(
        args,
        resolved,
        digest,
        {"model_digest": file_digest, "sentences": len(corpus)},
    )


@dataclass(frozen=True)
class _TrainCommand:
    """One training subcommand: which pipeline stage it trains with that
    stage's trainer, the flags it adds to the shared training flags, and
    the stage whose model each checkpoint flag names."""

    name: str
    help: str
    stage: Callable  # args -> stage key ("S", "N", "T", "KD" or "ST")
    flags: tuple  # (flag, argparse keyword arguments) pairs
    models: dict  # checkpoint flag (argparse dest) -> the stage it stands for
    labeled: bool  # --data and --pseudo must carry transcripts


_TRAIN_COMMANDS = (
    _TrainCommand(
        "finetune", "CTC fine-tuning (streaming S or full N)",
        stage=lambda a: "S" if a.mask == "stream" else "N",
        flags=(
            ("--init", {"help": "starting checkpoint (default: fresh init)"}),
            ("--mask", {"choices": ("stream", "bidirectional"), "default": "stream"}),
        ),
        models={"init": "P"},
        labeled=True,
    ),
    _TrainCommand(
        "guided-teacher", "train T with the guided loss",
        stage=lambda a: "T",
        flags=(
            ("--streaming", {"required": True, "help": "streaming checkpoint S"}),
            ("--init", {}),
            ("--alpha", {"type": float}),
        ),
        models={"streaming": "S", "init": "P"},
        labeled=True,
    ),
    _TrainCommand(
        "distill", "distill teacher T into a streaming student",
        stage=lambda a: "KD",
        flags=(
            ("--teacher", {"required": True}),
            ("--head-from", {"help": "checkpoint whose output head seeds KD"}),
            ("--init", {}),
            ("--layers", {"type": _int_tuple, "dest": "distill_layers",
                          "help": "matched layers, 1-based"}),
        ),
        models={"teacher": "T", "head_from": "S", "init": "P"},
        labeled=False,  # distillation never reads labels
    ),
    _TrainCommand(
        "self-train", "fine-tune on labeled plus pseudo labels",
        stage=lambda a: "ST",
        flags=(
            ("--pseudo", {"help": "pseudo-labeled container"}),
            ("--init", {"required": True, "help": "checkpoint to continue from"}),
        ),
        models={"init": "KD"},
        labeled=True,
    ),
)


def cmd_train(args) -> None:
    command = args.train_command
    stage = command.stage(args)
    config = _merged_config(args, stage=stage)
    pretrain = config.updates.get("pretrain", 0)
    if pretrain > 0 and "P" in command.models.values() and not args.init:
        # the pipeline's P is warmed up by these updates; a fresh P is not
        raise UsageError(
            f"updates.pretrain is {pretrain}, but only the pipeline runs those updates: "
            "pass the warmed-up P.ckpt as --init"
        )
    cfg = config.train_config(stage)
    inputs = {name: getattr(args, name) for name in ("data", "dev", "out")}
    for flag, kwargs in command.flags:
        name = flag[2:].replace("-", "_")
        inputs[name] = getattr(args, kwargs.get("dest", name))
    resolved = {
        "cmd": command.name,
        "config": config.to_dict(),
        "stage": stage,
        "train": cfg.to_dict(),
        **inputs,
    }
    digest = _announce(resolved)
    read = _load_labeled if command.labeled else load_dataset
    data = list(read(args.data))
    if getattr(args, "pseudo", None):
        data += read(args.pseudo)
    dev = _load_labeled(args.dev) if args.dev else ()
    models = {
        source: load_checkpoint(path, expect_config=config.encoder)
        for name, source in command.models.items()
        if (path := getattr(args, name))
    }
    if "P" not in models:
        models["P"] = init_params(config.encoder, config.seed)
    model, log = TRAINERS[stage](config, models, data, cfg, dev, Vocabulary.default())
    ck_digest = save_checkpoint(model, args.out)
    if "alpha" in log.extra:
        print(f"alpha {log.extra['alpha']:g}")
    mask = f"{model.mask_spec.variant} {model.mask_spec.param_text()}".rstrip()
    print(f"stage {stage}  mask {mask}  updates {cfg.total_updates}")
    print(f"{_loss_summary(log.losses)}  skipped {log.skipped}")
    if log.dev_token_error is not None:
        print(f"dev token error {log.dev_token_error:.6g}")
    print(f"checkpoint digest {ck_digest}")
    if log.extra.get("dev_distill_first") is not None:
        print(
            f"dev distill loss {log.extra['dev_distill_first']:.6g}"
            f" -> {log.extra['dev_distill_last']:.6g}"
        )
    _maybe_report(
        args,
        resolved,
        digest,
        {
            "checkpoint_digest": ck_digest,
            "losses_first": log.losses[0] if log.losses else None,
            "losses_last": log.losses[-1] if log.losses else None,
            "skipped": log.skipped,
            "dev_token_error": log.dev_token_error,
            "utterances": len(data),
            **log.extra,
        },
    )


def _check_lm_weight(args) -> None:
    """A nonzero --lm-weight scales the language model's score; without
    --lm there is no such score, so the flag would change nothing."""
    if args.lm_weight and not args.lm:
        raise UsageError(f"--lm-weight {args.lm_weight:g} needs --lm")


def cmd_pseudo_label(args) -> None:
    config = _merged_config(args)
    _check_lm_weight(args)
    resolved = {
        "cmd": "pseudo-label",
        "model": args.model,
        "lm": args.lm,
        "data": args.data,
        "decode": config.decode_config().to_dict(),
        "out": args.out,
    }
    digest = _announce(resolved)
    model = load_checkpoint(args.model)
    decode_cfg = config.decode_config(load_lm(args.lm) if args.lm else None)
    data = load_dataset(args.data)
    kept, dropped = pseudo_label(model, data, decode_cfg, jobs=args.jobs)
    save_dataset(kept, args.out)
    print(f"utterances {len(data)}  kept {len(kept)}  dropped {dropped}")
    print(f"beam {decode_cfg.beam_size}  lm weight {decode_cfg.lm_weight:g}")
    _maybe_report(
        args,
        resolved,
        digest,
        {"kept": len(kept), "dropped": dropped, "total": len(data)},
    )


def cmd_pipeline(args) -> None:
    loaded = _config_dict(args)
    if not args.out_dir and "out_dir" not in loaded:
        raise UsageError("pipeline needs --workdir or an out_dir config key")
    config = _merged_config(args, loaded=loaded)
    _announce(config.to_dict())
    if args.dry_run:
        plan = plan_stages(config)
        print(f"{'stage':<6} {'alias':<6} {'updates':>8}  depends on")
        for item in plan:
            deps = ", ".join(item["depends_on"]) if item["depends_on"] else "-"
            alias = item.get("alias") or "-"
            print(f"{item['stage']:<6} {alias:<6} {item['updates']:>8}  {deps}")
        return
    reports = run_two_stage(config, jobs=args.jobs)
    print(f"{'stage':<6} {'alias':<6} {'updates':>8} {'dev_ter':>8}  digest")
    for r in reports:
        updates = "-"
        if r.train_config is not None:
            updates = str(r.train_config["total_updates"])
        ter = "-" if r.dev_token_error is None else f"{r.dev_token_error:.4f}"
        alias = r.alias or "-"
        print(f"{r.stage:<6} {alias:<6} {updates:>8} {ter:>8}  {r.digest[:12]}")
    u_prime = next(r for r in reports if r.stage == "U'")
    print(
        f"pseudo labels kept {u_prime.extra.get('pseudo_labeled')}"
        f"  dropped {u_prime.extra.get('dropped')}"
    )
    print(f"reports {os.path.join(config.out_dir, 'reports')}")


def cmd_decode(args) -> None:
    if args.greedy and args.beam_size is not None:
        raise UsageError("--greedy and --beam are mutually exclusive")
    if args.greedy and (args.lm or args.lm_weight or args.word_insertion_penalty):
        raise UsageError("--greedy does not take language-model flags")
    if args.greedy and args.jobs != 1:
        raise UsageError("--greedy decodes in one process and does not take --jobs")
    config = None if args.greedy else _merged_config(args)
    _check_lm_weight(args)
    resolved = {
        "cmd": "decode",
        "model": args.model,
        "data": args.data,
        "mode": "greedy" if args.greedy else "beam",
        "lm": args.lm,
        "decode": None if args.greedy else config.decode_config().to_dict(),
    }
    _announce(resolved)
    model = load_checkpoint(args.model)
    data = load_dataset(args.data)
    vocabulary = Vocabulary.default()
    print("uid\ttext")
    if args.greedy:
        rows = [
            (utt.uid, vocabulary.decode(greedy_decode(post)))
            for utt, post in zip(data, dev_posteriors(model, data))
        ]
    else:
        cfg = config.decode_config(load_lm(args.lm) if args.lm else None)
        hyps = decode_utterances(model, data, cfg, jobs=args.jobs)
        rows = [
            (utt.uid, vocabulary.decode(top.labels), f"{top.acoustic:.17g}",
             f"{top.lm:.17g}", f"{top.combined:.17g}")
            for utt, top in zip(data, hyps)
        ]
    for row in rows:
        print(f"{row[0]}\t{row[1]}")
    if args.out:
        _write_out(args.out, "\n".join("\t".join(row) for row in rows))


def _words(text: str) -> list:
    return [w for w in text.split("|") if w]


def cmd_score(args) -> None:
    resolved = {"cmd": "score", "data": args.data, "hyp": args.hyp}
    _announce(resolved)
    data = _load_labeled(args.data)
    hyps = {}
    with open(args.hyp) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("uid\t"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ValueError(f"bad hypothesis line: {line!r}")
            if parts[0] in hyps:
                raise ValueError(f"repeated hypothesis for utterance {parts[0]}")
            hyps[parts[0]] = parts[1]
    unknown = sorted(set(hyps) - {u.uid for u in data})
    if unknown:
        raise ValueError(f"hypotheses for unknown utterances: {unknown[:5]}")
    missing = sum(u.uid not in hyps for u in data)
    refs = [u.text for u in data]
    texts = [hyps.get(u.uid, "") for u in data]
    char_err, char_total = error_counts(refs, texts)
    word_err, word_total = error_counts(map(_words, refs), map(_words, texts))
    cer = char_err / char_total if char_total else 0.0
    wer = word_err / word_total if word_total else 0.0
    print(f"{'metric':<6} {'errors':>7} {'total':>7} {'rate':>8}")
    print(f"{'CER':<6} {char_err:>7} {char_total:>7} {cer:>8.4f}")
    print(f"{'WER':<6} {word_err:>7} {word_total:>7} {wer:>8.4f}")
    if missing:
        print(f"missing hypotheses {missing} (scored as empty)")
    if args.out:
        payload = {
            "cer": cer,
            "wer": wer,
            "char_errors": char_err,
            "char_total": char_total,
            "word_errors": word_err,
            "word_total": word_total,
            "missing": missing,
        }
        _write_out(args.out, json.dumps(payload, indent=2, sort_keys=True))


def cmd_posteriors(args) -> None:
    if args.out and not args.uid:
        raise UsageError("--out needs --uid to pick one utterance")
    resolved = {
        "cmd": "posteriors",
        "model": args.model,
        "data": args.data,
        "uid": args.uid,
    }
    _announce(resolved)
    model = load_checkpoint(args.model)
    data = load_dataset(args.data)
    if args.uid:
        data = [u for u in data if u.uid == args.uid]
        if not data:
            raise ValueError(f"utterance not found: {args.uid}")
    vocabulary = Vocabulary.default()
    print("uid\tframes\tgreedy")
    for utt, post in zip(data, dev_posteriors(model, data)):
        text = vocabulary.decode(greedy_decode(post))
        print(f"{utt.uid}\t{post.shape[0]}\t{text}")
        if args.out and args.uid:
            header = ",".join(
                ["frame"] + [vocabulary.char_of(t) for t in range(post.shape[1])]
            )
            _write_out(args.out, header + "\n" + posteriorgram_to_csv(post))


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------


# (name, call returning the measured worst error, largest error that passes)
_SELFCHECKS = (
    ("ctc loss matches brute-force enumeration",
     lambda: checks.ctc_brute_force_error(0, 25), 1e-10),
    ("ctc gradient matches finite differences",
     lambda: checks.ctc_gradient_error(1, 3), 1e-5),
    ("guided loss equals ctc plus alpha times penalty",
     lambda: checks.guided_identity_residual(2, 3), 1e-12),
    ("distillation gradient matches finite differences",
     lambda: checks.distillation_gradient_error(3, 2), 1e-5),
    ("contrastive gradient matches finite differences",
     lambda: checks.contrastive_gradient_error(4, 2), 1e-5),
    ("encoder parameter gradient matches finite differences",
     lambda: checks.encoder_gradient_error(0, 2), 1e-5),
    ("beam 1 equals greedy decoding",
     lambda: checks.beam_greedy_mismatches(6, 20), 0),
    ("beam top score is monotone in beam size",
     lambda: checks.beam_monotone_drop(7, 5), 1e-12),
    ("degenerate masks match bidirectional",
     lambda: checks.degenerate_mask_error(0, 2), 0.0),
    ("reference latency configs give 480 ms",
     lambda: max(abs(v - 480.0) for v in checks.reference_latencies()), 0.0),
    ("checkpoint, lm, and dataset round trips",
     lambda: len(checks.round_trip_failures()), 0),
    ("gelu's erf matches math.erf", checks.erf_error, 1e-15),
)


def cmd_selfcheck(args) -> int | None:
    _announce({"cmd": "selfcheck"})
    failed = 0
    for name, measure, bound in _SELFCHECKS:
        try:
            worst = measure()
        except Exception as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
            continue
        if not worst <= bound:
            failed += 1
            print(f"FAIL {name}: measured {worst:.3g}, bound {bound:g}")
            continue
        print(f"ok   {name}")
    if failed:
        print(f"{failed} of {len(_SELFCHECKS)} checks failed")
        return 2
    print(f"all {len(_SELFCHECKS)} checks passed")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_config_flags(p, seed: bool = True):
    p.add_argument("--config", help="JSON config file (see pipeline config keys)")
    if seed:
        p.add_argument("--seed", type=int)


def _add_train_flags(p):
    _add_config_flags(p)
    p.add_argument("--updates", type=int, dest="stage_updates")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--peak-lr", type=float)
    p.add_argument("--data", required=True, help="training container")
    p.add_argument("--dev", help="dev-set container for token error")
    p.add_argument("--report", help="write a JSON provenance report here")
    p.add_argument("--out", required=True, help="checkpoint path to write")


def build_parser() -> _Parser:
    parser = _Parser(prog="streamctc", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)

    p = sub.add_parser("latency", help="latency metrics for a mask config")
    _add_mask_flags(p)
    p.add_argument("--layers", type=_positive_int, default=12)
    p.add_argument("--out", help="machine-readable TSV path")
    p.set_defaults(fn=cmd_latency)

    p = sub.add_parser("mask-dump", help="print a mask as a text grid")
    _add_mask_flags(p)
    p.add_argument("--frames", type=_positive_int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_mask_dump)

    p = sub.add_parser("gen-data", help="generate a synthetic data split")
    _add_config_flags(p)
    p.add_argument("--n-symbols", type=int)
    p.add_argument("--noise", type=float, dest="noise_std")
    p.add_argument("--frames-per-token", type=_int_tuple)
    p.add_argument("--text-len", type=_int_tuple)
    p.add_argument("--sizes", type=_int_tuple, help="labeled,unlabeled,dev")
    p.add_argument("--out-dir", dest="data_dir")
    p.add_argument("--workdir", dest="out_dir")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train-lm", help="train the character n-gram model")
    _add_config_flags(p, seed=False)
    p.add_argument("--data", required=True, help="labeled container")
    p.add_argument("--order", type=int, dest="lm_order")
    p.add_argument("--smoothing", type=float, dest="lm_smoothing")
    p.add_argument("--report")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train_lm)

    for command in _TRAIN_COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        _add_train_flags(p)
        for flag, kwargs in command.flags:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=cmd_train, train_command=command)

    p = sub.add_parser("pseudo-label", help="beam-decode unlabeled data into labels")
    _add_config_flags(p, seed=False)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--lm")
    p.add_argument("--beam", type=int, dest="beam_size")
    p.add_argument("--lm-weight", type=float)
    p.add_argument("--penalty", type=float, dest="word_insertion_penalty")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--report")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pseudo_label)

    p = sub.add_parser("pipeline", help="run the six-stage two-stage recipe")
    _add_config_flags(p)
    p.add_argument("--workdir", dest="out_dir")
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("decode", help="decode a container with a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--beam", type=int, dest="beam_size")
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--lm")
    p.add_argument("--lm-weight", type=float)
    p.add_argument("--penalty", type=float, dest="word_insertion_penalty")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", help="TSV path (uid, text, scores)")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("score", help="error rates of a hypothesis TSV")
    p.add_argument("--data", required=True, help="reference container")
    p.add_argument("--hyp", required=True, help="TSV from decode")
    p.add_argument("--out", help="JSON metrics path")
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("posteriors", help="export a posteriorgram as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--uid")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_posteriors)

    p = sub.add_parser("selfcheck", help="run the built-in oracle suites")
    p.set_defaults(fn=cmd_selfcheck)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = args.fn(args)
        # by lines: one long write to a closed pipe can end short, unraised
        sys.stdout.writelines(out.getvalue().splitlines(keepends=True))
        sys.stdout.flush()
        return code or 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
