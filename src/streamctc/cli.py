"""Command-line front end: latency analysis, data and LM tooling, the
training stages, decoding, metrics, and the full six-stage pipeline.

Exit codes: 0 success, 1 usage error, 2 runtime error. Every run prints
the digest of its resolved configuration to stderr; human-readable
tables go to stdout and machine formats are written only to `--out`
paths. Flags override config-file values. A relative `--config` path
that does not exist is also looked up under $STREAMCTC_CONFIG_DIR.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable

from . import checks
from .ctc import (
    DecodeConfig,
    edit_distance,
    greedy_decode,
    posteriorgram_to_csv,
)
from .encoder import init_params, load_checkpoint, save_checkpoint
from .lm import FusionLm, load_lm, save_lm, train_ngram
from .masking import VARIANTS, MaskSpec, build_mask, latency_report
from .pipeline import (
    PipelineConfig,
    config_digest,
    decode_utterances,
    distill,
    dev_posteriors,
    finetune_ctc,
    generate_dataset,
    load_dataset,
    pseudo_label,
    run_two_stage,
    save_dataset,
    self_train,
    train_guided_teacher,
)
from .pipeline.stages import BIDIRECTIONAL
from .vocab import Vocabulary

CONFIG_DIR_ENV = "STREAMCTC_CONFIG_DIR"


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


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def _announce(resolved: dict) -> str:
    blob = json.dumps(resolved, sort_keys=True, default=str).encode("utf-8")
    digest = hashlib.sha256(blob).hexdigest()
    print(f"config digest {digest[:16]}", file=sys.stderr)
    return digest


def _resolve_config_path(path: str) -> str:
    if os.path.exists(path):
        return path
    base = os.environ.get(CONFIG_DIR_ENV)
    if base and not os.path.isabs(path):
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    raise UsageError(f"config file not found: {path}")


def _config_dict(args) -> dict:
    if getattr(args, "config", None) is None:
        return {}
    with open(_resolve_config_path(args.config)) as fh:
        try:
            loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}")
    if not isinstance(loaded, dict):
        raise UsageError("config file must hold a JSON object")
    return loaded


_OVERRIDE_KEYS = (
    ("seed", "seed"),
    ("n_symbols", "n_symbols"),
    ("noise", "noise_std"),
    ("frames_per_token", "frames_per_token"),
    ("text_len", "text_len"),
    ("sizes", "sizes"),
    ("peak_lr", "peak_lr"),
    ("batch_size", "batch_size"),
    ("alpha", "alpha"),
    ("order", "lm_order"),
    ("smoothing", "lm_smoothing"),
    ("beam", "beam_size"),
    ("lm_weight", "lm_weight"),
    ("penalty", "word_insertion_penalty"),
    ("pretrain", "pretrain_mode"),
    ("layers", "distill_layers"),
)


def _merged_config(args, stage: str | None = None) -> PipelineConfig:
    """Config file (if any) with flag overrides applied on top."""
    d = _config_dict(args)
    d.setdefault("out_dir", getattr(args, "workdir", None) or ".")
    if getattr(args, "workdir", None):
        d["out_dir"] = args.workdir
    for attr, key in _OVERRIDE_KEYS:
        value = getattr(args, attr, None)
        if value is not None:
            d[key] = value
    if stage is not None and getattr(args, "updates", None) is not None:
        d.setdefault("updates", {})
        d["updates"] = dict(PipelineConfig(out_dir=".").updates, **d["updates"])
        d["updates"][stage] = args.updates
    try:
        return PipelineConfig.from_dict(d)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad configuration: {exc}")


def _load_labeled(path):
    data = load_dataset(path)
    missing = [u.uid for u in data if not u.text]
    if missing:
        raise ValueError(f"utterances without labels: {', '.join(missing[:5])}")
    return data


def _checkpoint(path, config: PipelineConfig):
    return load_checkpoint(path, expect_config=config.encoder) if path else None


def _init_model(args, config: PipelineConfig):
    return _checkpoint(args.init, config) or init_params(config.encoder, config.seed)


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


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


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
    if abs(q - round(q)) > 1e-9:
        raise UsageError(
            f"--{name}-ms {ms_value:g} is not a whole number of "
            f"{frame_ms:g} ms frames"
        )
    return int(round(q))


def _mask_from_args(args) -> MaskSpec:
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


def cmd_latency(args) -> int:
    spec = _mask_from_args(args)
    _announce({"cmd": "latency", "spec": spec.to_dict(), "layers": args.layers})
    report = latency_report(spec, args.layers)
    print(report.table())
    if args.out:
        header = "\t".join(
            ["variant", "chunk_ms", "future_ms", "right_frames", "layers", "eil_ms"]
        )
        _write_out(args.out, header + "\n" + report.machine_line())
    return 0


def cmd_mask_dump(args) -> int:
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
    return 0


def cmd_gen_data(args) -> int:
    config = _merged_config(args)
    vocabulary = Vocabulary.default()
    resolved = {"cmd": "gen-data", "config": config.to_dict()}
    _announce(resolved)
    out_dir = args.out_dir or os.path.join(config.out_dir, "data")
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
    return 0


def cmd_train_lm(args) -> int:
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
    save_lm(model, args.out)
    file_digest = _file_digest(args.out)
    print(f"order {model.order}  smoothing {model.smoothing:g}")
    print(f"vocabulary {len(model.vocab)}  contexts {len(model.tokens)}")
    print(f"model digest {file_digest}")
    _maybe_report(
        args,
        resolved,
        digest,
        {"model_digest": file_digest, "sentences": len(corpus)},
    )
    return 0


@dataclass(frozen=True)
class _TrainCommand:
    """One training subcommand: which pipeline stage it trains, the flags it
    adds to the shared training flags, and its call into that stage."""

    name: str
    help: str
    stage: Callable  # args -> stage key ("S", "N", "T", "KD" or "ST")
    flags: tuple  # (flag, argparse keyword arguments) pairs
    labeled: bool  # --data, --pseudo and --dev must carry transcripts
    train: Callable  # (args, config, train config, data, dev) -> (model, log)


_TRAIN_COMMANDS = (
    _TrainCommand(
        "finetune", "CTC fine-tuning (streaming S or full N)",
        stage=lambda a: "S" if a.mask == "stream" else "N",
        flags=(
            ("--init", {"help": "starting checkpoint (default: fresh init)"}),
            ("--mask", {"choices": ("stream", "bidirectional"), "default": "stream"}),
        ),
        labeled=True,
        train=lambda a, config, cfg, data, dev: finetune_ctc(
            _init_model(a, config),
            config.stream if a.mask == "stream" else BIDIRECTIONAL,
            data, cfg, dev=dev,
        ),
    ),
    _TrainCommand(
        "guided-teacher", "train T with the guided loss",
        stage=lambda a: "T",
        flags=(
            ("--streaming", {"required": True, "help": "streaming checkpoint S"}),
            ("--init", {}),
            ("--alpha", {"type": float}),
        ),
        labeled=True,
        train=lambda a, config, cfg, data, dev: train_guided_teacher(
            _init_model(a, config), _checkpoint(a.streaming, config),
            data, config.alpha, cfg, dev=dev,
        ),
    ),
    _TrainCommand(
        "distill", "distill teacher T into a streaming student",
        stage=lambda a: "KD",
        flags=(
            ("--teacher", {"required": True}),
            ("--head-from", {"help": "checkpoint whose output head seeds KD"}),
            ("--init", {}),
            ("--layers", {"type": _int_tuple, "help": "matched layers, 1-based"}),
        ),
        labeled=False,  # distillation never reads labels
        train=lambda a, config, cfg, data, dev: distill(
            _init_model(a, config), _checkpoint(a.teacher, config), config.stream,
            data, config.distill_spec(), cfg,
            head_source=_checkpoint(a.head_from, config), dev=dev,
        ),
    ),
    _TrainCommand(
        "self-train", "fine-tune on labeled plus pseudo labels",
        stage=lambda a: "ST",
        flags=(
            ("--pseudo", {"help": "pseudo-labeled container"}),
            ("--init", {"required": True, "help": "checkpoint to continue from"}),
        ),
        labeled=True,
        train=lambda a, config, cfg, data, dev: self_train(
            _init_model(a, config), data, cfg, dev=dev
        ),
    ),
)


def cmd_train(args) -> int:
    command = args.train_command
    stage = command.stage(args)
    config = _merged_config(args, stage=stage)
    cfg = config.train_config(stage)
    inputs = ("data", "dev", "out") + tuple(
        flag[2:].replace("-", "_") for flag, _ in command.flags
    )
    resolved = {
        "cmd": command.name,
        "config": config.to_dict(),
        "stage": stage,
        "train": cfg.to_dict(),
        **{name: getattr(args, name) for name in inputs},
    }
    digest = _announce(resolved)
    read = _load_labeled if command.labeled else load_dataset
    data = list(read(args.data))
    if getattr(args, "pseudo", None):
        data += read(args.pseudo)
    dev = read(args.dev) if args.dev else ()
    model, log = command.train(args, config, cfg, data, dev)
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
    return 0


def cmd_pseudo_label(args) -> int:
    config = _merged_config(args)
    decode_cfg = config.decode_config()
    resolved = {
        "cmd": "pseudo-label",
        "model": args.model,
        "lm": args.lm,
        "data": args.data,
        "decode": decode_cfg.to_dict(),
        "out": args.out,
    }
    digest = _announce(resolved)
    model = load_checkpoint(args.model)
    lm_model = load_lm(args.lm) if args.lm else None
    data = load_dataset(args.data)
    kept, dropped = pseudo_label(
        model, lm_model, data, decode_cfg, jobs=args.jobs
    )
    save_dataset(kept, args.out)
    print(f"utterances {len(data)}  kept {len(kept)}  dropped {dropped}")
    print(f"beam {decode_cfg.beam_size}  lm weight {decode_cfg.lm_weight:g}")
    _maybe_report(
        args,
        resolved,
        digest,
        {"kept": len(kept), "dropped": dropped, "total": len(data)},
    )
    return 0


def cmd_pipeline(args) -> int:
    if not args.workdir and "out_dir" not in _config_dict(args):
        raise UsageError("pipeline needs --workdir or an out_dir config key")
    config = _merged_config(args)
    digest = config_digest(config)
    print(f"config digest {digest[:16]}", file=sys.stderr)
    if args.dry_run:
        plan = run_two_stage(config, dry_run=True)
        print(f"{'stage':<6} {'alias':<6} {'updates':>8}  depends on")
        for item in plan:
            deps = ", ".join(item["depends_on"]) if item["depends_on"] else "-"
            alias = item.get("alias") or "-"
            print(f"{item['stage']:<6} {alias:<6} {item['updates']:>8}  {deps}")
        return 0
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
    return 0


def cmd_decode(args) -> int:
    if args.greedy and args.beam is not None:
        raise UsageError("--greedy and --beam are mutually exclusive")
    if args.greedy and (args.lm or args.lm_weight or args.penalty):
        raise UsageError("--greedy does not take language-model flags")
    beam = 8 if args.beam is None else args.beam
    if not args.greedy:
        try:
            cfg = DecodeConfig(
                beam_size=beam,
                lm_weight=args.lm_weight or 0.0,
                word_insertion_penalty=args.penalty or 0.0,
            )
        except ValueError as exc:
            raise UsageError(f"bad decode flags: {exc}")
    resolved = {
        "cmd": "decode",
        "model": args.model,
        "data": args.data,
        "mode": "greedy" if args.greedy else "beam",
        "beam": None if args.greedy else beam,
        "lm": args.lm,
        "lm_weight": args.lm_weight or 0.0,
        "penalty": args.penalty or 0.0,
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
        if args.lm:
            cfg = replace(cfg, lm=FusionLm(load_lm(args.lm), vocabulary))
        hyps = decode_utterances(model, data, cfg, jobs=args.jobs)
        rows = [
            (utt.uid, top.labels.text(vocabulary), f"{top.acoustic:.17g}",
             f"{top.lm:.17g}", f"{top.combined:.17g}")
            for utt, top in zip(data, hyps)
        ]
    for row in rows:
        print(f"{row[0]}\t{row[1]}")
    if args.out:
        _write_out(args.out, "\n".join("\t".join(row) for row in rows))
    return 0


def _words(text: str) -> list:
    return [w for w in text.split("|") if w]


def cmd_score(args) -> int:
    resolved = {"cmd": "score", "data": args.data, "hyp": args.hyp}
    _announce(resolved)
    refs = _load_labeled(args.data)
    hyps = {}
    with open(args.hyp) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("uid\t"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ValueError(f"bad hypothesis line: {line!r}")
            hyps[parts[0]] = parts[1]
    known = {u.uid for u in refs}
    unknown = sorted(set(hyps) - known)
    if unknown:
        raise ValueError(f"hypotheses for unknown utterances: {unknown[:5]}")
    char_err = char_total = word_err = word_total = missing = 0
    for utt in refs:
        hyp = hyps.get(utt.uid)
        if hyp is None:
            missing += 1
            hyp = ""
        char_err += edit_distance(utt.text, hyp)
        char_total += len(utt.text)
        word_err += edit_distance(_words(utt.text), _words(hyp))
        word_total += len(_words(utt.text))
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
    return 0


def cmd_posteriors(args) -> int:
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
    return 0


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
    ("encoder input gradient matches finite differences",
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
)


def cmd_selfcheck(args) -> int:
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
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_config_flags(p):
    p.add_argument("--config", help="JSON config file (see pipeline config keys)")
    p.add_argument("--seed", type=int)


def _add_train_flags(p):
    _add_config_flags(p)
    p.add_argument("--updates", type=int)
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
    p.add_argument("--layers", type=int, default=12)
    p.add_argument("--out", help="machine-readable TSV path")
    p.set_defaults(fn=cmd_latency)

    p = sub.add_parser("mask-dump", help="print a mask as a text grid")
    _add_mask_flags(p)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_mask_dump)

    p = sub.add_parser("gen-data", help="generate a synthetic data split")
    _add_config_flags(p)
    p.add_argument("--n-symbols", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--frames-per-token", type=_int_tuple)
    p.add_argument("--text-len", type=_int_tuple)
    p.add_argument("--sizes", type=_int_tuple, help="labeled,unlabeled,dev")
    p.add_argument("--out-dir")
    p.add_argument("--workdir")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train-lm", help="train the character n-gram model")
    _add_config_flags(p)
    p.add_argument("--data", required=True, help="labeled container")
    p.add_argument("--order", type=int)
    p.add_argument("--smoothing", type=float)
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
    _add_config_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--lm")
    p.add_argument("--beam", type=int)
    p.add_argument("--lm-weight", type=float)
    p.add_argument("--penalty", type=float)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--report")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pseudo_label)

    p = sub.add_parser("pipeline", help="run the six-stage two-stage recipe")
    _add_config_flags(p)
    p.add_argument("--workdir")
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--pretrain", choices=("random", "contrastive"))
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("decode", help="decode a container with a checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--beam", type=int)
    p.add_argument("--greedy", action="store_true")
    p.add_argument("--lm")
    p.add_argument("--lm-weight", type=float)
    p.add_argument("--penalty", type=float)
    p.add_argument("--jobs", type=_jobs, default=1)
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
        return args.fn(args)
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
