"""Two-stage pipeline orchestration.

`STAGES` is the recipe as one table, in run order:

  data  labeled, unlabeled and dev sets of the synthetic task
  lm    n-gram LM on the labeled transcripts
  P     starting point: the random init, warmed up contrastively when
        `updates.pretrain` > 0
  S     streaming CTC model fine-tuned on labeled data
  T     full-context teacher trained with the guided loss against S
  KD    streaming student distilled from T's hidden states (head from S)
  N     full-context CTC model for labeling
  U'    pseudo-labels for the unlabeled set, decoded with N and the LM
  ST    self-trained student: KD fine-tuned on labeled + pseudo-labeled

Each row names the stages whose artifacts it reads, the config fields its
producer reads, and its files under the output directory. The dry-run
plan, the resume decision and the run all read that table. A model stage
trains with its entry in `TRAINERS`, as the CLI's training subcommands do.
A row's files are its only hand-off: `produce` only writes them, and on
every run, fresh or resumed, the row's `load` reads them back for the
later rows. A row's `produce`, `load` and trainer see only the values of
its `reads`, so a read the row does not declare fails at once.

Resume: a stage's record is its input key (a sha256 of its config
fields and, for data and lm, of their file format), the sha256 of each
file the stages it reads hand on (those outside `reports/`) and of each
of its own files; `reports/inputs.json` holds every stage's record,
written when its `produce` returns. With `resume` set, a stage is reused
when its stored record equals the one computed from the config and the
disk; otherwise it is recomputed. Training is deterministic, so a
recomputed artifact is bit-identical to what a fresh run would produce.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

from ..ctc import DecodeConfig, UnsatisfiableTargetError, error_counts
from ..encoder import (
    EncoderConfig,
    checkpoint_digest,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from ..lm import FORMAT_VERSION as LM_VERSION
from ..lm import FusionLm, NgramModel, load_lm, save_lm, train_ngram
from ..losses import DistillSpec
from ..masking import MaskSpec
from ..numerics import check_float, check_int, check_keys
from ..vocab import DELIMITER, Vocabulary
from .data import DataSplit, SyntheticTask, check_generation, generate_dataset
from .data import DATASET_VERSION, load_dataset, save_dataset
from .optim import TrainConfig
from .stages import (
    BIDIRECTIONAL,
    MissingArtifactError,
    distill,
    finetune_ctc,
    pretrain_contrastive,
    pseudo_label,
    self_train,
    train_guided_teacher,
    trainable,
)

STAGE_SEED_OFFSET = {"pretrain": 1, "S": 2, "T": 3, "KD": 4, "N": 5, "ST": 6}
_TUPLE_FIELDS = ("frames_per_token", "text_len", "sizes", "distill_layers")
_RECORDS_FILE = os.path.join("reports", "inputs.json")  # the stored stage records
# part of a row's key: a file in an old format still hashes to its old
# record, so a row whose format changes must recompute through its key
_FORMATS = {"data": DATASET_VERSION, "lm": LM_VERSION}


@dataclass
class StageReport:
    """One stage's outcome, written as JSON plus a CSV loss curve.
    `checkpoint` is stored relative to the workdir, the parent of the
    reports directory (an absolute path stays as it is). The fields with
    defaults are the parts a stage may leave empty."""

    stage: str
    alias: str | None
    checkpoint: str
    digest: str
    wall_time_s: float
    utterances_in: int
    losses: list = field(default_factory=list)
    dev_token_error: float | None = None
    decode_config: dict | None = None
    train_config: dict | None = None
    skipped: int = 0
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        d.pop("losses")
        return d


def _report_paths(reports_dir, stage: str) -> tuple:
    """A stage report's JSON and loss-curve paths; U' is stored as U."""
    key = stage.rstrip("'")
    return tuple(os.path.join(reports_dir, name) for name in (f"{key}.json", f"loss_{key}.csv"))


def _in_workdir(reports_dir, checkpoint: str) -> str:
    """`checkpoint` under the workdir, spelled as `reports_dir` spells it."""
    return os.path.join(os.path.dirname(os.fspath(reports_dir).rstrip(os.sep)), checkpoint)


def save_stage_report(report: StageReport, reports_dir) -> str:
    """Write {stage}.json and loss_{stage}.csv; returns the JSON path."""
    checkpoint = _in_workdir(reports_dir, report.checkpoint)
    if not os.path.exists(checkpoint):
        raise MissingArtifactError(
            f"stage {report.stage}: report references missing checkpoint {checkpoint}"
        )
    os.makedirs(reports_dir, exist_ok=True)
    json_path, csv_path = _report_paths(reports_dir, report.stage)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for step, loss in enumerate(report.losses):
            writer.writerow([step, f"{loss:.17g}"])
    payload = report.to_dict()
    payload["loss_curve"] = os.path.basename(csv_path)
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return json_path


def load_stage_report(reports_dir, stage: str) -> StageReport:
    """The saved report, its checkpoint named under this workdir."""
    with open(_report_paths(reports_dir, stage)[0]) as fh:
        payload = json.load(fh)
    with open(os.path.join(reports_dir, payload.pop("loss_curve")), newline="") as fh:
        payload["losses"] = [float(row["loss"]) for row in csv.DictReader(fh)]
    payload["checkpoint"] = _in_workdir(reports_dir, payload["checkpoint"])
    return StageReport(**payload)


@dataclass
class PipelineConfig:
    """Everything a full run needs; serializable for provenance."""

    out_dir: str
    seed: int = 0
    # synthetic task
    n_symbols: int = 3
    frames_per_token: tuple = (2, 4)
    noise_std: float = 0.4
    text_len: tuple = (2, 6)
    sizes: tuple = (24, 24, 16)
    # models
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    stream: MaskSpec = field(
        default_factory=lambda: MaskSpec(
            variant="block", chunk_frames=12, future_frames=18
        )
    )
    alpha: float = 0.01
    distill_layers: tuple | None = None
    # language model
    lm_order: int = 3
    lm_smoothing: float = 0.2
    # decoding (pseudo-labeling)
    beam_size: int = 8
    lm_weight: float = 2.15
    word_insertion_penalty: float = -0.52
    # optimization
    peak_lr: float = 2e-3
    batch_size: int = 4
    updates: dict = field(
        default_factory=lambda: {
            "pretrain": 0,
            "S": 800,
            "T": 800,
            "KD": 400,
            "N": 800,
            "ST": 800,
        }
    )
    resume: bool = True

    def __post_init__(self):
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        check_int("seed", self.seed, 0)
        for name in ("noise_std", "alpha", "lm_smoothing", "lm_weight",
                     "word_insertion_penalty", "peak_lr"):
            check_float(name, getattr(self, name))
        if not isinstance(self.resume, bool):
            raise ValueError(f"resume must be true or false, got {self.resume!r}")
        for name in _TUPLE_FIELDS:
            value = getattr(self, name)
            optional = name == "distill_layers" and value is None
            if not (optional or isinstance(value, (tuple, list))):
                raise ValueError(f"{name} must be a list of integers, got {value!r}")
        check_keys("updates", self.updates, STAGE_SEED_OFFSET)
        missing = [s for s in ("S", "T", "KD", "N", "ST") if s not in self.updates]
        if missing:
            raise ValueError(f"updates missing stages: {missing}")
        if check_int("n_symbols", self.n_symbols, 1) > 26:
            raise ValueError(f"n_symbols must be in 1..26, got {self.n_symbols}")
        frames, text_len, _ = check_generation(
            self.frames_per_token, self.text_len, self.noise_std, self.sizes
        )
        if frames[1] * text_len[1] < 2:
            # train-mode batch norm normalizes each utterance by its own frames
            raise ValueError(
                f"frames_per_token {list(frames)} and text_len {list(text_len)} give "
                "utterances of 1 frame only, and training needs 2 or more"
            )
        top = max(self.token_ids(Vocabulary.default()))
        if self.encoder.vocab_size <= top:
            raise ValueError(
                f"encoder.vocab_size {self.encoder.vocab_size} must exceed the "
                f"largest task token id {top}"
            )
        check_int("lm_order", self.lm_order, 1)
        if not self.lm_smoothing > 0:
            raise ValueError(f"lm_smoothing must be > 0, got {self.lm_smoothing}")
        for stage, n in self.updates.items():
            try:
                self.train_config(stage)
            except ValueError as exc:
                raise ValueError(f"stage {stage} (updates.{stage}={n}): {exc}") from None
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        try:
            layers = self.distill_spec().layer_indices
        except ValueError as exc:
            raise ValueError(f"distill_layers {list(self.distill_layers)}: {exc}") from None
        if layers[-1] > self.encoder.n_layers:
            raise ValueError(
                f"distill_layers {list(layers)} reach beyond encoder.n_layers "
                f"{self.encoder.n_layers}"
            )
        self.decode_config()

    def token_ids(self, vocabulary: Vocabulary) -> list:
        """The first `n_symbols` letters, then the word delimiter."""
        first_letter = vocabulary.symbols.index("a")
        return [first_letter + i for i in range(self.n_symbols)] + [DELIMITER]

    def task(self, vocabulary: Vocabulary) -> SyntheticTask:
        return SyntheticTask.make(
            token_ids=self.token_ids(vocabulary),
            feature_dim=self.encoder.feature_dim,
            frames_per_token=self.frames_per_token,
            noise_std=self.noise_std,
            seed=self.seed,
            text_len=self.text_len,
        )

    def train_config(self, stage: str) -> TrainConfig:
        return TrainConfig(
            peak_lr=self.peak_lr,
            total_updates=self.updates[stage],
            batch_size=self.batch_size,
            seed=self.seed + STAGE_SEED_OFFSET[stage],
        )

    def decode_config(self, lm: NgramModel | None = None) -> DecodeConfig:
        """The beam settings, with `lm` fused through `FusionLm` when given."""
        return DecodeConfig(
            beam_size=self.beam_size,
            lm_weight=self.lm_weight,
            word_insertion_penalty=self.word_insertion_penalty,
            lm=None if lm is None else FusionLm(lm, Vocabulary.default()),
        )

    def distill_spec(self) -> DistillSpec:
        if self.distill_layers is not None:
            return DistillSpec(layer_indices=tuple(self.distill_layers))
        return DistillSpec.thirds(self.encoder.n_layers)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """The config a JSON object describes; an error in the encoder or
        stream section names the section."""
        d = dict(check_keys("pipeline config", d, cls.__dataclass_fields__))
        for key, section in (("encoder", EncoderConfig), ("stream", MaskSpec)):
            if key in d:
                try:
                    d[key] = section.from_dict(d[key])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{key}: {exc}") from None
        for key in _TUPLE_FIELDS:
            if isinstance(d.get(key), list):
                d[key] = tuple(d[key])
        return cls(**d)


def config_digest(config: PipelineConfig) -> str:
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class Stage:
    """One row of the stage table.

    `produce(run, paths)` computes the stage, writes its files and returns
    nothing; `load(run, paths)` reads them back as (value, report), the
    report None for data, lm and P, and later rows get only that value.
    Both get the absolute `files`, and `run.got` holds the loaded values
    of `reads` and nothing else.
    """

    name: str
    alias: str | None  # the model's name in the paper's tables
    reads: tuple  # the stages whose values its callables see
    fields: tuple  # config fields it reads; "updates.S" is one key of a dict
    files: tuple  # artifacts, relative to the output directory
    produce: Callable
    load: Callable


@dataclass
class _Run:
    """What one row's callables see: the config, decode fan-out, and the
    loaded value of each stage the row reads (a `DataSplit` for data, the
    model for P and the trained stages, the pseudo-labeled set for U')."""

    config: PipelineConfig
    jobs: int
    got: dict = field(default_factory=dict)
    vocabulary: Vocabulary = field(default_factory=Vocabulary.default)

    def path(self, *parts) -> str:
        return os.path.join(self.config.out_dir, *parts)


# One trainer per model stage: (config, models, training set, train config,
# dev set, vocabulary) -> (model, log). `models` maps a stage name ("P",
# "S", "T", "KD") to its model; in the pipeline it is the row's `run.got`.
# KD takes its head from S when there is one.
TRAINERS = {
    "S": lambda config, models, data, cfg, dev, vocab: finetune_ctc(
        models["P"], config.stream, data, cfg, dev, vocab
    ),
    "T": lambda config, models, data, cfg, dev, vocab: train_guided_teacher(
        models["P"], models["S"], data, config.alpha, cfg, dev, vocab
    ),
    "KD": lambda config, models, data, cfg, dev, vocab: distill(
        models["P"], models["T"], config.stream, data, config.distill_spec(), cfg,
        head_source=models.get("S"), dev=dev, vocabulary=vocab,
    ),
    "N": lambda config, models, data, cfg, dev, vocab: finetune_ctc(
        models["P"], BIDIRECTIONAL, data, cfg, dev, vocab
    ),
    "ST": lambda config, models, data, cfg, dev, vocab: self_train(
        models["KD"], data, cfg, dev, vocab
    ),
}


def _trained(name, alias, reads, fields, fit):
    """The row of a stage that trains one model by `TRAINERS[name]` on `fit(run)`."""

    def produce(run, paths):
        cfg = run.config.train_config(name)
        data = fit(run)
        params, log = TRAINERS[name](
            run.config, run.got, data, cfg, run.got["data"].dev, run.vocabulary
        )
        digest = save_checkpoint(params, paths[0])
        report = StageReport(
            stage=name,
            alias=alias,
            checkpoint=f"checkpoints/{name}.ckpt",
            digest=digest,
            losses=log.losses,
            dev_token_error=log.dev_token_error,
            train_config=cfg.to_dict(),
            wall_time_s=log.wall_time_s,
            utterances_in=len(data),
            skipped=log.skipped,
            extra=log.extra,
        )
        save_stage_report(report, run.path("reports"))

    def load(run, paths):
        report = load_stage_report(run.path("reports"), name)
        return load_checkpoint(paths[0], expect_config=run.config.encoder), report

    files = (f"checkpoints/{name}.ckpt", *_report_paths("reports", name))
    train_fields = ("peak_lr", "batch_size", "seed", f"updates.{name}")
    return Stage(name, alias, reads, fields + train_fields, files, produce, load)


def _produce_data(run, paths):
    split = generate_dataset(
        run.config.task(run.vocabulary), run.config.sizes, run.vocabulary
    )
    for utts, path in zip((split.labeled, split.unlabeled, split.dev), paths):
        save_dataset(utts, path)


def _load_data(run, paths):
    split = DataSplit(*(load_dataset(p) for p in paths))
    if not trainable(split.labeled):
        # S, T and N train on the labeled set alone: stop before P trains
        raise UnsatisfiableTargetError(
            f"the labeled set {paths[0]} has no utterance of 2 frames or more, "
            "and training needs one"
        )
    return split, None


def _produce_lm(run, paths):
    model = train_ngram(
        [u.text for u in run.got["data"].labeled],
        run.config.lm_order,
        run.config.lm_smoothing,
    )
    save_lm(model, paths[0])


def _produce_pretrained(run, paths):
    config = run.config
    params = init_params(config.encoder, config.seed)
    if config.updates.get("pretrain", 0) > 0:
        params, _ = pretrain_contrastive(
            params, run.got["data"].unlabeled, config.train_config("pretrain")
        )
    save_checkpoint(params, paths[0])


def _load_model(run, paths):
    return load_checkpoint(paths[0], expect_config=run.config.encoder), None


def _produce_pseudo(run, paths):
    started = time.perf_counter()
    unlabeled = run.got["data"].unlabeled
    decode_cfg = run.config.decode_config(run.got["lm"])
    pseudo, dropped = pseudo_label(
        run.got["N"], unlabeled, decode_cfg, run.vocabulary, jobs=run.jobs
    )
    hidden_refs = {u.uid: u.text for u in unlabeled}
    edits, total = error_counts(
        [run.vocabulary.encode(hidden_refs[u.uid]).tokens for u in pseudo],
        [run.vocabulary.encode(u.text).tokens for u in pseudo],
    )
    save_dataset(pseudo, paths[0])
    report = StageReport(
        stage="U'",
        alias=None,
        checkpoint="checkpoints/N.ckpt",
        digest=checkpoint_digest(run.got["N"]),
        decode_config=decode_cfg.to_dict(),
        wall_time_s=time.perf_counter() - started,
        utterances_in=len(unlabeled),
        extra={
            "dropped": dropped,
            "pseudo_labeled": len(pseudo),
            "hidden_reference_error": edits / total if total else None,
        },
    )
    save_stage_report(report, run.path("reports"))


# The callables and `TRAINERS` reach the training, data and I/O functions
# through this module's globals when they run, never through references
# taken when the tables are built, so patching `run.finetune_ctc` and its
# like reaches every stage and every training subcommand.
STAGES = (
    Stage(
        "data", None, (),
        ("seed", "n_symbols", "frames_per_token", "noise_std", "text_len", "sizes",
         "encoder.feature_dim"),
        ("data/labeled.bin", "data/unlabeled.bin", "data/dev.bin"),
        _produce_data, _load_data,
    ),
    Stage(
        "lm", None, ("data",), ("lm_order", "lm_smoothing"), ("lm.json",),
        _produce_lm, lambda run, paths: (load_lm(paths[0]), None),
    ),
    Stage(
        "P", None, ("data",),
        ("seed", "encoder", "updates.pretrain", "peak_lr", "batch_size"),
        ("checkpoints/P.ckpt",), _produce_pretrained, _load_model,
    ),
    _trained(
        "S", "S4", ("P", "data"), ("stream",), lambda run: run.got["data"].labeled,
    ),
    _trained(
        "T", "T4", ("P", "S", "data"), ("alpha",), lambda run: run.got["data"].labeled,
    ),
    _trained(
        "KD", "S5", ("P", "T", "S", "data"),
        ("stream", "distill_layers", "encoder.n_layers"),
        lambda run: [*run.got["data"].labeled, *run.got["data"].unlabeled],
    ),
    _trained(
        "N", "N1", ("P", "data"), (), lambda run: run.got["data"].labeled,
    ),
    Stage(
        "U'", None, ("N", "lm", "data"),
        ("beam_size", "lm_weight", "word_insertion_penalty"),
        ("data/pseudo.bin", *_report_paths("reports", "U'")),
        _produce_pseudo,
        lambda run, paths: (
            load_dataset(paths[0]),
            load_stage_report(run.path("reports"), "U'"),
        ),
    ),
    _trained(
        "ST", "S7", ("KD", "U'", "data"), (),
        lambda run: [*run.got["data"].labeled, *run.got["U'"]],
    ),
)


_PLANNED_LM = object()  # stands in for the LM in `plan_stages`; never scored


def plan_stages(config: PipelineConfig) -> list:
    """The dry-run listing: the six stages that write a stage report, their
    dependencies, and settings."""
    plan = []
    for stage in STAGES:
        if _report_paths("reports", stage.name)[0] not in stage.files:
            continue
        entry = {
            "stage": stage.name,
            "alias": stage.alias,
            "depends_on": list(stage.reads),
            "updates": config.updates.get(stage.name, 0),
        }
        if stage.name == "U'":
            # U' decodes with the LM stage's model fused; a plan has none
            # yet, and the record says only that one is attached
            entry["decode"] = config.decode_config(_PLANNED_LM).to_dict()
        plan.append(entry)
    return plan


def input_keys(config: PipelineConfig) -> dict:
    """Stage name -> sha256 of the config fields its row names and of its
    `_FORMATS` entry."""
    values = config.to_dict()
    keys = {}
    for stage in STAGES:
        picked = {}
        for name in stage.fields:
            top, _, sub = name.partition(".")
            picked[name] = values[top].get(sub) if sub else values[top]
        blob = {"fields": picked, "format": _FORMATS.get(stage.name)}
        data = json.dumps(blob, sort_keys=True).encode("utf-8")
        keys[stage.name] = hashlib.sha256(data).hexdigest()
    return keys


def _sha256(path) -> str | None:
    """The file's sha256; None, which matches no record, when it is missing."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _record(stage: Stage, keys: dict, digests: dict) -> dict:
    """The stage's input key, the digests of the files handed on by the
    stages it reads (those outside `reports/`) and of its own files."""
    handed = [f for s in STAGES if s.name in stage.reads for f in s.files]
    reads = {f: digests[f] for f in handed if os.path.dirname(f) != "reports"}
    return {"key": keys[stage.name], "reads": reads, "files": {f: digests[f] for f in stage.files}}


def run_two_stage(config: PipelineConfig, jobs: int = 1):
    """Execute the full six-stage recipe (`plan_stages` lists it).

    Returns the ordered stage reports for S, T, KD, N, U', ST, each read
    back by its row's `load`. With `resume` set, a stage whose record is
    unchanged is loaded without being produced again. `jobs` parallelizes
    pseudo-label decoding without changing results; it must be >= 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    for sub in ("checkpoints", "data", "reports"):
        os.makedirs(os.path.join(config.out_dir, sub), exist_ok=True)
    keys = input_keys(config)
    record_file, records = os.path.join(config.out_dir, _RECORDS_FILE), {}
    if config.resume and os.path.exists(record_file):
        with open(record_file) as fh:
            try:
                records = json.load(fh)
            except ValueError:
                records = None
        if not isinstance(records, dict):
            raise ValueError(f"{record_file} does not hold a JSON object of stage records")
    digests = {f: _sha256(os.path.join(config.out_dir, f)) for s in STAGES for f in s.files}

    base = _Run(config, jobs)
    started = time.perf_counter()
    values, reports, recomputed = {}, {}, []
    for stage in STAGES:
        run = replace(base, got={name: values[name] for name in stage.reads})
        paths = [run.path(f) for f in stage.files]
        if records.get(stage.name) != _record(stage, keys, digests):
            stage.produce(run, paths)
            digests.update((f, _sha256(p)) for f, p in zip(stage.files, paths))
            records[stage.name] = _record(stage, keys, digests)
            with open(record_file + ".tmp", "w") as fh:  # replaced whole, never half written
                json.dump(records, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(record_file + ".tmp", record_file)
            recomputed.append(stage.name)
        values[stage.name], report = stage.load(run, paths)
        if report is not None:
            reports[stage.name] = report

    split = values["data"]
    summary = {
        "config": config.to_dict(),
        "config_digest": config_digest(config),
        "aliases": {s.name: s.alias for s in STAGES if s.alias},
        "pretrain_updates": config.updates.get("pretrain", 0),
        "stage_digests": {s: r.digest for s, r in reports.items()},
        "dev_token_error": {s: r.dev_token_error for s, r in reports.items()},
        "conservation": {
            "labeled": len(split.labeled),
            "unlabeled": len(split.unlabeled),
            "dev": len(split.dev),
            "kd_consumed": reports["KD"].utterances_in,
            "pseudo_labeled": len(values["U'"]),
            "pseudo_dropped": reports["U'"].extra.get("dropped", 0),
            "st_consumed": reports["ST"].utterances_in,
        },
        "total_updates": sum(len(r.losses) for r in reports.values()),
        "recomputed": recomputed,
        "wall_time_s": time.perf_counter() - started,
    }
    with open(base.path("reports", "pipeline.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return list(reports.values())
