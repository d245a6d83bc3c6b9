"""Character-level n-gram language model for shallow fusion.

Additive-k estimates over the declared vocabulary with backoff to the
longest stored shorter context when a context was never seen in training
(all context tables, for every order up to n-1, are materialized at
training time). Each context's distribution is normalized over the
vocabulary itself; sequence ends are not modeled, since shallow fusion
scores emitted tokens only.

A model saves as one JSON object; a float's repr reads back with the same
bits, so a save/load round trip keeps every log-prob.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .vocab import Vocabulary

START = "<s>"
UNK = "<unk>"

FORMAT_VERSION = 3
_FIELDS = {"format", "order", "smoothing", "vocab", "tokens"}


class LmFormatError(ValueError):
    """Raised when a saved model cannot be loaded; the message names the
    file and the field at fault."""


@dataclass(frozen=True)
class NgramModel:
    """Immutable n-gram tables: context tuple -> token -> log-prob. Every
    stored context holds a log-prob for each vocabulary token and `UNK`,
    and for no other token."""

    order: int
    vocab: tuple
    smoothing: float
    tokens: dict

    def __post_init__(self):
        _check_order(self.order)
        if () not in self.tokens:
            raise ValueError("model must store the empty context")
        _check_tables(self.vocab, self.tokens)


def _as_tokens(sequence) -> list:
    return [str(t) for t in sequence]


def _check_order(order: int) -> int:
    if order < 1:
        raise ValueError("order must be >= 1")
    return order


def _check_smoothing(smoothing: float) -> float:
    if not (math.isfinite(smoothing) and smoothing > 0):
        raise ValueError("smoothing must be > 0 and finite")
    return smoothing


def _check_vocab(vocab: tuple) -> tuple:
    """`vocab` if its tokens are non-empty, whitespace-free, distinct and
    not reserved; otherwise a ValueError naming the first bad one."""
    if not vocab:
        raise ValueError("vocabulary is empty")
    seen = set()
    for t in vocab:
        if not isinstance(t, str) or not t or any(c.isspace() for c in t):
            raise ValueError(f"bad vocabulary token {t!r}")
        if t in (START, UNK):
            raise ValueError(f"{t!r} is reserved")
        if t in seen:
            raise ValueError(f"duplicate vocabulary token {t!r}")
        seen.add(t)
    return vocab


def _check_tables(vocab: tuple, tokens: dict):
    """A ValueError naming the first context (in sorted order) whose table
    misses a token of `vocab` or `UNK`, or holds any other token."""
    expected = {*vocab, UNK}
    for ctx in sorted(tokens):
        table = tokens[ctx]
        if table.keys() == expected:
            continue
        where = f"context {' '.join(ctx)!r}" if ctx else "the empty context"
        missing = sorted(expected - table.keys())
        if missing:
            raise ValueError(f"{where} has no log-prob for token {missing[0]!r}")
        extra = sorted(table.keys() - expected)[0]
        raise ValueError(f"{where} has a log-prob for {extra!r}, not a vocabulary token")


def train_ngram(corpus, order: int, smoothing: float, vocab=None) -> NgramModel:
    """Estimate an order-n model from an iterable of token sequences.

    Sequences may be strings (characters as tokens) or iterables of
    string tokens. When `vocab` is omitted it is the sorted set of corpus
    tokens. Tokens must be non-empty, whitespace-free, and distinct from
    the reserved symbols.
    """
    _check_order(order)
    _check_smoothing(smoothing)
    sequences = [_as_tokens(seq) for seq in corpus]
    if not sequences:
        raise ValueError("corpus is empty")

    if vocab is None:
        vocab = sorted({t for seq in sequences for t in seq})
    vocab = _check_vocab(tuple(str(t) for t in vocab))
    known = set(vocab)

    counts = {}  # context -> token -> count
    for seq in sequences:
        toks = [t if t in known else UNK for t in seq]
        padded = [START] * (order - 1) + toks
        for i in range(order - 1, len(padded)):
            tok = padded[i]
            for length in range(order):
                ctx = tuple(padded[i - length : i])
                counts.setdefault(ctx, {}).setdefault(tok, 0)
                counts[ctx][tok] += 1
        # a context a sequence ends in is stored even when no token follows
        # it, so a later lookup there does not back off to a shorter one
        for length in range(order):
            counts.setdefault(tuple(padded[len(padded) - length :]), {})

    k = float(smoothing)
    v = len(vocab)
    tokens = {}
    for ctx, per_tok in counts.items():
        denom = sum(per_tok.values()) + k * v
        table = {t: math.log((per_tok.get(t, 0) + k) / denom) for t in vocab}
        table[UNK] = math.log(k / denom)
        tokens[ctx] = table
    return NgramModel(order=order, vocab=vocab, smoothing=k, tokens=tokens)


def _window(model: NgramModel, context) -> tuple:
    known = model.tokens[()]
    ctx = [t if t in known or t == START else UNK for t in context]
    return tuple(ctx[max(0, len(ctx) - (model.order - 1)) :])


def logp(model: NgramModel, token: str, context) -> float:
    """Conditional log-prob of one token after `context` (longest stored
    suffix wins; out-of-vocabulary tokens score as the unknown symbol)."""
    token = str(token)
    if token not in model.tokens[()]:
        token = UNK
    ctx = _window(model, context)
    while ctx not in model.tokens:
        ctx = ctx[1:]
    return model.tokens[ctx][token]


class FusionLm:
    """Adapter from decoder token ids to the character model: translates
    ids through the recognizer vocabulary and pads utterance starts."""

    def __init__(self, model: NgramModel, vocabulary: Vocabulary):
        self.model = model
        self.vocabulary = vocabulary

    def logp(self, token_id: int, context_ids) -> float:
        chars = [self.vocabulary.char_of(i) for i in context_ids]
        pad = self.model.order - 1 - len(chars)
        if pad > 0:
            chars = [START] * pad + chars
        return logp(self.model, self.vocabulary.char_of(token_id), chars)


def save_lm(model: NgramModel, path) -> str:
    """Write one JSON object with sorted keys, each table keyed by the
    space-joined context; a float's repr reads back with the same bits.
    Returns the file's sha256 digest."""
    payload = {
        "format": FORMAT_VERSION,
        "order": model.order,
        "smoothing": model.smoothing,
        "vocab": list(model.vocab),
        "tokens": {" ".join(ctx): table for ctx, table in model.tokens.items()},
    }
    blob = (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(blob)
    return hashlib.sha256(blob).hexdigest()


def _unique_keys(pairs) -> dict:
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return dict(pairs)


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"bad log-prob {value!r}")
    return value


def _field(path, name: str, value, kind, check=lambda v: v):
    """`check(value)` if `value` is a JSON `kind` (`float`: any number); else,
    or if the check fails, an LmFormatError naming the file and the field."""
    number = kind is float and type(value) in (int, float)
    try:
        if not number and type(value) is not kind:
            raise ValueError(f"expected {kind.__name__}, got {value!r}")
        return check(float(value) if number else value)
    except (ValueError, OverflowError) as exc:
        raise LmFormatError(f"{path}: {name}: {exc}") from None


def _table(path, name: str, value) -> dict:
    """A saved `tokens` table, context -> token -> finite log-prob."""
    return {
        ctx: {
            tok: _field(path, f"{name}[{ctx!r}][{tok!r}]", lp, float, _finite)
            for tok, lp in _field(path, f"{name}[{ctx!r}]", per_tok, dict).items()
        }
        for ctx, per_tok in _field(path, name, value, dict).items()
    }


def load_lm(path) -> NgramModel:
    """Read what `save_lm` wrote, checked as `train_ngram` checks its
    arguments and `NgramModel` its tables."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.startswith(b"ngram "):  # lm.txt, the line format from before JSON
        raise LmFormatError(f"{path}: an LM in the text format from before JSON, which is "
                            "no longer read; train it again with train-lm")
    try:
        payload = json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise LmFormatError(f"{path}: {exc}") from None
    payload = _field(path, "the file", payload, dict)
    odd = sorted(_FIELDS ^ payload.keys())
    if odd:
        raise LmFormatError(f"{path}: {odd[0]}: {'missing' if odd[0] in _FIELDS else 'unknown'}")
    if payload["format"] != FORMAT_VERSION:
        raise LmFormatError(f"{path}: format: unsupported version {payload['format']!r}")
    order = _field(path, "order", payload["order"], int, _check_order)
    smoothing = _field(path, "smoothing", payload["smoothing"], float, _check_smoothing)
    vocab = _field(path, "vocab", payload["vocab"], list, lambda v: _check_vocab(tuple(v)))
    table = _table(path, "tokens", payload["tokens"])
    if "" not in table:
        raise LmFormatError(f"{path}: tokens: the empty context is missing")
    tokens = {tuple(ctx.split(" ")) if ctx else (): v for ctx, v in table.items()}
    _field(path, "tokens", tokens, dict, lambda t: _check_tables(vocab, t))
    return NgramModel(order=order, vocab=vocab, smoothing=smoothing, tokens=tokens)
