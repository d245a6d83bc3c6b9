"""Character-level n-gram language model for shallow fusion.

Additive-k estimates over the declared vocabulary with backoff to the
longest stored shorter context when a context was never seen in training
(all context tables, for every order up to n-1, are materialized at
training time). Sequence ends are modeled separately per context as an
add-k Bernoulli "stop" probability, so token distributions stay
normalized over the vocabulary itself.

Models serialize to a line-oriented text format; log probabilities are
written with 17 significant digits so a save/load round trip is
bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .vocab import Vocabulary

START = "<s>"
UNK = "<unk>"

FORMAT_VERSION = 1


class LmFormatError(ValueError):
    """Raised with a line number when a model file cannot be parsed."""


@dataclass(frozen=True)
class NgramModel:
    """Immutable n-gram tables: context tuple -> token -> log-prob, plus a
    per-context log-probability of the sequence ending there. Every stored
    context holds a log-prob for each vocabulary token and `UNK`, and for
    no other token."""

    order: int
    vocab: tuple
    smoothing: float
    tokens: dict
    ends: dict

    def __post_init__(self):
        _check_order(self.order)
        if () not in self.tokens or () not in self.ends:
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
        if not t or any(c.isspace() for c in t):
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
        where = f"context {_ctx_field(ctx)!r}" if ctx else "the empty context"
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
    eos = {}  # context -> end-of-sequence count
    for seq in sequences:
        toks = [t if t in known else UNK for t in seq]
        padded = [START] * (order - 1) + toks
        for i in range(order - 1, len(padded)):
            tok = padded[i]
            for length in range(order):
                ctx = tuple(padded[i - length : i])
                counts.setdefault(ctx, {}).setdefault(tok, 0)
                counts[ctx][tok] += 1
        for length in range(order):
            ctx = tuple(padded[len(padded) - length :])
            counts.setdefault(ctx, {})
            eos[ctx] = eos.get(ctx, 0) + 1

    k = float(smoothing)
    v = len(vocab)
    tokens = {}
    ends = {}
    for ctx, per_tok in counts.items():
        emitted = sum(per_tok.values())
        denom = emitted + k * v
        table = {t: math.log((per_tok.get(t, 0) + k) / denom) for t in vocab}
        table[UNK] = math.log(k / denom)
        tokens[ctx] = table
        stops = eos.get(ctx, 0)
        ends[ctx] = math.log((stops + k) / (emitted + stops + 2.0 * k))
    return NgramModel(
        order=order, vocab=vocab, smoothing=k, tokens=tokens, ends=ends
    )


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


def end_logp(model: NgramModel, context) -> float:
    """Log-prob that the sequence stops after `context`."""
    ctx = _window(model, context)
    while ctx not in model.ends:
        ctx = ctx[1:]
    return model.ends[ctx]


def score(model: NgramModel, sequence, boundaries: bool = True) -> float:
    """Total log-prob of a token sequence.

    With `boundaries` (the default) the context starts at sentence-start
    padding and the per-context stop probability of the final context is
    added, so the empty sequence scores log p(end | start context). Without
    boundaries the result is the bare chain-rule sum of the per-token
    conditionals, which is additive over concatenation.
    """
    toks = _as_tokens(sequence)
    history = [START] * (model.order - 1) if boundaries else []
    total = 0.0
    for tok in toks:
        total += logp(model, tok, history)
        history.append(tok)
    if boundaries:
        total += end_logp(model, history)
    return total


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


def _ctx_field(ctx: tuple) -> str:
    return " ".join(ctx)


def _parse_ctx(field: str) -> tuple:
    return tuple(field.split(" ")) if field else ()


def save_lm(model: NgramModel, path):
    """Write the line-oriented text format (17 significant digits)."""
    lines = [
        f"ngram {FORMAT_VERSION}",
        f"order {model.order}",
        f"smoothing {model.smoothing:.17g}",
        "vocab " + " ".join(model.vocab),
    ]
    token_lines = []
    for ctx in sorted(model.tokens):
        table = model.tokens[ctx]
        for tok in sorted(table):
            token_lines.append(f"{_ctx_field(ctx)}\t{tok}\t{table[tok]:.17g}")
    end_lines = [
        f"{_ctx_field(ctx)}\t{model.ends[ctx]:.17g}" for ctx in sorted(model.ends)
    ]
    lines.append(f"tokens {len(token_lines)}")
    lines.extend(token_lines)
    lines.append(f"ends {len(end_lines)}")
    lines.extend(end_lines)
    lines.append(f"end {len(token_lines) + len(end_lines)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _expect(lines, i: int, key: str) -> str:
    if i >= len(lines):
        raise LmFormatError(f"line {i + 1}: file ends before '{key}'")
    line = lines[i]
    if not line.startswith(key + " "):
        raise LmFormatError(f"line {i + 1}: expected '{key} ...', got {line!r}")
    return line[len(key) + 1 :]


def _int_field(value: str, i: int, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise LmFormatError(f"line {i + 1}: bad {key} count {value!r}") from None


def _logprob_field(value: str, i: int) -> float:
    """A table line's log-prob; a non-number or a non-finite value is an
    error naming the line."""
    try:
        logprob = float(value)
    except ValueError:
        logprob = math.nan
    if not math.isfinite(logprob):
        raise LmFormatError(f"line {i + 1}: bad log-prob {value!r}")
    return logprob


def _header_field(lines, i: int, key: str, parse, check):
    """Header line `i`'s value, parsed and checked as `train_ngram` checks
    it; an error names the line."""
    value = _expect(lines, i, key)
    try:
        return check(parse(value))
    except ValueError as exc:
        raise LmFormatError(f"line {i + 1}: bad {key} {value!r}: {exc}") from None


def load_lm(path) -> NgramModel:
    """Parse a saved model; errors carry the offending line number."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    version = _expect(lines, 0, "ngram")
    if version != str(FORMAT_VERSION):
        raise LmFormatError(f"line 1: unsupported format version {version!r}")
    order = _header_field(lines, 1, "order", int, _check_order)
    smoothing = _header_field(lines, 2, "smoothing", float, _check_smoothing)
    vocab = _header_field(
        lines, 3, "vocab", lambda v: tuple(t for t in v.split(" ") if t), _check_vocab
    )

    n_tokens = _int_field(_expect(lines, 4, "tokens"), 4, "token")
    tokens = {}
    pos = 5
    for j in range(n_tokens):
        i = pos + j
        if i >= len(lines):
            raise LmFormatError(f"line {i + 1}: truncated token section")
        parts = lines[i].split("\t")
        if len(parts) != 3:
            raise LmFormatError(f"line {i + 1}: expected context\\ttoken\\tlogprob")
        tokens.setdefault(_parse_ctx(parts[0]), {})[parts[1]] = _logprob_field(parts[2], i)
    try:
        _check_tables(vocab, tokens)
    except ValueError as exc:
        raise LmFormatError(f"line {pos}: token section: {exc}") from None
    pos += n_tokens

    n_ends = _int_field(_expect(lines, pos, "ends"), pos, "end")
    ends = {}
    pos += 1
    for j in range(n_ends):
        i = pos + j
        if i >= len(lines):
            raise LmFormatError(f"line {i + 1}: truncated end section")
        parts = lines[i].split("\t")
        if len(parts) != 2:
            raise LmFormatError(f"line {i + 1}: expected context\\tlogprob")
        ends[_parse_ctx(parts[0])] = _logprob_field(parts[1], i)
    pos += n_ends

    footer = _int_field(_expect(lines, pos, "end"), pos, "footer")
    if footer != n_tokens + n_ends:
        raise LmFormatError(f"line {pos + 1}: footer count mismatch")
    if pos + 1 != len(lines):
        raise LmFormatError(f"line {pos + 2}: unexpected content after footer")

    try:
        return NgramModel(
            order=order, vocab=vocab, smoothing=smoothing, tokens=tokens, ends=ends
        )
    except ValueError as exc:
        raise LmFormatError(f"line {len(lines)}: {exc}") from None
