"""Character n-gram training, scoring, backoff, and JSON round trips."""

import hashlib
import json
import math
import re
import string

import numpy as np
import pytest

from streamctc.lm import (
    START,
    UNK,
    FusionLm,
    LmFormatError,
    NgramModel,
    load_lm,
    logp,
    save_lm,
    train_ngram,
)
from streamctc.vocab import Vocabulary


def chain(model, sequence, history=()) -> float:
    """The chain-rule sum of the per-token log-probs of `sequence` after
    `history`."""
    history = list(history)
    total = 0.0
    for tok in sequence:
        total += logp(model, tok, history)
        history.append(tok)
    return total


def random_corpus(rng, n_seqs, alphabet="ab|", max_len=12):
    out = []
    for _ in range(n_seqs):
        n = int(rng.integers(0, max_len + 1))
        out.append("".join(rng.choice(list(alphabet), size=n)))
    return out


# ------------------------------------------------------------------ training


def test_add_one_unigram_arithmetic():
    model = train_ngram(["aa"], order=1, smoothing=1.0, vocab=("a", "b"))
    assert math.isclose(math.exp(logp(model, "a", [])), 3.0 / 4.0, rel_tol=1e-15)
    assert math.isclose(math.exp(logp(model, "b", [])), 1.0 / 4.0, rel_tol=1e-15)


def test_unseen_context_backs_off_to_shorter_estimate():
    model = train_ngram(["ab"], order=2, smoothing=1.0, vocab=("a", "b"))
    # context never visited in training: falls back to the unigram table
    assert logp(model, "a", ["q"]) == logp(model, "a", [])
    # visited context is answered at full order and differs from the unigram
    assert logp(model, "b", ["a"]) != logp(model, "b", [])
    assert math.isclose(
        math.exp(logp(model, "b", ["a"])), 2.0 / 3.0, rel_tol=1e-15
    )


def test_per_context_normalization():
    rng = np.random.default_rng(0)
    for order in (1, 2, 3):
        model = train_ngram(
            random_corpus(rng, 30), order=order, smoothing=0.5, vocab=("a", "b", "|")
        )
        for ctx, table in model.tokens.items():
            total = sum(math.exp(table[t]) for t in model.vocab)
            assert abs(total - 1.0) < 1e-9, ctx


def test_token_tables_are_pinned():
    # every log-prob of a trained model keeps the bits it had while the
    # model also stored an end-of-sequence table
    model = train_ngram(["ab|ba", "aab|b", "ba", "abc|cab|a"], order=3, smoothing=0.2)
    table = json.dumps({" ".join(k): v for k, v in model.tokens.items()}, sort_keys=True)
    assert hashlib.sha256(table.encode()).hexdigest() == (
        "be6adf5b99a389a7b3d7ca3c265ca2c70a035549b842abca4ea2308dd0c4c08d"
    )


def test_training_rejects_bad_inputs():
    with pytest.raises(ValueError):
        train_ngram([], order=1, smoothing=1.0)
    with pytest.raises(ValueError):
        train_ngram(["a"], order=0, smoothing=1.0)
    with pytest.raises(ValueError):
        train_ngram(["a"], order=1, smoothing=0.0)
    with pytest.raises(ValueError):
        train_ngram(["a"], order=1, smoothing=float("nan"))
    with pytest.raises(ValueError):
        train_ngram(["a"], order=1, smoothing=1.0, vocab=("a", "a"))
    with pytest.raises(ValueError):
        train_ngram(["a"], order=1, smoothing=1.0, vocab=("a", START))
    with pytest.raises(ValueError):
        train_ngram(["a"], order=1, smoothing=1.0, vocab=("a", "b c"))


def test_training_rejects_infinite_smoothing():
    # `not inf > 0` is False, so a bare positivity check let it through
    with pytest.raises(ValueError, match="smoothing must be > 0 and finite"):
        train_ngram(["a"], order=1, smoothing=math.inf)


def test_vocab_defaults_to_sorted_corpus_tokens():
    model = train_ngram(["ba", "cab"], order=1, smoothing=1.0)
    assert model.vocab == ("a", "b", "c")


def test_out_of_vocabulary_tokens_count_as_unknown():
    model = train_ngram(["az"], order=2, smoothing=1.0, vocab=("a", "b"))
    # "z" trained as the unknown pseudo-token, reachable at scoring time too
    assert logp(model, "z", ["a"]) == model.tokens[("a",)][UNK]
    assert logp(model, "b", ["z"]) == model.tokens[(UNK,)]["b"]


# ------------------------------------------------------------------- scoring


def test_a_context_seen_only_where_a_sequence_ends_is_stored():
    # "b" ends "ab" and never precedes a token, yet its context is stored,
    # so a token after "b" scores at full order instead of backing off
    model = train_ngram(["aa", "ab", ""], order=2, smoothing=1.0, vocab=("a", "b"))
    assert set(model.tokens) == {(), (START,), ("a",), ("b",)}
    assert logp(model, "a", ["b"]) == math.log(1.0 / 2.0) != logp(model, "a", [])
    assert chain(model, "", [START]) == 0.0


def test_score_matches_hand_arithmetic_on_unigram_model():
    model = train_ngram(["aa"], order=1, smoothing=1.0, vocab=("a", "b"))
    want = math.log(3.0 / 4.0) + math.log(1.0 / 4.0)
    assert abs(chain(model, "ab") - want) < 1e-12


def test_boundary_free_score_is_chain_rule_sum():
    rng = np.random.default_rng(1)
    model = train_ngram(
        random_corpus(rng, 20), order=3, smoothing=1.0, vocab=("a", "b", "|")
    )
    s1, s2 = "ab|a", "ba"
    parts = chain(model, s1)
    history = list(s1)
    for ch in s2:
        # a context longer than order - 1 backs off to its last two tokens
        assert logp(model, ch, history) == logp(model, ch, history[-2:])
        parts += logp(model, ch, history)
        history.append(ch)
    assert chain(model, s1 + s2) == parts


def test_order_one_score_is_exact_sum_of_unigrams():
    model = train_ngram(["abba"], order=1, smoothing=0.5, vocab=("a", "b"))
    seq = "abab"
    want = sum(model.tokens[()][ch] for ch in seq)
    assert chain(model, seq) == want
    # an order-1 model ignores any context
    assert chain(model, seq, [START, "b"]) == want


def test_score_is_deterministic():
    corpus = ["ab", "ba"]
    values = {
        chain(train_ngram(corpus, order=2, smoothing=1.0, vocab=("a", "b")), "abba", [START])
        for _ in range(5)
    }
    assert len(values) == 1


# ------------------------------------------------------------------- fusion


def test_fusion_adapter_translates_ids_and_pads_starts():
    vocabulary = Vocabulary.default()
    model = train_ngram(
        ["ab|ba", "aab"], order=3, smoothing=1.0, vocab=("a", "b", "|")
    )
    fusion = FusionLm(model, vocabulary)
    a = vocabulary.encode("a").tokens[0]
    b = vocabulary.encode("b").tokens[0]
    assert fusion.logp(a, ()) == logp(model, "a", [START, START])
    assert fusion.logp(b, (a,)) == logp(model, "b", [START, "a"])
    assert fusion.logp(b, (a, a, b)) == logp(model, "b", ["a", "a", "b"])


# ------------------------------------------------------------ serialization


def test_round_trip_preserves_scores_bit_exactly(tmp_path):
    rng = np.random.default_rng(2)
    model = train_ngram(
        random_corpus(rng, 40), order=3, smoothing=0.7, vocab=("a", "b", "|")
    )
    path = tmp_path / "model.lm"
    save_lm(model, path)
    loaded = load_lm(path)
    assert loaded.order == model.order
    assert loaded.vocab == model.vocab
    assert loaded.smoothing == model.smoothing
    assert loaded.tokens == model.tokens
    for _ in range(100):
        seq = "".join(
            np.random.default_rng(int(rng.integers(0, 2**32))).choice(
                list(string.ascii_lowercase + "|"), size=int(rng.integers(0, 10))
            )
        )
        assert chain(loaded, seq, [START, START]) == chain(model, seq, [START, START])
        assert chain(loaded, seq) == chain(model, seq)


def test_save_load_save_gives_the_same_bytes(tmp_path):
    model = train_ngram(["ab|ba", "aab"], order=3, smoothing=0.2)
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    save_lm(model, first)
    save_lm(load_lm(first), again)
    assert first.read_bytes() == again.read_bytes()
    payload = json.loads(first.read_text())
    assert list(payload) == ["format", "order", "smoothing", "tokens", "vocab"]
    assert payload["format"] == 3 and payload["vocab"] == ["a", "b", "|"]
    assert payload["tokens"]["a b"] == model.tokens[("a", "b")]


def saved(tmp_path, corpus, order, smoothing):
    path = tmp_path / "model.lm"
    save_lm(train_ngram(corpus, order=order, smoothing=smoothing), path)
    return path


def rewrite(path, edit):
    """Let `edit` change the saved JSON object in place, and write it back."""
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def rejects(path, message):
    """load_lm raises an LmFormatError that starts with the file's name and
    then holds `message`, a regular expression."""
    return pytest.raises(LmFormatError, match=f"^{re.escape(str(path))}: {message}")


def test_load_rejects_version_mismatch(tmp_path):
    path = saved(tmp_path, ["ab"], 1, 1.0)
    rewrite(path, lambda payload: payload.update(format=99))
    with rejects(path, "format: unsupported version 99"):
        load_lm(path)


# the head of an lm.txt in the line-oriented text format from before JSON
OLD_TEXT_LM = "ngram 1\norder 2\nsmoothing 0.20000000000000001\nvocab a b |\n"


def test_load_names_the_text_format_from_before_json(tmp_path):
    path = tmp_path / "lm.txt"
    path.write_text(OLD_TEXT_LM)
    with rejects(path, "an LM in the text format from before JSON"):
        load_lm(path)


def test_load_rejects_truncation(tmp_path):
    path = saved(tmp_path, ["ab", "ba"], 2, 1.0)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with rejects(path, r".*line \d+ column \d+"):
        load_lm(path)


def test_load_rejects_malformed_content_naming_the_field(tmp_path):
    path = saved(tmp_path, ["ab"], 1, 1.0)
    rewrite(path, lambda payload: payload["tokens"].update({"": "not a table"}))
    with rejects(path, r"tokens\[''\]: expected dict, got 'not a table'"):
        load_lm(path)


def test_load_rejects_trailing_garbage(tmp_path):
    path = saved(tmp_path, ["ab"], 1, 1.0)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("extra\n")
    with rejects(path, r"Extra data: line \d+ column 1"):
        load_lm(path)


def test_load_rejects_non_numeric_logprob(tmp_path):
    path = saved(tmp_path, ["ab"], 1, 1.0)
    rewrite(path, lambda payload: payload["tokens"][""].update(a="xyz"))
    with rejects(path, r"tokens\[''\]\['a'\]: expected float, got 'xyz'"):
        load_lm(path)


@pytest.mark.parametrize("section", ["tokens"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_logprob(tmp_path, section, value):
    # one nan log-prob once loaded, and fused decoding then ranked nan
    # scores and returned empty hypotheses
    path = saved(tmp_path, ["ab|ba", "aab"], 2, 0.5)
    rewrite(path, lambda payload: payload[section]["a"].update(b=float(value)))
    with rejects(path, rf"{section}\['a'\]\['b'\]: bad log-prob {value}$"):
        load_lm(path)


def test_model_requires_empty_context():
    with pytest.raises(ValueError):
        NgramModel(order=1, vocab=("a",), smoothing=1.0, tokens={})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("order", 0, "order must be >= 1"),
        ("order", "two", "expected int, got 'two'"),
        ("smoothing", math.nan, "smoothing must be > 0"),
        ("smoothing", -1, "smoothing must be > 0"),
        ("smoothing", math.inf, "smoothing must be > 0 and finite"),
        ("vocab", ["a", "a", "b", "|"], "duplicate vocabulary token 'a'"),
        ("vocab", ["a", "<s>", "|"], "'<s>' is reserved"),
        ("vocab", [], "vocabulary is empty"),
    ],
    ids=["order-0", "order-word", "smoothing-nan", "smoothing-negative", "smoothing-inf",
         "vocab-repeat", "vocab-reserved", "vocab-empty"],
)
def test_load_checks_each_header_line(tmp_path, field, value, message):
    # the header fields are checked as train_ngram checks its arguments,
    # and the error names the field
    path = saved(tmp_path, ["ab|ba", "aab"], 3, 0.5)
    rewrite(path, lambda payload: payload.update({field: value}))
    with rejects(path, f"{field}: .*{re.escape(message)}"):
        load_lm(path)


@pytest.mark.parametrize(
    "context, where",
    [("a", "context 'a'"), ("", "the empty context")],
    ids=["stored-context", "empty-context"],
)
def test_load_rejects_a_context_missing_a_token(tmp_path, context, where):
    # without the `a` context's `b`, logp(model, "b", ["a"]) raised
    # KeyError('b'); without the empty context's `b`, "b" silently scored
    # as <unk>
    model = train_ngram(["ab", "ba"], order=2, smoothing=1.0)
    assert logp(model, "b", ["a"]) == model.tokens[("a",)]["b"]
    path = tmp_path / "model.lm"
    save_lm(model, path)
    rewrite(path, lambda payload: payload["tokens"][context].pop("b"))
    with rejects(path, f"tokens: {where} has no log-prob for token 'b'"):
        load_lm(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda payload: payload.pop("tokens"), "tokens: missing"),
        (lambda payload: payload.update(comment="x"), "comment: unknown"),
        (lambda payload: payload["tokens"].pop(""), "tokens: the empty context is missing"),
        (lambda payload: payload.update(vocab="ab|"), "vocab: expected list, got 'ab|'"),
    ],
    ids=["missing-field", "unknown-field", "no-empty-context", "vocab-string"],
)
def test_load_rejects_a_missing_or_unknown_field(tmp_path, edit, message):
    path = saved(tmp_path, ["ab", "ba"], 2, 1.0)
    rewrite(path, edit)
    with rejects(path, message):
        load_lm(path)


@pytest.mark.parametrize(
    "old, new, key",
    [('{\n "format"', '{\n "order": 1,\n "format"', "order"),
     ('"tokens": {\n  ""', '"tokens": {\n  "a": {},\n  ""', "a")],
    ids=["field", "context"],
)
def test_load_rejects_a_repeated_key(tmp_path, old, new, key):
    # json.load would keep the last value of a repeated key in silence
    path = saved(tmp_path, ["ab", "ba"], 2, 1.0)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with rejects(path, f"repeated key '{key}'$"):
        load_lm(path)


def test_model_rejects_tables_that_differ_from_the_vocabulary():
    model = train_ngram(["ab", "ba"], order=2, smoothing=1.0)
    tokens = {ctx: dict(table) for ctx, table in model.tokens.items()}
    del tokens[("b",)][UNK]
    with pytest.raises(ValueError, match="context 'b' has no log-prob for token '<unk>'"):
        NgramModel(order=2, vocab=model.vocab, smoothing=1.0, tokens=tokens)
    tokens = {ctx: dict(table) for ctx, table in model.tokens.items()}
    tokens[()]["c"] = -1.0
    with pytest.raises(ValueError, match="empty context has a log-prob for 'c'"):
        NgramModel(order=2, vocab=model.vocab, smoothing=1.0, tokens=tokens)
