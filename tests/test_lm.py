"""Character n-gram training, scoring, backoff, and text round trips."""

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
    end_logp,
    load_lm,
    logp,
    save_lm,
    score,
    train_ngram,
)
from streamctc.vocab import Vocabulary


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


def test_end_model_is_a_proper_bernoulli():
    model = train_ngram(["aa"], order=1, smoothing=1.0, vocab=("a", "b"))
    # two token emissions and one stop from the empty context
    assert math.isclose(math.exp(end_logp(model, [])), 2.0 / 5.0, rel_tol=1e-15)


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


def test_empty_sequence_scores_end_probability_only():
    model = train_ngram(["aa", "ab"], order=2, smoothing=1.0, vocab=("a", "b"))
    assert score(model, "") == end_logp(model, [START])


def test_score_matches_hand_arithmetic_on_unigram_model():
    model = train_ngram(["aa"], order=1, smoothing=1.0, vocab=("a", "b"))
    want = math.log(3.0 / 4.0) + math.log(1.0 / 4.0) + math.log(2.0 / 5.0)
    assert abs(score(model, "ab") - want) < 1e-12


def test_boundary_free_score_is_chain_rule_sum():
    rng = np.random.default_rng(1)
    model = train_ngram(
        random_corpus(rng, 20), order=3, smoothing=1.0, vocab=("a", "b", "|")
    )
    s1, s2 = "ab|a", "ba"
    joint = score(model, s1 + s2, boundaries=False)
    parts = score(model, s1, boundaries=False)
    history = list(s1)
    for ch in s2:
        parts += logp(model, ch, history)
        history.append(ch)
    assert joint == parts


def test_order_one_score_is_exact_sum_of_unigrams():
    model = train_ngram(["abba"], order=1, smoothing=0.5, vocab=("a", "b"))
    seq = "abab"
    want = sum(model.tokens[()][ch] for ch in seq)
    assert score(model, seq, boundaries=False) == want


def test_score_is_deterministic():
    model = train_ngram(["ab", "ba"], order=2, smoothing=1.0, vocab=("a", "b"))
    values = {score(model, "abba") for _ in range(5)}
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
    assert loaded.ends == model.ends
    for _ in range(100):
        seq = "".join(
            np.random.default_rng(int(rng.integers(0, 2**32))).choice(
                list(string.ascii_lowercase + "|"), size=int(rng.integers(0, 10))
            )
        )
        assert score(loaded, seq) == score(model, seq)
        assert score(loaded, seq, boundaries=False) == score(
            model, seq, boundaries=False
        )


def test_load_rejects_version_mismatch(tmp_path):
    model = train_ngram(["ab"], order=1, smoothing=1.0)
    path = tmp_path / "model.lm"
    save_lm(model, path)
    lines = path.read_text().splitlines()
    lines[0] = "ngram 99"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LmFormatError, match="line 1"):
        load_lm(path)


def test_load_rejects_truncation(tmp_path):
    model = train_ngram(["ab", "ba"], order=2, smoothing=1.0)
    path = tmp_path / "model.lm"
    save_lm(model, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(LmFormatError):
        load_lm(path)


def test_load_rejects_malformed_line_with_line_number(tmp_path):
    model = train_ngram(["ab"], order=1, smoothing=1.0)
    path = tmp_path / "model.lm"
    save_lm(model, path)
    lines = path.read_text().splitlines()
    lines[6] = "not a real line"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LmFormatError, match="line 7"):
        load_lm(path)


def test_load_rejects_trailing_garbage(tmp_path):
    model = train_ngram(["ab"], order=1, smoothing=1.0)
    path = tmp_path / "model.lm"
    save_lm(model, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("extra\n")
    with pytest.raises(LmFormatError):
        load_lm(path)


def test_load_rejects_non_numeric_logprob(tmp_path):
    model = train_ngram(["ab"], order=1, smoothing=1.0)
    path = tmp_path / "model.lm"
    save_lm(model, path)
    lines = path.read_text().splitlines()
    parts = lines[6].split("\t")
    parts[-1] = "xyz"
    lines[6] = "\t".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LmFormatError, match="line 7"):
        load_lm(path)


@pytest.mark.parametrize("section", ["tokens", "ends"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_logprob(tmp_path, section, value):
    # one nan log-prob once loaded, and fused decoding then ranked nan
    # scores and returned empty hypotheses
    model = train_ngram(["ab|ba", "aab"], order=2, smoothing=0.5)
    path = tmp_path / "model.lm"
    save_lm(model, path)
    lines = path.read_text().splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(section + " ")) + 2
    parts = lines[index].split("\t")
    parts[-1] = value
    lines[index] = "\t".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LmFormatError, match=f"^line {index + 1}: bad log-prob '{value}'"):
        load_lm(path)


def test_model_requires_empty_context():
    with pytest.raises(ValueError):
        NgramModel(order=1, vocab=("a",), smoothing=1.0, tokens={}, ends={})


@pytest.mark.parametrize(
    "index, line, message",
    [
        (1, "order 0", "order must be >= 1"),
        (1, "order two", "bad order"),
        (2, "smoothing nan", "smoothing must be > 0"),
        (2, "smoothing -1", "smoothing must be > 0"),
        (2, "smoothing inf", "smoothing must be > 0 and finite"),
        (3, "vocab a a b |", "duplicate vocabulary token 'a'"),
        (3, "vocab a <s> |", "'<s>' is reserved"),
        (3, "vocab ", "vocabulary is empty"),
    ],
    ids=["order-0", "order-word", "smoothing-nan", "smoothing-negative", "smoothing-inf",
         "vocab-repeat", "vocab-reserved", "vocab-empty"],
)
def test_load_checks_each_header_line(tmp_path, index, line, message):
    # header lines are checked as train_ngram checks its arguments, and the
    # error names the header line, not the end of the file
    model = train_ngram(["ab|ba", "aab"], order=3, smoothing=0.5)
    path = tmp_path / "model.lm"
    save_lm(model, path)
    lines = path.read_text().splitlines()
    lines[index] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LmFormatError, match=f"^line {index + 1}: .*{re.escape(message)}"):
        load_lm(path)


def _drop_token_line(path, context, token):
    """Delete one `context\\ttoken\\t...` line of a saved model and fix the
    tokens count and the footer, so only the missing log-prob is wrong."""
    lines = path.read_text().splitlines()
    index = next(
        i for i, line in enumerate(lines) if line.startswith(f"{context}\t{token}\t")
    )
    del lines[index]
    n_tokens = int(lines[4].split()[1])
    lines[4] = f"tokens {n_tokens - 1}"
    lines[-1] = f"end {int(lines[-1].split()[1]) - 1}"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "context, where",
    [("a", "context 'a'"), ("", "the empty context")],
    ids=["stored-context", "empty-context"],
)
def test_load_rejects_a_context_missing_a_token(tmp_path, context, where):
    # without the `a\tb` line, logp(model, "b", ["a"]) raised KeyError('b');
    # without the empty context's `b` line, "b" silently scored as <unk>
    model = train_ngram(["ab", "ba"], order=2, smoothing=1.0)
    assert logp(model, "b", ["a"]) == model.tokens[("a",)]["b"]
    path = tmp_path / "model.lm"
    save_lm(model, path)
    _drop_token_line(path, context, "b")
    with pytest.raises(LmFormatError, match=f"^line 5: .*{where} has no log-prob for token 'b'"):
        load_lm(path)


def test_model_rejects_tables_that_differ_from_the_vocabulary():
    model = train_ngram(["ab", "ba"], order=2, smoothing=1.0)
    tokens = {ctx: dict(table) for ctx, table in model.tokens.items()}
    del tokens[("b",)][UNK]
    with pytest.raises(ValueError, match="context 'b' has no log-prob for token '<unk>'"):
        NgramModel(order=2, vocab=model.vocab, smoothing=1.0, tokens=tokens, ends=model.ends)
    tokens = {ctx: dict(table) for ctx, table in model.tokens.items()}
    tokens[()]["c"] = -1.0
    with pytest.raises(ValueError, match="empty context has a log-prob for 'c'"):
        NgramModel(order=2, vocab=model.vocab, smoothing=1.0, tokens=tokens, ends=model.ends)
