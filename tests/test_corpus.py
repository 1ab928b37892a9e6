import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorlm.corpus import (
    ANCHOR_TOKEN,
    AnchorPolicy,
    EmptyCorpusError,
    SegmentedText,
    Vocab,
    annotate,
    build_vocab,
    load_blocks,
    pack_training_blocks,
    save_blocks,
    split_sentences,
    tokenize,
)
from anchorlm.errors import ConfigError, ContractError, InputError
from oracles import naive_split_sentences

EP = AnchorPolicy(mode="ep")
AC = AnchorPolicy(mode="ac")


def make_vocab(tmp_path, text, policy, max_size=50):
    p = tmp_path / "corpus.txt"
    p.write_text(text, encoding="utf-8")
    return build_vocab([p], policy, max_size)


# -- build_vocab ---------------------------------------------------------------


def test_vocab_frequency_then_lexicographic(tmp_path):
    vocab = make_vocab(tmp_path, "a a b", EP, max_size=10)
    assert vocab.encode("a") < vocab.encode("b")
    assert vocab.encode("a") == 4  # right after the four specials


def test_vocab_tie_broken_lexicographically(tmp_path):
    vocab = make_vocab(tmp_path, "b a", EP, max_size=10)
    assert vocab.encode("a") < vocab.encode("b")


def test_empty_corpus_error(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("", encoding="utf-8")
    with pytest.raises(EmptyCorpusError):
        build_vocab([p], EP, 10)


def test_unreadable_file_error(tmp_path):
    with pytest.raises(InputError):
        build_vocab([tmp_path / "missing.txt"], EP, 10)


def test_ac_mode_has_anchor_id(tmp_path):
    vocab = make_vocab(tmp_path, "x", AC)
    assert vocab.anchor_id == 4
    assert vocab.encode("x") == 5
    assert vocab.anchor_id != vocab.encode("x")


def test_ep_mode_has_no_anchor_id(tmp_path):
    vocab = make_vocab(tmp_path, "x", EP)
    assert vocab.anchor_id is None


def test_vocab_max_size_cap(tmp_path):
    vocab = make_vocab(tmp_path, "a b c d e", EP, max_size=2)
    assert len(vocab) == 4 + 2
    assert vocab.encode("e") == vocab.unk_id


def test_vocab_file_round_trip(tmp_path):
    vocab = make_vocab(tmp_path, "hello world . <AC>", AC)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    loaded = Vocab.load(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.anchor_id == vocab.anchor_id
    # specials occupy the fixed header order
    assert loaded.id_to_token[:5] == ("<pad>", "<bos>", "<eos>", "<unk>", ANCHOR_TOKEN)


@pytest.mark.parametrize("content", ["", "the\ncat\n", "<pad>\n<bos>\n<unk>\n<eos>\n"],
                         ids=["empty", "no-header", "header-out-of-order"])
def test_vocab_without_special_header_is_input_error(tmp_path, content):
    path = tmp_path / "vocab.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(InputError, match="special-token header"):
        Vocab.load(path)


def test_vocab_inverse_mapping(tmp_path):
    vocab = make_vocab(tmp_path, "the cat sat on the mat .", AC)
    for i, tok in enumerate(vocab.id_to_token):
        assert vocab.token_to_id[tok] == i


def test_corpus_token_never_collides_with_anchor_literal(tmp_path):
    # punctuation-splitting tokenization can never produce "<AC>" as one token
    vocab = make_vocab(tmp_path, "foo <AC> bar", AC)
    assert vocab.id_to_token.count(ANCHOR_TOKEN) == 1


# -- split_sentences --------------------------------------------------------------


def test_split_two_terminated_sentences():
    assert split_sentences("He runs. She waits.") == ["He runs.", "She waits."]


def test_split_no_terminator():
    assert split_sentences("no terminator") == ["no terminator"]


def test_split_mixed_terminators():
    assert split_sentences("Hi! Ok? End.") == ["Hi!", "Ok?", "End."]


def test_split_empty_input():
    assert split_sentences("") == []


def test_split_internal_period_not_boundary():
    assert split_sentences("pi is 3.14 ok.") == ["pi is 3.14 ok."]


def test_split_preserves_token_stream():
    text = "One two. Three!  Four? trailing bits"
    parts = split_sentences(text)
    assert tokenize(" ".join(parts)) == tokenize(text)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.text(alphabet=".!?ab1 \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000\u200b", max_size=30))
def test_split_matches_character_loop(text):
    # whitespace-heavy text, with the Unicode spaces str.isspace knows
    # (U+200B is not one of them)
    assert split_sentences(text) == naive_split_sentences(text)


# -- annotate ----------------------------------------------------------------------


def test_annotate_ep_example(tmp_path):
    vocab = make_vocab(tmp_path, "He runs. She waits.", EP)
    seg = annotate("He runs. She waits.", vocab, EP)
    assert seg.ids == vocab.encode_text("He runs . She waits .")
    assert seg.is_anchor == [False, False, True, False, False, True]
    assert seg.seq_index == [0, 0, 0, 1, 1, 1]


def test_annotate_ac_example(tmp_path):
    vocab = make_vocab(tmp_path, "Hi.", AC)
    seg = annotate("Hi.", vocab, AC)
    assert seg.ids == [vocab.encode("Hi"), vocab.encode("."), vocab.anchor_id]
    assert seg.is_anchor == [False, False, True]
    assert seg.seq_index == [0, 0, 0]


def test_annotate_every_n_example(tmp_path):
    vocab = make_vocab(tmp_path, "t1 t2 t3 t4 t5", AC)
    seg = annotate("t1 t2 t3 t4 t5", vocab, AnchorPolicy(mode="every_n", n=2))
    t = [vocab.encode(f"t{i}") for i in range(1, 6)]
    a = vocab.anchor_id
    assert seg.ids == [t[0], t[1], a, t[2], t[3], a, t[4]]
    assert seg.is_anchor == [False, False, True, False, False, True, False]
    assert seg.seq_index == [0, 0, 0, 1, 1, 1, 2]


def test_annotate_ep_exclamation_not_anchor(tmp_path):
    # '!' closes the sequence but is not an anchor: never compressed
    vocab = make_vocab(tmp_path, "Stop! Go now.", EP)
    seg = annotate("Stop! Go now.", vocab, EP)
    assert seg.is_anchor == [False, False, False, False, True]
    assert seg.seq_index == [0, 0, 1, 1, 1]


def test_annotate_ep_unterminated_tail_has_no_anchor(tmp_path):
    vocab = make_vocab(tmp_path, "Done. half a", EP)
    seg = annotate("Done. half a", vocab, EP)
    assert seg.is_anchor == [False, True, False, False]
    assert seg.seq_index == [0, 0, 1, 1]


def test_annotate_ac_requires_anchor_vocab(tmp_path):
    vocab = make_vocab(tmp_path, "some text.", EP)
    with pytest.raises(ConfigError):
        annotate("some text.", vocab, AC)


def test_annotate_deterministic_random_p(tmp_path):
    vocab = make_vocab(tmp_path, "w " * 50, AC)
    policy = AnchorPolicy(mode="random_p", p=0.3, seed=11)
    a = annotate("w " * 200, vocab, policy)
    b = annotate("w " * 200, vocab, policy)
    assert a.ids == b.ids and a.is_anchor == b.is_anchor and a.seq_index == b.seq_index


def test_random_p_empirical_rate(tmp_path):
    n = 100_000
    vocab = make_vocab(tmp_path, "w", AC)
    p = 0.1
    seg = annotate("w " * n, vocab, AnchorPolicy(mode="random_p", p=p, seed=5))
    inserted = sum(seg.is_anchor)
    se = (p * (1 - p) / n) ** 0.5
    assert abs(inserted / n - p) < 3 * se


def test_annotate_strip_round_trip(tmp_path):
    text = "The cat sat. The dog ran! What now? tail words"
    vocab = make_vocab(tmp_path, text, AC)
    original = vocab.encode_text(text)
    for policy in (
        AC,
        AnchorPolicy(mode="every_n", n=3),
        AnchorPolicy(mode="random_p", p=0.4, seed=2),
    ):
        seg = annotate(text, vocab, policy)
        assert seg.strip_inserted(vocab.anchor_id) == original
    ep_vocab = make_vocab(tmp_path, text, EP)
    seg = annotate(text, ep_vocab, EP)
    assert seg.ids == ep_vocab.encode_text(text)  # ep inserts nothing


def test_annotate_anchor_always_sequence_final(tmp_path):
    text = "a b. c d e. f g? h i j k"
    vocab = make_vocab(tmp_path, text, AC)
    rng = np.random.default_rng(0)
    for policy in (EP, AC, AnchorPolicy(mode="every_n", n=2),
                   AnchorPolicy(mode="random_p", p=0.3, seed=1)):
        use_vocab = vocab if policy.mode != "ep" else make_vocab(tmp_path, text, EP)
        seg = annotate(text, use_vocab, policy)
        seg.validate()
        for t in range(len(seg) - 1):
            if seg.is_anchor[t]:
                assert seg.seq_index[t + 1] == seg.seq_index[t] + 1
    del rng


# -- pack_training_blocks -----------------------------------------------------------


def _plain_seg(n):
    return SegmentedText(ids=list(range(n)), is_anchor=[False] * n, seq_index=[0] * n)


def test_pack_right_truncates():
    blocks = pack_training_blocks([_plain_seg(10)], context_len=8)
    assert len(blocks) == 1
    assert blocks[0].ids == list(range(8))


def test_pack_short_block_unchanged():
    blocks = pack_training_blocks([_plain_seg(3)], context_len=8)
    assert blocks[0].ids == [0, 1, 2]


def test_pack_empty_list():
    assert pack_training_blocks([], context_len=8) == []


def test_pack_seq_index_restarts(tmp_path):
    vocab = make_vocab(tmp_path, "a. b. c.", EP)
    seg = annotate("a. b. c.", vocab, EP)
    blocks = pack_training_blocks([seg], context_len=4)
    assert blocks[0].seq_index[0] == 0


def test_pack_context_len_too_small():
    with pytest.raises(ContractError):
        pack_training_blocks([_plain_seg(3)], context_len=1)


def test_blocks_file_round_trip(tmp_path):
    segs = [
        SegmentedText(ids=[1, 2, 3], is_anchor=[False, True, False], seq_index=[0, 0, 1]),
        _plain_seg(5),
    ]
    path = tmp_path / "blocks.jsonl"
    save_blocks(path, segs)
    loaded = load_blocks(path)
    assert [s.ids for s in loaded] == [s.ids for s in segs]
    assert [s.is_anchor for s in loaded] == [s.is_anchor for s in segs]
    assert [s.seq_index for s in loaded] == [s.seq_index for s in segs]


# -- types ---------------------------------------------------------------------------


def test_segmented_text_validate_rejects_bad_seq():
    with pytest.raises(ContractError):
        SegmentedText(ids=[1, 2], is_anchor=[False, False], seq_index=[0, 2]).validate()
    with pytest.raises(ContractError):
        SegmentedText(ids=[1, 2], is_anchor=[True, False], seq_index=[0, 0]).validate()
    with pytest.raises(ContractError):
        SegmentedText(ids=[1, 2], is_anchor=[False], seq_index=[0, 0]).validate()


def test_policy_validation():
    with pytest.raises(ConfigError):
        AnchorPolicy(mode="every_n", n=0)
    with pytest.raises(ConfigError):
        AnchorPolicy(mode="random_p", p=1.5)
    with pytest.raises(ConfigError):
        AnchorPolicy(mode="nope")


def test_policy_parse():
    assert AnchorPolicy.parse("ep").mode == "ep"
    assert AnchorPolicy.parse("every-n=10").n == 10
    assert AnchorPolicy.parse("random-p=0.1", seed=3).seed == 3
    assert AnchorPolicy.parse("random-p=1e-3").p == 1e-3
    with pytest.raises(ConfigError):
        AnchorPolicy.parse("bogus=1")


@pytest.mark.parametrize("spec", ["every-n=abc", "random-p=x", "every-n"])
def test_policy_parse_rejects_bad_argument(spec):
    with pytest.raises(ConfigError, match=spec):
        AnchorPolicy.parse(spec)
