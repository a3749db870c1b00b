import numpy as np
import pytest
from hypothesis import given, strategies as st

from diarnn.sequences import (
    BlockCounts,
    ChangeIndicators,
    EmbeddingSequence,
    LabelSequence,
    block_counts,
    canonicalize,
    derive_change_indicators,
)

from helpers import extend_block_counts, random_canonical_labels


# ---------------------------------------------------------------- embeddings

def test_embedding_sequence_basic():
    emb = EmbeddingSequence(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert len(emb) == 2
    assert emb.dim == 2
    assert emb.values.dtype == np.float64


def test_embedding_sequence_copies_and_freezes():
    raw = np.array([[1.0, 2.0]])
    emb = EmbeddingSequence(raw)
    raw[0, 0] = 99.0
    assert emb.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        emb.values[0, 0] = 5.0


@pytest.mark.parametrize(
    "bad",
    [
        np.zeros((0, 3)),
        np.zeros((3, 0)),
        np.zeros(4),
        np.array([[1.0, np.nan]]),
        np.array([[np.inf, 0.0]]),
    ],
)
def test_embedding_sequence_rejects(bad):
    with pytest.raises(ValueError):
        EmbeddingSequence(bad)


# -------------------------------------------------------------------- labels

def test_label_sequence_valid():
    labs = LabelSequence((1, 1, 2, 3, 2, 2))
    assert len(labs) == 6
    assert labs.num_speakers == 3
    assert list(labs) == [1, 1, 2, 3, 2, 2]
    assert labs[2] == 2


@pytest.mark.parametrize("bad", [(2,), (1, 3), (1, 2, 4), (0,), (1, 0)])
def test_label_sequence_rejects_non_canonical(bad):
    with pytest.raises(ValueError):
        LabelSequence(bad)


def test_label_sequence_rejects_empty():
    with pytest.raises(ValueError):
        LabelSequence(())


def test_canonicalize_worked_examples():
    assert tuple(canonicalize((7, 7, 3, 9, 3, 3))) == (1, 1, 2, 3, 2, 2)
    assert tuple(canonicalize((1,))) == (1,)
    assert tuple(canonicalize(("b", "a", "b"))) == (1, 2, 1)


def test_canonicalize_empty_raises():
    with pytest.raises(ValueError, match="empty sequence"):
        canonicalize([])


@given(st.lists(st.integers(0, 5), min_size=1, max_size=20))
def test_canonicalize_idempotent_and_relabel_invariant(raw):
    canon = canonicalize(raw)
    assert tuple(canonicalize(tuple(canon))) == tuple(canon)
    # any injective relabeling maps back to the same canonical form
    shifted = [x * 7 + 3 for x in raw]
    assert tuple(canonicalize(shifted)) == tuple(canon)


# ----------------------------------------------------------- change indicators

def test_change_indicators_worked_examples():
    assert derive_change_indicators(LabelSequence((1, 1, 2, 3, 2, 2))).z == (0, 1, 1, 1, 0)
    assert derive_change_indicators(LabelSequence((1,))).z == ()
    assert derive_change_indicators(LabelSequence((1, 2, 1, 2))).z == (1, 1, 1)


def test_change_indicators_validation():
    with pytest.raises(ValueError):
        ChangeIndicators((0, 2))


@given(st.lists(st.integers(0, 4), min_size=1, max_size=15))
def test_change_indicators_survive_canonicalization(raw):
    canon = canonicalize(raw)
    direct = tuple(int(raw[i] != raw[i - 1]) for i in range(1, len(raw)))
    assert derive_change_indicators(canon).z == direct


# -------------------------------------------------------------- block counts

def test_block_counts_worked_examples():
    bc = block_counts(LabelSequence((1, 1, 2, 3, 2)))
    assert bc.as_dict() == {1: 1, 2: 2, 3: 1}
    assert bc.last_speaker == 2
    assert block_counts(LabelSequence((1,))).as_dict() == {1: 1}
    bc2 = block_counts(LabelSequence((1, 2, 1, 2, 1)))
    assert bc2.as_dict() == {1: 3, 2: 2}
    assert bc2.last_speaker == 1


def test_block_counts_accessors():
    bc = BlockCounts((2, 1), 1)
    assert bc.num_speakers == 2
    assert bc.total_blocks == 3
    assert bc.count(1) == 2 and bc.count(2) == 1


def test_update_block_counts_worked_examples():
    bc = BlockCounts((1, 2, 1), 2)
    same = extend_block_counts(bc, 2)
    assert same.as_dict() == {1: 1, 2: 2, 3: 1} and same.last_speaker == 2

    one = extend_block_counts(BlockCounts((1,), 1), 2)
    assert one.as_dict() == {1: 1, 2: 1} and one.last_speaker == 2

    back = extend_block_counts(BlockCounts((1, 1), 2), 1)
    assert back.as_dict() == {1: 2, 2: 1} and back.last_speaker == 1


def test_update_block_counts_rejects_label_gap():
    with pytest.raises(ValueError, match="non-canonical label 4"):
        extend_block_counts(BlockCounts((1, 1), 2), 4)


@given(st.data())
def test_incremental_matches_scan(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    length = data.draw(st.integers(2, 25))
    labs = random_canonical_labels(rng, length)
    seq = tuple(labs)
    state = block_counts(LabelSequence(seq[:1]))
    for t in range(1, length):
        state = extend_block_counts(state, seq[t])
        fresh = block_counts(LabelSequence(seq[: t + 1]))
        assert state.as_dict() == fresh.as_dict()
        assert state.last_speaker == fresh.last_speaker


def test_block_counts_total_matches_change_count():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        labs = random_canonical_labels(rng, 12)
        z = derive_change_indicators(labs)
        assert block_counts(labs).total_blocks == 1 + sum(z.z)
