"""Property tests for mixed per-block codec plans (per-record codec tags).

The mixed-plan contract: *any* per-block stage assignment must decode
byte-identically to the fixed DSH plan, across kernel backends, through
the ``.dsh`` container, under the engine's decoded-block cache, and with
the same typed errors under corruption. Hypothesis drives random tag
assignments through :func:`tests.tagged_plans.reencode_with_tags` so the
decode funnel is exercised over the full 8x8 tag space.
"""

from __future__ import annotations

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels
from repro.codecs.container import load_plan, save_plan
from repro.codecs.engine import DecodedBlockCache, RecodeEngine, plan_fingerprint
from repro.codecs.pipeline import (
    STAGE_DELTA,
    STAGE_HUFFMAN,
    STAGE_SNAPPY,
    TAG_MASK,
    compress_matrix,
    decode_record,
)
from repro.collection import generators
from repro.core import recoded_spmv

from tests.tagged_plans import reencode_with_tags

SEED = 20260809

#: Fixed base plan shared by every property: small blocks force several
#: blocks (and a real Huffman table on both streams).
_MATRIX = generators.banded(300, bandwidth=4, seed=5)
PLAN = compress_matrix(_MATRIX, block_bytes=1024)
NBLOCKS = PLAN.nblocks


def _payload(plan):
    """Decoded content that must never change, whatever the tags."""
    return [
        (b.row_ptr.tobytes(), b.col_idx.tobytes(), b.val.tobytes())
        for b in (plan.decompress_block(i) for i in range(plan.nblocks))
    ]


REFERENCE = _payload(PLAN)

_tags = st.lists(
    st.integers(0, TAG_MASK), min_size=NBLOCKS, max_size=NBLOCKS
)


def test_base_plan_has_enough_blocks():
    assert NBLOCKS >= 4


# ---------------------------------------------------------------------------
# Random tag assignments: backend parity + container round-trip
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(idx_tags=_tags, val_tags=_tags)
def test_random_tag_plans_decode_identically_across_backends(idx_tags, val_tags):
    mixed = reencode_with_tags(PLAN, idx_tags, val_tags)
    for backend in kernels.available_backends():
        with kernels.use_backend(backend):
            assert _payload(mixed) == REFERENCE, backend


@settings(max_examples=10, deadline=None)
@given(idx_tags=_tags, val_tags=_tags)
def test_random_tag_plans_round_trip_through_container(idx_tags, val_tags):
    mixed = reencode_with_tags(PLAN, idx_tags, val_tags)
    buf = io.BytesIO()
    save_plan(mixed, buf)
    loaded = load_plan(buf.getvalue())
    assert [r.tag for r in loaded.index_records] == list(idx_tags)
    assert [r.tag for r in loaded.value_records] == list(val_tags)
    assert _payload(loaded) == REFERENCE
    # Serialization is stable: save(load(blob)) == blob.
    buf2 = io.BytesIO()
    save_plan(loaded, buf2)
    assert buf2.getvalue() == buf.getvalue()


# ---------------------------------------------------------------------------
# Split-table containers and legacy byte-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("keep_index", [True, False])
@pytest.mark.parametrize("keep_value", [True, False])
def test_split_table_containers_round_trip(keep_index, keep_value):
    """Tagged containers persist each side's table independently."""
    idx_tag = TAG_MASK if keep_index else STAGE_DELTA | STAGE_SNAPPY
    val_tag = STAGE_SNAPPY | STAGE_HUFFMAN if keep_value else STAGE_SNAPPY
    mixed = reencode_with_tags(PLAN, [idx_tag] * NBLOCKS, [val_tag] * NBLOCKS)
    mixed = dataclasses.replace(
        mixed,
        index_table=PLAN.index_table if keep_index else None,
        value_table=PLAN.value_table if keep_value else None,
        use_huffman=keep_index or keep_value,
    )
    buf = io.BytesIO()
    save_plan(mixed, buf)
    loaded = load_plan(buf.getvalue())
    assert (loaded.index_table is not None) == keep_index
    assert (loaded.value_table is not None) == keep_value
    assert _payload(loaded) == REFERENCE


def test_huffman_tag_without_table_rejected_at_save():
    mixed = reencode_with_tags(PLAN, [TAG_MASK] * NBLOCKS, [STAGE_SNAPPY] * NBLOCKS)
    mixed = dataclasses.replace(mixed, index_table=None)
    with pytest.raises(ValueError, match="without tables"):
        save_plan(mixed, io.BytesIO())


def test_legacy_untagged_containers_stay_byte_identical():
    """A pre-tag plan must serialize exactly as before the tag feature."""
    buf = io.BytesIO()
    save_plan(PLAN, buf)
    blob = buf.getvalue()
    loaded = load_plan(blob)
    assert all(r.tag is None for r in loaded.index_records + loaded.value_records)
    buf2 = io.BytesIO()
    save_plan(loaded, buf2)
    assert buf2.getvalue() == blob
    assert _payload(loaded) == REFERENCE


# ---------------------------------------------------------------------------
# Corruption corpus: typed-error parity across backends
# ---------------------------------------------------------------------------


def _decode_outcome(record, table):
    """(kind, message) of decoding one possibly-corrupt record."""
    try:
        out = decode_record(record, table, use_huffman=True, apply_delta=True)
        return ("ok", out)
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


@pytest.mark.parametrize("stream", ["index", "value"])
def test_corrupt_mixed_records_error_parity_across_backends(stream):
    """Every backend must fail a corrupt record with the same exception
    type and message — or, when the flip lands in don't-care bits, decode
    the same bytes. The payload CRC is stripped so corruption actually
    reaches the stage decoders under test."""
    reps = (NBLOCKS + 3) // 4
    mixed = reencode_with_tags(
        PLAN,
        ([TAG_MASK, STAGE_DELTA | STAGE_SNAPPY, STAGE_SNAPPY, 0] * reps)[:NBLOCKS],
        ([STAGE_SNAPPY | STAGE_HUFFMAN, STAGE_SNAPPY, 0, STAGE_HUFFMAN] * reps)[
            :NBLOCKS
        ],
    )
    records = mixed.index_records if stream == "index" else mixed.value_records
    table = mixed.index_table if stream == "index" else mixed.value_table
    rng = np.random.default_rng(SEED)
    for _ in range(60):
        rec = records[int(rng.integers(0, len(records)))]
        payload = bytearray(rec.payload)
        if not payload:
            continue
        payload[int(rng.integers(0, len(payload)))] ^= int(rng.integers(1, 256))
        corrupt = dataclasses.replace(
            rec, payload=bytes(payload), payload_crc=None
        )
        with kernels.use_backend("python"):
            via_python = _decode_outcome(corrupt, table)
        for backend in kernels.available_backends():
            with kernels.use_backend(backend):
                assert _decode_outcome(corrupt, table) == via_python, backend


# ---------------------------------------------------------------------------
# Executor round-trip: serial / pipelined / mmap-streamed, strict + degrade
# ---------------------------------------------------------------------------


class TestMixedPlanExecutorParity:
    @pytest.fixture(scope="class")
    def mixed(self):
        reps = (NBLOCKS + 3) // 4
        return reencode_with_tags(
            PLAN,
            ([TAG_MASK, STAGE_DELTA | STAGE_SNAPPY, STAGE_DELTA, 0] * reps)[:NBLOCKS],
            ([STAGE_SNAPPY | STAGE_HUFFMAN, STAGE_SNAPPY, 0, STAGE_HUFFMAN] * reps)[
                :NBLOCKS
            ],
        )

    @pytest.fixture(scope="class")
    def container(self, mixed, tmp_path_factory):
        path = tmp_path_factory.mktemp("mixed-exec") / "m.dsh"
        save_plan(mixed, path)
        return str(path)

    @pytest.fixture(scope="class")
    def x(self):
        return np.random.default_rng(SEED + 2).standard_normal(
            PLAN.blocked.shape[1]
        )

    @pytest.fixture(scope="class")
    def truth(self, x):
        return recoded_spmv(PLAN, x)[0].tobytes()

    @pytest.mark.parametrize("backend", kernels.available_backends())
    @pytest.mark.parametrize("policy", ["strict", "degrade"])
    def test_serial_and_pipelined(self, mixed, x, truth, backend, policy):
        with kernels.use_backend(backend):
            y, stats = recoded_spmv(mixed, x, policy=policy)
            assert y.tobytes() == truth
            assert stats.degraded_blocks == 0
            engine = RecodeEngine(retry_base_s=0.0)
            y, stats = recoded_spmv(
                mixed, x, engine=engine, policy=policy, mode="pipelined"
            )
            assert y.tobytes() == truth
            assert stats.degraded_blocks == 0

    @pytest.mark.parametrize("policy", ["strict", "degrade"])
    def test_mmap_from_container(self, container, x, truth, policy):
        y, stats = recoded_spmv(container, x, policy=policy)
        assert y.tobytes() == truth
        assert stats.oocore is not None
        assert stats.degraded_blocks == 0


# ---------------------------------------------------------------------------
# Engine cache correctness with mixed pipelines
# ---------------------------------------------------------------------------


def test_engine_cache_mixed_plans_never_alias():
    """Two different tag assignments of the same matrix under one
    matrix_id must not serve each other's cache entries — and both must
    reproduce the fixed plan bit-for-bit, cold and warm."""
    mixed_a = reencode_with_tags(PLAN, [TAG_MASK] * NBLOCKS, [STAGE_SNAPPY] * NBLOCKS)
    mixed_b = reencode_with_tags(PLAN, [STAGE_DELTA] * NBLOCKS, [0] * NBLOCKS)
    assert plan_fingerprint(mixed_a) != plan_fingerprint(mixed_b)
    assert plan_fingerprint(mixed_a) != plan_fingerprint(PLAN)

    rng = np.random.default_rng(SEED + 1)
    x = rng.standard_normal(PLAN.blocked.shape[1])
    y_ref, _ = recoded_spmv(PLAN, x)

    cache = DecodedBlockCache()
    engine = RecodeEngine(workers=0, cache=cache, retry_base_s=0.0)
    try:
        for plan in (PLAN, mixed_a, mixed_b, mixed_a):
            for _ in range(2):  # cold then warm
                y, stats = recoded_spmv(plan, x, engine=engine, matrix_id="m")
                assert y.tobytes() == y_ref.tobytes()
                assert stats.degraded_blocks == 0
    finally:
        engine.close()
    assert cache.stats.hits > 0
