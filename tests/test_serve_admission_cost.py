"""Admission cost model reconciliation: estimates vs measured traffic.

The serve admission controller prices a request by *estimated decode
traffic* (``MatrixInfo.estimated_cost_bytes``). The estimate comes from
the resident reader's per-block compressed extents, not a flat 12 B/nnz
model — mixed plans (per-record codec tags) make per-block sizes uneven,
and a flat estimate would over-admit heavy containers. This
suite pins the estimate to ground truth: decode every record of the same
container and reconcile against the ``codecs.decode.bytes_in`` /
``bytes_out`` counters the decode funnel actually emits.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.codecs.container import load_plan, save_plan
from repro.codecs.pipeline import MatrixCompression, compress_matrix, decode_record
from repro.collection import generators
from repro.serve.session import MatrixInfo, MatrixLibrary

from tests.tagged_plans import reencode_with_tags, varied_tags

#: The estimate may over-charge only by per-record framing (the 12-byte
#: materialized header per stream record the counters never see).
RECORD_FRAMING_BYTES = 12


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    d = tmp_path_factory.mktemp("admission-root")
    m_fixed = generators.banded(600, bandwidth=5, seed=13)
    save_plan(compress_matrix(m_fixed, block_bytes=2048), d / "fixed.dsh")
    m_mixed = generators.fem_stencil(400, row_degree=18, jitter=30, seed=29)
    fixed = compress_matrix(m_mixed, block_bytes=2048, seed=29)
    mixed = reencode_with_tags(fixed, *varied_tags(fixed.nblocks))
    save_plan(mixed, d / "mixed.dsh")
    return str(d)


def _decode_traffic(plan: MatrixCompression) -> tuple[int, int, int]:
    """(bytes_in, bytes_out, nrecords) of one full decode, measured by
    the decode funnel's own counters."""
    with obs.scoped_registry() as reg:
        for rec in plan.index_records:
            decode_record(
                rec,
                plan.index_table,
                use_huffman=plan.use_huffman,
                apply_delta=plan.use_delta,
            )
        for rec in plan.value_records:
            decode_record(
                rec,
                plan.value_table,
                use_huffman=plan.use_huffman,
                apply_delta=False,
            )
        agg = obs.aggregate_by_name(reg.snapshot())
    nrecords = len(plan.index_records) + len(plan.value_records)
    return (
        int(agg["codecs.decode.bytes_in"]["value"]),
        int(agg["codecs.decode.bytes_out"]["value"]),
        nrecords,
    )


@pytest.mark.parametrize("name", ["fixed", "mixed"])
def test_estimate_reconciles_with_actual_decode_traffic(root, name):
    with MatrixLibrary(root) as lib:
        info = lib.info(name)
        plan = load_plan(lib.reader(name).path)
    bytes_in, bytes_out, nrecords = _decode_traffic(plan)

    # Decoded stream: the estimate is exact, not a 12 B/nnz guess.
    assert info.decoded_bytes == bytes_out

    # Compressed stream: extents count the materialized 12-byte record
    # headers that never reach the decoder; nothing else may diverge.
    framing = RECORD_FRAMING_BYTES * nrecords
    assert info.compressed_stream_bytes == bytes_in + framing
    # ... and the framing overhead is small against the payload itself.
    assert framing <= 0.25 * info.compressed_stream_bytes

    # End to end: the admission price equals measured traffic + vectors
    # + framing — within 5% even if the framing share grows.
    vectors = 8 * (info.shape[0] + info.shape[1])
    estimate = info.estimated_cost_bytes(nrhs=1)
    actual = bytes_in + bytes_out + vectors
    assert actual <= estimate <= actual + framing
    assert estimate <= 1.05 * actual


def test_extent_costing_beats_flat_model(root):
    """The per-extent estimate must price the *container*, not the file:
    a flat container_bytes model over-charges by tables + block framing."""
    with MatrixLibrary(root) as lib:
        info = lib.info("mixed")
        plan = load_plan(lib.reader("mixed").path)
    assert 0 < info.record_bytes < info.container_bytes
    assert info.compressed_stream_bytes == info.record_bytes
    records = plan.index_records + plan.value_records
    assert info.record_bytes == sum(r.stored_bytes for r in records)
    assert info.decoded_record_bytes == sum(r.orig_len for r in records)


def test_unknown_extents_fall_back_to_flat_model():
    info = MatrixInfo(
        name="m", path="m.dsh", container_bytes=1000, nnz=50, nblocks=1,
        shape=(10, 10), block_bytes=8192,
    )
    assert info.decoded_bytes == 12 * info.nnz
    assert info.compressed_stream_bytes == info.container_bytes
    assert info.estimated_cost_bytes(1) == 1000 + 600 + 8 * 20
