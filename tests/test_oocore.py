"""Out-of-core differential test layer: mmap streaming vs in-memory truth.

The contract under test: an mmap-backed
:class:`~repro.codecs.container.ContainerReader` — streamed serially or
pipelined, from a reader or a ``.dsh`` path — must be *bit-identical* to
the in-memory executor: result vector (sha256 of ``y``),
``dma_seconds``, TrafficLog edge totals, degraded-block counts, and
raised error types/messages, across policies and injected faults. Lazy
verification must surface the same errors eager loading raises for the
same corruption, just at access time instead of load time.
"""

import hashlib
import io
import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.codecs.container import (
    ContainerReader,
    load_plan,
    save_plan,
    scrub_container,
)
from repro.codecs.errors import (
    BlockDecodeError,
    ContainerError,
    TruncatedContainerError,
)
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.core import recoded_spmm, recoded_spmv
from repro.faults import FaultPlan


def sha(y: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def plan():
    m = generators.unstructured(400, density=0.03, seed=3)
    return compress_matrix(m, block_bytes=2048)


@pytest.fixture(scope="module")
def container(plan, tmp_path_factory):
    path = tmp_path_factory.mktemp("oocore") / "m.dsh"
    save_plan(plan, path)
    return str(path)


@pytest.fixture(scope="module")
def x(plan):
    return np.random.default_rng(7).standard_normal(plan.blocked.shape[1])


@pytest.fixture(scope="module")
def split_plan():
    """Tiny byte budget on a dense-ish matrix: most blocks are split-row
    continuations (``leading_partial``) — the block-boundary hard case."""
    m = generators.unstructured(60, density=0.5, seed=9)
    p = compress_matrix(m, block_bytes=60)
    assert any(b.leading_partial for b in p.blocked.blocks)
    return p


@pytest.fixture(scope="module")
def split_container(split_plan, tmp_path_factory):
    path = tmp_path_factory.mktemp("oocore-split") / "split.dsh"
    save_plan(split_plan, path)
    return str(path)


def assert_stats_parity(a, b):
    assert a.dram_bytes == b.dram_bytes
    assert a.baseline_dram_bytes == b.baseline_dram_bytes
    assert a.traffic.edges() == b.traffic.edges()
    assert a.dma_seconds == b.dma_seconds
    assert a.degraded_blocks == b.degraded_blocks


# ---------------------------------------------------------------------------
# Reader parity: the mmap walk resolves the same plan eager loading does
# ---------------------------------------------------------------------------


class TestReaderParity:
    def test_materialize_matches_load_plan(self, plan, container):
        eager = load_plan(container)
        with ContainerReader(container, verify="lazy") as reader:
            lazy = reader.materialize()
        assert reader.shape == plan.blocked.shape
        assert reader.nnz == plan.nnz == eager.nnz
        assert reader.nblocks == eager.nblocks
        for be, bl in zip(eager.blocked.blocks, lazy.blocked.blocks):
            np.testing.assert_array_equal(be.col_idx, bl.col_idx)
            np.testing.assert_array_equal(be.val, bl.val)
            np.testing.assert_array_equal(be.row_ptr, bl.row_ptr)
            assert (be.row_start, be.row_end, be.leading_partial) == (
                bl.row_start, bl.row_end, bl.leading_partial,
            )

    def test_lazy_block_decode_matches_eager(self, container):
        eager = load_plan(container)
        with ContainerReader(container, verify="lazy") as reader:
            lazy_plan = reader.plan()
            for i in range(reader.nblocks):
                ref = eager.blocked.blocks[i]
                got = lazy_plan.decompress_block(i)
                np.testing.assert_array_equal(ref.col_idx, got.col_idx)
                np.testing.assert_array_equal(ref.val, got.val)

    def test_extents_tile_the_stream(self, container):
        """Record extents are ascending, non-overlapping, and the last
        payload ends exactly at the stream trailer."""
        with ContainerReader(container, verify="lazy") as reader:
            ends = [p + n for p, n in zip(reader.payload_offset, reader.payload_len)]
            pos = None
            for k in range(reader.nblocks):
                assert ends[2 * k] <= reader.record_offset[2 * k + 1]
                if pos is not None:
                    assert reader.block_offset[k] >= pos
                pos = ends[2 * k + 1]
            assert pos == reader.nbytes - 4

    def test_residency_budget_validated(self, container):
        with pytest.raises(ValueError):
            ContainerReader(container, residency_budget=64)


# ---------------------------------------------------------------------------
# Corruption parity: lazy raises exactly what eager raises
# ---------------------------------------------------------------------------


def _forge_trailer(data: bytearray) -> bytes:
    """Recompute the stream trailer so corruption below it stays 'valid'
    at the whole-stream CRC layer — isolating the per-record CRC check."""
    body = bytes(data[:-4])
    return body + zlib.crc32(body).to_bytes(4, "little")


def _load_eager_error(data: bytes):
    with pytest.raises(ContainerError) as eager_exc:
        load_plan(data)
    with pytest.raises(ContainerError) as reader_exc:
        ContainerReader(data, verify="eager")
    # load_plan *is* the eager reader; both must agree with themselves.
    assert type(eager_exc.value) is type(reader_exc.value)
    assert str(eager_exc.value) == str(reader_exc.value)
    return eager_exc.value


class TestCorruptionParity:
    @pytest.fixture(scope="class")
    def pristine(self, container):
        with open(container, "rb") as fh:
            return fh.read()

    @pytest.fixture(scope="class")
    def victim(self, pristine):
        """A middle block with a non-empty index payload to corrupt: its id
        and, from the reader's columns, its meta offset and the payload
        offsets of its index and value records."""
        with ContainerReader(pristine, verify="lazy") as reader:
            for k in range(1, reader.nblocks):
                if reader.payload_len[2 * k] >= 2:
                    return SimpleNamespace(
                        block_id=k,
                        offset=reader.block_offset[k],
                        payload_offset=reader.payload_offset[2 * k : 2 * k + 2],
                    )
        pytest.skip("no block with a corruptible payload")

    @pytest.mark.parametrize("stream", ["index", "value"])
    def test_payload_flip_identical_errors(self, pristine, victim, stream):
        data = bytearray(pristine)
        data[victim.payload_offset[stream == "value"]] ^= 0x40
        data = _forge_trailer(data)

        eager_err = _load_eager_error(data)
        assert "record CRC mismatch" in str(eager_err)

        with ContainerReader(data, verify="lazy") as reader:
            # Construction succeeds: the damage sits below the structural
            # layers lazy verification defers.
            with pytest.raises(ContainerError) as lazy_exc:
                reader.record(victim.block_id, stream)
            assert type(lazy_exc.value) is type(eager_err)
            assert str(lazy_exc.value) == str(eager_err)
            # Undamaged records stay readable around the sick one.
            other = victim.block_id - 1
            reader.record(other, "index")
            reader.record(other, "value")

    def test_trailer_flip_identical_errors(self, pristine):
        data = bytearray(pristine)
        data[-2] ^= 0x01
        data = bytes(data)

        eager_err = _load_eager_error(data)
        assert "stream CRC mismatch" in str(eager_err)

        with ContainerReader(data, verify="lazy") as reader:
            with pytest.raises(ContainerError) as lazy_exc:
                reader.verify_stream()
            assert type(lazy_exc.value) is type(eager_err)
            assert str(lazy_exc.value) == str(eager_err)
            # Record CRCs are intact — every block still materializes.
            reader.record(0, "index")

    def test_meta_flip_raises_at_construction_both_modes(self, pristine, victim):
        data = bytearray(pristine)
        data[victim.offset + 1] ^= 0x10  # inside the <IIBQ block meta
        data = _forge_trailer(data)

        eager_err = _load_eager_error(data)
        with pytest.raises(ContainerError) as lazy_exc:
            ContainerReader(data, verify="lazy")
        assert type(lazy_exc.value) is type(eager_err)
        assert str(lazy_exc.value) == str(eager_err)

    def test_truncation_refused_by_both_modes(self, pristine, victim):
        cut = victim.payload_offset[1] + 1
        data = bytes(pristine[:cut])
        with pytest.raises(ContainerError):
            load_plan(data)
        # Lazy detects it structurally (sharper type); eager's full-stream
        # CRC pass sees the damage first — both refuse at construction.
        with pytest.raises(TruncatedContainerError):
            ContainerReader(data, verify="lazy")

    def test_faulty_execution_matches_eager(
        self, pristine, victim, x, tmp_path
    ):
        """Streaming SpMV over a genuinely corrupt container surfaces the
        *same* error eager loading raises — from a borrowed reader and from
        a ``.dsh`` path alike. (Real media corruption is not a
        decode failure: there is no pristine copy to degrade to, so it
        must not be swallowed by the policy machinery.)"""
        data = bytearray(pristine)
        data[victim.payload_offset[0]] ^= 0x40
        data = _forge_trailer(data)
        eager_err = _load_eager_error(data)

        with ContainerReader(data, verify="lazy") as reader:
            with pytest.raises(ContainerError) as serial_exc:
                recoded_spmv(reader, x, policy="degrade")
        assert type(serial_exc.value) is type(eager_err)
        assert str(serial_exc.value) == str(eager_err)

        path = tmp_path / "corrupt.dsh"
        path.write_bytes(data)
        with pytest.raises(ContainerError) as path_exc:
            recoded_spmv(str(path), x, policy="degrade")
        assert str(path_exc.value) == str(eager_err)


# ---------------------------------------------------------------------------
# Scrub/reader agreement over a corrupted corpus (satellite: scrub reuse)
# ---------------------------------------------------------------------------


class TestScrubReaderAgreement:
    def test_boundaries_and_sick_blocks_agree(self, container):
        with open(container, "rb") as fh:
            pristine = fh.read()
        with ContainerReader(pristine, verify="lazy") as reader:
            nblocks = reader.nblocks
            block_offset = reader.block_offset
            payload_offset = reader.payload_offset
            payload_len = reader.payload_len
        sick = {1, nblocks // 2, nblocks - 1}
        data = bytearray(pristine)
        for k in sick:
            data[payload_offset[2 * k]] ^= 0x20
        data = _forge_trailer(data)

        report = scrub_container(bytes(data))
        assert report.nblocks == nblocks
        assert len(report.blocks) == nblocks
        for k, health in enumerate(report.blocks):
            # Every block/record boundary in the report matches the
            # columns the reader exposes.
            assert health.block_id == k
            assert health.offset == block_offset[k]
            assert health.index.payload_bytes == payload_len[2 * k]
            assert health.value.payload_bytes == payload_len[2 * k + 1]
            assert health.index.crc_ok == (k not in sick)
            assert health.value.crc_ok

    def test_pristine_corpus_all_ok(self, container):
        report = scrub_container(container)
        assert report.trailer_ok and report.header_ok
        assert all(b.ok for b in report.blocks)


# ---------------------------------------------------------------------------
# Execution parity matrix: in-memory x mmap x policy x faults
# ---------------------------------------------------------------------------


class TestExecutionParity:
    @pytest.fixture(scope="class")
    def truth(self, plan, x):
        y, stats = recoded_spmv(plan, x)
        return sha(y), stats

    def test_mmap_serial_bit_identical(self, container, x, truth):
        with ContainerReader(container, verify="lazy") as reader:
            y, stats = recoded_spmv(reader, x)
        assert sha(y) == truth[0]
        assert_stats_parity(stats, truth[1])
        assert stats.oocore is not None and stats.oocore["mapped_bytes"] > 0

    @pytest.mark.parametrize("workers,passes", [(0, 1), (2, 4)])
    def test_pipelined_mmap_matrix(self, container, x, truth, workers, passes):
        from repro.codecs.engine import RecodeEngine

        engine = RecodeEngine(workers=workers, retry_base_s=0.0)
        with ContainerReader(container, verify="lazy") as reader:
            for _ in range(passes):
                y, stats = recoded_spmv(reader, x, engine=engine, mode="pipelined")
                assert sha(y) == truth[0]
                assert_stats_parity(stats, truth[1])
        assert engine._pool is None

    @pytest.mark.parametrize("policy", ["strict", "degrade"])
    def test_fault_free_policies_identical(self, container, x, truth, policy):
        y, _ = recoded_spmv(container, x, policy=policy)
        assert sha(y) == truth[0]

    def test_dram_fault_degrade_parity(self, plan, container, x):
        fp = FaultPlan(seed=5, dram_bitflip_blocks=(1, 3))
        with fp.activate():
            y_mem, s_mem = recoded_spmv(plan, x, policy="degrade")
        with fp.activate():
            with ContainerReader(container, verify="lazy") as reader:
                y_map, s_map = recoded_spmv(reader, x, policy="degrade")
        assert sha(y_mem) == sha(y_map)
        assert s_mem.degraded_blocks == s_map.degraded_blocks == 2
        assert_stats_parity(s_mem, s_map)

    def test_dram_fault_strict_identical_errors(self, plan, container, x):
        fp = FaultPlan(seed=5, dram_bitflip_blocks=(2,))
        errors = []
        with fp.activate():
            with pytest.raises(BlockDecodeError) as e:
                recoded_spmv(plan, x, policy="strict")
            errors.append(e.value)
        with fp.activate():
            with ContainerReader(container, verify="lazy") as reader:
                with pytest.raises(BlockDecodeError) as e:
                    recoded_spmv(reader, x, policy="strict")
            errors.append(e.value)
        with fp.activate():
            with pytest.raises(BlockDecodeError) as e:
                recoded_spmv(container, x, policy="strict")
            errors.append(e.value)
        assert len({str(err) for err in errors}) == 1
        assert len({err.block_id for err in errors}) == 1

    def test_spmm_parity(self, plan, container, x):
        X = np.stack([x, 2.0 * x, x - 1.0], axis=1)
        Y_mem, s_mem = recoded_spmm(plan, X)
        Y_map, s_map = recoded_spmm(container, X)
        np.testing.assert_array_equal(Y_mem, Y_map)
        assert_stats_parity(s_mem, s_map)
        for j in range(X.shape[1]):
            y_col, _ = recoded_spmv(plan, X[:, j])
            np.testing.assert_array_equal(Y_mem[:, j], y_col)

    @pytest.mark.parametrize("mode", ["serial", "pipelined"])
    def test_split_rows_stream_bit_identical(self, split_plan, split_container, mode):
        """Rows split across blocks (``leading_partial``) fold exactly the
        in-memory way when the blocks stream from a mapped container."""
        from repro.codecs.engine import RecodeEngine

        xs = np.random.default_rng(1).standard_normal(split_plan.blocked.shape[1])
        y_mem, s_mem = recoded_spmv(split_plan, xs)
        engine = RecodeEngine(workers=2, retry_base_s=0.0)
        try:
            y_map, s_map = recoded_spmv(split_container, xs, engine=engine, mode=mode)
        finally:
            engine.close()
        assert sha(y_map) == sha(y_mem)
        assert_stats_parity(s_map, s_mem)


# ---------------------------------------------------------------------------
# Pipelined execution over container sources: path/reader block sources
# must be bit-identical to the in-memory pipelined run (serve satellite)
# ---------------------------------------------------------------------------


class TestPipelinedSourceParity:
    def _pipelined(self, source, x, **kw):
        from repro.codecs.engine import RecodeEngine

        engine = RecodeEngine(workers=2, retry_base_s=0.0)
        try:
            return recoded_spmv(source, x, engine=engine, mode="pipelined", **kw)
        finally:
            engine.close()

    def test_path_source_matches_in_memory_pipelined(self, plan, container, x):
        y_mem, s_mem = self._pipelined(plan, x)
        y_path, s_path = self._pipelined(container, x)
        assert sha(y_path) == sha(y_mem)
        assert_stats_parity(s_path, s_mem)
        assert s_path.mode == "pipelined"
        assert s_path.oocore is not None and s_path.oocore["mapped_bytes"] > 0

    def test_pipelined_container_fault_parity(self, plan, container, x):
        """Degrade over a pipelined container source: same degraded count
        and bit-identical output as the serial in-memory degrade run."""
        fp = FaultPlan(seed=5, dram_bitflip_blocks=(1, 3))
        with fp.activate():
            y_mem, s_mem = recoded_spmv(plan, x, policy="degrade")
        with fp.activate():
            with ContainerReader(container, verify="lazy") as reader:
                y_pipe, s_pipe = self._pipelined(reader, x, policy="degrade")
        assert sha(y_pipe) == sha(y_mem)
        assert s_pipe.degraded_blocks == s_mem.degraded_blocks == 2
        assert_stats_parity(s_pipe, s_mem)


# ---------------------------------------------------------------------------
# Cooperative cancellation: the serve layer's deadline machinery
# ---------------------------------------------------------------------------


class TestCooperativeCancel:
    def test_serial_cancel_raises_immediately(self, plan, x):
        from repro.core import RunCancelled

        with pytest.raises(RunCancelled) as e:
            recoded_spmv(plan, x, cancel=lambda: True)
        assert e.value.blocks_done == 0

    def test_serial_cancel_mid_run_reports_progress(self, plan, x):
        from repro.core import RunCancelled

        calls = []

        def cancel():
            calls.append(None)
            return len(calls) > 3

        with pytest.raises(RunCancelled) as e:
            recoded_spmv(plan, x, cancel=cancel)
        assert 0 < e.value.blocks_done < plan.nblocks

    def test_pipelined_cancel_over_container(self, container, x):
        from repro.codecs.engine import RecodeEngine
        from repro.core import RunCancelled

        engine = RecodeEngine(workers=2, retry_base_s=0.0)
        try:
            with ContainerReader(container, verify="lazy") as reader:
                with pytest.raises(RunCancelled):
                    recoded_spmv(
                        reader, x, engine=engine, mode="pipelined",
                        cancel=lambda: True,
                    )
        finally:
            engine.close()

    def test_cancel_never_fires_is_free(self, plan, x):
        y_plain, _ = recoded_spmv(plan, x)
        y_cancel, _ = recoded_spmv(plan, x, cancel=lambda: False)
        assert sha(y_cancel) == sha(y_plain)

    def test_spmm_cancel(self, plan, x):
        from repro.core import RunCancelled

        X = np.stack([x, -x], axis=1)
        with pytest.raises(RunCancelled):
            recoded_spmm(plan, X, cancel=lambda: True)
