"""Tests for the .dsh on-disk container."""

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codecs import load_csr, load_plan, save_plan
from repro.codecs.container import ContainerReader
from repro.codecs.pipeline import compress_matrix
from repro.codecs.stats import dsh_plan
from repro.collection import generators
from repro.core import recoded_spmm, recoded_spmv
from repro.sparse import CSRMatrix, spmv


def roundtrip(plan):
    buf = io.BytesIO()
    save_plan(plan, buf)
    return load_plan(buf.getvalue())


class TestRoundTrip:
    @pytest.fixture(scope="class")
    def matrix(self):
        return generators.banded(1000, bandwidth=5, seed=11)

    @pytest.fixture(scope="class")
    def plan(self, matrix):
        return dsh_plan(matrix)

    def test_plan_round_trip(self, plan):
        back = roundtrip(plan)
        assert back.nblocks == plan.nblocks
        assert back.nnz == plan.nnz
        assert back.compressed_bytes == plan.compressed_bytes
        assert back.use_delta == plan.use_delta
        assert back.use_huffman == plan.use_huffman
        assert back.verify()

    def test_block_contents_identical(self, plan):
        back = roundtrip(plan)
        for orig, loaded in zip(plan.blocked.blocks, back.blocked.blocks):
            np.testing.assert_array_equal(orig.col_idx, loaded.col_idx)
            np.testing.assert_array_equal(orig.val, loaded.val)
            np.testing.assert_array_equal(orig.row_ptr, loaded.row_ptr)
            assert orig.leading_partial == loaded.leading_partial

    def test_load_csr_reconstructs_matrix(self, matrix, plan):
        buf = io.BytesIO()
        save_plan(plan, buf)
        back = load_csr(buf.getvalue())
        np.testing.assert_array_equal(back.row_ptr, matrix.row_ptr)
        np.testing.assert_array_equal(back.col_idx, matrix.col_idx)
        np.testing.assert_array_equal(back.val, matrix.val)

    def test_spmv_on_loaded_plan(self, matrix, plan):
        back = roundtrip(plan)
        x = np.random.default_rng(0).normal(size=matrix.ncols)
        from repro.core import recoded_spmv

        y, _ = recoded_spmv(back, x)
        np.testing.assert_allclose(y, spmv(matrix, x), rtol=1e-12)

    def test_file_path_io(self, plan, tmp_path):
        path = tmp_path / "m.dsh"
        save_plan(plan, path)
        assert load_plan(path).verify()

    def test_snappy_only_plan(self):
        m = generators.unstructured(150, density=0.06, seed=3)
        plan = compress_matrix(m, use_delta=False, use_huffman=False)
        back = roundtrip(plan)
        assert back.verify()
        assert back.index_table is None

    def test_blockless_plan_round_trip(self, tmp_path):
        """A 0-row matrix compresses to a 0-block plan without tables; it
        saves without them and runs the same from memory, a reader and a
        reloaded plan."""
        plan = compress_matrix(CSRMatrix((0, 4), np.zeros(1, np.int64), [], []))
        assert plan.nblocks == 0 and plan.use_huffman and plan.index_table is None
        path = tmp_path / "empty.dsh"
        save_plan(plan, path)
        with ContainerReader(path) as reader:
            sources = (plan, reader, load_plan(path), path)
            for source in sources:
                y, _ = recoded_spmv(source, np.ones(4))
                Y, _ = recoded_spmm(source, np.ones((4, 2)))
                assert y.shape == (0,) and Y.shape == (0, 2)
        assert load_plan(path).index_table is None

    def test_missing_table_is_refused(self, plan):
        for side in ("index_table", "value_table"):
            with pytest.raises(ValueError, match="without tables"):
                save_plan(dataclasses.replace(plan, **{side: None}), io.BytesIO())

    def test_split_row_matrix(self):
        dense = np.zeros((3, 3000))
        dense[1, :] = np.arange(1, 3001)
        plan = dsh_plan(CSRMatrix.from_dense(dense))
        back = roundtrip(plan)
        assert back.verify()
        buf = io.BytesIO()
        save_plan(plan, buf)
        loaded = load_csr(buf.getvalue())
        np.testing.assert_array_equal(loaded.to_dense(), dense)

    def test_container_smaller_than_mtx_and_csr(self, matrix, plan, tmp_path):
        path = tmp_path / "m.dsh"
        save_plan(plan, path)
        size = path.stat().st_size
        assert size < matrix.storage_bytes()  # beats raw CSR even with row_ptr

    @settings(max_examples=6, deadline=None)
    @given(st.integers(30, 120), st.floats(0.03, 0.25), st.integers(0, 40))
    def test_property_round_trip(self, n, density, seed):
        m = generators.unstructured(n, density=density, seed=seed)
        plan = dsh_plan(m, seed=seed)
        back = roundtrip(plan)
        assert back.verify()
        buf = io.BytesIO()
        save_plan(plan, buf)
        np.testing.assert_array_equal(load_csr(buf.getvalue()).to_dense(), m.to_dense())


class TestCorruption:
    def make_blob(self):
        plan = dsh_plan(generators.banded(400, bandwidth=3, seed=5))
        buf = io.BytesIO()
        save_plan(plan, buf)
        return bytearray(buf.getvalue())

    def test_bad_magic(self):
        blob = self.make_blob()
        blob[0] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            load_plan(bytes(blob))

    def test_payload_corruption_caught_by_crc(self):
        blob = self.make_blob()
        # Flip a byte deep in the file (inside some payload).
        blob[len(blob) - 10] ^= 0xFF
        with pytest.raises(ValueError, match="CRC|corruption|truncated"):
            load_plan(bytes(blob))

    def test_truncation(self):
        blob = self.make_blob()
        with pytest.raises(ValueError):
            load_plan(bytes(blob[: len(blob) // 2]))

    def test_empty_input(self):
        with pytest.raises(ValueError):
            load_plan(b"")
