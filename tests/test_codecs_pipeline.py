"""Tests for the DSH pipeline and compression statistics."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.codecs import IdentityCodec, compress_matrix
from repro.codecs.pipeline import RECORD_HEADER_BYTES, TABLE_BYTES, make_dsh_pipeline
from repro.codecs.huffman import HuffmanTable
from repro.codecs.stats import compare_schemes, dsh_plan, summarize
from repro.core import recoded_spmv
from repro.sparse import CSRMatrix, spmv
from repro.sparse.blocked import CPU_BLOCK_BYTES, UDP_BLOCK_BYTES
from tests.per_block import multiply_blocks, per_block_route


def banded_matrix(n=400, band=5, seed=0) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    diags = [rng.normal(size=n - abs(k)) for k in range(-band, band + 1)]
    mat = sp.diags(diags, offsets=range(-band, band + 1), format="csr")
    return CSRMatrix.from_scipy(mat)


def random_matrix(n=300, density=0.02, seed=1) -> CSRMatrix:
    return CSRMatrix.from_scipy(sp.random(n, n, density=density, format="csr", random_state=seed))


class TestIdentity:
    def test_identity_codec(self):
        c = IdentityCodec()
        assert c.decode(c.encode(b"abc")) == b"abc"


class TestRecodePipeline:
    def test_dsh_round_trip(self):
        data = np.arange(512, dtype="<i4").tobytes()
        table = HuffmanTable.from_samples([data])
        pipe = make_dsh_pipeline(table, use_delta=True)
        assert pipe.decode(pipe.encode(data)) == data
        assert pipe.name == "delta-snappy-huffman"

    def test_sh_round_trip(self):
        data = b"value stream bytes" * 40
        table = HuffmanTable.from_samples([data])
        pipe = make_dsh_pipeline(table, use_delta=False)
        assert pipe.decode(pipe.encode(data)) == data


class TestCompressMatrix:
    def test_verify_round_trip_dsh(self):
        assert dsh_plan(banded_matrix()).verify()

    def test_verify_round_trip_snappy_only(self):
        plan = compress_matrix(
            banded_matrix(), block_bytes=CPU_BLOCK_BYTES, use_delta=False, use_huffman=False
        )
        assert plan.verify()

    def test_verify_unstructured(self):
        assert dsh_plan(random_matrix()).verify()

    def test_banded_compresses_better_than_12(self):
        plan = dsh_plan(banded_matrix(n=800, band=7))
        assert plan.bytes_per_nnz < 12.0
        assert plan.compression_ratio > 1.0

    def test_delta_helps_banded_indices(self):
        # The paper's core claim for delta: banded/diagonal structure.
        m = banded_matrix(n=1000, band=9)
        with_delta = compress_matrix(m, use_delta=True, use_huffman=False)
        without = compress_matrix(m, use_delta=False, use_huffman=False)
        assert with_delta.bytes_per_nnz < without.bytes_per_nnz

    def test_huffman_reduces_over_delta_snappy(self):
        m = banded_matrix(n=1000, band=9, seed=3)
        ds = compress_matrix(m, use_delta=True, use_huffman=False)
        dsh = compress_matrix(m, use_delta=True, use_huffman=True)
        # Paper: adding Huffman reduced gm 5.92 -> 5.00 B/nnz.
        assert dsh.bytes_per_nnz < ds.bytes_per_nnz * 1.02

    def test_accounting_includes_headers_and_tables(self):
        plan = dsh_plan(banded_matrix())
        payload = sum(len(r.payload) for r in plan.index_records) + sum(
            len(r.payload) for r in plan.value_records
        )
        expected = (
            payload
            + RECORD_HEADER_BYTES * (len(plan.index_records) + len(plan.value_records))
            + 2 * TABLE_BYTES
        )
        assert plan.compressed_bytes == expected

    def test_uncompressed_is_12_bytes_per_nnz(self):
        m = banded_matrix()
        plan = dsh_plan(m)
        assert plan.uncompressed_bytes == 12 * m.nnz

    def test_decompress_block_matches_original(self):
        m = random_matrix(n=200, density=0.05, seed=9)
        plan = dsh_plan(m)
        for i, ref in enumerate(plan.blocked.blocks):
            got = plan.decompress_block(i)
            np.testing.assert_array_equal(got.col_idx, ref.col_idx)
            np.testing.assert_array_equal(got.val, ref.val)

    def test_spmv_through_decompression_hook(self):
        # End-to-end: Fig 7 — SpMV over blocks decompressed on the fly.
        m = banded_matrix(n=500, band=4, seed=5)
        plan = dsh_plan(m)
        x = np.random.default_rng(2).normal(size=m.ncols)
        got = multiply_blocks(plan.blocked, x, decode=plan.decompress_block)
        np.testing.assert_allclose(got, spmv(m, x), rtol=1e-12)
        with per_block_route():
            assert recoded_spmv(plan, x)[0].tobytes() == got.tobytes()
        assert recoded_spmv(plan, x)[0].tobytes() == got.tobytes()

    def test_deterministic_given_seed(self):
        m = random_matrix(seed=4)
        a = dsh_plan(m, seed=11)
        b = dsh_plan(m, seed=11)
        assert a.compressed_bytes == b.compressed_bytes
        assert [r.payload for r in a.index_records] == [r.payload for r in b.index_records]

    def test_bad_sample_frac_raises(self):
        with pytest.raises(ValueError):
            compress_matrix(banded_matrix(), sample_frac=0.0)
        with pytest.raises(ValueError):
            compress_matrix(banded_matrix(), sample_frac=1.5)

    def test_empty_matrix(self):
        m = CSRMatrix((10, 10), np.zeros(11), np.zeros(0), np.zeros(0))
        plan = dsh_plan(m)
        assert plan.bytes_per_nnz == 0.0
        assert plan.verify()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(20, 120), st.floats(0.01, 0.2), st.integers(0, 100))
    def test_property_round_trip_random_matrices(self, n, density, seed):
        m = random_matrix(n=n, density=density, seed=seed)
        assert dsh_plan(m, seed=seed).verify()


class TestStats:
    def test_compare_schemes_fields(self):
        m = banded_matrix(n=600, band=6)
        cmp = compare_schemes(m, name="banded600")
        assert cmp.name == "banded600"
        assert cmp.nnz == m.nnz
        assert cmp.baseline == 12.0
        assert 0 < cmp.udp_dsh <= 13.0

    def test_dsh_beats_cpu_snappy_on_structured(self):
        # Fig 10's headline: DSH (gm 5.00) < CPU Snappy (gm 5.20).
        m = banded_matrix(n=1500, band=10, seed=8)
        cmp = compare_schemes(m)
        assert cmp.udp_dsh < cmp.cpu_snappy

    def test_summarize_geomeans(self):
        comps = [compare_schemes(banded_matrix(seed=s), name=str(s)) for s in range(3)]
        summary = summarize(comps)
        assert summary.count == 3
        assert summary.gm_udp_dsh > 0

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])
