"""Kernel microbenchmarks: host-side cost of the library's hot paths.

These time the *host implementation* (useful for library users and
regressions), unlike the figure benches which report *modeled accelerator*
numbers. The codec benches are parameterized over every kernel backend
this process can run (``python`` reference loops, the vectorized
``numpy`` fast paths and, with a C compiler, the ``native`` codec
loops), so a single run shows the baseline and each dispatch-layer win.
"""

import numpy as np
import pytest

from repro import kernels
from repro.codecs.huffman import HuffmanTable
from repro.codecs.snappy import snappy_compress, snappy_decompress
from repro.codecs.delta import delta_decode, delta_encode
from repro.codecs.varint import read_varints, write_varints
from repro.collection import generators
from repro.sparse import partition_csr, spmv
from repro.udp import Lane, assemble
from repro.udp.programs.snappy_prog import build_snappy_decode

BACKENDS = tuple(reversed(kernels.available_backends()))


@pytest.fixture(params=BACKENDS)
def backend(request):
    with kernels.use_backend(request.param):
        yield request.param


@pytest.fixture(scope="module")
def matrix():
    return generators.banded(4000, bandwidth=6, seed=1)


@pytest.fixture(scope="module")
def block_bytes(matrix):
    blocked = partition_csr(matrix)
    return blocked.blocks[0].index_bytes() + blocked.blocks[0].value_bytes()


def test_bench_snappy_compress(benchmark, block_bytes, backend):
    out = benchmark(snappy_compress, block_bytes)
    assert snappy_decompress(out) == block_bytes


def test_bench_snappy_decompress(benchmark, block_bytes, backend):
    compressed = snappy_compress(block_bytes)
    out = benchmark(snappy_decompress, compressed)
    assert out == block_bytes


def test_bench_huffman_encode(benchmark, block_bytes, backend):
    table = HuffmanTable.from_samples([block_bytes])
    payload, _ = benchmark(table.encode_bits, block_bytes)
    assert len(payload) > 0


def test_bench_huffman_decode(benchmark, block_bytes, backend):
    table = HuffmanTable.from_samples([block_bytes])
    payload, _ = table.encode_bits(block_bytes)
    out = benchmark(table.decode_bits, payload, len(block_bytes))
    assert out == block_bytes


def test_bench_varint_batch_roundtrip(benchmark, backend):
    values = np.random.default_rng(5).integers(0, 1 << 20, 50_000, dtype=np.int64)

    def roundtrip():
        blob = write_varints(values)
        return read_varints(blob, len(values))[0]

    out = benchmark(roundtrip)
    np.testing.assert_array_equal(out.astype(np.int64), values)


def test_bench_delta_roundtrip(benchmark):
    arr = np.arange(100_000, dtype=np.int32)

    def roundtrip():
        return delta_decode(delta_encode(arr))

    out = benchmark(roundtrip)
    np.testing.assert_array_equal(out, arr)


def test_bench_spmv_vectorized(benchmark, matrix):
    x = np.random.default_rng(0).normal(size=matrix.ncols)
    y = benchmark(spmv, matrix, x)
    assert y.shape == (matrix.nrows,)


def test_bench_partition(benchmark, matrix):
    blocked = benchmark(partition_csr, matrix)
    assert blocked.nnz == matrix.nnz


def test_bench_udp_lane_snappy_decode(benchmark, block_bytes):
    asm = assemble(build_snappy_decode())
    compressed = snappy_compress(block_bytes)
    lane = Lane()
    res = benchmark(lane.run, asm, compressed)
    assert res.output == block_bytes
