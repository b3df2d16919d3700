"""Sparse matrix x dense matrix (SpMM): Y = A @ X for k right-hand sides.

The paper's future work asks after "performance benefit of other sparse
matrix computation using flexible data recoding". SpMM is the natural
first: each stored non-zero now does 2k flops but is still fetched once, so
the recoding win (less A-traffic) shrinks as k grows and x/y traffic takes
over — :func:`spmm_speedup_model` quantifies that crossover.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.blocked import BlockedCSR
from repro.sparse.csr import CSRMatrix, VALUE_DTYPE
from repro.sparse.spmv import spmv_blocked


def _check_x(a_shape: tuple[int, int], x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=VALUE_DTYPE)
    if x.ndim != 2 or x.shape[0] != a_shape[1]:
        raise ValueError(f"X must have shape ({a_shape[1]}, k), got {x.shape}")
    return x


def spmm(a: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Vectorized SpMM: gather rows of X, scale, segment-sum per A-row."""
    x = _check_x(a.shape, x)
    k = x.shape[1]
    out = np.zeros((a.nrows, k), dtype=VALUE_DTYPE)
    if a.nnz == 0:
        return out
    products = a.val[:, None] * x[a.col_idx]
    starts = a.row_ptr[:-1]
    nonempty = np.diff(a.row_ptr) > 0
    seg = np.add.reduceat(products, np.minimum(starts[nonempty], a.nnz - 1), axis=0)
    out[nonempty] += seg
    return out


def operands(
    shape: tuple[int, int], x: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``X`` checked, and ``out`` (allocated when None) zero-filled: the
    operands of :func:`spmm_blocked` over a matrix of ``shape``."""
    x = _check_x(shape, x)
    k = x.shape[1]
    if out is None:
        return x, np.zeros((shape[0], k), dtype=VALUE_DTYPE)
    if out.shape != (shape[0], k) or out.dtype != VALUE_DTYPE:
        raise ValueError(
            f"out must be float64 with shape ({shape[0]}, {k}), got {out.dtype} {out.shape}"
        )
    if not out.flags.writeable:
        raise ValueError("out must be writeable")
    out[:] = 0.0
    return x, out


def spmm_blocked(
    blocked: BlockedCSR,
    x: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """SpMM over decoded blocks: :func:`repro.sparse.spmv.spmv_blocked`
    per column, which beats a width-``k`` gather and ``reduceat`` with the
    same sums bit for bit.

    ``out`` is an optional preallocated ``(nrows, k)`` float64 accumulator
    (zero-filled here), letting iterative callers reuse one buffer across
    calls; the result is bit-identical either way.
    """
    x, out = operands(blocked.shape, x, out)
    for j in range(x.shape[1]):
        spmv_blocked(blocked, x[:, j], out=out[:, j])
    return out


def spmm_speedup_model(
    nnz: int, nrows: int, ncols: int, k: int, bytes_per_nnz: float
) -> float:
    """Modeled speedup of compressed vs uncompressed SpMM at k RHS.

    Traffic per multiply: A (12 or ``bytes_per_nnz`` per nnz) + X and Y
    streamed once (8k bytes per column entry). As k grows, the dense
    operands dominate and the recoding win decays toward 1 — the crossover
    the paper's future work would explore.

    Raises:
        ValueError: on non-positive ``k`` or ``bytes_per_nnz``.
    """
    if k < 1 or bytes_per_nnz <= 0:
        raise ValueError("k and bytes_per_nnz must be positive")
    dense_bytes = 8.0 * k * (nrows + ncols)
    base = 12.0 * nnz + dense_bytes
    compressed = bytes_per_nnz * nnz + dense_bytes
    return base / compressed
