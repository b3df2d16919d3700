"""SpMV kernels: y <- A @ x (+ y0).

Three implementations with one contract:

* :func:`spmv_reference` — the scalar loop of paper Fig. 2, kept as the
  executable specification (used by tests and tiny matrices).
* :func:`spmv` — vectorized kernel (gather + segment-sum via
  ``np.add.reduceat``), the production path.
* :func:`spmv_blocked` — one CSR SpMV over a decoded
  :class:`~repro.sparse.blocked.BlockedCSR`, bit-identical to the tiled
  loop of paper Fig. 7, whose recoded form with the UDP decompression in
  front of each block is :func:`repro.core.executor.run_blocks`.

All three accept an ``out=`` buffer for in-place accumulation. The
mutation contract: ``out`` must be a C-contiguous float64 vector of shape
``(nrows,)``; it is overwritten (initialized from ``y`` when given, zeros
otherwise), mutated in place, and returned. Passing ``out=y`` (aliasing)
accumulates into ``y`` directly without the defensive copy — what
iterative drivers want so each step stops paying a fresh allocation.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.blocked import BlockedCSR
from repro.sparse.csr import CSRMatrix, VALUE_DTYPE

#: SpMV performs one multiply and one add per stored non-zero.
FLOPS_PER_NNZ = 2


def _check_x(a_shape: tuple[int, int], x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=VALUE_DTYPE)
    if x.shape != (a_shape[1],):
        raise ValueError(f"x must have shape ({a_shape[1]},), got {x.shape}")
    return x


def _prepare_out(
    nrows: int, y: np.ndarray | None, out: np.ndarray | None
) -> np.ndarray:
    """Resolve the (y, out) pair into the accumulator vector.

    No ``out``: allocate (zeros, or a defensive copy of ``y``) — the
    historical behavior, ``y`` is never mutated. With ``out``: validate it
    (float64, shape ``(nrows,)``, writeable), initialize it from ``y``
    (zeros when ``y is None``, nothing when ``y is out``), and return it.
    """
    if out is None:
        out = (
            np.zeros(nrows, dtype=VALUE_DTYPE)
            if y is None
            else np.array(y, dtype=VALUE_DTYPE)
        )
        if out.shape != (nrows,):
            raise ValueError(f"y must have shape ({nrows},)")
        return out
    if not isinstance(out, np.ndarray) or out.dtype != VALUE_DTYPE:
        raise ValueError("out must be a float64 ndarray")
    if out.shape != (nrows,):
        raise ValueError(f"out must have shape ({nrows},), got {out.shape}")
    if not out.flags.writeable:
        raise ValueError("out must be writeable")
    if y is None:
        out[:] = 0.0
    elif y is not out:
        y = np.asarray(y, dtype=VALUE_DTYPE)
        if y.shape != (nrows,):
            raise ValueError(f"y must have shape ({nrows},)")
        out[:] = y
    return out


def spmv_reference(
    a: CSRMatrix,
    x: np.ndarray,
    y: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Scalar CSR SpMV exactly as in paper Fig. 2. O(nnz) Python loop."""
    x = _check_x(a.shape, x)
    out = _prepare_out(a.nrows, y, out)
    row_ptr, col_idx, val = a.row_ptr, a.col_idx, a.val
    for i in range(a.nrows):
        temp = out[i]
        for j in range(row_ptr[i], row_ptr[i + 1]):
            temp = temp + val[j] * x[col_idx[j]]
        out[i] = temp
    return out


def spmv(
    a: CSRMatrix,
    x: np.ndarray,
    y: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized CSR SpMV: gather x, multiply, segment-sum per row."""
    x = _check_x(a.shape, x)
    out = _prepare_out(a.nrows, y, out)
    if a.nnz == 0:
        return out
    products = a.val * x[a.col_idx]
    # reduceat segments start at row_ptr[i]; empty rows would repeat the
    # previous segment, so mask them out explicitly.
    starts = a.row_ptr[:-1]
    nonempty = np.diff(a.row_ptr) > 0
    # reduceat requires indices < len(products); empty trailing rows have
    # start == nnz.
    seg = np.add.reduceat(products, np.minimum(starts[nonempty], a.nnz - 1))
    out[nonempty] += seg
    return out


def operands(
    shape: tuple[int, int], x: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``x`` checked, and ``out`` (allocated when None) zero-filled: the
    operands of :func:`spmv_blocked` over a matrix of ``shape``."""
    return _check_x(shape, x), _prepare_out(shape[0], None, out)


def _flat_layout(blocked: BlockedCSR) -> tuple:
    """``(col, val, starts, passes)`` for :func:`spmv_blocked`, memoized:
    :attr:`BlockedCSR.flat`, every block's segment starts offset into it
    (one ``reduceat`` then yields each block's per-row partials), and per
    occurrence ``k`` the ``(rows, positions)`` of every row's ``k``-th
    partial, so split rows fold in block order as the loop folds them."""
    cached = blocked.__dict__.get("_flat_layout")
    if cached is None:
        segs = [b.row_segments() for b in blocked.blocks]
        at = np.cumsum([0] + [b.nnz for b in blocked.blocks[:-1]])
        rows = np.concatenate([np.empty(0, np.int64)] + [r for r, _ in segs])
        starts = np.concatenate([np.empty(0, np.int64)] + [s + a for (_, s), a in zip(segs, at)])
        order = np.argsort(rows, kind="stable")
        occ = np.empty_like(order)
        occ[order] = np.arange(rows.size) - np.searchsorted(rows[order], rows[order])
        passes = tuple(
            (rows[occ == k], np.flatnonzero(occ == k)) for k in range(occ.max(initial=-1) + 1)
        )
        cached = (*blocked.flat, starts, passes)
        object.__setattr__(blocked, "_flat_layout", cached)
    return cached


def spmv_blocked(
    blocked: BlockedCSR,
    x: np.ndarray,
    y: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """SpMV over row-range blocks already decoded (a warm session's): one
    CSR SpMV over their concatenation (see :func:`_flat_layout`), summing
    in the per-block loop's order, so bit-identical to it.
    """
    x = _check_x(blocked.shape, x)
    out = _prepare_out(blocked.shape[0], y, out)
    col, val, starts, passes = _flat_layout(blocked)
    # np.take: fancy indexing converts the int32 indices to intp per call.
    seg = np.add.reduceat(val * np.take(x, col), starts)
    for rows, pos in passes:
        out[rows] += seg[pos]
    return out
