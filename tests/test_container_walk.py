"""The container walk's structural checks and the shells it builds.

Forged containers below keep every CRC valid — the header, block-meta and
record CRCs and the stream trailer are recomputed after the edit — so each
case reaches the structural check it targets, and ``load_plan``, the eager
reader and the lazy reader must all raise the same type and message.
Where a container carries two faults, the one in the earlier block wins.

The shells a reader builds (:meth:`ContainerReader.shell_blocks`) must
match ``CSRBlock``\\ s rebuilt from the loaded plan: same ``row_ptr``, same
``row_segments()``, values and dtypes.
"""

import io
import struct
import zlib

import numpy as np
import pytest

from repro.codecs.container import (
    MAGIC,
    ContainerReader,
    load_plan,
    save_plan,
)
from repro.codecs.errors import ContainerError, TruncatedContainerError
from repro.codecs.pipeline import compress_matrix
from repro.collection import generators
from repro.sparse import CSRMatrix
from repro.sparse.blocked import CSRBlock

_HEADER = struct.Struct("<BIIIIQ")
_META = struct.Struct("<IIBQ")


def _pack(plan) -> bytes:
    buf = io.BytesIO()
    save_plan(plan, buf)
    return buf.getvalue()


def _parse(data: bytes) -> tuple[list, list[dict]]:
    """Split an untagged container into its header fields and tables, and
    per block its meta fields, local row_ptr and raw record bytes."""
    flags, *fields = _HEADER.unpack_from(data, len(MAGIC))
    pos = len(MAGIC) + _HEADER.size
    tables = data[pos : pos + (512 if flags & 2 else 0)]
    pos += len(tables) + 4
    blocks = []
    for _ in range(fields[3]):
        row_start, row_end, leading, nnz_start = _META.unpack_from(data, pos)
        ptr_pos = pos + _META.size
        n = row_end - row_start + 1
        row_ptr = list(struct.unpack_from(f"<{n}I", data, ptr_pos))
        start = pos = ptr_pos + 4 * n + 4
        for _ in range(2):
            pos += 20 + struct.unpack_from("<IIII", data, pos)[3]
        blocks.append(dict(
            row_start=row_start, row_end=row_end, leading=leading,
            nnz_start=nnz_start, row_ptr=row_ptr, records=data[start:pos],
        ))
    assert pos == len(data) - 4
    return [flags, *fields, tables], blocks


def _build(header: list, blocks: list[dict], tail: bytes = b"") -> bytes:
    """Serialize with every header, meta and trailer CRC recomputed."""
    *fields, tables = header
    out = bytearray(MAGIC + _HEADER.pack(*fields) + tables)
    out += struct.pack("<I", zlib.crc32(out))
    for b in blocks:
        meta = _META.pack(b["row_start"], b["row_end"], b["leading"], b["nnz_start"])
        meta += struct.pack(f"<{len(b['row_ptr'])}I", *b["row_ptr"])
        out += meta + struct.pack("<I", zlib.crc32(meta)) + b["records"]
    out += tail
    return bytes(out + struct.pack("<I", zlib.crc32(out)))


def _raise_everywhere(data: bytes) -> list[tuple[type, str]]:
    """``(type, message)`` from ``load_plan``, the eager reader and the
    lazy reader, in that order."""
    seen = []
    for open_ in (
        load_plan,
        lambda d: ContainerReader(d, verify="eager"),
        lambda d: ContainerReader(d, verify="lazy"),
    ):
        with pytest.raises(ContainerError) as info:
            open_(data)
        seen.append((type(info.value), str(info.value)))
    return seen


@pytest.fixture(scope="module")
def layout():
    """A four-block untagged container whose middle blocks end on a
    non-empty row, as parsed header and blocks."""
    data = _pack(compress_matrix(generators.banded(320, bandwidth=2, seed=3), block_bytes=1024))
    header, blocks = _parse(data)
    assert _build(header, blocks) == data  # the helpers alone change nothing
    assert len(blocks) >= 4
    for b in blocks[:4]:
        assert len(b["row_ptr"]) >= 3 and b["row_ptr"][-1] > b["row_ptr"][-2]
    return header, blocks


def _forge(layout, *edits) -> bytes:
    """The layout's container after ``edits``, each ``edit(header,
    blocks)`` changing them in place or returning bytes to append after
    the last block."""
    header, blocks = layout
    header = list(header)
    blocks = [dict(b, row_ptr=list(b["row_ptr"])) for b in blocks]
    tail = b"".join(edit(header, blocks) or b"" for edit in edits)
    return _build(header, blocks, tail)


def _non_monotone(k):
    def edit(header, blocks):
        ptr = blocks[k]["row_ptr"]
        ptr[1] = ptr[-1] + 1  # rises above the block's last entry, then falls
    return edit


def _chain_break(k):
    def edit(header, blocks):
        blocks[k]["row_start"] += 1
        blocks[k]["row_end"] += 1
    return edit


def _empty_range(header, blocks):
    blocks[1]["row_end"] = blocks[1]["row_start"]
    blocks[1]["row_ptr"] = [0]


def _beyond_nrows(header, blocks):
    blocks[-1]["row_end"] = header[2] + 1
    blocks[-1]["row_ptr"].append(blocks[-1]["row_ptr"][-1])


def _not_from_zero(header, blocks):
    blocks[1]["row_ptr"][0] = 1


def _over_budget(header, blocks):
    blocks[1]["row_ptr"][-1] = header[1] // 12 + 1


def _nnz_start_break(header, blocks):
    blocks[1]["nnz_start"] += 1


def _short_last_row(header, blocks):
    blocks[1]["row_ptr"][-1] -= 1


def _uncovered(header, blocks):
    header[2] += 1


def _trailing(header, blocks):
    return b"\0" * 7


MONOTONE = "container corruption: row_ptr not monotone from 0"

CASES = {
    "empty-row-range": ((_empty_range,), "container corruption: empty block row range"),
    "rows-beyond-nrows": ((_beyond_nrows,), "container corruption: block rows beyond nrows"),
    "chain-break": ((_chain_break(1),), "container corruption: block row ranges do not chain"),
    "non-monotone": ((_non_monotone(1),), MONOTONE),
    "row-ptr-not-from-zero": ((_not_from_zero,), MONOTONE),
    "byte-budget": ((_over_budget,), "container corruption: block exceeds its byte budget"),
    "nnz-start-break": ((_nnz_start_break,), "container corruption: nnz_start does not chain"),
    "record-lengths": (
        (_short_last_row,), "container corruption: record lengths disagree with row_ptr"),
    "uncovered-rows": ((_uncovered,), "container corruption: blocks do not cover all rows"),
    "trailing-bytes": ((_trailing,), "container corruption: trailing bytes after last block"),
    # Two faults: a non-monotone block k beats any later block's error,
    # and any error its own block finds after the monotone check.
    "non-monotone-then-chain-break": ((_non_monotone(0), _chain_break(2)), MONOTONE),
    "non-monotone-then-budget": ((_non_monotone(0), _over_budget), MONOTONE),
    "non-monotone-then-record-lengths": ((_non_monotone(0), _short_last_row), MONOTONE),
    "non-monotone-then-uncovered": ((_non_monotone(2), _uncovered), MONOTONE),
    "non-monotone-then-trailing": ((_non_monotone(3), _trailing), MONOTONE),
    "non-monotone-and-budget-in-one-block": ((_non_monotone(1), _over_budget), MONOTONE),
    "non-monotone-and-nnz-start-in-one-block": ((_non_monotone(1), _nnz_start_break), MONOTONE),
    # Within one block the meta checks before the monotone check still win.
    "chain-break-then-non-monotone": (
        (_chain_break(1), _non_monotone(1), _non_monotone(2)),
        "container corruption: block row ranges do not chain"),
    "budget-then-non-monotone": (
        (_over_budget, _non_monotone(2)), "container corruption: block exceeds its byte budget"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_forged_structure_raises_the_same_everywhere(layout, case):
    edits, message = CASES[case]
    assert _raise_everywhere(_forge(layout, *edits)) == [(ContainerError, message)] * 3


@pytest.mark.parametrize("where", ["meta", "row_ptr", "record-header", "payload"])
def test_non_monotone_block_beats_a_later_cut(layout, where):
    """A container cut inside block 2 (trailer recomputed over the cut)
    whose block 0 is non-monotone raises the monotone error, not the
    truncation."""
    data = _forge(layout, _non_monotone(0))
    header, blocks = _parse(data)
    pos = len(_build(header, blocks[:2])) - 4  # block 2's meta
    nrows = blocks[2]["row_end"] - blocks[2]["row_start"]
    cut = {
        "meta": pos + 5,
        "row_ptr": pos + _META.size + 2 * nrows,
        "record-header": pos + _META.size + 4 * (nrows + 1) + 4 + 9,
        "payload": pos + _META.size + 4 * (nrows + 1) + 4 + 20 + 3,
    }[where]
    body = data[:cut]
    cut_data = body + struct.pack("<I", zlib.crc32(body))
    assert _raise_everywhere(cut_data) == [(ContainerError, MONOTONE)] * 3
    # Unforged, the same cut raises the truncation.
    pristine = _forge(layout)[:cut]
    with pytest.raises(TruncatedContainerError):
        ContainerReader(pristine + struct.pack("<I", zlib.crc32(pristine)), verify="lazy")


# ---------------------------------------------------------------------------
# Shells against the reference
# ---------------------------------------------------------------------------


def _dense_rows(rows: list[list[float]]) -> CSRMatrix:
    width = max(len(r) for r in rows)
    return CSRMatrix.from_dense(np.array([r + [0.0] * (width - len(r)) for r in rows]))


def _split_row() -> CSRMatrix:
    dense = np.zeros((3, 3000))
    dense[1, :] = np.arange(1, 3001)
    return CSRMatrix.from_dense(dense)


def _empty_rows() -> CSRMatrix:
    """Empty leading, middle and trailing rows, within and across blocks."""
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((60, 40)) * (rng.random((60, 40)) < 0.3)
    dense[:4] = dense[20:27] = dense[41] = dense[55:] = 0.0
    return CSRMatrix.from_dense(dense)


SHELL_CASES = {
    # name: (matrix, block_bytes)
    "split-row": (_split_row, 8192),
    "empty-rows": (_empty_rows, 240),
    # Row 0 fills the two-entry budget exactly, so rows 1-3 form a block
    # with no entries at all.
    "all-empty-block": (lambda: _dense_rows([[1.0, 2.0], [], [], []]), 24),
    "one-row-blocks": (lambda: _dense_rows([[1.0, 2.0], [0.0, 3.0, 4.0], [5.0, 6.0]]), 24),
    "zero-blocks": (lambda: CSRMatrix((0, 4), np.zeros(1, np.int64), [], []), 8192),
}


@pytest.mark.parametrize("case", sorted(SHELL_CASES))
def test_shells_match_reference_blocks(case):
    build, block_bytes = SHELL_CASES[case]
    data = _pack(compress_matrix(build(), block_bytes=block_bytes))
    loaded = load_plan(data).blocked.blocks
    if case == "all-empty-block":
        assert any(b.nnz == 0 for b in loaded)
    if case == "one-row-blocks":
        assert all(b.row_end - b.row_start == 1 for b in loaded)
    if case == "zero-blocks":
        assert loaded == ()
    for verify in ("eager", "lazy"):
        with ContainerReader(data, verify=verify) as reader:
            for shell, block in zip(reader.shell_blocks(), loaded, strict=True):
                ref = CSRBlock(
                    row_start=block.row_start, row_end=block.row_end,
                    row_ptr=block.row_ptr, col_idx=block.col_idx, val=block.val,
                    nnz_start=block.nnz_start, leading_partial=block.leading_partial,
                )
                assert (shell.row_start, shell.row_end, shell.nnz_start) == (
                    ref.row_start, ref.row_end, ref.nnz_start)
                assert shell.leading_partial == ref.leading_partial
                assert shell.nnz == ref.nnz
                assert shell.row_ptr.dtype == np.int64
                np.testing.assert_array_equal(shell.row_ptr, ref.row_ptr)
                for got, want in zip(shell.row_segments(), ref.row_segments(), strict=True):
                    assert got.dtype == want.dtype
                    np.testing.assert_array_equal(got, want)
