"""Unit layer for repro.serve: wire protocol, admission, shared cache,
and the fusion scheduler's fairness policy — no sockets, no asyncio."""

import numpy as np
import pytest

from repro.codecs.engine import DecodedBlockCache
from repro.serve import (
    Admission,
    AdmissionController,
    SHED_INFLIGHT_BYTES,
    SHED_TENANT_RATE,
    TokenBucket,
    select_batch,
)
from repro.serve import protocol
from repro.serve.scheduler import WorkItem
from repro.serve.server import ServeConfig
from repro.serve.session import MatrixInfo
from repro.sparse.blocked import CSRBlock


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class TestArrayCodec:
    def test_roundtrip_bit_exact(self):
        x = np.random.default_rng(3).standard_normal(257)
        back = protocol.decode_array(protocol.encode_array(x))
        assert back.dtype == x.dtype
        assert np.array_equal(back, x)
        assert back.tobytes() == x.tobytes()

    def test_roundtrip_2d(self):
        X = np.random.default_rng(4).standard_normal((13, 5))
        back = protocol.decode_array(protocol.encode_array(X))
        assert back.shape == (13, 5)
        assert np.array_equal(back, X)

    def test_payload_length_mismatch_rejected(self):
        obj = protocol.encode_array(np.ones(8))
        obj["shape"] = [9]
        with pytest.raises(protocol.ProtocolError, match="payload bytes"):
            protocol.decode_array(obj)

    def test_bad_base64_rejected(self):
        obj = protocol.encode_array(np.ones(4))
        obj["data"] = "!!!not-base64!!!"
        with pytest.raises(protocol.ProtocolError, match="malformed"):
            protocol.decode_array(obj)

    def test_negative_dimension_rejected(self):
        obj = protocol.encode_array(np.ones(4))
        obj["shape"] = [-4]
        with pytest.raises(protocol.ProtocolError, match="negative"):
            protocol.decode_array(obj)

    def test_non_object_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_array([1, 2, 3])


def _wire_spmv(**over):
    msg = {
        "op": "spmv",
        "id": "r1",
        "tenant": "acme",
        "matrix": "m",
        "x": protocol.encode_array(np.ones(16)),
    }
    msg.update(over)
    return msg


class TestRequestValidation:
    def test_valid_spmv(self):
        req = protocol.Request.from_wire(_wire_spmv(deadline_ms=250, policy="degrade"))
        assert (req.op, req.tenant, req.matrix) == ("spmv", "acme", "m")
        assert req.deadline_ms == 250.0
        assert req.policy == "degrade"
        assert req.nrhs == 1

    def test_unknown_op(self):
        with pytest.raises(protocol.ProtocolError, match="unknown op"):
            protocol.Request.from_wire(_wire_spmv(op="solve"))

    def test_missing_id(self):
        msg = _wire_spmv()
        del msg["id"]
        with pytest.raises(protocol.ProtocolError, match="id"):
            protocol.Request.from_wire(msg)

    def test_spmv_rejects_2d_x(self):
        with pytest.raises(protocol.ProtocolError, match="1-D"):
            protocol.Request.from_wire(
                _wire_spmv(x=protocol.encode_array(np.ones((4, 4))))
            )

    def test_spmm_rejects_1d_x(self):
        with pytest.raises(protocol.ProtocolError, match="2-D"):
            protocol.Request.from_wire(_wire_spmv(op="spmm"))

    def test_spmm_nrhs(self):
        req = protocol.Request.from_wire(
            _wire_spmv(op="spmm", x=protocol.encode_array(np.ones((16, 3))))
        )
        assert req.nrhs == 3

    @pytest.mark.parametrize("deadline", [0, -5, "soon", True])
    def test_bad_deadline(self, deadline):
        with pytest.raises(protocol.ProtocolError, match="deadline_ms"):
            protocol.Request.from_wire(_wire_spmv(deadline_ms=deadline))

    def test_bad_policy(self):
        with pytest.raises(protocol.ProtocolError, match="policy"):
            protocol.Request.from_wire(_wire_spmv(policy="yolo"))

    def test_stats_needs_no_matrix(self):
        req = protocol.Request.from_wire({"op": "stats", "id": "s1"})
        assert req.op == "stats" and req.x is None

    def test_parse_line_bad_json(self):
        with pytest.raises(protocol.ProtocolError, match="bad JSON"):
            protocol.parse_line(b"{nope")

    def test_non_float64_upcast(self):
        req = protocol.Request.from_wire(
            _wire_spmv(x=protocol.encode_array(np.ones(16, dtype=np.float32)))
        )
        assert req.x.dtype == np.float64


class TestEnvelopes:
    def test_ok_derived_from_status(self):
        assert protocol.response("r", "spmv", 200)["ok"] is True
        assert protocol.response("r", "spmv", 429)["ok"] is False

    def test_error_response_typed(self):
        resp = protocol.error_response(
            "r", "spmv", 500, "BlockDecodeError", "block 3 failed", block_id=3
        )
        assert resp["error"] == {
            "type": "BlockDecodeError",
            "message": "block 3 failed",
            "block_id": 3,
        }

    def test_dump_line_is_one_line(self):
        line = protocol.dump_line({"id": "r", "y": [1, 2]})
        assert line.endswith(b"\n") and line.count(b"\n") == 1


# ---------------------------------------------------------------------------
# Admission
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestTokenBucket:
    def test_burst_then_refill(self):
        clk = FakeClock()
        b = TokenBucket(rate=2.0, burst=3.0, clock=clk)
        assert [b.try_acquire() for _ in range(4)] == [True, True, True, False]
        clk.t += 1.0  # 2 tokens back
        assert b.try_acquire() and b.try_acquire() and not b.try_acquire()

    def test_burst_is_ceiling(self):
        clk = FakeClock()
        b = TokenBucket(rate=10.0, burst=2.0, clock=clk)
        clk.t += 100.0
        assert b.tokens == 2.0

    def test_none_rate_always_grants(self):
        b = TokenBucket(rate=None)
        assert all(b.try_acquire() for _ in range(1000))

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestAdmissionController:
    def test_tenant_rate_shed(self):
        clk = FakeClock()
        ctl = AdmissionController(10**6, tenant_rate=1.0, tenant_burst=1.0, clock=clk)
        assert ctl.try_admit("a", 10).admitted
        refused = ctl.try_admit("a", 10)
        assert refused == Admission(False, SHED_TENANT_RATE)
        # A different tenant has its own bucket.
        assert ctl.try_admit("b", 10).admitted

    def test_inflight_budget_shed_and_release(self):
        ctl = AdmissionController(100)
        assert ctl.try_admit("a", 70).admitted
        refused = ctl.try_admit("a", 40)
        assert refused.reason == SHED_INFLIGHT_BYTES
        ctl.release(70)
        assert ctl.inflight_bytes == 0
        assert ctl.try_admit("a", 40).admitted

    def test_oversized_request_admitted_when_idle(self):
        # The budget gates concurrency, not request size: a request
        # bigger than the whole budget must run when nothing else does.
        ctl = AdmissionController(100)
        grant = ctl.try_admit("a", 10**9)
        assert grant.admitted
        assert not ctl.try_admit("b", 1).admitted
        ctl.release(grant.cost_bytes)
        assert ctl.try_admit("b", 1).admitted

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(100).try_admit("a", -1)


# ---------------------------------------------------------------------------
# Shared decoded cache
# ---------------------------------------------------------------------------


def _block(nnz: int) -> CSRBlock:
    return CSRBlock(
        row_start=0,
        row_end=1,
        row_ptr=np.array([0, nnz], dtype=np.int64),
        col_idx=np.arange(nnz, dtype=np.int32),
        val=np.ones(nnz),
        nnz_start=0,
    )


class TestSharedDecodedCache:
    """The server's shared cache: a DecodedBlockCache with a per-matrix share."""

    def test_block_bigger_than_share_refused(self):
        c = DecodedBlockCache(max_bytes=1200, max_matrix_frac=0.5)
        c.put(("m", 0, "f"), _block(nnz=100))  # 1200 B > 600 B share
        assert c.rejected == 1
        assert c.get(("m", 0, "f")) is None

    def test_matrix_evicts_its_own_lru_first(self):
        # 10 B/nnz... nbytes = 12 * nnz; budget 1200, share 600.
        c = DecodedBlockCache(max_bytes=1200, max_matrix_frac=0.5)
        c.put(("a", 0, "f"), _block(20))  # 240 B
        c.put(("b", 0, "f"), _block(20))  # 240 B
        c.put(("a", 1, "f"), _block(20))
        c.put(("a", 2, "f"), _block(20))  # a at 720 > 600: evict a's oldest
        assert c.get(("a", 0, "f")) is None
        assert c.get(("b", 0, "f")) is not None
        assert c.matrix_evictions == 1
        assert c.matrix_bytes("a") == 480

    def test_global_bound_still_applies(self):
        c = DecodedBlockCache(max_bytes=400, max_matrix_frac=1.0)
        for i in range(4):
            c.put(("m", i, "f"), _block(10))  # 120 B each
        assert c.stats.current_bytes <= 400
        assert c.get(("m", 0, "f")) is None
        assert c.get(("m", 3, "f")) is not None

    def test_evict_matrix(self):
        c = DecodedBlockCache(max_bytes=10**6, max_matrix_frac=0.5)
        c.put(("a", 0, "f"), _block(10))
        c.put(("b", 0, "f"), _block(10))
        freed = c.evict_matrix("a")
        assert freed == 120
        assert c.matrix_bytes("a") == 0
        assert c.get(("b", 0, "f")) is not None

    def test_frac_validation(self):
        with pytest.raises(ValueError):
            DecodedBlockCache(max_matrix_frac=0.0)
        with pytest.raises(ValueError):
            DecodedBlockCache(max_matrix_frac=1.5)


# ---------------------------------------------------------------------------
# Scheduler policy + config
# ---------------------------------------------------------------------------


def _item(tenant: str, tag: int) -> WorkItem:
    req = protocol.Request(op="spmv", id=f"{tenant}-{tag}", tenant=tenant)
    return WorkItem(req=req, cost_bytes=0, future=None)


class TestSelectBatch:
    def test_round_robin_across_tenants(self):
        items = [_item("a", i) for i in range(5)] + [_item("b", 0)]
        picked, leftover = select_batch(items, max_fuse=4)
        tenants = [it.req.tenant for it in picked]
        # b's lone request rides the first batch despite a's backlog.
        assert "b" in tenants
        assert len(picked) == 4 and len(leftover) == 2

    def test_fifo_within_tenant(self):
        items = [_item("a", i) for i in range(6)]
        picked, leftover = select_batch(items, max_fuse=4)
        assert [it.req.id for it in picked] == ["a-0", "a-1", "a-2", "a-3"]
        assert [it.req.id for it in leftover] == ["a-4", "a-5"]

    def test_no_split_needed(self):
        items = [_item("a", 0), _item("b", 0)]
        picked, leftover = select_batch(items, max_fuse=8)
        assert picked == items and leftover == []


class TestConfigAndCost:
    def test_bad_mode(self):
        # Every request runs the one engine decoder: there is no executor
        # mode to configure.
        with pytest.raises(TypeError, match="mode"):
            ServeConfig(root=".", mode="serial")

    def test_cost_model_monotonic_in_nrhs(self):
        info = MatrixInfo(
            name="m", path="m.dsh", container_bytes=1000, nnz=500,
            nblocks=4, shape=(100, 100), block_bytes=256,
        )
        assert info.decoded_bytes == 6000
        costs = [info.estimated_cost_bytes(k) for k in (1, 2, 8)]
        assert costs == sorted(costs) and costs[0] < costs[-1]
        # The compressed+decoded streams are paid once (fused SpMM),
        # only the dense vectors scale with nrhs.
        assert costs[1] - costs[0] == 8 * 200
