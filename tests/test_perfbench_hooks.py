"""The benchmark ledger's patch points stay wired to the program.

``perfbench.ledger.instrument`` wraps entry points of the ``repro`` layers
by attribute name. A renamed or moved hook would otherwise only surface in
a traced benchmark run; here a cold ``recoded_spmv`` over a ``.dsh`` path
and one session SpMV must record the container spans, and ``undo()`` must
put every patched attribute back. The untraced calls perfbench makes
(``RecodeEngine(workers=nproc())`` and ``mode="pipelined"``) must keep
working too.
"""

import multiprocessing

import numpy as np

from perfbench.ledger import Ledger, instrument
from repro.codecs.container import save_plan
from repro.codecs.engine import RecodeEngine
from repro.codecs.stats import dsh_plan
from repro.collection import generators
from repro.core import recoded_spmv
from repro.core.session import ExecutionSession


def test_container_spans_recorded_and_undo_restores(tmp_path):
    plan = dsh_plan(generators.banded(300, bandwidth=3, seed=4))
    path = tmp_path / "m.dsh"
    save_plan(plan, path)
    x = np.random.default_rng(2).standard_normal(plan.blocked.shape[1])
    y_ref, _ = recoded_spmv(plan, x)

    ledger = Ledger()
    patch = instrument(ledger)
    saved = list(patch._saved)
    try:
        y_cold, _ = recoded_spmv(str(path), x)
        with ExecutionSession(path) as sess:
            y_warm, _ = sess.spmv(x)
    finally:
        patch.undo()

    assert y_cold.tobytes() == y_ref.tobytes()
    assert y_warm.tobytes() == y_ref.tobytes()
    names = {s.name for s in ledger.spans}
    assert {"container.open", "container.record"} <= names
    assert saved
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, f"{owner!r}.{attr} not restored"


def test_untraced_engine_call_contract(tmp_path):
    """perfbench builds ``RecodeEngine(workers=nproc())`` and runs
    ``recoded_spmv(path, x, engine=..., mode="pipelined")``: bit-identical
    to the engine-less call, and no child process is started."""
    plan = dsh_plan(generators.banded(300, bandwidth=3, seed=4))
    path = tmp_path / "m.dsh"
    save_plan(plan, path)
    x = np.random.default_rng(3).standard_normal(plan.blocked.shape[1])
    y_ref, _ = recoded_spmv(str(path), x)

    eng = RecodeEngine(workers=2)
    try:
        y, _ = recoded_spmv(str(path), x, engine=eng, mode="pipelined")
        assert multiprocessing.active_children() == []
    finally:
        eng.close()
    assert y.tobytes() == y_ref.tobytes()
    assert multiprocessing.active_children() == []
