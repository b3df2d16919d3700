"""In-memory span ledger for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: :func:`instrument`
replaces public entry points of the ``repro`` layers with wrappers that
open a span around each call, and restores the originals afterwards. The
program under test is never edited. Each span keeps its name, start,
end, parent and request id; counts (calls, bytes out) are taken at the
same boundaries. Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    thread: str
    nbytes: int = 0
    #: Time of leaf calls too frequent to keep as spans (one per block),
    #: summed per name; part of this span, not of its self time.
    folded: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Ledger:
    """Collects spans per thread, with a stack giving each span its parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # Per asyncio task (each copies the context it starts in), so
        # concurrent requests keep their own id.
        self._request: contextvars.ContextVar[str | None] = contextvars.ContextVar(
            "request", default=None)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._kids: dict[int | None, list[Span]] | None = None

    @property
    def request(self) -> str | None:
        """Request id given to the spans opened from here on."""
        return self._request.get()

    @request.setter
    def request(self, value: str | None) -> None:
        self._request.set(value)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            sid=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=stack[-1].sid if stack else None,
            request=self.request,
            thread=threading.current_thread().name,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)
            self._kids = None

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn, name: str, out_bytes=None, hook_arg: str | None = None,
             hook_name: str = "core.recode_hook", fold_hook: bool = False):
        """``fn`` with a span around each call.

        ``out_bytes(result)`` records the bytes a call produced, for MB/s.
        ``hook_arg`` names a callable keyword argument (the per-block
        ``recode`` hook of the executors and of the session fast path)
        that is timed as ``hook_name``, so that per-block work is not
        charged to the multiply kernel: as a span of its own, or, with
        ``fold_hook`` (for a hook that calls nothing spanned), summed into
        this span's ``folded`` time.
        """
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = ledger.open(name)
            hook = kwargs.get(hook_arg) if hook_arg is not None else None
            if hook is not None:
                kwargs[hook_arg] = (_folded(hook, hook_name, span) if fold_hook
                                    else ledger.wrap(hook, hook_name))
            try:
                result = fn(*args, **kwargs)
                if out_bytes is not None:
                    span.nbytes = out_bytes(result)
                return result
            finally:
                ledger.close(span)

        return wrapper

    # -- analysis -------------------------------------------------------------

    def children(self) -> dict[int | None, list[Span]]:
        with self._lock:
            if self._kids is None:
                kids: dict[int | None, list[Span]] = defaultdict(list)
                for s in self.spans:
                    kids[s.parent].append(s)
                self._kids = kids
            return self._kids

    def self_times(self) -> dict[int, float]:
        kids = self.children()
        return {
            s.sid: s.dur - sum(c.dur for c in kids.get(s.sid, ())) - sum(s.folded.values())
            for s in self.spans
        }

    def closure_error(self) -> float:
        """Largest violation of ``self + children = span`` with
        non-negative self time and children inside their parent."""
        kids = self.children()
        worst = 0.0
        for s in self.spans:
            cs = kids.get(s.sid, ())
            covered = sum(c.dur for c in cs) + sum(s.folded.values())
            worst = max(worst, covered - s.dur)
            for c in cs:
                worst = max(worst, s.start - c.start, c.end - s.end)
        return max(worst, 0.0)

    def subtree(self, root: Span) -> list[Span]:
        kids = self.children()
        out, todo = [], [root]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(kids.get(s.sid, ()))
        return out


def _folded(fn, name: str, parent: Span):
    """``fn`` timed into ``parent.folded[name]`` instead of a span."""

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            parent.folded[name] = parent.folded.get(name, 0.0) + time.perf_counter() - t0

    return timed


class Patch:
    """Attribute replacements that :meth:`undo` puts back, in reverse."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def instrument(ledger: Ledger) -> Patch:
    """Wrap the public entry points of every layer the benchmark reports.

    Each function is patched in every module namespace that calls it by
    its bare name, so a call from inside the package is seen too.
    """
    from repro.codecs import container, engine, huffman, pipeline
    from repro.core import executor, session, spmv_pipeline
    from repro.memsys import dma, dram
    from repro.serve import protocol

    patch = Patch()

    def method(cls, attr, name, **kw):
        patch.set(cls, attr, ledger.wrap(cls.__dict__[attr], name, **kw))

    def function(modules, attr, name, **kw):
        # One wrapper shared by every namespace, so identity checks such
        # as ``kernel is spmm_blocked`` still hold.
        wrapped = ledger.wrap(getattr(modules[0], attr), name, **kw)
        for mod in modules:
            patch.set(mod, attr, wrapped)

    # codecs: container read, the three decode stages, encode stages.
    method(container.ContainerReader, "__init__", "container.open")
    method(container.ContainerReader, "record", "container.record")
    method(huffman.HuffmanTable, "decode_bits", "huffman.decode", out_bytes=len)
    method(huffman.HuffmanTable, "encode_bits", "huffman.encode")
    function([pipeline], "snappy_decompress", "snappy.decode", out_bytes=len)
    function([pipeline], "snappy_compress", "snappy.encode")
    function([pipeline], "delta_decode", "delta.decode")
    function([pipeline, engine], "decode_record", "pipeline.decode_record")
    method(pipeline.MatrixCompression, "decompress_block", "pipeline.assemble")
    function([pipeline], "compress_matrix", "pipeline.compress_matrix")
    # engine: the calls a consumer blocks on.
    method(engine.RecodeEngine, "decode_block", "engine.decode_block")
    method(engine.AsyncDecode, "__next__", "engine.async_next")
    # sparse: blocked multiply kernels. Their recode hook streams and
    # decodes in the cold executors and probes the cache on a warm session.
    for mod, hook in ((spmv_pipeline, "core.recode_hook"), (session, "session.cache_probe")):
        for kernel in ("spmv_blocked", "spmm_blocked"):
            function([mod], kernel, f"sparse.{kernel}", hook_arg="recode", hook_name=hook,
                     fold_hook=mod is session)
    function([executor], "multiply_block", "sparse.multiply_block")
    # core: executors and sessions.
    function([spmv_pipeline, session], "recoded_spmv", "core.recoded_spmv")
    function([spmv_pipeline, session], "recoded_spmm", "core.recoded_spmm")
    function([spmv_pipeline], "run_pipelined", "core.run_pipelined")
    method(session.ExecutionSession, "spmv", "session.spmv")
    method(session.ExecutionSession, "spmm", "session.spmm")
    # memsys: the modeled DRAM stream and DMA accounting (measured cost of
    # running the model, not modeled seconds).
    method(dram.MemorySystem, "stream_record", "memsys.stream_record")
    method(dma.DMAEngine, "transfer", "memsys.dma_transfer")
    # serve client: request encode and response decode.
    function([protocol], "encode_array", "serve.encode_array")
    function([protocol], "decode_array", "serve.decode_array")
    return patch


#: Span name -> per-layer self-time bucket.
LAYER_OF = {
    "container.open": "container.open_s",
    "container.record": "container.record_s",
    "huffman.decode": "huffman.decode_s",
    "huffman.encode": "huffman.encode_s",
    "snappy.decode": "snappy.decode_s",
    "snappy.encode": "snappy.encode_s",
    "delta.decode": "delta.decode_s",
    "pipeline.decode_record": "decode_record.self_s",
    "pipeline.assemble": "pipeline.assemble_s",
    "pipeline.compress_matrix": "pipeline.encode_self_s",
    "engine.decode_block": "engine.decode_block_s",
    "engine.async_next": "engine.decode_block_s",
    "sparse.spmv_blocked": "multiply.self_s",
    "sparse.spmm_blocked": "multiply.self_s",
    "sparse.multiply_block": "multiply.self_s",
    "core.recoded_spmv": "executor.self_s",
    "core.recoded_spmm": "executor.self_s",
    "core.run_pipelined": "executor.self_s",
    "core.recode_hook": "executor.self_s",
    "session.spmv": "session.self_s",
    "session.spmm": "session.self_s",
    "session.cache_probe": "session.self_s",
    "solvers.cg": "solver.vector_s",
    "solvers.pagerank": "solver.vector_s",
    "memsys.stream_record": "memsys.model_s",
    "memsys.dma_transfer": "memsys.model_s",
    "serve.encode_array": "serve.client_codec_s",
    "serve.decode_array": "serve.client_codec_s",
}

#: Self-time buckets that make up the codec stages of a cold decode.
CODEC_LAYERS = (
    "container.open_s",
    "container.record_s",
    "huffman.decode_s",
    "snappy.decode_s",
    "delta.decode_s",
    "decode_record.self_s",
)


def layer_ledger(ledger: Ledger, root: Span) -> dict[str, float]:
    """Self time per layer bucket under ``root``; everything not inside a
    layer span (the benchmark's own loop, checks and idle time) lands in
    ``unattributed_s``, so the buckets sum to the root's duration."""
    selfs = ledger.self_times()
    out: dict[str, float] = defaultdict(float)
    for s in ledger.subtree(root):
        out[LAYER_OF.get(s.name, "unattributed_s")] += selfs[s.sid]
        for name, secs in s.folded.items():
            out[LAYER_OF[name]] += secs
    return dict(out)
