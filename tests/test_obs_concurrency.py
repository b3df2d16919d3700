"""Concurrency tests: the registry under threads.

The registry's contract is that concurrent recording never loses an
increment, and that snapshots taken while writers are live stay
consistent.
"""

import threading

from repro.obs import MetricsRegistry


def test_threaded_counter_increments_equal_serial_sum():
    reg = MetricsRegistry()
    nthreads, per_thread = 8, 2000

    def work():
        c = reg.counter("threads.c")
        h = reg.histogram("threads.h")
        for _ in range(per_thread):
            c.inc()
            h.observe(1.0)

    threads = [threading.Thread(target=work) for _ in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.value("threads.c") == nthreads * per_thread
    assert reg.get("threads.h").count == nthreads * per_thread


def test_threads_recording_during_snapshots():
    """Snapshots taken while writers are live must never crash and the
    final snapshot must account for every increment."""
    reg = MetricsRegistry()
    stop = threading.Event()

    def write():
        c = reg.counter("live.c", src="w")
        while not stop.is_set():
            c.inc()

    writers = [threading.Thread(target=write) for _ in range(4)]
    for t in writers:
        t.start()
    for _ in range(50):
        reg.snapshot()
    stop.set()
    for t in writers:
        t.join()
    final = reg.snapshot()["live.c{src=w}"]["value"]
    assert final == reg.value("live.c", src="w") > 0
