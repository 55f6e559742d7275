"""Label interning and file export of :class:`TraceRecorder`.

* thread ids are numbered per process, ``1..n`` in first-seen order, no
  matter how recordings of different processes interleave, and every tid
  gets exactly one ``thread_name`` metadata event;
* :meth:`TraceRecorder.save` writes exactly ``json.dumps(to_json())``.
"""

import json

from repro.sim import TraceRecorder

N_PROCESSES = 3
N_THREADS = 50


def _interleaved_recorder() -> TraceRecorder:
    recorder = TraceRecorder()
    for t in range(N_THREADS):
        for p in range(N_PROCESSES):
            # Each process sees its threads in a different (rotated) order.
            thread = (t + 17 * p) % N_THREADS
            recorder.add_span(f"proc {p}", f"thread {thread}", "work", t, t + 0.5)
    return recorder


def test_tids_are_per_process_first_seen_order():
    recorder = _interleaved_recorder()
    events = recorder.events()
    pid_of = {
        e["args"]["name"]: e["pid"] for e in events if e["name"] == "process_name"
    }
    for p in range(N_PROCESSES):
        pid = pid_of[f"proc {p}"]
        first_seen = []
        for e in events:
            if e["ph"] == "X" and e["pid"] == pid and e["tid"] not in first_seen:
                first_seen.append(e["tid"])
        assert first_seen == list(range(1, N_THREADS + 1))
        names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["name"] == "thread_name" and e["pid"] == pid
        }
        assert sorted(names) == list(range(1, N_THREADS + 1))
        for tid, name in names.items():
            assert name == f"thread {(tid - 1 + 17 * p) % N_THREADS}"
    n_thread_meta = sum(1 for e in events if e["name"] == "thread_name")
    assert n_thread_meta == N_PROCESSES * N_THREADS


def test_repeat_labels_reuse_their_tid():
    recorder = TraceRecorder()
    recorder.add_span("a", "x", "s1", 0.0, 1.0)
    recorder.add_span("b", "y", "s2", 0.0, 1.0)
    recorder.add_span("a", "z", "s3", 1.0, 2.0)
    recorder.add_span("a", "x", "s4", 2.0, 3.0)
    spans = {e["name"]: e["tid"] for e in recorder.events() if e["ph"] == "X"}
    assert spans == {"s1": 1, "s2": 1, "s3": 2, "s4": 1}


def test_save_writes_json_dumps_bytes(tmp_path):
    recorder = _interleaved_recorder()
    recorder.add_instant("proc 0", "events", "marker", 1.0, args={"note": "é"})
    recorder.add_counter("proc 1", "load", 2.0, {"jobs": 3.0})
    path = recorder.save(tmp_path / "nested" / "trace.json")
    assert path.read_bytes() == json.dumps(recorder.to_json()).encode()
