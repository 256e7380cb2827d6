"""Self-time arithmetic of the benchmark's spans, and the instrumentation of
the program's layers. Run: python3 -m pytest perfbench/tests"""

import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import pytest  # noqa: E402
import spans  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402


def test_self_time_of_nested_spans():
    # run [0, 10]: children [1, 4] and [3, 6] overlap, [8, 9] apart -> 6 covered
    # [1, 4] has a grandchild [2, 3] that must not count against run
    sp = [
        Span(0, "runner.run", None, 1, 0.0, 10.0),
        Span(1, "ensembles.sample", 0, 1, 1.0, 4.0),
        Span(2, "ensembles.draw", 1, 1, 2.0, 3.0, {"entries": 4}),
        Span(3, "linalg.eigh", 0, 2, 3.0, 6.0, {"gflop": 0.5}),
        Span(4, "stats.ks", 0, 1, 8.0, 9.0),
    ]
    st = self_times(sp)
    assert st == {0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 1.0}
    m = layer_metrics(sp)
    assert m["runner.self_s"] == 4.0
    assert m["ensembles.sample_self_s"] == 2.0
    assert m["ensembles.draw_s"] == 1.0
    assert m["ensembles.matrices_sampled"] == 1


def test_child_outside_parent_is_clipped():
    sp = [Span(0, "a", None, 1, 0.0, 2.0), Span(1, "b", 0, 1, 1.5, 3.0)]
    assert self_times(sp)[0] == 1.5


def test_fake_clock_nesting():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    with tr.span("runner.run"):  # start 0
        with tr.span("linalg.eigh", gflop=0.5):  # 1 .. 2
            pass
        with tr.span("ensembles.sample"):  # 3 .. 6
            with tr.span("ensembles.draw", entries=7):  # 4 .. 5
                pass
    # run ends at 7
    run, eigh, sample, draw = tr.spans
    assert (eigh.parent, sample.parent, draw.parent) == (run.sid, run.sid, sample.sid)
    st = self_times(tr.spans)
    assert st[run.sid] == 7 - 1 - 3
    assert st[sample.sid] == 2
    assert layer_metrics(tr.spans)["ensembles.entries_drawn"] == 7


def test_spans_opened_on_pmap_threads_have_pmap_parent():
    from rmt_locallaw import parallel

    tr = Tracer()
    traced_pmap = spans._wrap_pmap(tr, parallel.pmap, parallel.default_workers)
    barrier = threading.Barrier(2, timeout=10)

    def job(k):
        with tr.span("linalg.eigh", gflop=1.0):
            barrier.wait()  # both jobs are inside their span at once
            time.sleep(0.02)
        return k * k

    with tr.span("runner.run"):
        assert traced_pmap(job, [1, 2], 2) == [1, 4]
    run, pmap_span, *jobs = tr.spans
    assert pmap_span.parent == run.sid
    assert pmap_span.attrs["jobs"] == 2 and pmap_span.attrs["workers"] == 2
    assert [j.parent for j in jobs] == [pmap_span.sid] * 2
    assert len({j.thread for j in jobs}) == 2 and all(j.thread != run.thread for j in jobs)
    st = self_times(tr.spans)
    # the two job spans overlap, so pmap's self time subtracts their union
    union = max(j.end for j in jobs) - min(j.start for j in jobs)
    assert union < sum(j.duration for j in jobs)
    assert st[pmap_span.sid] == pytest.approx(pmap_span.duration - union, abs=1e-12)
    assert st[run.sid] == pytest.approx(run.duration - pmap_span.duration, abs=1e-12)
    m = layer_metrics(tr.spans)
    assert m["parallel.jobs"] == 2 and m["linalg.eigh_calls"] == 2 and m["linalg.eigh_gflop"] == 2.0
    assert m["linalg.eigh_s"] == pytest.approx(sum(j.duration for j in jobs))


def _modules():
    from rmt_locallaw import dbm, ensembles, locallaw, moments, parallel, runner, stats

    return {
        "runner": runner, "ensembles": ensembles, "locallaw": locallaw,
        "dbm": dbm, "stats": stats, "moments": moments, "parallel": parallel,
    }


def test_instrumented_run_counts_and_restore(tmp_path):
    from rmt_locallaw import ensembles, runner

    mods = _modules()
    before = {(m, a): getattr(mods[m], a) for m, a, _, _ in spans.TARGETS if "." not in a}
    draw_before = ensembles.EntryDistribution.sample
    cfg = runner.parse_config(
        '{"experiment": "dbm-gaps", "seed": 3, "n": 60, "samples": 3, "times": [0.0, 0.1, 1.0],'
        ' "ensemble": {"profile": "wigner", "distribution": "bernoulli", "beta": 1}}'
    )
    tr = Tracer()
    undo = spans.instrument(tr, mods)
    try:
        with tr.span("runner.run"):
            runner.run(cfg, str(tmp_path))
    finally:
        spans.restore(undo)
    assert all(getattr(mods[m], a) is f for (m, a), f in before.items())
    assert ensembles.EntryDistribution.sample is draw_before
    m = layer_metrics(tr.spans)
    assert m["ensembles.profile_calls"] == 1
    assert m["ensembles.matrices_sampled"] == 6  # h0 and v per sample
    assert m["ensembles.entries_drawn"] == 6 * 60 * 60  # one real plane each
    assert m["linalg.eigh_calls"] == 9
    assert m["linalg.eigh_gflop"] == pytest.approx(9 * 4 / 3 * 60**3 / 1e9)
    assert m["parallel.jobs"] == 3
    assert m["linalg.resolvent_calls"] == 0 and m["moments.match_calls"] == 0
    # the calling thread's spans account for the whole run
    run = next(s for s in tr.spans if s.name == "runner.run")
    direct = [s for s in tr.spans if s.parent == run.sid]
    assert all(s.thread == run.thread for s in direct)
    covered = spans._union_length((s.start, s.end) for s in direct)
    assert m["runner.self_s"] + covered == pytest.approx(run.duration, abs=1e-9)


def test_scan_resolvent_layers(tmp_path):
    from rmt_locallaw import runner

    cfg = runner.parse_config(
        '{"experiment": "locallaw-scan", "seed": 5, "sizes": [40, 80], "samples": 2,'
        ' "ensemble": {"profile": "wigner", "distribution": "bernoulli", "beta": 2}}'
    )
    tr = Tracer()
    undo = spans.instrument(tr, _modules())
    try:
        with tr.span("runner.run"):
            runner.run(cfg, str(tmp_path))
    finally:
        spans.restore(undo)
    m = layer_metrics(tr.spans)
    assert m["locallaw.diagnostics_calls"] == 4 and m["linalg.resolvent_calls"] == 4
    assert m["linalg.resolvent_gflop"] == pytest.approx(2 * 4 * (8 / 3) * (40**3 + 80**3) / 1e9)
    assert m["ensembles.entries_drawn"] == 2 * 2 * (40 * 40 + 80 * 80)  # two planes for beta=2
    assert m["linalg.eigh_calls"] == 0 and m["ensembles.profile_calls"] == 2
    diag = [s for s in tr.spans if s.name == "locallaw.diagnostics"]
    assert all(tr.spans[s.parent].name == "parallel.pmap" for s in diag)
