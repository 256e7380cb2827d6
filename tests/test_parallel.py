import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest

from rmt_locallaw import parallel

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _threads():
    return parallel.numpy_openblas().get_threads()


def test_pmap_pins_blas_per_job_and_restores():
    lib = parallel.numpy_openblas()  # the only BLAS the program calls
    assert lib is parallel.numpy_openblas()
    earlier = _threads()
    try:
        lib.set_threads(2)
        before = _threads()
        for workers in (1, 2):
            assert parallel.pmap(lambda job: _threads(), range(3), workers) == [1] * 3
            assert _threads() == before

            def boom(job):
                raise RuntimeError(job)

            with pytest.raises(RuntimeError):
                parallel.pmap(boom, range(3), workers)
            assert _threads() == before
    finally:
        lib.set_threads(earlier)


def test_blas_threads_nests_only_at_one_count():
    with parallel.blas_threads(1):
        with parallel.blas_threads(1):
            assert _threads() == 1
        assert _threads() == 1
        with pytest.raises(ValueError):
            with parallel.blas_threads(2):
                pass
    with pytest.raises(ValueError):
        with parallel.blas_threads(0):
            pass


def test_overlapping_pmaps_share_one_pin():
    # pmaps called from many threads at once: every job sees 1 BLAS thread and
    # the last exit restores the count, which a lost depth update would break
    earlier = _threads()
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel.numpy_openblas().set_threads(2)
        before = _threads()
        threads = [threading.Thread(target=lambda: seen.extend(parallel.pmap(lambda j: _threads(), range(4), 2)))
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert seen == [1] * 32
        assert _threads() == before
    finally:
        sys.setswitchinterval(interval)
        parallel.numpy_openblas().set_threads(earlier)


_PROBE = """
import json, sys, tempfile
from rmt_locallaw import runner
from test_locallaw import golden_scan_text

cfg = runner.parse_config(json.dumps({
    "experiment": "dbm-gaps", "seed": 11, "n": 500, "samples": 2, "times": [0.0, 0.1],
    "ensemble": {"profile": "wigner", "distribution": "bernoulli", "beta": 1},
}))
with tempfile.TemporaryDirectory() as out:
    digests = runner.run(cfg, out).digests
print(json.dumps({"golden": golden_scan_text(), "dbm": digests}))
"""


def test_output_bytes_do_not_depend_on_host_blas_threads():
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
        proc = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]
    assert outs[0]["golden"] == (ROOT / "tests" / "data" / "golden_locallaw.json").read_text()
