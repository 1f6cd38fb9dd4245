"""Fits run on one BLAS thread and leave the caller's BLAS threading as found."""

import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import spar
from spar import blas, fit_spar, serialize_model
from spar.blas import one_blas_thread


@pytest.fixture
def controls():
    """Every OpenBLAS set to 2 threads for the test, restored after it."""
    found = blas.blas_controls()
    if not found:
        pytest.skip("no OpenBLAS thread setter found: spar cannot pin BLAS threads here")
    before = [get() for get, _ in found]
    for _, set_ in found:
        set_(2)
    yield found
    for (_, set_), count in zip(found, before):
        set_(count)


def _counts(found):
    return [get() for get, _ in found]


def _problem(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((60, 80))
    y = x[:, :3] @ [2.0, -1.0, 1.0] + rng.standard_normal(60)
    return x, y


def test_model_json_independent_of_blas_threads():
    """At this size fit_spar_cv's model.json changed with OPENBLAS_NUM_THREADS
    before fits were pinned to one BLAS thread (sha256 3610cb4c... under 1
    thread, 0370a0c2... under 2)."""
    if not blas.blas_controls():
        pytest.skip("no OpenBLAS thread setter found: spar cannot pin BLAS threads here")
    code = (
        "import hashlib\n"
        "from spar import SyntheticSpec, fit_spar_cv, generate_synthetic, serialize_model\n"
        "ds, _ = generate_synthetic(SyntheticSpec(n=100, p=500, family='binomial', rho=0.9,\n"
        "                                         active_positions='first'), 1)\n"
        "ens = fit_spar_cv(ds.x, ds.y, family='binomial', nfolds=3, nummods=(5,))\n"
        "print(hashlib.sha256(serialize_model(ens).encode()).hexdigest())\n"
    )
    src = str(Path(spar.__file__).resolve().parents[1])
    digests = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                       check=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=n, PYTHONPATH=src)
                       ).stdout.split()[-1]
        for n in ("1", "2")
    ]
    assert digests[0] == digests[1]


def test_guard_restores_count_on_return_and_raise(controls):
    inside = []

    @one_blas_thread
    def work(fail):
        inside.append(_counts(controls))
        if fail:
            raise RuntimeError("inside the guard")
        return "done"

    assert work(False) == "done"
    assert _counts(controls) == [2] * len(controls)
    with pytest.raises(RuntimeError, match="inside the guard"):
        work(True)
    assert _counts(controls) == [2] * len(controls)
    assert inside == [[1] * len(controls)] * 2


def test_nested_guard_restores_only_on_outer_exit(controls):
    seen = []

    @one_blas_thread
    def inner():
        seen.append(("inner", _counts(controls)))

    @one_blas_thread
    def outer():
        inner()
        seen.append(("after inner", _counts(controls)))

    outer()
    ones = [1] * len(controls)
    assert seen == [("inner", ones), ("after inner", ones)]
    assert _counts(controls) == [2] * len(controls)


def test_concurrent_fits_equal_serial_and_restore(controls):
    x, y = _problem()
    serial = serialize_model(fit_spar(x, y, xval=x, yval=y, nummods=(5,), seed=3))
    out = [None, None]

    def run(i):
        out[i] = serialize_model(fit_spar(x, y, xval=x, yval=y, nummods=(5,), seed=3))

    workers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=120)
        assert not w.is_alive()
    assert out == [serial, serial]
    assert _counts(controls) == [2] * len(controls)


def test_guard_holds_under_thread_switching(controls):
    """Eight threads enter and leave the guard; none sees an unpinned BLAS inside."""
    unpinned = []

    @one_blas_thread
    def work():
        counts = _counts(controls)
        if counts != [1] * len(controls):
            unpinned.append(counts)

    def loop():
        for _ in range(20000):
            work()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=loop) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert unpinned == []
    assert _counts(controls) == [2] * len(controls)


def test_no_openblas_found_fits_unpinned_and_warns_once(monkeypatch, caplog):
    monkeypatch.setattr(blas, "_SYMBOLS", [])  # as with MKL or Accelerate: no setter
    blas.blas_controls.cache_clear()
    x, y = _problem()
    try:
        with caplog.at_level(logging.WARNING, logger="spar"):
            fits = [fit_spar(x, y, xval=x, yval=y, nummods=(3,)) for _ in range(2)]
    finally:
        blas.blas_controls.cache_clear()  # the next call looks the libraries up again
    assert all(ens.best is not None for ens in fits)
    warned = [r for r in caplog.records if r.name == "spar.blas"]
    assert len(warned) == 1
    assert "results may depend on it" in warned[0].getMessage()
