"""The four workloads: input recipes, timed operations and output checks.

Inputs come from spar.generate_synthetic with the run's seed.  Every
recipe uses the AR(1) design of acceptance criterion 4c (rho = 0.9, the
first 100 predictors active), which carries recoverable signal, so a
held-out loss can be required to beat the intercept-only loss.  spar's
own seed stays at its default 0: the goal dimensions, and with them the
work per fit, are then the same on every run, while the data vary.
Every fit runs with the library default threads=1 under the machine's
default BLAS threading.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parents[1]
RHO = 0.9


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, log, timeout=150.0):
    """Run argv to completion: (wall seconds, peak RSS bytes).

    os.wait4 reaps the child and returns its own resource usage, so the
    peak RSS belongs to this child alone.  Output goes to the log file.
    """
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=out)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:4])} exited with {proc.returncode}; see {log}")
    return wall, usage.ru_maxrss * 1024


def write_csv(path, x, y, colnames):
    """The bytes spar.save_csv writes (header, repr floats, CRLF), only faster."""
    with open(path, "w", newline="") as f:
        f.write(",".join(colnames) + "\r\n")
        for yi, row in zip(y.tolist(), x.tolist()):
            f.write(repr(yi) + "," + ",".join(map(repr, row)) + "\r\n")


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tracemalloc_peak(fn):
    """(result, peak traced bytes) of one call."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class Workload:
    """One workload's inputs and operations.

    round() runs one whole round of operations and returns its timings;
    every round does the same operations.  check() verifies the outputs
    of the last round against computations made outside spar.
    """

    name = ""
    family = "gaussian"
    warm_up_ops = 0
    # save/load pairs per round, timed as one batch of about two seconds: on a
    # shared 2-core VM, timings of a few tenths of a second jump between speed levels
    persist_repeats = 1

    def __init__(self, spar, seed, rundir):
        self.spar = spar
        self.seed = seed
        self.rundir = Path(rundir)
        self.digests = set()
        self.notes = {}

    def synthetic(self, **kw):
        ds, _ = self.spar.generate_synthetic(
            self.spar.SyntheticSpec(rho=RHO, active_positions="first", **kw), self.seed)
        return ds

    def persist(self, ens):
        """persist_repeats x (save_model, load_model): (batch seconds, seconds per pair)."""
        path = self.rundir / "model.json"
        t0 = time.perf_counter()
        for _ in range(self.persist_repeats):
            self.spar.save_model(ens, path)
            self.loaded = self.spar.load_model(path)
        batch = time.perf_counter() - t0
        return batch, batch / self.persist_repeats

    def model_text(self):
        return (self.rundir / "model.json").read_text()

    def check_common(self, loaded):
        text = self.model_text()
        checks.check_roundtrip(text, self.spar.serialize_model(loaded))
        checks.require(len(self.digests) == 1, "model.json differs between rounds")
        return json.loads(text)

    def traced_extra(self, metrics):
        return {}


class InProcess(Workload):
    """fit (arrays in, selected ensemble out), then a save/load round trip."""

    warm_up_ops = 1

    @property
    def ops_per_round(self):
        return 1 + self.persist_repeats

    def fit(self):
        raise NotImplementedError

    def warm_up(self):
        """One untimed fit under tracemalloc: warms caches and gives peak_mem_x."""
        _, peak = tracemalloc_peak(self.fit)
        return peak / self.x.nbytes

    def round(self):
        t0 = time.perf_counter()
        ens = self.fit()
        fit_s = time.perf_counter() - t0
        batch, persist_s = self.persist(ens)
        self.digests.add(digest(self.rundir / "model.json"))
        return {"fit_s": fit_s, "persist_s": persist_s, "round_s": fit_s + batch}

    traced_ops = round


class CvBinomial(InProcess):
    name = "cv-binomial"
    family = "binomial"
    persist_repeats = 12

    def __init__(self, spar, seed, rundir):
        super().__init__(spar, seed, rundir)
        ds = self.synthetic(n=200, p=2000, family="binomial", n_test=200)
        self.x, self.y, self.x_test, self.y_test = ds.x, ds.y, ds.x_test, ds.y_test

    def fit(self):
        return self.spar.fit_spar_cv(self.x, self.y, family="binomial", nfolds=10,
                                     nummods=(10, 20, 50))

    def check(self):
        doc = self.check_common(self.loaded)
        checks.check_cv_cells(doc)
        self.notes["score_models"], self.notes["score_worst"] = checks.check_binomial_score(
            doc, self.x, self.y)
        self.notes["heldout_error"], self.notes["heldout_base"] = \
            checks.check_heldout_misclassification(doc, self.x_test, self.y_test, self.y)


class WideGaussian(InProcess):
    name = "wide-gaussian"
    persist_repeats = 6

    def __init__(self, spar, seed, rundir):
        super().__init__(spar, seed, rundir)
        ds = self.synthetic(n=200, p=20000, n_test=400)
        self.x, self.y = ds.x, ds.y
        self.x_val, self.y_val = ds.x_test[:200], ds.y_test[:200]
        self.x_test, self.y_test = ds.x_test[200:], ds.y_test[200:]

    def fit(self):
        return self.spar.fit_spar(self.x, self.y, xval=self.x_val, yval=self.y_val,
                                  nummods=(10, 20, 50, 100), nnu=50)

    def check(self):
        doc = self.check_common(self.loaded)
        self.notes["cells_recomputed"] = checks.check_validation_cells(doc, self.x_val, self.y_val)
        self.notes["heldout_mse"], self.notes["heldout_base"] = checks.check_heldout_mse(
            doc, self.x_test, self.y_test, self.y)


class HaarPersist(InProcess):
    name = "haar-persist"

    def __init__(self, spar, seed, rundir):
        super().__init__(spar, seed, rundir)
        ds = self.synthetic(n=200, p=2000, n_test=400)
        self.x, self.y = ds.x, ds.y
        self.x_val, self.y_val = ds.x_test[:200], ds.y_test[:200]
        self.x_test, self.y_test = ds.x_test[200:], ds.y_test[200:]

    def fit(self):
        return self.spar.fit_spar(self.x, self.y, xval=self.x_val, yval=self.y_val,
                                  rp=self.spar.RpSpec(kind="haar_select", b2=50),
                                  nummods=(20,))

    def check(self):
        doc = self.check_common(self.loaded)
        self.notes["phi_worst"] = checks.check_orthonormal_rows(doc)
        self.notes["heldout_mse"], self.notes["heldout_base"] = checks.check_heldout_mse(
            doc, self.x_test, self.y_test, self.y)


class CliFitPredict(Workload):
    """`spar fit --val-data` then `spar predict` as subprocesses, then a save/load round trip."""

    name = "cli-fit-predict"
    persist_repeats = 11

    @property
    def ops_per_round(self):
        return 2 + self.persist_repeats

    def __init__(self, spar, seed, rundir):
        super().__init__(spar, seed, rundir)
        ds = self.synthetic(n=500, p=5000, n_test=400)
        self.x, self.y = ds.x, ds.y
        self.x_val, self.y_val = ds.x_test[:200], ds.y_test[:200]
        self.x_test, self.y_test = ds.x_test[200:], ds.y_test[200:]
        self.train_csv = self.rundir / "train.csv"
        self.val_csv = self.rundir / "val.csv"
        write_csv(self.train_csv, self.x, self.y, ds.colnames)
        write_csv(self.val_csv, self.x_val, self.y_val, ds.colnames)
        self.out = self.rundir / "out"
        self.pred = self.rundir / "pred"
        self.log = self.rundir / "cli.log"
        self.fit_argv = ["fit", "--data", str(self.train_csv), "--val-data", str(self.val_csv),
                         "--out", str(self.out)]
        self.predict_argv = ["predict", "--model", str(self.out / "model.json"),
                             "--data", str(self.val_csv), "--response", "y",
                             "--out", str(self.pred)]
        self.fit_rss = []

    def cli(self, argv):
        return run_child([sys.executable, "-m", "spar.cli", *argv], self.log)

    def cli_in_process(self, argv):
        t0 = time.perf_counter()
        with open(self.log, "a") as out, contextlib.redirect_stdout(out):
            code = importlib.import_module("spar.cli").main(argv)
        if code != 0:
            raise RuntimeError(f"spar {argv[0]} exited with {code}; see {self.log}")
        return time.perf_counter() - t0, 0

    def warm_up(self):
        """None: every fit is a fresh process, and peak memory comes from its RSS."""
        return None

    def round(self, run=None):
        run = run or self.cli
        fit_s, rss = run(self.fit_argv)
        self.fit_rss.append(rss)
        predict_s, _ = run(self.predict_argv)
        batch, persist_s = self.persist(self.spar.load_model(self.out / "model.json"))
        self.digests.add(digest(self.out / "model.json"))
        return {"fit_s": fit_s, "predict_s": predict_s, "persist_s": persist_s,
                "round_s": fit_s + predict_s + batch}

    def traced_ops(self):
        """The same round with the CLI run in-process, where spans can be recorded."""
        return self.round(self.cli_in_process)

    def traced_extra(self, metrics):
        """Ingest rate of the traced pass and load_csv's peak memory on a 100-row file."""
        head = self.rundir / "head.csv"
        with open(self.train_csv) as src, open(head, "w", newline="") as dst:
            for _ in range(101):
                dst.write(src.readline())
        ds, peak = tracemalloc_peak(lambda: self.spar.load_csv(head, response="y"))
        # the fit reads train.csv and val.csv, predict reads val.csv again
        csv_mb = (self.train_csv.stat().st_size + 2 * self.val_csv.stat().st_size) / 1e6
        return {"data.load_csv_mb_per_s": csv_mb / metrics["data.load_csv_s"],
                "data.load_csv_peak_x": peak / (ds.x.nbytes + ds.y.nbytes)}

    def check(self):
        checks.check_roundtrip((self.out / "model.json").read_text(), self.model_text())
        doc = self.check_common(self.loaded)
        preds = np.loadtxt(self.pred / "predictions.csv", skiprows=1, ndmin=1)
        checks.check_predictions(doc, self.x_val, preds)
        checks.check_selection_csv(doc, (self.out / "selection.csv").read_text())
        checks.require((self.out / "summary.txt").read_text().startswith("family: gaussian"),
                       "summary.txt")
        self.notes["heldout_mse"], self.notes["heldout_base"] = checks.check_heldout_mse(
            doc, self.x_test, self.y_test, self.y)



WORKLOADS = {w.name: w for w in (CliFitPredict, CvBinomial, WideGaussian, HaarPersist)}
