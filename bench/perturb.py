"""Show that every output check rejects a deliberately perturbed output.

    python3 bench/perturb.py [--seed 1]

Runs one round of each workload, confirms that its outputs pass the
checks, then feeds each check a copy of the output with one small
change and confirms that the check fails.  Exits 1 if any clean output
fails or any perturbed output passes.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spar  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def negate_gammas(doc):
    for md in doc["models"]:
        md["gamma"] = [-g for g in md["gamma"]]


def cli_cases(wl, doc):
    preds = np.loadtxt(wl.pred / "predictions.csv", skiprows=1, ndmin=1)
    text = (wl.out / "selection.csv").read_text()
    bad_preds = preds.copy()
    bad_preds[7] += 1e-6 * np.max(np.abs(preds))
    lines = text.splitlines()
    nu, nummod, mean, se, active = lines[3].split(",")
    lines[3] = ",".join([nu, nummod, repr(float(mean) * (1 + 1e-12)), se, active])
    flipped = copy.deepcopy(doc)
    negate_gammas(flipped)
    model_text = wl.model_text()
    return [
        ("predictions", "one prediction moved by 1e-6 of the largest",
         lambda: checks.check_predictions(doc, wl.x_val, bad_preds)),
        ("selection.csv", "one mean changed in the 12th digit",
         lambda: checks.check_selection_csv(doc, "\n".join(lines) + "\n")),
        ("held-out MSE", "every gamma negated",
         lambda: checks.check_heldout_mse(flipped, wl.x_test, wl.y_test, wl.y)),
        ("round trip", "one character appended",
         lambda: checks.check_roundtrip(model_text, model_text + " ")),
    ]


def cv_cases(wl, doc):
    cells = doc["selection"]["cells"]

    def edited(fn):
        d = copy.deepcopy(doc)
        fn(d)
        return d

    def shift_mean(d):
        d["selection"]["cells"][5]["value"] *= 1 + 1e-9

    def shift_se(d):
        d["selection"]["cells"][5]["se"] *= 1.01

    def other_best(d):
        other = next(c for c in cells if (c["nu"], c["nummod"]) != (d["best"]["nu"], d["best"]["nummod"]))
        d["best"] = {"nu": other["nu"], "nummod": other["nummod"]}

    def other_one_se(d):
        other = next(c for c in cells
                     if (c["nu"], c["nummod"]) != (d["one_se"]["nu"], d["one_se"]["nummod"]))
        d["one_se"] = {"nu": other["nu"], "nummod": other["nummod"]}

    def nudge_gamma(d):
        md = next(m for m in d["models"] if m["converged"] and not m["failed"])
        md["gamma"][0] += 1e-3

    return [
        ("cv cells", "one cell mean changed by 1e-9 relative",
         lambda: checks.check_cv_cells(edited(shift_mean))),
        ("cv cells", "one cell se scaled by 1.01",
         lambda: checks.check_cv_cells(edited(shift_se))),
        ("cv cells", "best moved to another pair", lambda: checks.check_cv_cells(edited(other_best))),
        ("cv cells", "1-SE moved to another pair", lambda: checks.check_cv_cells(edited(other_one_se))),
        ("score equations", "one gamma entry moved by 1e-3",
         lambda: checks.check_binomial_score(edited(nudge_gamma), wl.x, wl.y)),
        ("held-out error", "every gamma negated",
         lambda: checks.check_heldout_misclassification(edited(negate_gammas), wl.x_test, wl.y_test, wl.y)),
    ]


def wide_cases(wl, doc):
    cells = doc["selection"]["cells"]
    best = next(i for i, c in enumerate(cells)
                if (c["nu"], c["nummod"]) == (doc["best"]["nu"], doc["best"]["nummod"]))
    sampled = set(np.linspace(0, len(cells) - 1, 8).astype(int).tolist()) | {best}
    # an unsampled cell, so that only the monotonicity rule can catch it
    mono = next(i for i in range(1, len(cells))
                if i not in sampled and cells[i]["nummod"] == cells[i - 1]["nummod"])

    def edited(fn):
        d = copy.deepcopy(doc)
        fn(d["selection"]["cells"])
        return d

    def bump_value(cs):
        cs[best]["value"] *= 1 + 1e-6

    def bump_active(cs):
        cs[best]["active"] += 1

    def grow(cs):
        cs[mono]["active"] = cs[mono - 1]["active"] + 1

    flipped = copy.deepcopy(doc)
    negate_gammas(flipped)
    return [
        ("grid cells", "best cell's value changed by 1e-6 relative",
         lambda: checks.check_validation_cells(edited(bump_value), wl.x_val, wl.y_val)),
        ("grid cells", "best cell's active count plus one",
         lambda: checks.check_validation_cells(edited(bump_active), wl.x_val, wl.y_val)),
        ("active monotone", f"unsampled cell {mono} one more active than its smaller nu",
         lambda: checks.check_validation_cells(edited(grow), wl.x_val, wl.y_val)),
        ("held-out MSE", "every gamma negated",
         lambda: checks.check_heldout_mse(flipped, wl.x_test, wl.y_test, wl.y)),
    ]


def haar_cases(wl, doc):
    scaled = copy.deepcopy(doc)
    ph = scaled["models"][3]["phi"]
    ph["vals"] = [v * (1 + 1e-9) for v in ph["vals"]]
    text = wl.model_text()
    i = text.index('"gamma0": ') + len('"gamma0": ') + 3
    digit = "1" if text[i] != "1" else "2"
    flipped = copy.deepcopy(doc)
    negate_gammas(flipped)
    return [
        ("orthonormal rows", "one phi scaled by 1 + 1e-9",
         lambda: checks.check_orthonormal_rows(scaled)),
        ("round trip", "one digit of a gamma0 changed",
         lambda: checks.check_roundtrip(text, text[:i] + digit + text[i + 1:])),
        ("held-out MSE", "every gamma negated",
         lambda: checks.check_heldout_mse(flipped, wl.x_test, wl.y_test, wl.y)),
    ]


CASES = {"cli-fit-predict": cli_cases, "cv-binomial": cv_cases,
         "wide-gaussian": wide_cases, "haar-persist": haar_cases}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    ok = True
    for name, cls in WORKLOADS.items():
        rundir = HERE / ".runs" / f"perturb-{name}-{os.getpid()}"
        rundir.mkdir(parents=True)
        try:
            wl = cls(spar, args.seed, rundir)
            wl.round()
            wl.check()
            print(f"{name}: clean outputs pass")
            doc = json.loads(wl.model_text())
            for check, change, fn in CASES[name](wl, doc):
                try:
                    fn()
                    verdict = "ACCEPTED (check too weak)"
                    ok = False
                except checks.CheckFailed as exc:
                    verdict = f"rejected: {exc}"
                print(f"  {check:17s} | {change:55s} | {verdict}")
        finally:
            shutil.rmtree(rundir)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
