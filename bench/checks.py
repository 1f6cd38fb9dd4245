"""Correctness checks computed apart from spar.

Every check reads the written model document (the parsed model.json)
and the generated arrays, and recomputes what it needs with plain
numpy; none of them calls into spar.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(a, b, rtol):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * scale))


def phi_dense(ph):
    """The m x q projection from its stored row/col/value triplets."""
    out = np.zeros((ph["m"], ph["q"]))
    np.add.at(out, (np.asarray(ph["rows"], dtype=int), np.asarray(ph["cols"], dtype=int)),
              np.asarray(ph["vals"], dtype=float))
    return out


def ensemble_coef(doc, nu, nummod):
    """(intercept, beta) of the first nummod models thresholded at nu.

    Back-map gamma through phi, zero entries with |b| < nu, average over
    the models, then undo the standardization.
    """
    acc = np.zeros(doc["p"])
    g0 = 0.0
    for md in doc["models"][:nummod]:
        b = phi_dense(md["phi"]).T @ np.asarray(md["gamma"], dtype=float)
        b[np.abs(b) < nu] = 0.0
        acc[np.asarray(md["index_set"], dtype=int)] += b
        g0 += md["gamma0"]
    st = doc["stats"]
    beta = acc / nummod * st["y_sd"] / np.asarray(st["x_sd"], dtype=float)
    intercept = st["y_mean"] + st["y_sd"] * (g0 / nummod) - float(beta @ np.asarray(st["x_mean"]))
    return intercept, beta


def _pair(doc, key):
    return doc[key]["nu"], doc[key]["nummod"]


def check_predictions(doc, x, preds):
    """Gaussian predictions at the best pair equal intercept + x @ beta."""
    intercept, beta = ensemble_coef(doc, *_pair(doc, "best"))
    require(_close(preds, intercept + x @ beta, 1e-9),
            "predictions differ from the numpy recomputation at the best pair")


def check_selection_csv(doc, text):
    """selection.csv lists the model's grid cells, one row each, in order."""
    lines = text.strip().splitlines()
    require(lines[0] == "nu,nummod,mean,se,active", "selection.csv header")
    cells = doc["selection"]["cells"]
    require(len(lines) - 1 == len(cells), "selection.csv row count")
    for line, c in zip(lines[1:], cells):
        nu, nummod, mean, se, active = line.split(",")
        require((float(nu), int(nummod), float(mean), float(se), int(active))
                == (c["nu"], c["nummod"], c["value"], c["se"], c["active"]),
                "selection.csv row differs from model.json")


def check_heldout_mse(doc, x_test, y_test, y_train):
    """Held-out MSE at the best pair beats predicting the training mean."""
    intercept, beta = ensemble_coef(doc, *_pair(doc, "best"))
    mse = float(np.mean((y_test - intercept - x_test @ beta) ** 2))
    base = float(np.mean((y_test - np.mean(y_train)) ** 2))
    require(mse < base, f"held-out MSE {mse:.4g} does not beat intercept-only {base:.4g}")
    return mse, base


def check_heldout_misclassification(doc, x_test, y_test, y_train):
    """Held-out error rate at the best pair beats the majority class."""
    intercept, beta = ensemble_coef(doc, *_pair(doc, "best"))
    err = float(np.mean(((intercept + x_test @ beta) > 0) != (y_test > 0.5)))
    base = float(np.mean((y_test > 0.5) != (np.mean(y_train) > 0.5)))
    require(err < base, f"held-out error rate {err:.4g} does not beat intercept-only {base:.4g}")
    return err, base


def check_validation_cells(doc, x_val, y_val, n_sample=8):
    """Brute-force a sample of grid cells; active counts never grow with nu.

    The sample is spread evenly over the grid and always holds the best
    cell.  Gaussian deviance is the residual sum of squares.
    """
    cells = doc["selection"]["cells"]
    picks = set(np.linspace(0, len(cells) - 1, n_sample).astype(int).tolist())
    best = _pair(doc, "best")
    picks |= {i for i, c in enumerate(cells) if (c["nu"], c["nummod"]) == best}
    for i in sorted(picks):
        c = cells[i]
        intercept, beta = ensemble_coef(doc, c["nu"], c["nummod"])
        dev = float(np.sum((y_val - intercept - x_val @ beta) ** 2))
        require(_close(c["value"], dev, 1e-9), f"cell {i}: value {c['value']!r} vs brute force {dev!r}")
        require(c["active"] == int(np.count_nonzero(beta)), f"cell {i}: active count")
    for nummod in doc["nummods"]:
        row = sorted((c["nu"], c["active"]) for c in cells if c["nummod"] == nummod)
        require(all(a >= b for (_, a), (_, b) in zip(row, row[1:])),
                f"active counts grow with nu at nummod={nummod}")
    return len(picks)


def check_cv_cells(doc):
    """Cell mean and se follow from fold_values; best and 1-SE follow the tie rules.

    best: smallest mean, ties to larger nu, then smaller nummod.  1-SE:
    among cells with mean <= best mean + best se, fewest active, ties to
    larger nu, then smaller nummod.
    """
    cells = doc["selection"]["cells"]
    for i, c in enumerate(cells):
        fv = np.asarray(c["fold_values"], dtype=float)
        require(fv.size >= 2, f"cell {i}: fewer than 2 folds")
        require(math.isclose(c["value"], float(np.mean(fv)), rel_tol=1e-12, abs_tol=1e-300),
                f"cell {i}: mean does not follow from its fold values")
        se = float(np.std(fv, ddof=1) / math.sqrt(fv.size))
        require(math.isclose(c["se"], se, rel_tol=1e-10, abs_tol=1e-300),
                f"cell {i}: se does not follow from its fold values")
    finite = [c for c in cells if math.isfinite(c["value"])]
    best = min(finite, key=lambda c: (c["value"], -c["nu"], c["nummod"]))
    require(_pair(doc, "best") == (best["nu"], best["nummod"]), "best pair breaks the tie rule")
    thr = best["value"] + best["se"]
    one_se = min((c for c in finite if c["value"] <= thr),
                 key=lambda c: (c["active"], -c["nu"], c["nummod"]))
    require(_pair(doc, "one_se") == (one_se["nu"], one_se["nummod"]), "1-SE pair breaks the rule")


def standardize(x):
    sd = x.std(axis=0, ddof=1)
    const = np.ptp(x, axis=0) == 0
    sd = np.where(const | (sd == 0), 1.0, sd)
    out = (x - x.mean(axis=0)) / sd
    out[:, const] = 0.0
    return out


def check_binomial_score(doc, x, y, rtol=1e-8):
    """Penalized score equations of the converged full-data logistic models.

    Z'(y - mu) - eps * gamma = 0 and sum(y - mu) = 0, with
    mu = expit(gamma0 + Z gamma), Z the standardized screened columns
    times phi', and eps the family default 1e-4 * n unless configured.
    Residuals are measured against the size of Z'y.
    """
    eps = doc["config"]["model"]["epsilon"]
    n = len(y)
    eps = 1e-4 * n if eps is None else eps
    xs = standardize(x)
    worst = 0.0
    checked = 0
    for k, md in enumerate(doc["models"]):
        if not md["converged"] or md["failed"]:
            continue
        z = xs[:, np.asarray(md["index_set"], dtype=int)] @ phi_dense(md["phi"]).T
        gamma = np.asarray(md["gamma"], dtype=float)
        mu = 1.0 / (1.0 + np.exp(-(md["gamma0"] + z @ gamma)))
        scale = 1.0 + float(np.max(np.abs(z.T @ y)))
        grad = np.concatenate([[np.sum(y - mu)], z.T @ (y - mu) - eps * gamma])
        rel = float(np.max(np.abs(grad))) / scale
        require(rel <= rtol, f"model {k}: score equations off by {rel:.3g} (relative)")
        worst = max(worst, rel)
        checked += 1
    require(checked > 0, "no converged model to check")
    return checked, worst


def check_orthonormal_rows(doc, tol=1e-10):
    """Every stored phi of a Haar model has orthonormal rows."""
    worst = 0.0
    for k, md in enumerate(doc["models"]):
        ph = phi_dense(md["phi"])
        dev = float(np.max(np.abs(ph @ ph.T - np.eye(ph.shape[0]))))
        require(dev <= tol, f"model {k}: max |phi phi' - I| = {dev:.3g}")
        worst = max(worst, dev)
    return worst


def check_roundtrip(written, reserialized):
    """save -> load -> serialize reproduces the file byte for byte."""
    require(written == reserialized, "save -> load -> serialize is not byte-identical")
