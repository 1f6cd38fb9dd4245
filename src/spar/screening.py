"""Screening coefficients and per-model predictor selection.

A screening coefficient assigns every predictor a utility score; each
marginal model then keeps either the top-ranked predictors ("fixed") or
a without-replacement sample drawn with probabilities proportional to
the absolute scores ("prob").  Constant columns always score 0 and are
excluded from selection.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .blas import one_blas_thread
from .errors import ConfigError, DataError, InsufficientDataError, SingularError, whole_number
from .families import Family, fit_penalized_glm
from .plugins import register, resolve

logger = logging.getLogger(__name__)

METHODS = ("cor", "marglik", "ridge")


def register_screen_plugin(name: str, fn) -> None:
    """Register a callable (x, y, controls) -> omega as a ScreenSpec.method and --screen name."""
    register("screening", name, fn)


@dataclass(frozen=True)
class ScreenSpec:
    """How screening coefficients are computed and predictors selected.

    nscreen defaults to 2n, resolved once the data size is known.
    epsilon overrides the method's penalty default (see
    compute_screening).  method is a builtin, the name of a registered
    plugin or the plugin callable itself.
    """

    method: object = "ridge"
    nscreen: int | None = None
    selection_type: str = "prob"
    split_data_prop: float | None = None
    epsilon: float | None = None
    controls: dict = field(default_factory=dict)

    def validated(self) -> "ScreenSpec":
        resolve("screening", self.method, METHODS)
        if self.selection_type not in ("prob", "fixed"):
            raise ConfigError("selection_type must be 'prob' or 'fixed'")
        nscreen = whole_number("nscreen", self.nscreen)
        if nscreen is not None and nscreen < 1:
            raise ConfigError("nscreen must be >= 1")
        if self.split_data_prop is not None and not 0.0 < self.split_data_prop < 1.0:
            raise ConfigError("split_data_prop must lie strictly between 0 and 1")
        if self.epsilon is not None and not 0 <= self.epsilon < np.inf:
            raise ConfigError(f"screening epsilon must be finite and >= 0, got {self.epsilon!r}")
        return replace(self, nscreen=nscreen)

    def resolved(self, n: int) -> "ScreenSpec":
        """Fill the nscreen default (2n) for a data set with n rows."""
        if self.nscreen is not None:
            return self
        return replace(self, nscreen=2 * int(n))


@dataclass
class ScreeningResult:
    omega: np.ndarray  # length-p coefficient vector, 0 at excluded columns
    excluded: np.ndarray  # indices of constant columns
    failed_fits: int = 0  # marglik fits that failed; logged with those ending on a clamp


def _cor(x, y):
    """Pearson correlation of every column with y; 0 where a column or y is constant."""
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    denom = np.sqrt((xc**2).sum(axis=0)) * np.sqrt((yc**2).sum())
    omega = np.zeros(x.shape[1])
    ok = denom > 0
    omega[ok] = (xc.T @ yc)[ok] / denom[ok]
    return omega


def _marglik(x, y, family, epsilon, const):
    """Slope of a univariate penalized GLM per column but const; failed and clamped fit counts."""
    omega = np.zeros(x.shape[1])
    failed = clamped = 0
    for j in np.delete(np.arange(x.shape[1]), const):
        try:
            fit = fit_penalized_glm(x[:, j : j + 1], y, family, epsilon)
        except SingularError:
            fit = None
        if fit is None or not fit.converged:
            failed += 1
        else:
            omega[j], clamped = fit.gamma[0], clamped + (fit.clamped > 0)
    return omega, failed, clamped


@one_blas_thread
def compute_screening(x, y, fam: Family, spec: ScreenSpec, start=None) -> ScreeningResult:
    """Every column's screening coefficient omega under spec.method.

    cor: the Pearson correlation with y.  marglik: the slope of a
    univariate GLM per column, penalized by spec.epsilon (default 0);
    a fit that is singular or does not converge scores 0 and counts in
    failed_fits.  ridge: the coefficients of one multivariate GLM on all
    columns, penalized by spec.epsilon (default 1e-2 * n); p > n solves
    in dual form from one n x n Gram matrix, no n x p copy of x.  start
    warm-starts that solve (see fit_penalized_glm); no other method
    reads it.  A plugin's output must hold p finite numbers.  Constant
    columns score 0 and are listed in excluded.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise DataError("x must be a 2-D array")
    n, p = x.shape
    if len(y) != n:
        raise DataError("x and y disagree on the number of rows")
    if n < 3:
        raise InsufficientDataError("screening needs at least 3 rows")
    const = np.flatnonzero(np.ptp(x, axis=0) == 0)
    default_eps = 0.0 if spec.method == "marglik" else 1e-2 * n  # cor and plugins take none
    eps = default_eps if spec.epsilon is None else spec.epsilon
    failed = clamped = 0
    if spec.method == "cor":
        omega = _cor(x, y)
    elif spec.method == "marglik":
        omega, failed, clamped = _marglik(x, y, fam, eps, const)
    elif spec.method == "ridge":
        omega = fit_penalized_glm(x, y, fam, eps, start=start).gamma
    else:
        plugin = resolve("screening", spec.method, METHODS)
        omega = np.array(plugin(x, y, dict(spec.controls)), dtype=float)
        if omega.shape != (p,) or not np.all(np.isfinite(omega)):
            raise DataError(f"screening plugin returned shape {omega.shape}, not {p} finite values")
    omega[const] = 0.0
    res = ScreeningResult(omega, const, failed)
    if res.failed_fits or clamped:
        logger.warning("marginal screening: %d of %d univariate fits failed, %d ended with fitted "
                       "means on a clamp", res.failed_fits, p, clamped)
    return res


def select_screened(result: ScreeningResult, spec: ScreenSpec, rng) -> np.ndarray:
    """Indices kept for one marginal model, sorted ascending.

    With nscreen at or above the number of non-constant columns no
    screening happens and all of them are returned.  "fixed" keeps the
    largest |omega| (ties to the smallest index); "prob" draws a
    weighted sample without replacement via exponential order keys,
    which matches sequential draws with probability proportional to
    |omega|.  Zero-weight columns are only used to fill slots once the
    positive weights are exhausted, uniformly at random.
    """
    if spec.nscreen is None:
        raise ConfigError("nscreen unresolved; call ScreenSpec.resolved(n) first")
    absw = np.abs(np.asarray(result.omega, dtype=float))
    idx = np.delete(np.arange(absw.size), np.asarray(result.excluded, dtype=int))
    if spec.nscreen >= idx.size:
        return idx
    w = absw[idx]
    if spec.selection_type == "fixed":
        return np.sort(idx[_smallest(-w, spec.nscreen)])
    pos = w > 0
    npos = int(pos.sum())
    if npos < spec.nscreen:
        fill = rng.choice(idx[~pos], size=spec.nscreen - npos, replace=False)
        return np.sort(np.concatenate([idx[pos], fill]))
    # key_j = E_j / w_j, E_j ~ Exp(1); the nscreen smallest keys have
    # exactly the sequential weighted-sampling law
    keys = rng.exponential(size=npos) / w[pos]
    return np.sort(idx[pos][_smallest(keys, spec.nscreen)])


def _smallest(keys, k: int) -> np.ndarray:
    """The indices np.argsort(keys, kind="stable")[:k] holds, found by a partition, not a sort."""
    cut = np.partition(keys, k - 1)[k - 1]
    if np.isnan(cut):  # fewer than k numbers: all of them, then the first NaNs
        keys, cut = np.isnan(keys), True
    below = np.flatnonzero(keys < cut)
    return np.concatenate([below, np.flatnonzero(keys == cut)[: k - below.size]])


def split_for_screening(n: int, prop: float | None, rng):
    """Disjoint (screen_rows, model_rows) partition of range(n).

    The screening part gets round(prop * n) rows.  Without a prop both
    parts are the full data.  Parts with fewer than 3 rows are refused.
    """
    if prop is None:
        rows = np.arange(n)
        return rows, rows
    n_screen = int(round(prop * n))
    if n_screen < 3 or n - n_screen < 3:
        raise ConfigError(
            f"split_data_prop={prop} leaves {n_screen} screening and "
            f"{n - n_screen} model rows; both need at least 3"
        )
    perm = rng.permutation(n)
    return np.sort(perm[:n_screen]), np.sort(perm[n_screen:])
