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
from .plugins import named_plugin, register, resolve

logger = logging.getLogger(__name__)

METHODS = ("cor", "marglik", "ridge", "plugin")


def register_screen_plugin(name: str, fn) -> None:
    """Register a callable (x, y, controls) -> omega as a ScreenSpec.method and --screen name."""
    register("screening", name, fn)


@dataclass(frozen=True)
class ScreenSpec:
    """How screening coefficients are computed and predictors selected.

    nscreen defaults to 2n, resolved once the data size is known.
    epsilon overrides the method's penalty default (0 for marglik,
    1e-2 * n for ridge).  method may name a registered plugin, which
    validated() turns into method="plugin", plugin=<name>.
    """

    method: str = "ridge"
    nscreen: int | None = None
    selection_type: str = "prob"
    split_data_prop: float | None = None
    epsilon: float | None = None
    plugin: object = None  # callable or a registered plugin name
    controls: dict = field(default_factory=dict)

    def validated(self) -> "ScreenSpec":
        if self.method not in METHODS:
            return named_plugin(self, "method", "screening", METHODS[:-1]).validated()
        if self.selection_type not in ("prob", "fixed"):
            raise ConfigError("selection_type must be 'prob' or 'fixed'")
        nscreen = whole_number("nscreen", self.nscreen)
        if nscreen is not None and nscreen < 1:
            raise ConfigError("nscreen must be >= 1")
        if self.split_data_prop is not None and not 0.0 < self.split_data_prop < 1.0:
            raise ConfigError("split_data_prop must lie strictly between 0 and 1")
        if self.epsilon is not None and not 0 <= self.epsilon < np.inf:
            raise ConfigError(f"screening epsilon must be finite and >= 0, got {self.epsilon!r}")
        if self.method == "plugin" and self.plugin is None:
            raise ConfigError("method 'plugin' needs a plugin callable or name")
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
    failed_fits: int = 0  # marglik fits that did not converge


def _constant_columns(x):
    return np.flatnonzero(np.ptp(x, axis=0) == 0)


def _check_input(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise DataError("x must be a 2-D array")
    if len(y) != x.shape[0]:
        raise DataError("x and y disagree on the number of rows")
    if x.shape[0] < 3:
        raise InsufficientDataError("screening needs at least 3 rows")
    return x, y


def screen_cor(x, y) -> ScreeningResult:
    """Pearson correlation of every column with y."""
    x, y = _check_input(x, y)
    p = x.shape[1]
    const = _constant_columns(x)
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    denom = np.sqrt((xc**2).sum(axis=0)) * np.sqrt((yc**2).sum())
    omega = np.zeros(p)
    ok = denom > 0
    omega[ok] = (xc.T @ yc)[ok] / denom[ok]
    omega[const] = 0.0
    return ScreeningResult(omega, const)


def screen_marglik(x, y, family, epsilon=0.0) -> ScreeningResult:
    """Slope of a univariate (optionally penalized) GLM per column.

    Fits that do not converge, or hit a singular system, contribute 0
    and are counted in failed_fits.
    """
    x, y = _check_input(x, y)
    p = x.shape[1]
    const = set(_constant_columns(x).tolist())
    omega = np.zeros(p)
    failed = 0
    for j in range(p):
        if j in const:
            continue
        try:
            fit = fit_penalized_glm(x[:, j : j + 1], y, family, epsilon)
        except SingularError:
            failed += 1
            continue
        if fit.converged:
            omega[j] = fit.gamma[0]
        else:
            failed += 1
    if failed:
        logger.warning("marginal screening: %d of %d univariate fits failed", failed, p)
    return ScreeningResult(omega, np.asarray(sorted(const), dtype=int), failed)


def screen_ridge(x, y, family, epsilon=None, start=None) -> ScreeningResult:
    """Coefficients of one multivariate ridge GLM on all columns.

    epsilon defaults to 1e-2 * n.  p > n solves in dual form from one
    n x n Gram matrix, no n x p copy of x: O(n^2 p) once, O(np + n^3) per
    IRLS step.  start is the solver's warm start (see fit_penalized_glm).
    """
    x, y = _check_input(x, y)
    if epsilon is None:
        epsilon = 1e-2 * x.shape[0]
    const = _constant_columns(x)
    fit = fit_penalized_glm(x, y, family, epsilon, start=start)
    omega = np.asarray(fit.gamma, dtype=float)
    omega[const] = 0.0
    return ScreeningResult(omega, const)


@one_blas_thread
def compute_screening(x, y, fam: Family, spec: ScreenSpec, start=None) -> ScreeningResult:
    """Dispatch on spec.method; plugin output is validated and cleaned.  Only ridge reads start."""
    if spec.method == "cor":
        return screen_cor(x, y)
    if spec.method == "marglik":
        eps = 0.0 if spec.epsilon is None else spec.epsilon
        return screen_marglik(x, y, fam, eps)
    if spec.method == "ridge":
        return screen_ridge(x, y, fam, spec.epsilon, start)
    fn = resolve("screening", spec.plugin)
    x, y = _check_input(x, y)
    omega = np.asarray(fn(x, y, dict(spec.controls)), dtype=float)
    if omega.shape != (x.shape[1],):
        raise DataError(
            f"screening plugin returned shape {omega.shape}, expected ({x.shape[1]},)"
        )
    if not np.all(np.isfinite(omega)):
        raise DataError("screening plugin returned non-finite coefficients")
    const = _constant_columns(x)
    omega[const] = 0.0
    return ScreeningResult(omega, const)


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
