"""Ensemble of screened, randomly projected marginal GLMs.

The fitting loop per model k: draw an index set of screened predictors,
draw a goal dimension, draw a projection, fit a penalized GLM on the
projected predictors, and map the reduced coefficients back.  Averaging
over the first nummod models after hard thresholding at nu gives the
final coefficient vector on the original predictor scale; _coef_blocks
(one block per nummod) alone averages it and counts its active entries.
"""

from __future__ import annotations

import logging
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .blas import one_blas_thread
from .errors import (
    ConfigError,
    DataError,
    InsufficientDataError,
    NumericError,
    SingularError,
    whole_at_least,
    whole_number,
)
from .families import (
    SOLVER_ERRORS,
    Family,
    _all_finite,
    deviance_eval,
    fit_penalized_glm,
    get_family,
    link_eval,
    linkinv_eval,
    validate_response,
)
from .projection import ProjectionMatrix, RpSpec, draw_goal_dims, make_projection
from .rng import DIM_DRAW, PHI_DRAW, SCREEN_DRAW, model_stream
from .screening import ScreenSpec, compute_screening, select_screened

logger = logging.getLogger(__name__)

MEASURES = ("deviance", "mse", "mae", "class", "1-auc")
RIDGE_PER_ROW = 1e-4  # epsilon = RIDGE_PER_ROW * n: the non-gaussian default and the singular retry


@dataclass(frozen=True)
class ModelSpec:
    """Penalty and IRLS budget for the marginal GLM fits.

    epsilon=None picks the family default: 0 for gaussian, 1e-4 * n for
    binomial and poisson.
    """

    epsilon: float | None = None
    max_iter: int = 100
    tol: float = 1e-8

    def validated(self) -> "ModelSpec":
        if self.epsilon is not None and not 0 <= self.epsilon < np.inf:
            raise ConfigError(f"model epsilon must be finite and >= 0, got {self.epsilon!r}")
        max_iter = whole_at_least("max_iter", self.max_iter, 1)
        if self.tol <= 0:
            raise ConfigError("tol must be > 0")
        return replace(self, max_iter=max_iter)

    def resolve_epsilon(self, fam: Family, n_rows: int) -> float:
        if self.epsilon is not None:
            return float(self.epsilon)
        return 0.0 if fam.name == "gaussian" else RIDGE_PER_ROW * n_rows


@dataclass
class StandardizationStats:
    x_mean: np.ndarray
    x_sd: np.ndarray  # sample sd (ddof=1); constant columns recorded as 1
    y_mean: float  # 0 for non-gaussian families
    y_sd: float  # 1 for non-gaussian families
    constant_cols: np.ndarray


def standardize(x, y, family, rows=None):
    """Column-standardize x and, for gaussian, y; with rows, x[rows] and y[rows].

    Returns (x_std, y_std, stats).  Constant columns become exact zero
    columns and are flagged in stats.constant_cols.  x_std is the one n x p
    array made, column-major, so every model's x_std[:, index_set] copies
    contiguous columns.  It is filled 256 columns at a time from x or, with
    rows (an index array or mask), from x[rows, block]: bit for bit
    standardize(x[rows], y[rows], family), no full-size temporary beside it.
    """
    fam = get_family(family)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise DataError("x must be a 2-D array")
    if rows is not None:  # an array, never a slice: x[slice] would be a view of the caller's x
        rows = np.asarray(rows)
        y = y[rows]
    block = (lambda lo, hi: x[:, lo:hi]) if rows is None else (lambda lo, hi: x[rows, lo:hi])
    n, p = len(block(0, 0)), x.shape[1]
    if len(y) != n:
        raise DataError(f"x has {n} rows but y has {len(y)} entries")
    if n < 3:
        raise InsufficientDataError("need at least 3 observations")

    x_std = np.empty((n, p), order="F")
    x_mean, x_sd, is_const = np.empty(p), np.empty(p), np.empty(p, dtype=bool)
    edges = [*range(0, max(p - 1, 1), 256), p]  # no lone last column: numpy would sum it pairwise
    for lo, hi in zip(edges, edges[1:]):  # stats in x's (or x[rows]'s) own layout: np.std's bits
        b = block(lo, hi)
        if not np.isfinite(b).all():
            bad = np.argwhere(~np.isfinite(block(0, p)))[0]
            raise DataError(f"non-finite predictor at row {bad[0]}, column {bad[1]}")
        mean, sd = b.mean(axis=0, out=x_mean[lo:hi]), b.std(axis=0, ddof=1, out=x_sd[lo:hi])
        const = np.equal(np.ptp(b, axis=0), 0, out=is_const[lo:hi])
        sd[const | ~(sd > 0)] = 1.0
        b = np.subtract(b, mean)  # in b's own layout: strided arithmetic into x_std is slower
        b /= sd
        b[:, const] = 0.0
        x_std[:, lo:hi] = b
        del b  # before the next block is gathered
    validate_response(fam, y)

    if fam.name == "gaussian":
        y_mean = float(y.mean())
        y_sd = float(y.std(ddof=1)) or 1.0
        y_std = (y - y_mean) / y_sd
    else:
        y_mean, y_sd = 0.0, 1.0
        y_std = y.copy()
    stats = StandardizationStats(x_mean, x_sd, y_mean, y_sd, np.flatnonzero(is_const))
    return x_std, y_std, stats


@dataclass
class MarginalModel:
    index_set: np.ndarray  # predictor indices this model sees
    phi: ProjectionMatrix
    gamma0: float
    gamma: np.ndarray
    converged: bool
    failed: bool = False  # an exception (not mere non-convergence) hit the fit
    beta_vals: np.ndarray = field(init=False)  # phi.T @ gamma, aligned with index_set

    def __post_init__(self):
        self.beta_vals = self.phi.backmap(self.gamma)


@one_blas_thread
def fit_models(
    x_std,
    y_std,
    fam: Family,
    screen_spec: ScreenSpec,
    rp_spec: RpSpec | None,
    model_spec: ModelSpec,
    n_models: int,
    master_seed: int,
    screen_rows,
    model_rows,
    inds=None,
    rpms=None,
    threads: int = 1,
    starts=None,
    screen_start=None,
) -> list[MarginalModel]:
    """Screen on screen_rows and fit the marginal models on model_rows (algorithm step 4).

    The full fit and every CV fold run this path.  Supplied inds and rpms are used verbatim;
    every data-driven cw projection, drawn or supplied, takes its values from this fit's
    screening here, and nowhere else.  Screening runs only when something reads it.  What is
    not supplied, each model draws from streams keyed by (seed, model index, purpose), so
    results do not depend on the thread count; a "fixed" kept set is selected once for all
    models.  starts (a (gamma0, gamma) or None per model) and screen_start are warm starts
    (see fit_penalized_glm).  A model whose solve fails is recorded with zero coefficients;
    only all failing raises.
    """
    p = x_std.shape[1]
    if inds is not None and len(inds) < n_models:
        raise ConfigError(f"{len(inds)} index sets supplied for {n_models} models")
    if rpms is not None and len(rpms) < n_models:
        raise ConfigError(f"{len(rpms)} projections supplied for {n_models} models")
    split = screen_spec.split_data_prop is not None

    def rows_of(rows):  # without a split, index no rows: no copies
        return (x_std[rows], y_std[rows]) if split else (x_std, y_std)

    supplied = [] if rpms is None else [r for r in rpms[:n_models] if r is not None]
    cw_values = any(r.kind == "cw" and r.data_driven for r in supplied) or (
        len(supplied) < n_models and rp_spec.kind == "cw" and rp_spec.data_driven)
    screen_result = (compute_screening(*rows_of(screen_rows), fam, screen_spec, screen_start)
                     if inds is None or cw_values else None)
    fixed = (select_screened(screen_result, screen_spec, None)
             if inds is None and screen_spec.selection_type == "fixed" else None)
    x_fit, y_fit = rows_of(model_rows)
    eps = model_spec.resolve_epsilon(fam, len(y_fit))

    def fit_one(k: int) -> MarginalModel:
        if inds is not None:
            idx = np.asarray(inds[k], dtype=int)
            if idx.size == 0 or idx.min() < 0 or idx.max() >= p:
                raise ConfigError(f"model {k}: supplied index set out of range")
        elif fixed is not None:
            idx = fixed
        else:
            idx = select_screened(screen_result, screen_spec, model_stream(master_seed, k, SCREEN_DRAW))
        q = idx.size
        if rpms is not None and rpms[k] is not None:
            phi = rpms[k]
            if phi.q != q:
                raise ConfigError(f"model {k}: projection has q={phi.q}, index set has {q}")
        else:
            m_k = int(draw_goal_dims(1, rp_spec.mslow, rp_spec.msup, model_stream(master_seed, k, DIM_DRAW))[0])
            m_k = max(1, min(m_k, q))  # more goal dims than inputs adds nothing
            phi = make_projection(rp_spec, m_k, idx, model_stream(master_seed, k, PHI_DRAW),
                                  x=x_fit, y=y_fit, family=fam, model_epsilon=eps)
        if phi.kind == "cw" and phi.data_driven:
            phi = phi.with_column_values(screen_result.omega[idx])
        z = phi.matmul(x_fit[:, idx])
        start = None if starts is None else starts[k]
        try:
            try:
                fit = fit_penalized_glm(z, y_fit, fam, eps, model_spec.max_iter, model_spec.tol, start)
            except SingularError:
                if eps > 0:
                    raise
                fit = fit_penalized_glm(z, y_fit, fam, RIDGE_PER_ROW * len(y_fit), model_spec.max_iter,
                                        model_spec.tol, start)
        except SOLVER_ERRORS as exc:
            logger.warning("model %d failed (%s); recording zero coefficients", k, exc)
            return MarginalModel(idx, phi, 0.0, np.zeros(phi.m), False, failed=True)
        return MarginalModel(idx, phi, fit.gamma0, fit.gamma, fit.converged)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            models = list(pool.map(fit_one, range(n_models)))
    else:
        models = [fit_one(k) for k in range(n_models)]
    if all(m.failed for m in models):
        raise NumericError("all marginal models failed to fit")
    return models


def build_nu_grid(models, nnu: int, explicit=None) -> np.ndarray:
    """Threshold grid: {0} plus nnu-1 quantiles of the nonzero |beta|.

    An explicit grid is sorted and deduplicated instead.  If every
    coefficient is zero the grid degenerates to {0} with a warning.
    """
    if explicit is not None:
        try:
            nus = np.unique(np.asarray(explicit, dtype=float))
        except (TypeError, ValueError):
            raise ConfigError(f"nus must be numbers, got {explicit!r}") from None
        if nus.size == 0:
            raise ConfigError("nus must not be empty")
        if not np.all(np.isfinite(nus)) or nus[0] < 0:
            raise ConfigError("nus must be finite and >= 0")
        return nus
    if nnu < 1:
        raise ConfigError("nnu must be >= 1")
    vals = np.concatenate([np.abs(m.beta_vals) for m in models]) if models else np.zeros(0)
    vals = vals[vals > 0]
    if vals.size == 0:
        logger.warning("all marginal coefficients are zero; nu grid degenerates to {0}")
        return np.zeros(1)
    qs = np.quantile(vals, np.arange(1, nnu) / nnu)
    return np.unique(np.concatenate([[0.0], qs]))


def threshold_beta(beta, nu) -> np.ndarray:
    """Zero entries with |beta_j| < nu (strict: |beta_j| = nu survives); one row per nu of an array."""
    nu = np.asarray(nu, dtype=float)
    if np.any(nu < 0):
        raise ConfigError("nu must be >= 0")
    beta = np.asarray(beta, dtype=float)
    return np.where(np.abs(beta) < nu[..., None], 0.0, beta)


@dataclass
class AveragedCoef:
    """Destandardized ensemble coefficients at one (nu, nummod) pair."""

    intercept: float
    beta: np.ndarray
    nu: float
    nummod: int
    active: int


def _checked_nummod(nummod, n_models: int) -> int:
    if not 1 <= nummod <= n_models:
        raise ConfigError(f"nummod must lie in [1, {n_models}], got {nummod}")
    return int(nummod)


def _coef_blocks(models, stats: StandardizationStats, p: int, nus, nummods):
    """Yield (nummod, betas, intercepts, active) per entry of nummods, betas one nus.size x p block.

    A running sum over the first max(nummods) models adds each model's
    thresholded coefficients at every nu, in model order, so each row
    equals a fresh average over models[:nummod] bit for bit; active counts its nonzeros.
    beta_orig_j = beta_std_j * y_sd / x_sd_j and the intercept absorbs
    the centering:  y_mean + y_sd * mean(gamma0) - sum_j beta_orig_j * x_mean_j.
    The non-gaussian sentinels y_mean=0, y_sd=1 make the same formula
    exact for all families.
    """
    nus = np.asarray(nus, dtype=float)
    pending = [_checked_nummod(m, len(models)) for m in nummods]
    acc = np.zeros((nus.size, p))
    g0 = 0.0
    ready = {}  # nummod -> its block; one reached before its turn in nummods waits here
    for k, model in enumerate(models[: max(pending)], 1):
        acc[:, model.index_set] += threshold_beta(model.beta_vals, nus)
        g0 += model.gamma0
        if k in pending:  # scaled in place and dropped here: one new block at a time
            betas = acc / k
            betas *= stats.y_sd
            betas /= stats.x_sd
            ready[k] = betas, [stats.y_mean + stats.y_sd * (g0 / k) - float(b @ stats.x_mean)
                               for b in betas], np.count_nonzero(betas, axis=1)
            del betas
        while pending and pending[0] in ready:
            nummod = pending.pop(0)
            yield nummod, *(ready[nummod] if nummod in pending else ready.pop(nummod))


def averaged_coef(models, stats: StandardizationStats, p: int, nu: float, nummod: int) -> AveragedCoef:
    """Average the first nummod thresholded models and destandardize (see _coef_blocks)."""
    nummod, betas, intercepts, active = next(_coef_blocks(models, stats, p, [nu], [nummod]))
    return AveragedCoef(intercepts[0], betas[0], float(nu), nummod, int(active[0]))


def check_x_new(x_new, p: int) -> np.ndarray:
    """x_new as a float array; DataError unless it is 2-D, p columns wide and finite."""
    x_new = np.asarray(x_new, dtype=float)
    if x_new.ndim != 2:
        raise DataError("x_new must be a 2-D array")
    if x_new.shape[1] != p:
        raise DataError(f"x_new has {x_new.shape[1]} columns, model expects {p}")
    if not _all_finite(x_new):
        raise DataError("non-finite entries in x_new")
    return x_new


def predict_glm(
    models,
    stats: StandardizationStats,
    fam: Family,
    x_new,
    nu: float,
    nummod: int,
    type: str = "response",
    avg_type: str = "link",
) -> np.ndarray:
    """Ensemble predictions on new data.

    avg_type="link" averages coefficients first and pushes the linear
    predictor through the inverse link; "response" averages the
    per-model response-scale predictions, each model's from averaged_coef
    (for type="link" the link of that mean is returned).  The
    two coincide for gaussian/identity.
    """
    if type not in ("response", "link"):
        raise ConfigError("type must be 'response' or 'link'")
    if avg_type not in ("link", "response"):
        raise ConfigError("avg_type must be 'link' or 'response'")
    p = len(stats.x_mean)
    x_new = check_x_new(x_new, p)
    if avg_type == "link":
        c = averaged_coef(models, stats, p, nu, nummod)
        eta = c.intercept + x_new @ c.beta
        return eta if type == "link" else linkinv_eval(fam, eta)

    nummod = _checked_nummod(nummod, len(models))
    per_model = (averaged_coef([m], stats, p, nu, 1) for m in models[:nummod])
    mu = sum(linkinv_eval(fam, c.intercept + x_new @ c.beta) for c in per_model) / nummod
    return link_eval(fam, mu) if type == "link" else mu


def check_measure(measure: str, fam: Family) -> None:
    """Refuse unknown measures, and class/1-auc outside the binomial family."""
    if measure not in MEASURES:
        raise ConfigError(f"unknown measure {measure!r}; choose from {MEASURES}")
    if measure in ("class", "1-auc") and fam.name != "binomial":
        raise ConfigError(f"measure {measure!r} requires the binomial family")


def eval_measure(measure: str, fam: Family, y, mu) -> float:
    """Evaluate a selection measure on response-scale predictions."""
    check_measure(measure, fam)
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if y.shape != mu.shape:
        raise DataError(f"length mismatch: y has {y.shape}, predictions have {mu.shape}")
    if measure == "deviance":
        return deviance_eval(fam, y, mu)
    if measure == "mse":
        return float(np.mean((y - mu) ** 2))
    if measure == "mae":
        return float(np.mean(np.abs(y - mu)))
    if measure == "class":
        return float(np.mean((mu > 0.5) != (y > 0.5)))
    return one_minus_auc(y, mu)


def one_minus_auc(y, mu) -> float:
    """1 - AUC: the share of (positive, negative) pairs the negative scores higher, ties 1/2.

    Counted exactly, in halves, against the sorted negatives; NaN in mu gives NaN.
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    pos = y == 1
    n1 = int(pos.sum())
    n0 = len(y) - n1
    if n1 == 0 or n0 == 0:
        raise DataError("AUC needs both classes present")
    if np.isnan(mu).any():
        return float("nan")
    neg = np.sort(mu[~pos])
    twice = np.searchsorted(neg, mu[pos], "left") + np.searchsorted(neg, mu[pos], "right")
    return 1.0 - float(twice.sum()) / 2.0 / (n1 * n0)


@dataclass
class SparEnsemble:
    """A fitted ensemble plus everything needed to reuse it.

    The original data are not stored; predictions only need the
    standardization stats and the per-model (index_set, phi, gamma).
    Read-only: p, the length of stats.x_mean; best and one_se, the
    (nu, nummod) of grid.best_cell() and, after CV (cv), of
    grid.one_se_cell(), None otherwise.
    """

    family: Family
    stats: StandardizationStats
    models: list[MarginalModel]
    nus: np.ndarray
    nummods: tuple[int, ...]
    measure: str
    master_seed: int
    config: dict = field(default_factory=dict)
    grid: object = None  # SelectionGrid, attached by the selection step

    @property
    def p(self) -> int:
        return self.stats.x_mean.size

    @property
    def cv(self) -> bool:
        return self.grid is not None and self.grid.kind == "cv"

    @property
    def best(self) -> tuple[float, int] | None:
        c = self.grid.best_cell() if self.grid is not None else None
        return c and (c.nu, c.nummod)

    @property
    def one_se(self) -> tuple[float, int] | None:
        c = self.grid.one_se_cell() if self.cv else None
        return c and (c.nu, c.nummod)

    def _pick(self, nu, nummod, opt_par):
        """(nu, nummod): each one given, else that of the opt_par pair ("best" or "1se")."""
        if opt_par not in ("best", "1se"):
            raise ConfigError("opt_par must be 'best' or '1se'")
        if nu is not None and (isinstance(nu, bool) or not (isinstance(nu, numbers.Real) and nu >= 0)):
            raise ConfigError(f"nu must be a number >= 0, got {nu!r}")
        nummod = whole_number("nummod", nummod)
        chosen = self.one_se if opt_par == "1se" else self.best
        if (nu is None or nummod is None) and chosen is None:
            raise ConfigError(f"no {opt_par!r} pair available; pass nu and nummod explicitly")
        return (
            float(chosen[0]) if nu is None else float(nu),
            int(chosen[1]) if nummod is None else nummod,
        )

    def coef(self, nu=None, nummod=None, opt_par="best") -> AveragedCoef:
        nu, nummod = self._pick(nu, nummod, opt_par)
        return averaged_coef(self.models, self.stats, self.p, nu, nummod)

    def predict(self, x_new, type="response", avg_type="link", nu=None,
                nummod=None, opt_par="best") -> np.ndarray:
        nu, nummod = self._pick(nu, nummod, opt_par)
        return predict_glm(self.models, self.stats, self.family, x_new,
                           nu, nummod, type, avg_type)

