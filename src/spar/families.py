"""GLM families with canonical links and a ridge-penalized IRLS solver.

Supported pairs are gaussian/identity, binomial/logit and poisson/log.
The solver minimizes the negative log-likelihood plus an optional L2
penalty (epsilon/2) * ||gamma||^2 on the slopes; the intercept is never
penalized.  Gaussian fits reduce to one (weighted) least-squares solve,
the other families run IRLS with step halving.

fit_penalized_glm checks its inputs once; its IRLS loop then runs the
unchecked _deviance and one LAPACK Cholesky per weighted solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit, xlogy

from .errors import ConfigError, DataError, DomainError, NumericError, SingularError

# mean clamps that keep IRLS weights and deviances finite
BINOMIAL_MU_EPS = 1e-10
POISSON_MU_FLOOR = 1e-10
_POISSON_ETA_CAP = 700.0  # exp() overflows just above this

# what a failed penalized GLM solve raises; callers that let a fit fail catch these
SOLVER_ERRORS = (SingularError, NumericError, DomainError, np.linalg.LinAlgError, FloatingPointError)


@dataclass(frozen=True)
class Family:
    """A GLM family together with its canonical link."""

    name: str
    link: str


GAUSSIAN = Family("gaussian", "identity")
BINOMIAL = Family("binomial", "logit")
POISSON = Family("poisson", "log")

FAMILIES = {f.name: f for f in (GAUSSIAN, BINOMIAL, POISSON)}


def get_family(family) -> Family:
    """Resolve a family name (or pass a Family through)."""
    if isinstance(family, Family):
        if family not in FAMILIES.values():
            raise ConfigError(f"unsupported family {family}; choose from {sorted(FAMILIES)}")
        return family
    try:
        return FAMILIES[family]
    except (KeyError, TypeError):
        raise ConfigError(
            f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        ) from None


def validate_response(fam: Family, y) -> np.ndarray:
    """Check y against the family domain, returning it as a float array."""
    y = np.asarray(y, dtype=float)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise DomainError(f"non-finite response at index {bad[0]}")
    if fam.name == "binomial":
        bad = np.flatnonzero((y < 0) | (y > 1))
        if bad.size:
            raise DomainError(f"binomial response outside [0, 1] at index {bad[0]}")
    elif fam.name == "poisson":
        bad = np.flatnonzero(y < 0)
        if bad.size:
            raise DomainError(f"negative poisson response at index {bad[0]}")
    return y


def link_eval(fam: Family, mu) -> np.ndarray:
    """Apply the canonical link g(mu)."""
    mu = np.asarray(mu, dtype=float)
    if fam.name == "gaussian":
        return mu.copy()
    if fam.name == "binomial":
        bad = np.flatnonzero(~np.isfinite(mu) | (mu <= 0) | (mu >= 1))
        if bad.size:
            raise DomainError(f"binomial mean outside (0, 1) at index {bad[0]}")
        return np.log(mu / (1.0 - mu))
    bad = np.flatnonzero(~np.isfinite(mu) | (mu <= 0))
    if bad.size:
        raise DomainError(f"non-positive poisson mean at index {bad[0]}")
    return np.log(mu)


def linkinv_eval(fam: Family, eta) -> np.ndarray:
    """Apply the inverse link, clamping means away from the boundary."""
    eta = np.asarray(eta, dtype=float)
    if not np.isfinite(eta).all():
        bad = np.flatnonzero(~np.isfinite(eta))
        raise DomainError(f"non-finite linear predictor at index {bad[0]}")
    if fam.name == "gaussian":
        return eta.copy()
    if fam.name == "binomial":
        return np.clip(expit(eta), BINOMIAL_MU_EPS, 1.0 - BINOMIAL_MU_EPS)
    return np.maximum(np.exp(np.minimum(eta, _POISSON_ETA_CAP)), POISSON_MU_FLOOR)


def variance_eval(fam: Family, mu) -> np.ndarray:
    """Variance function V(mu); equals d mu / d eta for canonical links."""
    mu = np.asarray(mu, dtype=float)
    if fam.name == "gaussian":
        return np.ones_like(mu)
    if fam.name == "binomial":
        return mu * (1.0 - mu)
    return mu


def deviance_eval(fam: Family, y, mu) -> float:
    """Family deviance with the 0 * log 0 := 0 convention."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if y.shape != mu.shape:
        raise DataError(f"length mismatch: y has {y.shape}, mu has {mu.shape}")
    return _deviance(fam, validate_response(fam, y), mu)


def _saturated(fam: Family, y: np.ndarray):
    """The mu-free deviance terms, for a caller that scores one y at many mu."""
    return xlogy(y, y), xlogy(1.0 - y, 1.0 - y) if fam.name == "binomial" else None


def _deviance(fam: Family, y: np.ndarray, mu: np.ndarray, sat=None) -> float:
    if fam.name == "gaussian":
        return max(float(((y - mu) ** 2).sum()), 0.0)
    y_logy, y_c_logy = sat or _saturated(fam, y)
    if fam.name == "binomial":
        # difference-of-xlogy form avoids 0/0 at exact-boundary mu; each
        # one-sided clamp only touches entries whose xlogy factor is 0
        m_lo = np.maximum(mu, BINOMIAL_MU_EPS)
        m_hi = np.minimum(mu, 1.0 - BINOMIAL_MU_EPS)
        d = 2.0 * float((y_logy - xlogy(y, m_lo) + y_c_logy - xlogy(1.0 - y, 1.0 - m_hi)).sum())
    else:
        m = np.maximum(mu, POISSON_MU_FLOOR)
        d = 2.0 * float((y_logy - xlogy(y, m) - (y - m)).sum())
    return max(d, 0.0)


@dataclass
class GlmFit:
    gamma0: float  # intercept, never penalized
    gamma: np.ndarray  # slope coefficients, shape (m,)
    converged: bool
    iterations: int
    deviance: float


def _solve_pd(a, b):
    """a^-1 b from the upper triangle of a, bit for bit scipy.linalg.solve(a, b, assume_a="pos").

    One LAPACK Cholesky (dpotrf, dpotrs; a Fortran-ordered a is overwritten).
    NumericError on a non-finite system, SingularError if a is not positive definite.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NumericError("non-finite weighted least-squares system")
    if a.shape == (1, 1) and a[0, 0] != 0:  # scipy's scalar rule; a == 0 fails in dpotrf
        return b / a[0, 0]
    c, info = dpotrf(a, lower=0, clean=0, overwrite_a=1)
    if info > 0:
        raise SingularError(f"singular weighted least-squares system: minor {info} is not positive")
    return dpotrs(c, b, lower=0)[0]


def _solve_wls(z, target, w, epsilon):
    """Minimize 1/2 sum w_i (t_i - g0 - z_i.g)^2 + eps/2 ||g||^2.

    Weighted centering eliminates the unpenalized intercept; the slope
    system is then solved in primal (m x m) or dual (n x n) form,
    whichever is smaller, by one LAPACK Cholesky (a 1 x 1 system is b / a,
    as in scipy.linalg.solve).  fit_penalized_glm has checked the inputs
    once per fit.  Raises SingularError when the system cannot be
    factorized, which with epsilon = 0 signals rank deficiency.
    """
    n, m = z.shape
    if w is None:
        w = np.ones(n)
    sw = float(w.sum())
    with np.errstate(over="ignore", invalid="ignore"):  # _solve_pd refuses an overflow
        zbar = (w @ z) / sw
        tbar = float(w @ target) / sw
        zc = z - zbar
        tc = target - tbar
        if m == 0:
            return tbar, np.zeros(0)
        if m <= n:
            g = zc.T @ (w[:, None] * zc)  # not exactly symmetric: dpotrf reads the upper triangle
            g[np.diag_indices(m)] += epsilon
            gamma = _solve_pd(g, zc.T @ (w * tc))
        else:
            if epsilon == 0:
                raise SingularError("least-squares system with more columns than rows is "
                                    "singular; retry with epsilon > 0")
            zc *= np.sqrt(w)[:, None]  # weighted in place: one n x m copy of z, not two
            k = zc @ zc.T  # one syrk: exactly symmetric, k.T (Fortran order) is factorized in place
            k[np.diag_indices(n)] += epsilon
            gamma = zc.T @ _solve_pd(k.T, np.sqrt(w) * tc)
        return tbar - float(zbar @ gamma), gamma


def fit_penalized_glm(z, y, family, epsilon=0.0, max_iter=100, tol=1e-8) -> GlmFit:
    """Fit a GLM of y on z with an L2 penalty on the slopes.

    Parameters
    ----------
    z : array of shape (n, m)
        Design matrix without an intercept column; m = 0 fits the
        intercept alone.
    y : array of shape (n,)
        Response in the family domain.
    family : Family or str
    epsilon : float
        Penalty weight; 0 means unpenalized.
    max_iter, tol : IRLS budget and relative deviance-change tolerance.

    Returns
    -------
    GlmFit
        Best iterate found; converged=False flags hitting max_iter.
        Raises SingularError on a singular solve, which with epsilon = 0
        the caller may retry with a small positive epsilon.
    """
    fam = get_family(family)
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    y = np.asarray(y, dtype=float)
    n, m = z.shape
    if n != len(y):
        raise DataError(f"z has {n} rows but y has {len(y)} entries")
    if n < 1:
        raise DataError("empty design")
    if not np.all(np.isfinite(z)):
        raise DataError("non-finite entries in the design matrix")
    if not 0 <= epsilon < np.inf:
        raise ConfigError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")
    validate_response(fam, y)

    if fam.name == "gaussian":
        gamma0, gamma = _solve_wls(z, y, None, epsilon)
        mu = gamma0 + (z @ gamma if m else 0.0)
        mu = np.broadcast_to(np.asarray(mu, dtype=float), y.shape)
        return GlmFit(float(gamma0), gamma, True, 1, _deviance(fam, y, mu))

    # IRLS from the intercept-only start, with step halving on the
    # penalized objective (deviance/2 + penalty, dispersion 1).
    if fam.name == "binomial":
        mu0 = float(np.clip(y.mean(), BINOMIAL_MU_EPS, 1.0 - BINOMIAL_MU_EPS))
        gamma0 = float(np.log(mu0 / (1.0 - mu0)))
    else:
        gamma0 = float(np.log(max(y.mean(), POISSON_MU_FLOOR)))
    gamma = np.zeros(m)
    sat = _saturated(fam, y)

    def objective(dev, g):
        return 0.5 * dev + 0.5 * epsilon * float(g @ g)

    eta = gamma0 + z @ gamma
    mu = linkinv_eval(fam, eta)
    dev = _deviance(fam, y, mu, sat)
    obj = objective(dev, gamma)
    converged = False
    for iterations in range(1, max_iter + 1):  # max_iter >= 1: iterations is always bound
        w = variance_eval(fam, mu)
        work = eta + (y - mu) / w
        prop0, prop = _solve_wls(z, work, w, epsilon)
        d0 = prop0 - gamma0
        dg = prop - gamma
        step = 1.0
        for _ in range(31):  # full step plus up to 30 halvings
            cand0 = gamma0 + step * d0
            cand = gamma + step * dg
            eta_c = cand0 + z @ cand
            mu_c = linkinv_eval(fam, eta_c)
            dev_c = _deviance(fam, y, mu_c, sat)
            obj_c = objective(dev_c, cand)
            if obj_c <= obj + 1e-12 * (1.0 + abs(obj)):
                break
            step *= 0.5
        else:
            converged = True  # no descent possible at machine precision
            break
        dev_prev = dev
        gamma0, gamma, eta, mu, dev, obj = cand0, cand, eta_c, mu_c, dev_c, obj_c
        if abs(dev - dev_prev) / (0.1 + abs(dev)) < tol:
            converged = True
            break
    return GlmFit(float(gamma0), gamma, converged, iterations, float(dev))
