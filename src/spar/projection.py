"""Random projection matrices mapping q screened predictors to m << q dims.

Generators: dense gaussian, sparse +-1/sqrt(psi) entries, a one-nonzero-
per-column sketch (cw; ensemble.fit_models sets a data-driven one's values),
and orthonormal-row (Haar) matrices with an optional best-of-B2 holdout
selection.  All generators leave scaling to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import ConfigError, DataError, whole_at_least, whole_number
from .families import SOLVER_ERRORS, fit_penalized_glm, get_family, linkinv_eval
from .plugins import register, resolve

KINDS = ("gaussian", "sparse", "cw", "haar_select")


def register_rp_plugin(name: str, fn) -> None:
    """Register a callable (m, index_set, snapshot, controls) -> matrix as an RpSpec.kind name."""
    register("projection", name, fn)


@dataclass(frozen=True)
class RpSpec:
    """Projection family and its goal-dimension range.

    mslow defaults to ceil(log p) and msup to floor(n/2), resolved when
    the data size is known.  data_driven only affects the cw kind.  kind
    is a builtin ("haar_select" may be spelled "haar-select"), the name of
    a registered plugin or the plugin callable itself.
    """

    kind: object = "cw"
    psi: float = 1.0
    data_driven: bool = True
    mslow: int | None = None
    msup: int | None = None
    b2: int = 50
    holdout_frac: float = 0.25
    controls: dict = field(default_factory=dict)

    def validated(self) -> "RpSpec":
        if self.kind == "haar-select":
            return replace(self, kind="haar_select").validated()
        resolve("projection", self.kind, KINDS)
        if not 0.0 < self.psi <= 1.0:
            raise ConfigError("psi must lie in (0, 1]")
        mslow, msup = whole_number("mslow", self.mslow), whole_number("msup", self.msup)
        if mslow is not None and mslow < 1:
            raise ConfigError("mslow must be >= 1")
        if msup is not None and mslow is not None and mslow > msup:
            raise ConfigError("mslow must not exceed msup")
        b2 = whole_at_least("b2", self.b2, 1)
        if not 0.0 < self.holdout_frac < 1.0:
            raise ConfigError("holdout_frac must lie strictly between 0 and 1")
        return replace(self, mslow=mslow, msup=msup, b2=b2)

    def resolved(self, n: int, p: int) -> "RpSpec":
        """Fill mslow/msup defaults for n model rows and p predictors."""
        msup = self.msup if self.msup is not None else max(1, n // 2)
        mslow = self.mslow if self.mslow is not None else math.ceil(math.log(p))
        if self.mslow is None:
            # defaults must stay usable on tiny data
            mslow = max(1, min(mslow, msup))
        if mslow > msup:
            raise ConfigError(f"mslow={mslow} exceeds msup={msup}")
        return replace(self, mslow=mslow, msup=msup)


@dataclass
class ProjectionMatrix:
    """An m x q projection: an ndarray for the dense kinds, a CSC array for cw and triplets."""

    kind: str
    mat: np.ndarray | scipy.sparse.csc_array
    data_driven: bool = False

    @property
    def m(self) -> int:
        return self.mat.shape[0]

    @property
    def q(self) -> int:
        return self.mat.shape[1]

    @property
    def rows(self) -> np.ndarray:
        """Target row of every stored entry, in triplets() order."""
        return self.triplets()[0]

    def triplets(self):
        """(rows, cols, vals) of the stored entries.

        Row-major for dense storage (its nonzero entries), column-major
        for CSC storage (explicit zeros included).
        """
        coo = scipy.sparse.coo_array(self.mat)
        return coo.row, coo.col, coo.data

    @classmethod
    def from_triplets(cls, kind, m, q, rows, cols, vals, sparse, data_driven=False):
        """The inverse of triplets(): sparse ones, strictly increasing (col, row) in m x q (else a
        ValueError), as CSC arrays; dense ones in the fit's layout (F for a haar QR factor)."""
        vals = np.asarray(vals, dtype=float)
        rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
        if not sparse:
            coo = scipy.sparse.coo_array((vals, (rows, cols)), shape=(m, q))
            return cls(kind, coo.toarray("F" if kind == "haar" else "C"), data_driven)
        if not (rows.shape == cols.shape == vals.shape and np.all(np.diff(cols * m + rows) > 0)
                and np.all((0 <= rows) & (rows < m) & (0 <= cols) & (cols < q))):
            raise ValueError(f"sparse triplets are not strictly increasing (col, row) in {m} x {q}")
        indptr = np.searchsorted(cols, np.arange(q + 1))
        return cls(kind, scipy.sparse.csc_array((vals, rows, indptr), shape=(m, q)), data_driven)

    def matmul(self, x_sub) -> np.ndarray:
        """Z = x_sub @ phi.T."""
        x_sub = np.asarray(x_sub, dtype=float)
        if x_sub.ndim != 2 or x_sub.shape[1] != self.q:
            raise DataError(
                f"projection expects {self.q} columns, got "
                f"{x_sub.shape[1] if x_sub.ndim == 2 else x_sub.shape}"
            )
        # x_sub @ csc.T transposes twice to get here.  fit_models's x_sub, a column gather, is
        # F-ordered, so scipy reads x_sub.T in place
        return x_sub @ self.mat.T if isinstance(self.mat, np.ndarray) else (self.mat @ x_sub.T).T

    def backmap(self, gamma) -> np.ndarray:
        """phi.T @ gamma, mapping reduced coefficients back to the q predictors."""
        gamma = np.asarray(gamma, dtype=float)
        if gamma.shape != (self.m,):
            raise DataError(f"gamma must have shape ({self.m},), got {gamma.shape}")
        if isinstance(self.mat, np.ndarray):
            return self.mat.T @ gamma
        # mat.T @ gamma's bits without building mat.T: each column's stored entries summed into
        # 0.0 in stored order, as scipy's csr_matvec sums the rows of mat.T
        mat = self.mat
        cols = np.repeat(np.arange(self.q), np.diff(mat.indptr))
        return np.bincount(cols, weights=mat.data * gamma[mat.indices], minlength=self.q)

    def with_column_values(self, values) -> "ProjectionMatrix":
        """Copy with fresh per-column values; keeps the sparse structure.

        Only meaningful for the cw kind: ensemble.fit_models gives every
        data-driven cw matrix, drawn or supplied, its fit's screening values.
        """
        if self.kind != "cw":
            raise ConfigError("with_column_values applies to sparse cw matrices only")
        values = np.asarray(values, dtype=float)
        if values.shape != (self.q,):
            raise DataError(f"need {self.q} column values, got {values.shape}")
        mat = scipy.sparse.csc_array((values.copy(), self.mat.indices, self.mat.indptr),
                                     shape=self.mat.shape)
        return ProjectionMatrix(self.kind, mat, self.data_driven)


def jl_min_dim(n: int, eps: float, tau: float) -> int:
    """Smallest dimension preserving pairwise distances of n points.

    ceil(log(n) * (4 + 2 tau) / (eps^2/2 - eps^3/3)); the guarantee is
    (1 +- eps) distortion with probability 1 - n^(-tau) for a scaled
    gaussian projection.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    if not 0.0 < eps < 1.0:
        raise ConfigError("eps must lie strictly between 0 and 1")
    if tau <= 0:
        raise ConfigError("tau must be > 0")
    return int(math.ceil(math.log(n) * (4.0 + 2.0 * tau) / (eps**2 / 2.0 - eps**3 / 3.0)))


def draw_goal_dims(n_models: int, mslow: int, msup: int, rng) -> np.ndarray:
    """n_models iid draws from the uniform integers {mslow, ..., msup}."""
    if mslow < 1 or mslow > msup:
        raise ConfigError(f"need 1 <= mslow <= msup, got [{mslow}, {msup}]")
    return rng.integers(mslow, msup + 1, size=n_models)


def gen_gaussian(m: int, q: int, rng) -> ProjectionMatrix:
    """Dense iid N(0, 1) matrix; apply 1/sqrt(m) yourself for JL scaling."""
    _check_dims(m, q)
    return ProjectionMatrix("gaussian", rng.standard_normal((m, q)))


def gen_sparse(m: int, q: int, psi: float, rng) -> ProjectionMatrix:
    """Entries +-1/sqrt(psi) with probability psi/2 each, else 0."""
    _check_dims(m, q)
    if not 0.0 < psi <= 1.0:
        raise ConfigError("psi must lie in (0, 1]")
    u = rng.random((m, q))
    v = 1.0 / math.sqrt(psi)
    dense = np.where(u < psi / 2.0, v, np.where(u < psi, -v, 0.0))
    return ProjectionMatrix("sparse", dense)


def gen_cw(m: int, q: int, data_driven: bool, rng) -> ProjectionMatrix:
    """One nonzero per column: a uniform target row times a Rademacher sign, drawn in that order.

    data_driven only marks the matrix: ensemble.fit_models sets its values (with_column_values).
    """
    _check_dims(m, q)
    rows = rng.integers(0, m, size=q)
    vals = rng.integers(0, 2, size=q) * 2.0 - 1.0
    mat = scipy.sparse.csc_array((vals, rows, np.arange(q + 1)), shape=(m, q))
    return ProjectionMatrix("cw", mat, data_driven)


def gen_haar(m: int, q: int, rng) -> ProjectionMatrix:
    """Orthonormal rows from orthogonalizing a q x m standard normal draw."""
    _check_dims(m, q, haar=True)
    return _haar_from(rng.standard_normal((q, m)))


def _haar_from(g) -> ProjectionMatrix:
    qmat, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0  # sign fix keeps the distribution Haar
    return ProjectionMatrix("haar", (qmat * signs).T)


def gen_haar_select(
    m: int, q: int, x_sub, y, family, b2, holdout_frac, epsilon, rng
) -> ProjectionMatrix:
    """Best of b2 Haar candidates by holdout error.

    The holdout split comes from rng.spawn(1)[0], a child stream that takes
    no draws from rng; b2 = 1 is gen_haar.  Each candidate is drawn once and
    scored at once by a penalized GLM refit on the projected training rows:
    misclassification (binomial) or MSE (otherwise) on the holdout.  Ties
    keep the earliest candidate; a candidate whose fit fails drops out, and
    if all fail, the first wins.  An unpenalized gaussian fit with m < q and
    m + 1 < training rows sees G only through X G = R^T V^T G (X^T = V R,
    one QR of the [train; test] rows): it draws H = V^T G, scores it on
    R^T, and completes the winner alone to G = V H + (I - V V^T) C, C a
    fresh q x m draw, a direct draw's law by rotation invariance.  Every
    other case, m == q included (all candidates tie up to rounding), scores Q.
    """
    fam = get_family(family)
    x_sub = np.asarray(x_sub, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x_sub.shape[0]
    if x_sub.shape[1] != q:
        raise DataError(f"x_sub has {x_sub.shape[1]} columns, expected {q}")
    if b2 < 1:
        raise ConfigError("b2 must be >= 1")
    _check_dims(m, q, haar=True)
    if b2 == 1:
        return gen_haar(m, q, rng)
    n_test = int(round(holdout_frac * n))
    if n_test < 2 or n - n_test < 3:
        raise ConfigError(
            f"holdout_frac={holdout_frac} leaves {n_test} holdout and "
            f"{n - n_test} training rows; need at least 2 and 3"
        )
    test = np.sort(rng.spawn(1)[0].choice(n, size=n_test, replace=False))
    train = np.setdiff1d(np.arange(n), test)
    x_ord, n_tr, y_tr, y_te = x_sub[np.concatenate([train, test])], len(train), y[train], y[test]
    span_only = fam.name == "gaussian" and epsilon == 0 and m < q and m + 1 < n_tr
    if span_only:  # x_ord.T is F-ordered: V overwrites it; R^T's training block is triangular
        v, r = scipy.linalg.qr(x_ord.T, overwrite_a=True, mode="economic", check_finite=False)
        x_ord = r.T
    x_tr, x_te = x_ord[:n_tr, :n_tr if span_only else None], x_ord[n_tr:]
    best_err, best = np.inf, None
    for _ in range(b2):
        g = rng.standard_normal((x_te.shape[1], m))
        best = g if best is None else best
        basis = g if span_only else _haar_from(g).mat.T
        try:
            fit = fit_penalized_glm(x_tr @ basis[:x_tr.shape[1]], y_tr, fam, epsilon)
        except SOLVER_ERRORS:  # a failed candidate just drops out of the race
            continue
        mu = linkinv_eval(fam, fit.gamma0 + (x_te @ basis) @ fit.gamma)
        if fam.name == "binomial":
            err = float(np.mean((mu > 0.5) != (y_te > 0.5)))
        else:
            err = float(np.mean((y_te - mu) ** 2))
        if err < best_err:
            best_err, best = err, g
    if span_only:  # G = C + V (H - V^T C), in place: R and the scores go before C, V before G's QR
        del r, x_ord, x_tr, x_te, g, basis
        c = rng.standard_normal((q, m))
        best, v = np.add(c, v @ (best - v.T @ c), out=c), None
    return _haar_from(best)


def make_projection(
    spec: RpSpec, m: int, index_set, rng, x=None, y=None, family=None, model_epsilon=0.0,
) -> ProjectionMatrix:
    """One projection for the model's index set; a data-driven cw one still holds its signs."""
    q = len(index_set)
    if spec.kind == "gaussian":
        return gen_gaussian(m, q, rng)
    if spec.kind == "sparse":
        return gen_sparse(m, q, spec.psi, rng)
    if spec.kind == "cw":
        return gen_cw(m, q, spec.data_driven, rng)
    if spec.kind == "haar_select":
        if x is None or y is None:
            raise ConfigError("haar_select needs the model-fitting data")
        x_sub = np.asarray(x, dtype=float)[:, np.asarray(index_set, dtype=int)]
        return gen_haar_select(
            m, q, x_sub, y, family, spec.b2, spec.holdout_frac, model_epsilon, rng
        )
    fn = resolve("projection", spec.kind, KINDS)
    snapshot = {"x": x, "y": y, "rng": rng} if x is not None else None
    out = fn(m, np.asarray(index_set, dtype=int), snapshot, dict(spec.controls))
    return _normalize_plugin_output(out, m, q)


def _normalize_plugin_output(out, m, q):
    """out as a ProjectionMatrix, never data-driven: a plugin's matrix keeps its own values."""
    if isinstance(out, ProjectionMatrix):
        mat = replace(out, data_driven=False)
    elif isinstance(out, tuple) and len(out) == 3:
        rows, cols, vals = (np.asarray(a) for a in out)
        if rows.ndim != 1 or not rows.shape == cols.shape == vals.shape:
            raise DataError("projection plugin triplets must be three vectors of one length")
        index = np.stack([rows, cols])
        if index.dtype.kind not in "iuf" or np.any(index != np.round(index)):
            raise DataError("projection plugin triplet indices must be integers")
        if np.any(index < 0) or np.any(index[0] >= m) or np.any(index[1] >= q):
            raise DataError(f"projection plugin triplet indices must lie in [0, {m}) x [0, {q})")
        # duplicate entries are summed here, once
        csc = scipy.sparse.csc_array((vals.astype(float), tuple(index.astype(int))), shape=(m, q))
        mat = ProjectionMatrix("plugin", csc)
    else:
        dense = np.asarray(out, dtype=float)
        if dense.shape != (m, q):
            raise DataError(f"projection plugin returned shape {dense.shape}, expected {(m, q)}")
        mat = ProjectionMatrix("plugin", dense)
    if mat.m != m or mat.q != q:
        raise DataError(f"projection plugin returned {mat.m} x {mat.q}, expected {m} x {q}")
    if not np.all(np.isfinite(mat.triplets()[2])):
        raise DataError("projection plugin returned non-finite entries")
    return mat


def _check_dims(m, q, haar=False):
    if m < 1 or q < 1:
        raise ConfigError(f"projection dimensions must be positive, got m={m}, q={q}")
    if haar and m > q:
        raise ConfigError(f"haar projection needs m <= q, got m={m}, q={q}")
