"""Data generation, CSV handling and model persistence.

CSV parsing is strict: every cell must be a finite number and every row
must have the same width, otherwise a ParseError points at the row and
column.  load_csv first reads the body with np.loadtxt, which refuses
every cell that float() would read differently; whenever that fast path
fails, finds a non-finite value or an empty body, the file is parsed
again row by row, and that strict parser alone decides the result and
words every error.  Models persist as versioned JSON that only this module
reads and writes: dumps writes one line from json's C encoder, numbers by repr,
so save -> load -> save is byte-identical; format 1.0 files written indented
still load.  model_from_dict refuses a document no fit can have written.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .ensemble import MarginalModel, SparEnsemble, StandardizationStats
from .errors import ConfigError, NumericError, ParseError, VersionError, whole_at_least, whole_number
from .families import get_family, linkinv_eval
from .projection import ProjectionMatrix
from .selection import GridCell, SelectionGrid

MODEL_FORMAT_VERSION = "1.0"


@dataclass
class Dataset:
    x: np.ndarray
    y: np.ndarray | None = None
    colnames: list[str] | None = None
    x_test: np.ndarray | None = None
    y_test: np.ndarray | None = None


@dataclass
class SyntheticSpec:
    """Recipe for a dense-noise regression problem with sparse truth.

    Defaults reproduce the reference setup: n=200, p=2000, the first
    100 coefficients drawn from {-3,-2,-1,1,2,3}, intercept 1 and noise
    variance 83.
    """

    n: int = 200
    p: int = 2000
    n_active: int = 100
    mu: float = 1.0
    sigma2: float = 83.0
    coef_pool: tuple = (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)
    active_positions: str = "first"  # or "random"
    family: str = "gaussian"
    rho: float = 0.0  # AR(1) correlation between neighboring predictors
    n_test: int = 0

    def validated(self) -> "SyntheticSpec":
        if self.n < 1 or self.p < 1:
            raise ConfigError("n and p must be positive")
        if not 0 <= self.n_active <= self.p:
            raise ConfigError("n_active must lie in [0, p]")
        if self.sigma2 <= 0:
            raise ConfigError("sigma2 must be > 0")
        if not self.coef_pool or any(v == 0 for v in self.coef_pool):
            raise ConfigError("coef_pool must be non-empty and exclude 0")
        if self.active_positions not in ("first", "random"):
            raise ConfigError("active_positions must be 'first' or 'random'")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError("rho must lie in [0, 1)")
        if self.n_test < 0:
            raise ConfigError("n_test must be >= 0")
        get_family(self.family)
        return self


def generate_synthetic(spec: SyntheticSpec, seed: int):
    """Draw a data set from the recipe.

    Returns (Dataset, truth) where truth records mu, sigma2, the full
    coefficient vector and the active positions.  Draw order: active
    positions, coefficient values, predictors, then noise.
    """
    spec = spec.validated()
    fam = get_family(spec.family)
    rng = np.random.default_rng(whole_at_least("seed", seed, 0))
    beta = np.zeros(spec.p)
    if spec.active_positions == "first":
        active = np.arange(spec.n_active)
    else:
        active = np.sort(rng.choice(spec.p, size=spec.n_active, replace=False))
    beta[active] = rng.choice(np.asarray(spec.coef_pool, dtype=float), size=spec.n_active)

    n_all = spec.n + spec.n_test
    x = rng.standard_normal((n_all, spec.p))
    if spec.rho > 0:
        # AR(1) across columns, unit marginal variance
        scale = math.sqrt(1.0 - spec.rho**2)
        for j in range(1, spec.p):
            x[:, j] = spec.rho * x[:, j - 1] + scale * x[:, j]
    eta = spec.mu + x @ beta
    if fam.name == "gaussian":
        y = eta + rng.normal(0.0, math.sqrt(spec.sigma2), size=n_all)
    elif fam.name == "binomial":
        y = rng.binomial(1, linkinv_eval(fam, eta)).astype(float)
    else:
        y = rng.poisson(linkinv_eval(fam, eta)).astype(float)

    ds = Dataset(
        x=x[: spec.n],
        y=y[: spec.n],
        colnames=["y"] + [f"x{j + 1}" for j in range(spec.p)],
        x_test=x[spec.n :] if spec.n_test else None,
        y_test=y[spec.n :] if spec.n_test else None,
    )
    truth = {
        "mu": float(spec.mu),
        "sigma2": float(spec.sigma2),
        "beta": [float(b) for b in beta],
        "active": [int(j) for j in active],
    }
    return ds, truth


# ---- CSV ----


def load_csv(path, has_header=True, response=None) -> Dataset:
    """Read a strictly numeric CSV.

    response picks the response column by name (requires a header) or
    0-based integer position; None loads predictors only.
    """
    names, data = _parse_fast(path, has_header) or _parse_strict(path, has_header)
    if response is None:
        return Dataset(x=data, colnames=names)
    width = data.shape[1]
    if names is not None and len(names) != width:
        raise ParseError(f"{path}: header has {len(names)} columns but the body has {width}")
    if isinstance(response, str):
        if names is None:
            raise ConfigError("selecting the response by name needs a header row")
        try:
            col = names.index(response)
        except ValueError:
            raise ParseError(f"{path}: no column named {response!r}") from None
    else:
        col = whole_number("response", response)
        if not 0 <= col < width:
            raise ParseError(f"{path}: response column {col} out of range")
    # row-major x (a view when y is an edge column), as fit_spar callers pass it: standardize's
    # column sums follow x's layout (F-ordered sums differ in the last bits), not its copy's.
    x = data[:, 1:] if col == 0 else data[:, :-1] if col == width - 1 else np.delete(data, col, 1)
    xnames = [names[j] for j in range(width) if j != col] if names else None
    return Dataset(x=x, y=data[:, col], colnames=xnames)


def _parse_fast(path, has_header):
    """(names, data) read by np.loadtxt, or None to leave the file to _parse_strict.

    Only a body that loadtxt reads whole, finite and non-empty is returned;
    loadtxt refuses every cell float() would read differently (quotes, 1_0,
    unicode digits, blanks, ragged rows).  A header narrower or wider than
    the body is returned as it is, which is what the strict parser does.
    """
    try:
        with open(path, newline="") as f:
            names = None
            if has_header:
                header = next((r for r in csv.reader(f) if r), None)
                if header is None:
                    return None
                names = [c.strip() for c in header]
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(f, delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError, csv.Error):
        return None
    if data.size == 0 or not np.all(np.isfinite(data)):
        return None
    return names, data


def _parse_strict(path, has_header):
    """(names, data) parsed cell by cell; the source of every ParseError message."""
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            rows = [(reader.line_num, r) for r in reader if r]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: file is empty")
    names = None
    if has_header:
        names = [c.strip() for c in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: no data rows below the header")
    width = len(rows[0][1])
    data = np.empty((len(rows), width))
    for i, (lineno, row) in enumerate(rows):
        # lineno is the physical file line, so it matches what an editor shows
        if len(row) != width:
            raise ParseError(f"{path}: row {lineno} has {len(row)} cells, expected {width}")
        for j, cell in enumerate(row):
            try:
                v = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell {cell.strip()!r} at row {lineno}, column {j + 1}"
                ) from None
            if not math.isfinite(v):
                raise ParseError(
                    f"{path}: non-finite value {cell.strip()!r} at row {lineno}, column {j + 1}"
                )
            data[i, j] = v
    return names, data


def save_csv(path, x, y=None, colnames=None) -> None:
    """Write predictors (and optionally a leading response column).

    Floats are written with repr so a reload reproduces them exactly.  The
    bytes are those of csv.writer: the header goes through it (names may
    need quoting), body rows never need quoting and end in CRLF.
    """
    x = np.asarray(x, dtype=float)
    with open(path, "w", newline="") as f:
        if colnames is None:
            colnames = [f"x{j + 1}" for j in range(x.shape[1])]
            if y is not None:
                colnames = ["y"] + colnames
        csv.writer(f).writerow(colnames)
        for i in range(x.shape[0]):
            row = x[i].tolist()
            if y is not None:
                row.insert(0, float(y[i]))
            f.write(",".join(map(repr, row)) + "\r\n")


# ---- model persistence ----


def dumps(obj) -> str:
    """obj as one line of JSON from json's C encoder: numbers by repr, json's separators.

    The one encoder of model.json, coef.json and truth.json; the format version stays 1.0,
    and files written before in the indent=1 layout still load.
    """
    return json.dumps(obj, default=_plain)


def _plain(obj):
    """A dataclass as the dict of its fields, a numpy value by tolist(); TypeError otherwise."""
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _pair_dict(pair):
    return None if pair is None else {"nu": float(pair[0]), "nummod": int(pair[1])}


def _phi_dict(phi: ProjectionMatrix) -> dict:
    """A projection's model-file form: shape, kind, storage and its triplets as arrays."""
    rows, cols, vals = phi.triplets()
    return {"m": phi.m, "q": phi.q, "kind": phi.kind,
            "storage": "dense" if isinstance(phi.mat, np.ndarray) else "sparse",
            "data_driven": bool(phi.data_driven), "rows": rows, "cols": cols, "vals": vals}


def _phi_from_dict(d: dict) -> ProjectionMatrix:
    """The projection of _phi_dict(d); ValueError for a storage no fit writes (a data-driven
    one is always a sparse cw matrix: gen_cw draws it, and CV folds read its CSC values)."""
    kind, storage = d["kind"], d["storage"]
    if storage not in ("dense", "sparse"):
        raise ValueError(f"projection storage {storage!r} is neither 'dense' nor 'sparse'")
    if d["data_driven"] and (kind, storage) != ("cw", "sparse"):
        raise ValueError(f"a data-driven projection is a sparse cw matrix, not a {storage} {kind}")
    return ProjectionMatrix.from_triplets(kind, d["m"], d["q"], d["rows"], d["cols"], d["vals"],
                                          storage == "sparse", d["data_driven"])


def serialize_model(ens: SparEnsemble) -> str:
    selection = None if ens.grid is None else {
        "kind": ens.grid.kind, "measure": ens.measure, "cells": ens.grid.cells}
    models = [
        {"index_set": m.index_set, "gamma0": m.gamma0, "gamma": m.gamma,
         "converged": m.converged, "failed": m.failed, "phi": _phi_dict(m.phi)}
        for m in ens.models
    ]
    return dumps({
        "version": MODEL_FORMAT_VERSION, "family": ens.family.name, "p": ens.p,
        "measure": ens.measure, "master_seed": ens.master_seed, "cv": ens.cv,
        "config": ens.config, "stats": ens.stats, "nus": ens.nus, "nummods": ens.nummods,
        "models": models, "selection": selection,
        "best": _pair_dict(ens.best), "one_se": _pair_dict(ens.one_se),
    })


def save_model(ens: SparEnsemble, path) -> None:
    with open(path, "w") as f:
        f.write(serialize_model(ens))


def model_from_dict(doc: dict) -> SparEnsemble:
    """The ensemble of a parsed model document; ParseError when no fit can have written it."""
    try:
        version = str(doc["version"])
        major = MODEL_FORMAT_VERSION.split(".")[0]
        if version.split(".")[0] != major:
            raise VersionError(f"model format {version} not readable by a {major}.x reader")
        st, p = doc["stats"], doc["p"]
        stats = StandardizationStats(
            np.asarray(st["x_mean"], dtype=float), np.asarray(st["x_sd"], dtype=float),
            st["y_mean"], st["y_sd"], np.asarray(st["constant_cols"], dtype=int))
        if not stats.x_mean.shape == stats.x_sd.shape == (p,):
            raise ValueError(f"p is {p}, the stats arrays hold {stats.x_mean.size} and {stats.x_sd.size}")
        if not (np.all(stats.x_sd > 0) and np.all(stats.x_sd < np.inf) and 0 < stats.y_sd < np.inf):
            raise ValueError("an x_sd or the y_sd is not finite and > 0")
        models = []
        for md in doc["models"]:
            idx, phi = np.asarray(md["index_set"], dtype=int), _phi_from_dict(md["phi"])
            gamma = np.asarray(md["gamma"], dtype=float)
            if not (idx.size and 0 <= idx.min() and idx.max() < p):
                raise ValueError(f"an index set is empty or leaves [0, {p})")
            if idx.shape != (phi.q,) or gamma.shape != (phi.m,):
                raise ValueError(f"a {phi.m} x {phi.q} projection has {idx.size} indices "
                                 f"and {gamma.size} gammas")
            models.append(MarginalModel(idx, phi, md["gamma0"], gamma, md["converged"], md["failed"]))
        sel = doc["selection"]
        if sel is not None and sel["measure"] != doc["measure"]:
            raise ValueError(f"selection measure {sel['measure']!r} is not {doc['measure']!r}")
        cells = [] if sel is None else [GridCell(**c) for c in sel["cells"]]
        if not all(1 <= k <= len(models) for k in [*doc["nummods"], *(c.nummod for c in cells)]):
            raise ValueError(f"a nummod leaves [1, {len(models)}], the number of models")
        grid = None if sel is None else SelectionGrid(cells, sel["kind"])
        ens = SparEnsemble(
            family=get_family(doc["family"]), stats=stats, models=models,
            nus=np.asarray(doc["nus"], dtype=float), nummods=tuple(doc["nummods"]),
            measure=doc["measure"], master_seed=doc["master_seed"], config=doc["config"], grid=grid)
        if (doc["best"], doc["one_se"], doc["cv"]) != (
                _pair_dict(ens.best), _pair_dict(ens.one_se), ens.cv):
            raise ParseError("model document's best, one_se or cv disagrees with its selection")
        return ens
    except (KeyError, TypeError, ValueError, NumericError) as exc:
        raise ParseError(f"malformed model document: {exc}") from exc


def read_json(path, what=""):
    """The parsed JSON document at path; what ("config ") words the read error."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ParseError(f"cannot read {what}{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def load_model(path) -> SparEnsemble:
    doc = read_json(path)
    if not isinstance(doc, dict) or "version" not in doc:
        raise ParseError(f"{path}: not a model document")
    return model_from_dict(doc)
