"""Command line interface: spar fit|cv|predict|simulate|coef|report.

Exit codes: 0 success, 2 configuration error (including usage errors),
3 data error, 4 numerical failure.  Diagnostics go to stderr; numerical
output goes to files under --out (and the fit summary to stdout).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .api import fit_spar, fit_spar_cv
from .data import (
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    load_model,
    save_csv,
    save_model,
)
from .ensemble import MEASURES, AveragedCoef, ModelSpec, get_family, linkinv_eval
from .errors import ConfigError, DataError, ParseError, SparError
from .projection import RpSpec, rp_plugin_names
from .screening import ScreenSpec, screen_plugin_names

logger = logging.getLogger(__name__)

# builtin defaults; a --config JSON file can override them, flags win over both
_DEFAULTS = {
    "response": "y",
    "family": "gaussian",
    "screen": "ridge",
    "screen_type": "prob",
    "nscreen": None,
    "split_prop": None,
    "screen_eps": None,
    "rp": "cw",
    "psi": 1.0,
    "rp_data": True,
    "mslow": None,
    "msup": None,
    "b2": 50,
    "nnu": 20,
    "nus": None,
    "nummods": [20],
    "measure": "deviance",
    "model_eps": None,
    "nfolds": 10,
    "seed": 0,
    "threads": 1,
    "type": "response",
    "avg_type": "link",
    "opt_par": "best",
}


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    unknown = set(cfg) - set(_DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _opt(args, cfg, key):
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return _DEFAULTS.get(key)


def _parse_bool(v, flag):
    if isinstance(v, bool):
        return v
    if v in ("true", "false"):
        return v == "true"
    raise ConfigError(f"{flag} must be 'true' or 'false'")


def _parse_floats(v, flag):
    if v is None:
        return None
    if isinstance(v, (list, tuple)):
        return [float(e) for e in v]
    try:
        return [float(e) for e in str(v).split(",") if e.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of numbers") from None


def _parse_ints(v, flag):
    vals = _parse_floats(v, flag)
    if vals is None:
        return None
    out = [int(e) for e in vals]
    if any(o != e for o, e in zip(out, vals)):
        raise ConfigError(f"{flag} must contain integers")
    return out


def _screen_spec(args, cfg) -> ScreenSpec:
    method = _opt(args, cfg, "screen")
    plugin = None
    if method not in ("cor", "marglik", "ridge"):
        if method in screen_plugin_names():
            plugin, method = method, "plugin"
        else:
            raise ConfigError(
                f"unknown screening method {method!r}; builtins are cor, marglik, ridge"
            )
    return ScreenSpec(
        method=method,
        nscreen=_opt(args, cfg, "nscreen"),
        selection_type=_opt(args, cfg, "screen_type"),
        split_data_prop=_opt(args, cfg, "split_prop"),
        epsilon=_opt(args, cfg, "screen_eps"),
        plugin=plugin,
    ).validated()


def _rp_spec(args, cfg) -> RpSpec:
    kind = str(_opt(args, cfg, "rp")).replace("-", "_")
    plugin = None
    if kind not in ("gaussian", "sparse", "cw", "haar_select"):
        if kind in rp_plugin_names() or str(_opt(args, cfg, "rp")) in rp_plugin_names():
            plugin, kind = str(_opt(args, cfg, "rp")), "plugin"
        else:
            raise ConfigError(
                f"unknown projection {kind!r}; builtins are gaussian, sparse, cw, haar-select"
            )
    return RpSpec(
        kind=kind,
        psi=float(_opt(args, cfg, "psi")),
        data_driven=_parse_bool(_opt(args, cfg, "rp_data"), "--rp-data"),
        mslow=_opt(args, cfg, "mslow"),
        msup=_opt(args, cfg, "msup"),
        b2=int(_opt(args, cfg, "b2")),
        plugin=plugin,
    ).validated()


def _fit_args(args):
    cfg = _load_config(args.config)
    response = _opt(args, cfg, "response")
    ds = load_csv(args.data, response=response)
    model_eps = _opt(args, cfg, "model_eps")
    kwargs = dict(
        family=_opt(args, cfg, "family"),
        screen=_screen_spec(args, cfg),
        rp=_rp_spec(args, cfg),
        model=ModelSpec(epsilon=model_eps).validated(),
        nnu=int(_opt(args, cfg, "nnu")),
        nus=_parse_floats(_opt(args, cfg, "nus"), "--nus"),
        nummods=_parse_ints(_opt(args, cfg, "nummods"), "--nummods"),
        measure=_opt(args, cfg, "measure"),
        seed=int(_opt(args, cfg, "seed")),
        threads=int(_opt(args, cfg, "threads")),
    )
    return ds, response, cfg, kwargs


def _coef_summary_lines(coef: AveragedCoef):
    nz = coef.beta[coef.beta != 0]
    if nz.size == 0:
        return ["  (no non-zero coefficients)"]
    qs = np.quantile(nz, [0.0, 0.25, 0.5, 0.75, 1.0])
    vals = (qs[0], qs[1], qs[2], float(nz.mean()), qs[3], qs[4])
    head = "".join(f"{h:>11}" for h in ("min", "q1", "median", "mean", "q3", "max"))
    body = "".join(f"{v:>11.5f}" for v in vals)
    return [head, body]


def _summary(ens) -> str:
    kind = "cross-validated" if ens.cv else "validation"
    best = ens.grid.best_cell()
    coef = ens.coef(opt_par="best")
    lines = [
        f"family: {ens.family.name}, marginal models: {len(ens.models)}, "
        f"measure: {ens.measure} ({kind})",
        f"best: nu={best.nu:.3e}, nummod={best.nummod}, measure={best.value:.6g}",
        f"active predictors: {coef.active} / {ens.p}",
        "summary of the non-zero destandardized coefficients:",
        *_coef_summary_lines(coef),
    ]
    if ens.one_se is not None:
        cell = ens.grid.one_se_cell()
        c1 = ens.coef(opt_par="1se")
        lines += [
            "sparsest pair within one standard error of the best:",
            f"  nu={cell.nu:.3e}, nummod={cell.nummod}, measure={cell.value:.6g}, "
            f"active {c1.active} / {ens.p}",
        ]
    return "\n".join(lines) + "\n"


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_fit(ens, args) -> Path:
    """model.json, selection.csv and summary.txt under --out; the summary also to stdout."""
    out = _outdir(args)
    save_model(ens, out / "model.json")
    with open(out / "selection.csv", "w") as f:
        ens.grid.write_csv(f)
    text = _summary(ens)
    (out / "summary.txt").write_text(text)
    sys.stdout.write(text)
    return out


def cmd_fit(args) -> int:
    ds, response, cfg, kwargs = _fit_args(args)
    xval = yval = None
    if args.val_data is not None:
        vds = load_csv(args.val_data, response=response)
        xval, yval = vds.x, vds.y
    _write_fit(fit_spar(ds.x, ds.y, xval=xval, yval=yval, **kwargs), args)
    return 0


def cmd_cv(args) -> int:
    ds, response, cfg, kwargs = _fit_args(args)
    ens = fit_spar_cv(ds.x, ds.y, nfolds=int(_opt(args, cfg, "nfolds")), **kwargs)
    out = _write_fit(ens, args)
    with open(out / "cv_folds.csv", "w") as f:
        f.write("nu,nummod,fold,value\n")
        for cell in ens.grid.cells:
            for i, v in enumerate(cell.fold_values):
                f.write(f"{cell.nu!r},{cell.nummod},{i},{v!r}\n")
    return 0


def _load_coef_file(path) -> tuple[AveragedCoef, str]:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    try:
        coef = AveragedCoef(
            intercept=float(doc["intercept"]),
            beta=np.asarray(doc["beta"], dtype=float),
            nu=float(doc.get("nu", 0.0)),
            nummod=int(doc.get("nummod", 1)),
            active=int(np.count_nonzero(np.asarray(doc["beta"], dtype=float))),
        )
        return coef, doc["family"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed coefficient file: {exc}") from exc


def cmd_predict(args) -> int:
    if args.model is None and args.coef_file is None:
        raise ConfigError("predict needs --model or --coef-file")
    ds = load_csv(args.data, response=args.response)
    ptype = args.type or _DEFAULTS["type"]
    if args.coef_file is not None:
        coef, family = _load_coef_file(args.coef_file)
        fam = get_family(family)
        if ds.x.shape[1] != len(coef.beta):
            raise DataError(
                f"data has {ds.x.shape[1]} columns, coefficients expect {len(coef.beta)}"
            )
        eta = coef.intercept + ds.x @ coef.beta
        preds = eta if ptype == "link" else linkinv_eval(fam, eta)
    else:
        ens = load_model(args.model)
        preds = ens.predict(
            ds.x,
            type=ptype,
            avg_type=args.avg_type or _DEFAULTS["avg_type"],
            nu=args.nu,
            nummod=args.nummod,
            opt_par=args.opt_par or _DEFAULTS["opt_par"],
        )
    out = _outdir(args)
    with open(out / "predictions.csv", "w") as f:
        f.write("prediction\n")
        for v in np.asarray(preds, dtype=float):
            f.write(f"{float(v)!r}\n")
    return 0


def cmd_coef(args) -> int:
    ens = load_model(args.model)
    coef = ens.coef(nu=args.nu, nummod=args.nummod,
                    opt_par=args.opt_par or _DEFAULTS["opt_par"])
    out = _outdir(args)
    doc = {
        "family": ens.family.name,
        "intercept": float(coef.intercept),
        "beta": [float(v) for v in coef.beta],
        "nu": float(coef.nu),
        "nummod": int(coef.nummod),
        "active": int(coef.active),
    }
    with open(out / "coef.json", "w") as f:
        json.dump(doc, f, indent=1)
    return 0


def cmd_simulate(args) -> int:
    # flags are named after the SyntheticSpec fields; an absent flag keeps the field default
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(SyntheticSpec)}
    given["active_positions"] = args.positions
    if args.coef_pool is not None:
        given["coef_pool"] = tuple(_parse_floats(args.coef_pool, "--coef-pool"))
    spec = SyntheticSpec(**{k: v for k, v in given.items() if v is not None}).validated()
    ds, truth = generate_synthetic(spec, args.seed if args.seed is not None else 0)
    out = _outdir(args)
    save_csv(out / "train.csv", ds.x, ds.y, ds.colnames)
    if ds.x_test is not None:
        save_csv(out / "test.csv", ds.x_test, ds.y_test, ds.colnames)
    with open(out / "truth.json", "w") as f:
        json.dump(truth, f, indent=1)
    return 0


def _fixed_grid_value(cells, attr, requested, best_value, flag):
    values = np.unique([getattr(c, attr) for c in cells])
    if requested is None:
        return best_value
    hits = values[np.isclose(values, requested, rtol=1e-9, atol=0.0)] if attr == "nu" \
        else values[values == requested]
    if hits.size == 0:
        raise ConfigError(f"{flag}={requested} is not on the grid; grid has {values.tolist()}")
    return float(hits[0]) if attr == "nu" else int(hits[0])


def cmd_report(args) -> int:
    ens = load_model(args.model)
    out = _outdir(args)
    plot = args.plot_type
    if plot in ("val-measure", "val-numact"):
        if ens.grid is None:
            raise DataError("model file carries no selection grid")
        along = args.plot_along or "nu"
        cells = ens.grid.cells
        best = ens.grid.best_cell()
        if along == "nu":
            fixed = _fixed_grid_value(cells, "nummod", args.nummod, best.nummod, "--nummod")
            rows = [c for c in cells if c.nummod == fixed]
            key = lambda c: c.nu
            axis = "nu"
        else:
            fixed = _fixed_grid_value(cells, "nu", args.nu, best.nu, "--nu")
            rows = [c for c in cells if c.nu == fixed]
            key = lambda c: c.nummod
            axis = "nummod"
        rows = sorted(rows, key=key)
        name = "val_measure.csv" if plot == "val-measure" else "val_numact.csv"
        with open(out / name, "w") as f:
            if plot == "val-measure":
                f.write(f"{axis},measure,se\n")
                for c in rows:
                    f.write(f"{key(c)!r},{c.value!r},{c.se!r}\n")
            else:
                f.write(f"{axis},active\n")
                for c in rows:
                    f.write(f"{key(c)!r},{c.active}\n")
        return 0
    if plot == "res-vs-fitted":
        if args.xfit is None or args.yfit is None:
            raise ConfigError("res-vs-fitted needs --xfit and --yfit")
        xds = load_csv(args.xfit, response=args.response)
        yds = load_csv(args.yfit, has_header=True)
        yv = yds.x[:, 0]
        fitted = ens.predict(
            xds.x, type="response",
            nu=args.nu, nummod=args.nummod,
            opt_par=args.opt_par or _DEFAULTS["opt_par"],
        )
        if len(yv) != len(fitted):
            raise DataError(f"--yfit has {len(yv)} rows, --xfit has {len(fitted)}")
        with open(out / "res_vs_fitted.csv", "w") as f:
            f.write("fitted,residual\n")
            for fv, yvv in zip(fitted, yv):
                f.write(f"{float(fv)!r},{float(yvv - fv)!r}\n")
        return 0
    # coefs: p x M matrix of standardized pre-threshold coefficients,
    # each predictor row sorted descending across models
    mat = ens.coef_matrix()
    order = np.arange(ens.p)
    if args.coef_order is not None:
        try:
            with open(args.coef_order) as f:
                order = np.asarray([int(line) - 1 for line in f if line.strip()], dtype=int)
        except OSError as exc:
            raise ParseError(f"cannot read {args.coef_order}: {exc}") from exc
        except ValueError:
            raise ParseError(f"{args.coef_order}: expected one 1-based integer per line") from None
        if sorted(order.tolist()) != list(range(ens.p)):
            raise ConfigError("--coef-order must be a permutation of 1..p")
    lo, hi = 1, ens.p
    if args.prange is not None:
        pr = _parse_ints(args.prange, "--prange")
        if len(pr) != 2 or not 1 <= pr[0] <= pr[1] <= ens.p:
            raise ConfigError(f"--prange must be 'a,b' with 1 <= a <= b <= {ens.p}")
        lo, hi = pr
    picked = order[lo - 1 : hi]
    sorted_rows = -np.sort(-mat[picked], axis=1)  # descending within each row
    with open(out / "coefs.csv", "w") as f:
        f.write("predictor," + ",".join(f"m{k + 1}" for k in range(mat.shape[1])) + "\n")
        for idx, row in zip(picked, sorted_rows):
            f.write(f"{idx + 1}," + ",".join(repr(float(v)) for v in row) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spar",
        description="Ensembles of penalized GLMs on screened, randomly projected predictors.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_fit_flags(sp):
        sp.add_argument("--data", required=True, help="training CSV with a response column")
        sp.add_argument("--response", help="response column name or 0-based index (default y)")
        sp.add_argument("--family", choices=["gaussian", "binomial", "poisson"])
        sp.add_argument("--screen", help="cor | marglik | ridge | registered plugin")
        sp.add_argument("--screen-type", dest="screen_type", choices=["prob", "fixed"])
        sp.add_argument("--nscreen", type=int)
        sp.add_argument("--split-prop", dest="split_prop", type=float)
        sp.add_argument("--screen-eps", dest="screen_eps", type=float)
        sp.add_argument("--rp", help="gaussian | sparse | cw | haar-select | registered plugin")
        sp.add_argument("--psi", type=float)
        sp.add_argument("--rp-data", dest="rp_data", choices=["true", "false"])
        sp.add_argument("--mslow", type=int)
        sp.add_argument("--msup", type=int)
        sp.add_argument("--b2", type=int)
        sp.add_argument("--nnu", type=int)
        sp.add_argument("--nus", help="explicit comma-separated threshold grid")
        sp.add_argument("--nummods", help="comma-separated ensemble sizes, e.g. 10,20,30")
        sp.add_argument("--measure", choices=list(MEASURES))
        sp.add_argument("--model-eps", dest="model_eps", type=float)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--threads", type=int)
        sp.add_argument("--config", help="JSON file with defaults; flags override it")
        sp.add_argument("--out", required=True, help="output directory")

    fit = sub.add_parser("fit", help="fit and select on a validation set")
    add_fit_flags(fit)
    fit.add_argument("--val-data", dest="val_data", help="validation CSV (same layout as --data)")
    fit.set_defaults(func=cmd_fit)

    cv = sub.add_parser("cv", help="fit and select by k-fold cross-validation")
    add_fit_flags(cv)
    cv.add_argument("--nfolds", type=int)
    cv.set_defaults(func=cmd_cv)

    pr = sub.add_parser("predict", help="predict from a saved model or coefficient file")
    pr.add_argument("--model")
    pr.add_argument("--coef-file", dest="coef_file")
    pr.add_argument("--data", required=True, help="CSV of predictors")
    pr.add_argument("--response", help="drop this column from --data before predicting")
    pr.add_argument("--type", choices=["response", "link"])
    pr.add_argument("--avg-type", dest="avg_type", choices=["link", "response"])
    pr.add_argument("--nu", type=float)
    pr.add_argument("--nummod", type=int)
    pr.add_argument("--opt-par", dest="opt_par", choices=["best", "1se"])
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_predict)

    co = sub.add_parser("coef", help="export the averaged coefficient vector")
    co.add_argument("--model", required=True)
    co.add_argument("--nu", type=float)
    co.add_argument("--nummod", type=int)
    co.add_argument("--opt-par", dest="opt_par", choices=["best", "1se"])
    co.add_argument("--out", required=True)
    co.set_defaults(func=cmd_coef)

    sim = sub.add_parser("simulate", help="draw a synthetic data set with known truth")
    sim.add_argument("--n", type=int)
    sim.add_argument("--p", type=int)
    sim.add_argument("--n-active", dest="n_active", type=int)
    sim.add_argument("--mu", type=float)
    sim.add_argument("--sigma2", type=float)
    sim.add_argument("--coef-pool", dest="coef_pool")
    sim.add_argument("--positions", choices=["first", "random"])
    sim.add_argument("--family", choices=["gaussian", "binomial", "poisson"])
    sim.add_argument("--rho", type=float)
    sim.add_argument("--n-test", dest="n_test", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    rep = sub.add_parser("report", help="emit plot-ready CSVs from a saved model")
    rep.add_argument("--model", required=True)
    rep.add_argument(
        "--plot-type",
        dest="plot_type",
        choices=["val-measure", "val-numact", "res-vs-fitted", "coefs"],
        default="val-measure",
    )
    rep.add_argument("--plot-along", dest="plot_along", choices=["nu", "nummod"])
    rep.add_argument("--nu", type=float)
    rep.add_argument("--nummod", type=int)
    rep.add_argument("--opt-par", dest="opt_par", choices=["best", "1se"])
    rep.add_argument("--xfit", help="CSV of predictors the model was fit on")
    rep.add_argument("--yfit", help="single-column CSV of the matching responses")
    rep.add_argument("--response", help="drop this column from --xfit")
    rep.add_argument("--prange", help="1-based inclusive predictor range 'a,b'")
    rep.add_argument("--coef-order", dest="coef_order",
                     help="file with one 1-based predictor index per line")
    rep.add_argument("--out", required=True)
    rep.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SparError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
