"""Command line interface: spar fit|cv|predict|simulate|coef|report.

Options become library specs and keywords; the specs check them (plugin
names included) before any data is read.  Exit codes: 0 success, 2
configuration error (including usage errors), 3 data error or an output
path that cannot be written, 4 numerical failure.  Diagnostics go to
stderr; numerical output goes to files under --out (and the fit summary
to stdout).
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from argparse import ArgumentTypeError
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .api import fit_spar, fit_spar_cv
from .data import (
    SyntheticSpec,
    generate_synthetic,
    dumps,
    load_csv,
    load_model,
    read_json,
    save_csv,
    save_model,
)
from .ensemble import MEASURES, AveragedCoef, ModelSpec, get_family, linkinv_eval
from .errors import ConfigError, DataError, ParseError, SparError
from .families import FAMILIES
from .projection import RpSpec
from .screening import ScreenSpec

logger = logging.getLogger(__name__)


# Each parser takes a flag string or a --config value and raises ArgumentTypeError,
# which argparse prints after the flag name and _fit_options after the config key.


def _scalar(kind):
    def parse(v):
        # a config number may stand for an int flag only when it has no fraction
        fractional = kind is int and isinstance(v, float) and not v.is_integer()
        if not isinstance(v, bool) and not fractional:
            try:
                return kind(v)
            except (TypeError, ValueError, OverflowError):
                pass
        raise ArgumentTypeError(f"invalid {kind.__name__} value: {v!r}")

    return parse


_STR, _INT, _FLOAT = _scalar(str), _scalar(int), _scalar(float)


def _floats(v):
    """Numbers from a comma-separated flag string or a config list."""
    items = v if isinstance(v, list) else [e for e in str(v).split(",") if e.strip()]
    return [_FLOAT(e) for e in items]


def _ints(v):
    return [_INT(e) for e in _floats(v)]


def _bool(v):
    if isinstance(v, bool):
        return v
    if v in ("true", "false"):
        return v == "true"
    raise ArgumentTypeError(f"invalid choice: {v!r} (choose from 'true', 'false')")


def _column(v):
    """A response column: a name, or (from a config) a 0-based index."""
    if isinstance(v, str) or (isinstance(v, int) and not isinstance(v, bool)):
        return v
    raise ArgumentTypeError(f"invalid column: {v!r}")


class _Option(NamedTuple):
    key: str  # the --config key; the flag is --key with '-' for '_'
    target: str  # "screen.<field>", "rp.<field>", "model.<field>" or a fit keyword
    parse: Callable
    flag: dict = {}  # further add_argument keywords


# the options of spar fit and spar cv; the library signatures and specs hold the defaults
_FIT_OPTIONS = (
    _Option("response", "response", _column,
            {"help": "response column name (default y); a --config file may give a 0-based index"}),
    _Option("family", "family", _STR, {"choices": list(FAMILIES)}),
    _Option("screen", "screen.method", _STR,
            {"help": "cor | marglik | ridge | registered plugin"}),
    _Option("screen_type", "screen.selection_type", _STR, {"choices": ["prob", "fixed"]}),
    _Option("nscreen", "screen.nscreen", _INT),
    _Option("split_prop", "screen.split_data_prop", _FLOAT),
    _Option("screen_eps", "screen.epsilon", _FLOAT),
    _Option("rp", "rp.kind", _STR,
            {"help": "gaussian | sparse | cw | haar-select | registered plugin"}),
    _Option("psi", "rp.psi", _FLOAT),
    _Option("rp_data", "rp.data_driven", _bool, {"metavar": "{true,false}"}),
    _Option("mslow", "rp.mslow", _INT),
    _Option("msup", "rp.msup", _INT),
    _Option("b2", "rp.b2", _INT),
    _Option("nnu", "nnu", _INT),
    _Option("nus", "nus", _floats, {"help": "explicit comma-separated threshold grid"}),
    _Option("nummods", "nummods", _ints,
            {"help": "comma-separated ensemble sizes, e.g. 10,20,30"}),
    _Option("measure", "measure", _STR, {"choices": list(MEASURES)}),
    _Option("model_eps", "model.epsilon", _FLOAT),
    _Option("seed", "seed", _INT),
    _Option("threads", "threads", _INT),
)
# a flag of spar cv alone, accepted in spar fit configs so one file serves both
_NFOLDS = _Option("nfolds", "nfolds", _INT)
_OPTIONS = _FIT_OPTIONS + (_NFOLDS,)


def _add_flag(parser, opt: _Option) -> None:
    parser.add_argument("--" + opt.key.replace("_", "-"), type=opt.parse, **opt.flag)


def _fit_options(args):
    """(response, fit keywords) of the options given: each flag, else its config value."""
    cfg = {} if args.config is None else read_json(args.config, "config ")
    if not isinstance(cfg, dict):
        raise ParseError(f"{args.config}: config must be a JSON object")
    unknown = set(cfg) - {opt.key for opt in _OPTIONS}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {}
    specs = {"screen": {}, "rp": {}, "model": {}}
    for opt in _OPTIONS:
        value = getattr(args, opt.key, None)
        if value is None and cfg.get(opt.key) is not None:
            try:
                value = opt.parse(cfg[opt.key])
            except ArgumentTypeError as exc:
                raise ConfigError(f"config key {opt.key!r}: {exc}") from None
        if value is not None:
            spec, _, name = opt.target.rpartition(".")
            (specs[spec] if spec else kwargs)[name] = value
    for name, cls in (("screen", ScreenSpec), ("rp", RpSpec), ("model", ModelSpec)):
        if specs[name]:
            kwargs[name] = cls(**specs[name]).validated()  # before any data is read
    return kwargs.pop("response", "y"), kwargs


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


def _write_csv(path, header, rows) -> None:
    """A header line, then one line per row of Python numbers, each written by repr."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _write_fit(ens, args) -> None:
    """model.json, selection.csv, summary.txt (also to stdout) and, after CV, cv_folds.csv."""
    out = _outdir(args)
    save_model(ens, out / "model.json")
    _write_csv(out / "selection.csv", ("nu", "nummod", "mean", "se", "active"),
               ((c.nu, c.nummod, c.value, c.se, c.active) for c in ens.grid.cells))
    text = _summary(ens)
    (out / "summary.txt").write_text(text)
    sys.stdout.write(text)
    if ens.cv:
        _write_csv(out / "cv_folds.csv", ("nu", "nummod", "fold", "value"),
                   ((c.nu, c.nummod, i, v) for c in ens.grid.cells
                    for i, v in enumerate(c.fold_values)))


def cmd_fit(args) -> int:
    response, kwargs = _fit_options(args)
    ds = load_csv(args.data, response=response)
    if args.command == "cv":
        ens = fit_spar_cv(ds.x, ds.y, **kwargs)
    else:
        kwargs.pop("nfolds", None)  # from a config shared with spar cv; fit_spar takes none
        if args.val_data is not None:
            vds = load_csv(args.val_data, response=response)
            kwargs.update(xval=vds.x, yval=vds.y)
        ens = fit_spar(ds.x, ds.y, **kwargs)
    _write_fit(ens, args)
    return 0


def _given(args, *names) -> dict:
    """The named options the user set; the library signatures hold the defaults."""
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _refuse_pick(args, path: str) -> None:
    """ConfigError when a pair flag is given to a path that reads none."""
    if _given(args, "nu", "nummod", "opt_par"):
        raise ConfigError(f"{path} reads no --nu, --nummod or --opt-par")


def _load_coef_file(path):
    """(intercept, beta, family name) of a `spar coef` file."""
    doc = read_json(path)
    try:
        return float(doc["intercept"]), np.asarray(doc["beta"], dtype=float), doc["family"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed coefficient file: {exc}") from exc


def cmd_predict(args) -> int:
    if args.model is None and args.coef_file is None:
        raise ConfigError("predict needs --model or --coef-file")
    ds = load_csv(args.data, response=args.response)
    if args.coef_file is not None:
        _refuse_pick(args, "--coef-file")
        intercept, beta, family = _load_coef_file(args.coef_file)
        fam = get_family(family)
        if ds.x.shape[1] != len(beta):
            raise DataError(f"data has {ds.x.shape[1]} columns, coefficients expect {len(beta)}")
        eta = intercept + ds.x @ beta
        preds = eta if args.type == "link" else linkinv_eval(fam, eta)
    else:
        ens = load_model(args.model)
        preds = ens.predict(ds.x, **_given(args, "type", "avg_type", "nu", "nummod", "opt_par"))
    _write_csv(_outdir(args) / "predictions.csv", ("prediction",),
               np.asarray(preds, dtype=float).reshape(-1, 1).tolist())
    return 0


def cmd_coef(args) -> int:
    ens = load_model(args.model)
    coef = ens.coef(**_given(args, "nu", "nummod", "opt_par"))
    (_outdir(args) / "coef.json").write_text(dumps({"family": ens.family.name, **vars(coef)}))
    return 0


def cmd_simulate(args) -> int:
    # flags are named after the SyntheticSpec fields; an absent flag keeps the field default
    spec = SyntheticSpec(**_given(args, *(f.name for f in dataclasses.fields(SyntheticSpec))))
    ds, truth = generate_synthetic(spec, args.seed if args.seed is not None else 0)
    out = _outdir(args)
    save_csv(out / "train.csv", ds.x, ds.y, ds.colnames)
    if ds.x_test is not None:
        save_csv(out / "test.csv", ds.x_test, ds.y_test, ds.colnames)
    (out / "truth.json").write_text(dumps(truth))
    return 0


def _fixed_grid_value(grid, attr, requested):
    """The grid's attr value matching requested to rtol 1e-9."""
    values = np.unique([getattr(c, attr) for c in grid.cells])
    hits = values[np.isclose(values, requested, rtol=1e-9, atol=0.0)]
    if hits.size == 0:
        raise ConfigError(f"--{attr}={requested} is not on the grid; grid has {values.tolist()}")
    return hits[0]


def cmd_report(args) -> int:
    ens = load_model(args.model)
    plot = args.plot_type
    if plot in ("val-measure", "val-numact"):
        if ens.grid is None:
            raise DataError("model file carries no selection grid")
        axis = args.plot_along or "nu"
        other = "nummod" if axis == "nu" else "nu"  # held where coef() would pick it
        nu, nummod = ens._pick(args.nu, args.nummod, args.opt_par or "best")
        fixed = _fixed_grid_value(ens.grid, other, nummod if axis == "nu" else nu)
        rows = sorted((c for c in ens.grid.cells if getattr(c, other) == fixed),
                      key=lambda c: getattr(c, axis))
        # CSV column -> GridCell attribute
        cols = {"measure": "value", "se": "se"} if plot == "val-measure" else {"active": "active"}
        _write_csv(_outdir(args) / (plot.replace("-", "_") + ".csv"), (axis, *cols),
                   ([getattr(c, a) for a in (axis, *cols.values())] for c in rows))
        return 0
    if plot == "res-vs-fitted":
        if args.xfit is None or args.yfit is None:
            raise ConfigError("res-vs-fitted needs --xfit and --yfit")
        xds = load_csv(args.xfit, response=args.response)
        yv = load_csv(args.yfit).x[:, 0]
        fitted = ens.predict(xds.x, type="response", **_given(args, "nu", "nummod", "opt_par"))
        if len(yv) != len(fitted):
            raise DataError(f"--yfit has {len(yv)} rows, --xfit has {len(fitted)}")
        _write_csv(_outdir(args) / "res_vs_fitted.csv", ("fitted", "residual"),
                   zip(fitted.tolist(), (yv - fitted).tolist()))
        return 0
    # coefs: p x M matrix of standardized pre-threshold coefficients,
    # each predictor row sorted descending across models
    _refuse_pick(args, "--plot-type coefs")
    mat = np.zeros((ens.p, len(ens.models)))
    for k, model in enumerate(ens.models):
        mat[model.index_set, k] = model.beta_vals
    order = np.arange(ens.p)
    if args.coef_order is not None:
        column = load_csv(args.coef_order, has_header=False).x
        if column.shape[1] != 1 or np.any(column % 1):
            raise ParseError(f"{args.coef_order}: expected one 1-based integer per line")
        order = column[:, 0].astype(int) - 1
        if sorted(order.tolist()) != list(range(ens.p)):
            raise ConfigError("--coef-order must be a permutation of 1..p")
    pr = args.prange if args.prange is not None else [1, ens.p]
    if len(pr) != 2 or not 1 <= pr[0] <= pr[1] <= ens.p:
        raise ConfigError(f"--prange must be 'a,b' with 1 <= a <= b <= {ens.p}")
    picked = order[pr[0] - 1 : pr[1]]
    sorted_rows = -np.sort(-mat[picked], axis=1)  # descending within each row
    _write_csv(_outdir(args) / "coefs.csv", ("predictor", *(f"m{k + 1}" for k in range(mat.shape[1]))),
               ([idx + 1, *row] for idx, row in zip(picked.tolist(), sorted_rows.tolist())))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spar",
        description="Ensembles of penalized GLMs on screened, randomly projected predictors.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_pick_flags(sp, model_required=True):
        """The flags of predict, coef and report that pick a saved model's pair."""
        sp.add_argument("--model", required=model_required)
        sp.add_argument("--nu", type=float)
        sp.add_argument("--nummod", type=int)
        sp.add_argument("--opt-par", dest="opt_par", choices=["best", "1se"])
        sp.add_argument("--out", required=True)

    def add_fit_flags(sp):
        sp.add_argument("--data", required=True, help="training CSV with a response column")
        for opt in _FIT_OPTIONS:
            _add_flag(sp, opt)
        sp.add_argument("--config", help="JSON file with defaults; flags override it")
        sp.add_argument("--out", required=True, help="output directory")

    fit = sub.add_parser("fit", help="fit and select on a validation set")
    add_fit_flags(fit)
    fit.add_argument("--val-data", dest="val_data", help="validation CSV (same layout as --data)")
    fit.set_defaults(func=cmd_fit)

    cv = sub.add_parser("cv", help="fit and select by k-fold cross-validation")
    add_fit_flags(cv)
    _add_flag(cv, _NFOLDS)
    cv.set_defaults(func=cmd_fit)

    pr = sub.add_parser("predict", help="predict from a saved model or coefficient file")
    add_pick_flags(pr, model_required=False)
    pr.add_argument("--coef-file", dest="coef_file")
    pr.add_argument("--data", required=True, help="CSV of predictors")
    pr.add_argument("--response", help="drop this column from --data before predicting")
    pr.add_argument("--type", choices=["response", "link"])
    pr.add_argument("--avg-type", dest="avg_type", choices=["link", "response"])
    pr.set_defaults(func=cmd_predict)

    co = sub.add_parser("coef", help="export the averaged coefficient vector")
    add_pick_flags(co)
    co.set_defaults(func=cmd_coef)

    sim = sub.add_parser("simulate", help="draw a synthetic data set with known truth")
    parsers = {int: _INT, float: _FLOAT, str: _STR, tuple: _floats}
    for f in dataclasses.fields(SyntheticSpec):  # SyntheticSpec.validated() checks the values
        flag = "positions" if f.name == "active_positions" else f.name
        sim.add_argument("--" + flag.replace("_", "-"), dest=f.name, type=parsers[type(f.default)])
    sim.add_argument("--seed", type=int)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    rep = sub.add_parser("report", help="emit plot-ready CSVs from a saved model")
    add_pick_flags(rep)
    rep.add_argument(
        "--plot-type",
        dest="plot_type",
        choices=["val-measure", "val-numact", "res-vs-fitted", "coefs"],
        default="val-measure",
    )
    rep.add_argument("--plot-along", dest="plot_along", choices=["nu", "nummod"])
    rep.add_argument("--xfit", help="CSV of predictors the model was fit on")
    rep.add_argument("--yfit", help="single-column CSV of the matching responses")
    rep.add_argument("--response", help="drop this column from --xfit")
    rep.add_argument("--prange", type=_ints, help="1-based inclusive predictor range 'a,b'")
    rep.add_argument("--coef-order", dest="coef_order",
                     help="file with one 1-based predictor index per line")
    rep.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except (SparError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigError):
            return 2
        return 3 if isinstance(exc, (DataError, OSError)) else 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
