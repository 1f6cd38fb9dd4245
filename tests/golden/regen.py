"""Regenerate the golden outputs under tests/golden/.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

Each library recipe fits a small ensemble (n=40, p=60) for one family,
one projection kind and one selection mode, and writes four files into
tests/golden/<recipe>/:

- model.json: the saved model;
- selection.csv: the selection grid;
- predictions.csv: predictions at the best pair for both `type` and
  both `avg_type` values;
- coef.csv: `coef()` at every other nu of the grid, at every nummod.

Each `cli-*` recipe runs `spar fit` or `spar cv` on CSVs of the same
size, with flags, a `--config` file or both, and keeps what the command
writes under --out: model.json, selection.csv, summary.txt and, for
`cv`, cv_folds.csv.

Each `load-*` recipe fits a library cv recipe, saves its model.json in a
temporary directory and runs `spar coef` and `spar predict` on the
reloaded file: coef.json and coef-1se.json from `spar coef --model`,
predictions-model*.csv from `spar predict --model` and
predictions-coef*.csv from `spar predict --coef-file coef.json`.

Each `report-*` recipe saves a library cv recipe's model the same way
and keeps one file per `spar report` run on it: val-measure and
val-numact along nu and along nummod, each with the other axis at the
best pair or fixed by --nu/--nummod, coefs with --prange and with
--coef-order, and res-vs-fitted at the best pair and at a fixed one.

tests/test_golden.py rebuilds every recipe in a temporary directory and
compares the files byte for byte.  Regenerate only together with a
change that declares a behaviour change in CHANGES.md, and report that
change first with

    PYTHONPATH=src python tests/golden/regen.py --compare

which writes nothing and prints, per recipe, the files that differ from
the committed goldens, whether the stored best/one_se pairs moved, and
the largest relative change of a number in the differing files.  For
each moved pair it says whether its nummod and the index of its nu in
the grid are unchanged, and how much its nu changed relative to itself.
For each differing file it prints the largest absolute change of a
number over the file's largest |number|, so a last-bit change of a
number near 0 does not read as a large one.  JSON files are compared by
value: a change of layout alone is a 0 change.  It exits 1 when any
recipe's best or one_se pair would move, even in the last bits of its
nu, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import spar
from spar.cli import _write_csv, main as spar_main

GOLDEN_DIR = Path(__file__).resolve().parent
FAMILIES = ("gaussian", "binomial", "poisson")
PROJECTIONS = ("cw", "gaussian", "sparse", "haar_select")
MODES = ("validation", "cv")
RECIPES = tuple(f"{fam}-{rp}-{mode}" for fam in FAMILIES for rp in PROJECTIONS for mode in MODES)

# coefficient pools small enough that every family's response stays tame
_COEF_POOLS = {"gaussian": (-2.0, -1.0, 1.0, 2.0), "binomial": (-1.5, 1.5), "poisson": (-0.4, 0.4)}
_DATA_SEEDS = {"gaussian": 11, "binomial": 12, "poisson": 13}
# the nummods are out of order on the validation side on purpose
_NUMMODS = {"validation": (4, 2), "cv": (2, 4)}


def fit_recipe(name: str):
    """(ensemble, new rows, their responses) of one library recipe."""
    fam, rp, mode = name.split("-")
    ds, _ = spar.generate_synthetic(
        spar.SyntheticSpec(n=40, p=60, n_active=6, sigma2=1.0, coef_pool=_COEF_POOLS[fam],
                           family=fam, n_test=40),
        _DATA_SEEDS[fam],
    )
    x_val, y_val = ds.x_test[:20], ds.y_test[:20]
    common = dict(
        family=fam,
        screen=spar.ScreenSpec(nscreen=20),
        rp=spar.RpSpec(kind=rp, msup=4, b2=5),
        nnu=5,
        nummods=_NUMMODS[mode],
        seed=3,
    )
    if mode == "validation":
        ens = spar.fit_spar(ds.x, ds.y, xval=x_val, yval=y_val, **common)
    else:
        ens = spar.fit_spar_cv(ds.x, ds.y, nfolds=5, **common)
    return ens, ds.x_test[20:], ds.y_test[20:]


def write_recipe(name: str, outdir: Path) -> None:
    """Fit one recipe and write its four golden files into outdir."""
    ens, x_new, _ = fit_recipe(name)
    outdir.mkdir(parents=True, exist_ok=True)
    spar.save_model(ens, outdir / "model.json")
    _write_csv(outdir / "selection.csv", ("nu", "nummod", "mean", "se", "active"),
               ((c.nu, c.nummod, c.value, c.se, c.active) for c in ens.grid.cells))
    combos = [(t, a) for t in ("response", "link") for a in ("link", "response")]
    columns = [ens.predict(x_new, type=t, avg_type=a) for t, a in combos]
    with open(outdir / "predictions.csv", "w") as f:
        f.write(",".join(f"{t}_{a}" for t, a in combos) + "\n")
        for row in zip(*columns):
            f.write(",".join(repr(float(v)) for v in row) + "\n")
    with open(outdir / "coef.csv", "w") as f:
        f.write("nu,nummod,active,intercept," + ",".join(f"b{j + 1}" for j in range(ens.p)) + "\n")
        for nummod in ens.nummods:
            for nu in ens.nus[::2]:
                c = ens.coef(nu=nu, nummod=nummod)
                f.write(f"{c.nu!r},{c.nummod},{c.active},{c.intercept!r},"
                        + ",".join(repr(float(v)) for v in c.beta) + "\n")


# every `spar fit` option, in config form; the flag form is derived by _flags
_EVERY_FIT_OPTION = {
    "response": "y", "family": "gaussian", "screen": "marglik", "screen_type": "fixed",
    "nscreen": 30, "split_prop": 0.5, "screen_eps": 0.1, "rp": "sparse", "psi": 0.5,
    "rp_data": False, "mslow": 2, "msup": 5, "b2": 3, "nnu": 6, "nus": [0.0, 0.05, 0.1, 0.2],
    "nummods": [3, 5], "measure": "mae", "model_eps": 0.5, "seed": 7, "threads": 2,
}
# name -> (command, family of the data, config or None, flags)
CLI_RECIPES = {
    "cli-fit-defaults": ("fit", "gaussian", None, {}),
    "cli-fit-flags": ("fit", "gaussian", None, _EVERY_FIT_OPTION),
    "cli-fit-config": ("fit", "gaussian", _EVERY_FIT_OPTION, {}),
    "cli-fit-config-flags": ("fit", "gaussian", _EVERY_FIT_OPTION,
                             {"seed": 9, "measure": "mse", "rp": "cw", "rp_data": True,
                              "nummods": [4]}),
    "cli-cv-binomial-auc": ("cv", "binomial", None,
                            {"family": "binomial", "measure": "1-auc", "nfolds": 4,
                             "nummods": [2, 4], "nnu": 5, "seed": 3}),
    "cli-cv-haar-config": ("cv", "gaussian",
                           {"rp": "haar-select", "b2": 4, "msup": 4, "nummods": [2, 3],
                            "nnu": 5, "nfolds": 3, "seed": 2}, {}),
    # a screening split in the full fit and in every fold, with the data-driven cw refresh
    "cli-cv-split-cw": ("cv", "gaussian", None,
                        {"split_prop": 0.5, "nscreen": 30, "nfolds": 3, "nummods": [2, 3],
                         "nnu": 5, "seed": 5}),
}


def _flags(options: dict) -> list:
    out = []
    for key, value in options.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, list):
            value = ",".join(str(v) for v in value)
        out += ["--" + key.replace("_", "-"), str(value)]
    return out


def write_cli_recipe(name: str, outdir: Path) -> None:
    """Run one `spar fit`/`spar cv` recipe with its output directory at outdir."""
    command, fam, config, flags = CLI_RECIPES[name]
    ds, _ = spar.generate_synthetic(
        spar.SyntheticSpec(n=40, p=60, n_active=6, sigma2=1.0, coef_pool=_COEF_POOLS[fam],
                           family=fam, n_test=20),
        _DATA_SEEDS[fam],
    )
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spar.save_csv(tmp / "train.csv", ds.x, ds.y, ds.colnames)
        argv = [command, "--data", str(tmp / "train.csv"), "--out", str(outdir)]
        if command == "fit":
            spar.save_csv(tmp / "val.csv", ds.x_test, ds.y_test, ds.colnames)
            argv += ["--val-data", str(tmp / "val.csv")]
        if config is not None:
            (tmp / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp / "config.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = spar_main(argv + _flags(flags))
    if rc != 0:
        raise RuntimeError(f"{name}: spar {command} exited with {rc}")


# name -> the library recipe whose saved model the CLI reloads
LOAD_RECIPES = {"load-binomial-cw": "binomial-cw-cv",
                "load-gaussian-haar_select": "gaussian-haar_select-cv"}
# output file -> (command, flags after --model/--coef-file and --out)
_LOAD_COMMANDS = {
    "coef.json": ("coef", []),
    "coef-1se.json": ("coef", ["--opt-par", "1se"]),
    "predictions-model.csv": ("predict", []),
    "predictions-model-link-response-1se.csv":
        ("predict", ["--type", "link", "--avg-type", "response", "--opt-par", "1se"]),
    "predictions-coef.csv": ("predict", ["--coef-file"]),
    "predictions-coef-link.csv": ("predict", ["--coef-file", "--type", "link"]),
}


def write_load_recipe(name: str, outdir: Path) -> None:
    """Save one library recipe's model, then export and predict from the reloaded file."""
    ens, x_new, y_new = fit_recipe(LOAD_RECIPES[name])
    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spar.save_model(ens, tmp / "model.json")
        spar.save_csv(tmp / "new.csv", x_new, y_new)
        for fname, (command, flags) in _LOAD_COMMANDS.items():
            if flags[:1] == ["--coef-file"]:
                argv = ["--coef-file", str(outdir / "coef.json")] + flags[1:]
            else:
                argv = ["--model", str(tmp / "model.json")] + flags
            if command == "predict":
                argv += ["--data", str(tmp / "new.csv"), "--response", "y"]
            run_dir = tmp / fname
            if spar_main([command, *argv, "--out", str(run_dir)]) != 0:
                raise RuntimeError(f"{name}: spar {command} for {fname} failed")
            written = "coef.json" if command == "coef" else "predictions.csv"
            shutil.copyfile(run_dir / written, outdir / fname)


# name -> the library cv recipe whose saved model `spar report` reads
REPORT_RECIPES = {"report-gaussian-cw": "gaussian-cw-cv"}
# output file -> flags after --model and --out.  {nu} is the grid's second
# nu printed to 13 digits, so --nu matches it within the on-grid tolerance;
# {order} lists the predictors from last to first.
_REPORT_COMMANDS = {
    "val-measure-nu.csv": ["--plot-type", "val-measure"],
    "val-measure-nu-nummod4.csv": ["--plot-type", "val-measure", "--nummod", "4"],
    "val-measure-nummod.csv": ["--plot-type", "val-measure", "--plot-along", "nummod"],
    "val-measure-nummod-nu.csv":
        ["--plot-type", "val-measure", "--plot-along", "nummod", "--nu", "{nu}"],
    "val-numact-nu.csv": ["--plot-type", "val-numact"],
    "val-numact-nummod.csv": ["--plot-type", "val-numact", "--plot-along", "nummod",
                              "--nu", "{nu}"],
    "coefs-prange.csv": ["--plot-type", "coefs", "--prange", "5,20"],
    "coefs-order.csv": ["--plot-type", "coefs", "--coef-order", "{order}", "--prange", "3,12"],
    "res-vs-fitted.csv": ["--plot-type", "res-vs-fitted", "--xfit", "{x}", "--response", "y",
                          "--yfit", "{y}"],
    "res-vs-fitted-fixed.csv": ["--plot-type", "res-vs-fitted", "--xfit", "{x}",
                                "--response", "y", "--yfit", "{y}", "--nu", "{nu}",
                                "--nummod", "4"],
}


def write_report_recipe(name: str, outdir: Path) -> None:
    """Save one library recipe's model, then run `spar report` on the reloaded file."""
    ens, x_new, y_new = fit_recipe(REPORT_RECIPES[name])
    outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spar.save_model(ens, tmp / "model.json")
        spar.save_csv(tmp / "new.csv", x_new, y_new)
        (tmp / "y.csv").write_text("y\n" + "".join(f"{float(v)!r}\n" for v in y_new))
        (tmp / "order.txt").write_text("".join(f"{j}\n" for j in range(ens.p, 0, -1)))
        fill = {"nu": f"{ens.nus[1]:.12e}", "order": str(tmp / "order.txt"),
                "x": str(tmp / "new.csv"), "y": str(tmp / "y.csv")}
        for fname, flags in _REPORT_COMMANDS.items():
            run_dir = tmp / fname
            argv = ["report", "--model", str(tmp / "model.json"), "--out", str(run_dir)]
            if spar_main(argv + [f.format(**fill) for f in flags]) != 0:
                raise RuntimeError(f"{name}: spar report for {fname} failed")
            written = flags[1].replace("-", "_") + ".csv"
            shutil.copyfile(run_dir / written, outdir / fname)


def write(name: str, outdir: Path) -> None:
    """Write the golden files of a library, a CLI, a load or a report recipe into outdir."""
    if name in CLI_RECIPES:
        write_cli_recipe(name, outdir)
    elif name in LOAD_RECIPES:
        write_load_recipe(name, outdir)
    elif name in REPORT_RECIPES:
        write_report_recipe(name, outdir)
    else:
        write_recipe(name, outdir)


ALL_RECIPES = RECIPES + tuple(CLI_RECIPES) + tuple(LOAD_RECIPES) + tuple(REPORT_RECIPES)


# a number as the golden files print it: repr floats, ints, exponents
_NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:e[-+]?\d+)?)")


def _numbers(old: str, new: str) -> list | None:
    """The (old, new) pairs of numbers of two texts; None unless only numbers differ."""
    a, b = _NUMBER.split(old), _NUMBER.split(new)
    if len(a) != len(b) or a[::2] != b[::2]:
        return None
    return [(float(s), float(t)) for s, t in zip(a[1::2], b[1::2])]


def largest_change(old: str, new: str) -> float | None:
    """Largest relative change of a number between two texts; None unless only numbers differ."""
    pairs = _numbers(old, new)
    if pairs is None:
        return None
    return max((abs(x - y) / max(abs(x), abs(y)) for x, y in pairs if x != y), default=0.0)


def largest_scaled_change(old: str, new: str) -> float | None:
    """Largest absolute change of a number over the largest |number| of the two texts.

    A last-bit change of a number near 0 reads large relative to itself and
    small here.  None unless only numbers differ.
    """
    pairs = _numbers(old, new)
    if pairs is None:
        return None
    top = max((max(abs(x), abs(y)) for x, y in pairs), default=0.0)
    return max((abs(x - y) for x, y in pairs), default=0.0) / top if top else 0.0


def _pair_move(key: str, old: dict, new: dict) -> str:
    """How a stored pair moved: its nummod, its nu's index in the grid and nu's relative change."""
    a, b = old[key], new[key]
    if a is None or b is None:
        return f"{key} {a} -> {b}"
    index = [min(range(len(d["nus"])), key=lambda i: abs(d["nus"][i] - pair["nu"]))
             for d, pair in ((old, a), (new, b))]
    nu = abs(a["nu"] - b["nu"]) / max(abs(a["nu"]), abs(b["nu"])) if a["nu"] != b["nu"] else 0.0
    if (a["nummod"], index[0]) == (b["nummod"], index[1]):
        return f"{key}: nummod and nu index unchanged, nu {nu:.1e} relative"
    return (f"{key}: nummod {a['nummod']} -> {b['nummod']}, nu index {index[0]} -> {index[1]}, "
            f"nu {nu:.1e} relative")


def _by_value(fname: str, text: str) -> str:
    """A .json text re-encoded by json.dumps, so a change of layout alone changes no number."""
    return json.dumps(json.loads(text)) if fname.endswith(".json") else text


def compare(name: str) -> str:
    """One line: the files of a rebuilt recipe that differ from its goldens, the pairs, the change."""
    golden = GOLDEN_DIR / name
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write(name, tmp)
        names = sorted({p.name for p in tmp.iterdir()} | {p.name for p in golden.iterdir()})
        texts = {f: [(d / f).read_text() if (d / f).exists() else None for d in (golden, tmp)]
                 for f in names}
    differ = [f for f, (old, new) in texts.items() if old != new]
    if not differ:
        return f"{name}: identical"
    both = {f: [_by_value(f, t) for t in texts[f]] for f in differ if None not in texts[f]}
    changes = [largest_change(*both[f]) if f in both else None for f in differ]
    largest = ("not only numbers differ" if None in changes
               else f"largest relative change {max(changes):.1e}")
    scaled = {f: largest_scaled_change(*both[f]) for f in both}
    largest += "; largest change / largest number: " + ", ".join(
        f"{f} {'-' if c is None else f'{c:.1e}'}" for f, c in scaled.items())
    pairs = ""
    if "model.json" in texts and None not in texts["model.json"]:
        old, new = (json.loads(t) for t in texts["model.json"])
        moved = [k for k in ("best", "one_se") if old[k] != new[k]]
        pairs = "; best/one_se " + (
            f"MOVED ({'; '.join(_pair_move(k, old, new) for k in moved)})" if moved else "unchanged")
    return f"{name}: {', '.join(differ)} differ{pairs}; {largest}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden outputs.")
    parser.add_argument("--compare", action="store_true",
                        help="write nothing; print per recipe what a regeneration would change; "
                             "exit 1 if any recipe's best or one_se would move")
    args = parser.parse_args(argv)
    moved = False
    for name in ALL_RECIPES:
        if args.compare:
            line = compare(name)
            moved |= "best/one_se MOVED" in line
            print(line)
            continue
        outdir = GOLDEN_DIR / name
        shutil.rmtree(outdir, ignore_errors=True)
        write(name, outdir)
        print(f"wrote {outdir}")
    return int(moved)


if __name__ == "__main__":
    sys.exit(main())
