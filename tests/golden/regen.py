"""Regenerate the golden outputs under tests/golden/.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

Each recipe fits a small ensemble (n=40, p=60) for one family, one
projection kind and one selection mode, and writes four files into
tests/golden/<recipe>/:

- model.json: the saved model;
- selection.csv: the selection grid;
- predictions.csv: predictions at the best pair for both `type` and
  both `avg_type` values;
- coef.csv: `coef()` at every other nu of the grid, at every nummod.

tests/test_golden.py rebuilds every recipe in a temporary directory and
compares the files byte for byte.  Regenerate only together with a
change that declares a behaviour change in CHANGES.md.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import spar

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


def write_recipe(name: str, outdir: Path) -> None:
    """Fit one recipe and write its four golden files into outdir."""
    fam, rp, mode = name.split("-")
    ds, _ = spar.generate_synthetic(
        spar.SyntheticSpec(n=40, p=60, n_active=6, sigma2=1.0, coef_pool=_COEF_POOLS[fam],
                           family=fam, n_test=40),
        _DATA_SEEDS[fam],
    )
    x_val, y_val = ds.x_test[:20], ds.y_test[:20]
    x_new = ds.x_test[20:]
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

    outdir.mkdir(parents=True, exist_ok=True)
    spar.save_model(ens, outdir / "model.json")
    with open(outdir / "selection.csv", "w") as f:
        ens.grid.write_csv(f)
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


def main() -> int:
    for name in RECIPES:
        outdir = GOLDEN_DIR / name
        shutil.rmtree(outdir, ignore_errors=True)
        write_recipe(name, outdir)
        print(f"wrote {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
