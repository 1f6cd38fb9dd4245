"""Byte-for-byte comparison against the golden outputs in tests/golden/.

Every recipe is refit in a temporary directory, and every file it writes
(model.json, selection.csv, predictions.csv and coef.csv for the library
recipes; model.json, selection.csv, summary.txt and cv_folds.csv for the
`spar fit`/`spar cv` ones; coef.json and predictions from `spar coef` and
`spar predict` on a reloaded model for the load ones; the `spar report`
CSVs for the report one) must equal the committed file exactly.
tests/golden/regen.py rewrites the committed files.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

_REGEN_PATH = Path(__file__).resolve().parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN_PATH)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", regen.ALL_RECIPES)
def test_golden_outputs_byte_identical(name, tmp_path):
    expected_dir = regen.GOLDEN_DIR / name
    regen.write(name, tmp_path)
    expected = sorted(p.name for p in expected_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for fname in expected:
        assert (tmp_path / fname).read_bytes() == (expected_dir / fname).read_bytes(), (
            f"{name}/{fname} differs from the golden file"
        )


def test_compare_reports_files_pairs_and_largest_change(tmp_path, monkeypatch, capsys):
    """regen.py --compare writes nothing and prints what a regeneration would change."""
    assert regen.largest_change("x1,0.5\n", "x1,0.5\n") == 0.0
    assert regen.largest_change("a,-2.0e-05,3", "a,-2.0000000000000003e-05,3") == (
        pytest.approx(1.7e-16, rel=0.05))
    assert regen.largest_change("nu,1.0", "mu,1.0") is None
    assert regen.largest_change("b1,0.0", "b1,-0.0") == 0.0
    name = "binomial-gaussian-validation"
    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    shutil.copytree(Path(_REGEN_PATH).parent / name, tmp_path / name)
    assert regen.compare(name) == f"{name}: identical"
    model, grid = tmp_path / name / "model.json", tmp_path / name / "selection.csv"
    model.write_text(model.read_text().replace('"nummod": 4\n },\n "one_se"',
                                               '"nummod": 2\n },\n "one_se"'))
    grid.write_text(grid.read_text().replace("25.78384417649826", "25.78384417649827"))
    before = {p: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert regen.compare(name) == (f"{name}: model.json, selection.csv differ; "
                                   "best/one_se MOVED; largest relative change 5.0e-01")
    assert {p: p.read_bytes() for p in (tmp_path / name).iterdir()} == before
    monkeypatch.setattr(regen, "ALL_RECIPES", (name,))
    assert regen.main(["--compare"]) == 0
    assert capsys.readouterr().out.startswith(f"{name}: model.json, selection.csv differ;")
    assert {p: p.read_bytes() for p in (tmp_path / name).iterdir()} == before
