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
