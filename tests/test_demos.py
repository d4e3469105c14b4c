"""Smoke test of the demo scripts: each runs and writes its outputs.

Each demo runs from a copy in a temporary directory, so a test run
leaves the committed ``demos/output`` alone.  A demo run in place
rewrites its outputs with the bytes committed there.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nspyr

DEMOS = Path(__file__).resolve().parents[1] / "demos"

WRITES = {
    "01_circle_refinement.py": {"cubic_refined.svg",
                                "conic_reproducing_refined.svg"},
    "02_decimation_filters.py": {"conic_zeta_level1.csv"},
    "03_pyramid_roundtrip.py": {"wavy_pyramid.json"},
    "04_circularity_scoring.py": {"circularity_decay.svg"},
    "05_anomaly_localization.py": {"anomaly_profile.svg",
                                   "anomaly_curve.svg"},
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(WRITES)
    committed = {p.name for p in (DEMOS / "output").iterdir()}
    assert set().union(*WRITES.values()) == committed


@pytest.mark.parametrize("script", sorted(WRITES))
def test_demo_runs_and_writes_its_outputs(tmp_path, script):
    shutil.copy(DEMOS / script, tmp_path / script)
    # The child imports the package under test, wherever it was imported from.
    src = str(Path(nspyr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # pytest's warning filters do not reach a child process: a demo that
    # warns fails here too.
    result = subprocess.run([sys.executable, script], cwd=tmp_path,
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path,
                                     PYTHONWARNINGS="error"))
    assert result.returncode == 0, result.stderr
    out = tmp_path / "output"
    assert {p.name for p in out.iterdir()} == WRITES[script]
    for name in WRITES[script]:
        text = (out / name).read_text()
        assert text
        if name.endswith(".svg"):
            assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
