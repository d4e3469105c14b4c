"""Smoke test of the demo scripts: each runs and writes its outputs.  The
README's quick start runs too, and prints what its comments state.

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

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

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


def run_python(cwd, *argv):
    """``python *argv`` in ``cwd``, a warning failing it as an error."""
    # The child imports the package under test, wherever it was imported from.
    src = str(Path(nspyr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # pytest's warning filters do not reach a child process.
    result = subprocess.run([sys.executable, *argv], cwd=cwd,
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path,
                                     PYTHONWARNINGS="error"))
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("script", sorted(WRITES))
def test_demo_runs_and_writes_its_outputs(tmp_path, script):
    shutil.copy(DEMOS / script, tmp_path / script)
    run_python(tmp_path, script)
    out = tmp_path / "output"
    assert {p.name for p in out.iterdir()} == WRITES[script]
    for name in WRITES[script]:
        text = (out / name).read_text()
        assert text
        if name.endswith(".svg"):
            assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_readme_quick_start_prints_what_its_comments_state(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    shape, detail_max, verdict, ranges = run_python(
        tmp_path, "-W", "error", "-c", code).splitlines()
    assert shape == "(16, 2)"
    assert float(detail_max) < 1e-14
    assert 5e-4 < float(verdict) < 2e-3
    assert ranges == "[(151, 233)]"
