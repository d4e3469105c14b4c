import argparse
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import list_form_document

import nspyr
from nspyr import Pyramid, read_curve_csv, sample_circle, write_curve_csv
from nspyr.cli import build_parser, main

# Each subcommand's option strings in the order its parser adds them.
# Adding or removing a flag changes this table on purpose.
FAMILY = [["--family"], ["--theta"]]
DEPTH = [["--levels", "-J"], ["--epsilon"], ["--config"]]
SUBCOMMAND_OPTIONS = {
    "decompose": FAMILY + DEPTH + [["--in"], ["--out"], ["--plot"]],
    "reconstruct": [["--in"], ["--out"]],
    "gamma": FAMILY + DEPTH + [["--out"]],
    "circle-demo": DEPTH + [["--out"], ["--n"], ["--radius"]],
    "anomaly-demo": DEPTH + [["--out"], ["--n"], ["--radius"],
                             ["--amplitude"], ["--frequency"],
                             ["--threshold-ratio"]],
}


@pytest.fixture
def circle_csv(tmp_path):
    path = tmp_path / "circle256.csv"
    write_curve_csv(path, sample_circle(256))
    return path


def run(*argv):
    return main([str(a) for a in argv])


def run_python(*argv, **env):
    """``python *argv`` in a new process, with ``env`` set."""
    # The child imports the package under test, wherever it was imported from.
    src = str(Path(nspyr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, argv)], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path, **env))


def run_fresh(*argv, **env):
    """``python -m nspyr.cli`` in a new process, with ``env`` set."""
    return run_python("-m", "nspyr.cli", *argv, **env)


def test_option_strings_are_pinned():
    (sub,) = (action for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction))
    found = {name: [action.option_strings for action in parser._actions
                    if not isinstance(action, argparse._HelpAction)]
             for name, parser in sub.choices.items()}
    assert found == SUBCOMMAND_OPTIONS
    assert sum(map(len, found.values())) == 31


def test_handlers_are_looked_up_at_call_time(tmp_path, circle_csv,
                                             monkeypatch):
    # main() builds its parser once; a handler rebound on the module after
    # that (a tracer's wrapper, this spy) is the one that runs
    pyr_path = tmp_path / "p.json"
    assert run("decompose", "--in", circle_csv, "--out", pyr_path,
               "--levels", 2) == 0
    calls = []
    monkeypatch.setattr("nspyr.cli.cmd_reconstruct",
                        lambda args: calls.append(args.infile) or 0)
    out = tmp_path / "back.csv"
    assert run("reconstruct", "--in", pyr_path, "--out", out) == 0
    assert calls == [str(pyr_path)]
    assert not out.exists()


class TestDecomposeReconstruct:
    def test_roundtrip(self, tmp_path, circle_csv):
        pyr_path = tmp_path / "pyr.json"
        out_csv = tmp_path / "back.csv"
        assert run("decompose", "--in", circle_csv, "--out", pyr_path,
                   "--family", "conic", "--levels", 4) == 0
        assert pyr_path.exists()
        assert (tmp_path / "pyr_norms.csv").exists()
        assert run("reconstruct", "--in", pyr_path, "--out", out_csv) == 0
        original = read_curve_csv(circle_csv)
        back = read_curve_csv(out_csv)
        assert np.abs(back.points - original.points).max() <= 1e-12

    def test_detail_norms_tiny_for_circle(self, tmp_path, circle_csv):
        pyr_path = tmp_path / "pyr.json"
        run("decompose", "--in", circle_csv, "--out", pyr_path,
            "--family", "conic", "--levels", 4)
        rows = (tmp_path / "pyr_norms.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            _, linf, _, _ = row.split(",")
            assert float(linf) <= 1e-8

    def test_indivisible_period_exits_3(self, tmp_path, capsys):
        path = tmp_path / "seq.csv"
        path.write_text("# period=100\n" + "\n".join(["1.0"] * 100) + "\n")
        code = run("decompose", "--in", path, "--out", tmp_path / "p.json",
                   "--family", "nscubic", "--levels", 3)
        assert code == 3
        assert "period not divisible" in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path):
        code = run("decompose", "--in", tmp_path / "nope.csv",
                   "--out", tmp_path / "p.json")
        assert code == 2

    def test_plot_flag_writes_svg(self, tmp_path, circle_csv):
        pyr_path = tmp_path / "pyr.json"
        run("decompose", "--in", circle_csv, "--out", pyr_path, "--plot",
            "--levels", 4)
        svg = (tmp_path / "pyr_details.svg").read_text()
        assert svg.startswith("<svg") and "<rect" in svg

    def test_stationary_mask_file_family(self, tmp_path, circle_csv):
        mask_path = tmp_path / "mask.csv"
        taps = [1 / 8, 1 / 2, 3 / 4, 1 / 2, 1 / 8]
        mask_path.write_text(
            "".join(f"{i - 2},{t!r}\n" for i, t in enumerate(taps)))
        pyr_path = tmp_path / "p.json"
        out_csv = tmp_path / "back.csv"
        assert run("decompose", "--in", circle_csv, "--out", pyr_path,
                   "--family", f"stationary:{mask_path}", "--levels", 3) == 0
        doc = json.loads(pyr_path.read_text())
        assert doc["family"]["kind"] == "stationary"
        assert run("reconstruct", "--in", pyr_path, "--out", out_csv) == 0
        original = read_curve_csv(circle_csv)
        back = read_curve_csv(out_csv)
        assert np.abs(back.points - original.points).max() <= 1e-12

    @pytest.mark.parametrize("taps", [
        [1 / 8, 1 / 2, math.nan, 1 / 2, 1 / 8], [1 / 2, math.nan, 1 / 2]])
    @pytest.mark.parametrize("command", ["decompose", "gamma"])
    def test_non_finite_mask_file_exits_3(self, tmp_path, circle_csv, capsys,
                                          taps, command):
        mask_path = tmp_path / "mask.csv"
        mask_path.write_text("".join(
            f"{i - len(taps) // 2},{t!r}\n" for i, t in enumerate(taps)))
        family = ["--family", f"stationary:{mask_path}", "--levels", 2]
        if command == "decompose":
            code = run("decompose", "--in", circle_csv,
                       "--out", tmp_path / "p.json", *family)
        else:
            code = run("gamma", "--out", tmp_path / "filters", *family)
        assert code == 3
        assert "values must be finite" in capsys.readouterr().err

    def test_open_curve_rejected(self, tmp_path):
        path = tmp_path / "open.csv"
        path.write_text("# closed=false\n" + "".join(
            f"{float(i)!r},{float(i * i)!r}\n" for i in range(16)))
        code = run("decompose", "--in", path, "--out", tmp_path / "p.json")
        assert code == 3

    def test_finite_sequence_roundtrip(self, tmp_path, rng):
        seq_path = tmp_path / "seq.csv"
        values = rng.normal(size=50)
        seq_path.write_text(
            "".join(f"{i},{v!r}\n" for i, v in enumerate(map(float, values))))
        pyr_path = tmp_path / "p.json"
        out_path = tmp_path / "back.csv"
        assert run("decompose", "--in", seq_path, "--out", pyr_path,
                   "--family", "nscubic", "--levels", 2) == 0
        assert run("reconstruct", "--in", pyr_path, "--out", out_path) == 0
        from nspyr import read_sequence_csv
        back = read_sequence_csv(out_path)
        err = max(abs(back[i] - v) for i, v in enumerate(map(float, values)))
        assert err <= 1e-12 * (1 + np.abs(values).max())

    @pytest.mark.parametrize("lead", ["", "\n", "  \n\n"],
                             ids=["first-line", "blank-line", "blank-lines"])
    def test_headerless_curve_is_read_as_a_curve(self, tmp_path, lead):
        # x,y rows with no '# closed=' header: read_curve_csv takes them as
        # a closed curve, and so does decompose
        points = sample_circle(64).points
        path = tmp_path / "nohdr.csv"
        path.write_text(lead + "".join(f"{x!r},{y!r}\n"
                                       for x, y in points.tolist()))
        pyr_path = tmp_path / "p.json"
        out_path = tmp_path / "back.csv"
        assert run("decompose", "--in", path, "--out", pyr_path,
                   "--levels", 2) == 0
        pyr = Pyramid.from_json(pyr_path.read_text())
        assert (pyr.boundary, pyr.n_components) == ("periodic", 2)
        assert run("reconstruct", "--in", pyr_path, "--out", out_path) == 0
        back = read_curve_csv(out_path).points
        assert np.abs(back - points).max() <= 1e-12

    @pytest.mark.parametrize("lead", ["", "\n"],
                             ids=["first-line", "blank-line"])
    def test_integer_first_field_stays_a_finite_sequence(self, tmp_path,
                                                         lead):
        path = tmp_path / "seq.csv"
        path.write_text(lead + "".join(f"{i},{float(i % 5)!r}\n"
                                       for i in range(-3, 37)))
        pyr_path = tmp_path / "p.json"
        assert run("decompose", "--in", path, "--out", pyr_path,
                   "--family", "nscubic", "--levels", 2) == 0
        pyr = Pyramid.from_json(pyr_path.read_text())
        assert (pyr.boundary, pyr.n_components) == ("finite", 1)
        assert pyr.support == (-3, 37)


class TestMalformedPyramid:
    @pytest.fixture
    def doc_path(self, tmp_path, circle_csv):
        path = tmp_path / "pyr.json"
        assert run("decompose", "--in", circle_csv, "--out", path,
                   "--levels", 3) == 0
        return path

    def test_ragged_detail_row_exits_3(self, tmp_path, doc_path, capsys):
        doc = list_form_document(Pyramid.from_json(doc_path.read_text()))
        doc["details"][1][7] = [0.5]
        doc_path.write_text(json.dumps(doc))
        out = tmp_path / "back.csv"
        assert run("reconstruct", "--in", doc_path, "--out", out) == 3
        assert "rectangular" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_coarse_exits_3(self, tmp_path, doc_path, capsys):
        doc = list_form_document(Pyramid.from_json(doc_path.read_text()))
        doc["coarse"][2][0] = float("nan")
        doc_path.write_text(json.dumps(doc))
        out = tmp_path / "back.csv"
        assert run("reconstruct", "--in", doc_path, "--out", out) == 3
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_synthesis_exits_3(self, tmp_path, capsys):
        # a valid document whose blocks sum past the float range
        p = nspyr.analyze(np.ones(64), nspyr.NSCubic(0.5), 2)
        big = Pyramid(np.full_like(p.coarse, 1.5e308),
                      [np.full_like(d, 1.5e308) for d in p.details],
                      p.family, p.epsilon, p.boundary, p.level_params)
        doc_path = tmp_path / "big.json"
        doc_path.write_text(big.to_json())
        out = tmp_path / "back.csv"
        assert run("reconstruct", "--in", doc_path, "--out", out) == 3
        assert capsys.readouterr().err.startswith(
            "error: synthesized values must be finite")
        assert not out.exists()

    def test_truncated_block_exits_3(self, tmp_path, doc_path, capsys):
        doc = json.loads(doc_path.read_text())
        payload = doc["details"][0]["float64le"]
        doc["details"][0]["float64le"] = payload[:len(payload) // 8 * 4]
        doc_path.write_text(json.dumps(doc))
        out = tmp_path / "back.csv"
        assert run("reconstruct", "--in", doc_path, "--out", out) == 3
        assert "details[0] payload holds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("corrupt, field", [
        (lambda d: {k: v for k, v in d.items() if k != "family"},
         "'family'"),
        (lambda d: {**d, "family": {"kind": "conic"}}, "'v_init'"),
        (lambda d: {**d, "epsilon": "x"}, "'epsilon'"),
        (lambda d: {**d, "level_params": [
            {k: v for k, v in d["level_params"][0].items()
             if k != "zeta_taps"}] + d["level_params"][1:]}, "'zeta_taps'"),
        (lambda d: {**d, "level_params": d["level_params"][:2] + [
            {**d["level_params"][2], "zeta_taps": []}]},
         "level_params[2] zeta taps are empty"),
        (lambda d: {**d, "details": 5}, "'details'"),
        (lambda d: [d], "JSON object"),
    ], ids=["no-family", "family-without-tension", "epsilon-string",
            "no-zeta-taps", "empty-zeta-taps", "details-number",
            "top-level-list"])
    def test_malformed_document_exits_3(self, tmp_path, doc_path, capsys,
                                        corrupt, field):
        doc = corrupt(json.loads(doc_path.read_text()))
        doc_path.write_text(json.dumps(doc))
        out = tmp_path / "back.csv"
        assert run("reconstruct", "--in", doc_path, "--out", out) == 3
        assert field in capsys.readouterr().err
        assert not out.exists()


class TestMalformedCsv:
    @pytest.mark.parametrize("text, lineno", [
        ("# closed=true\n1.0,2.0\n3.0,abc\n", 3),
        ("# closed=true\n1.0,2.0,3.0\n", 2),
        ("index,value\n0,1.0\n1,2.0\n", 1),
        ("# period=2\n1.0\n\nx\n", 4),
        ("# period=two\n1.0\n2.0\n", 1),
    ], ids=["curve-field", "curve-three-columns", "sequence-header",
            "periodic-value", "periodic-header"])
    def test_decompose_exits_3_naming_the_line(self, tmp_path, capsys,
                                                text, lineno):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        out = tmp_path / "p.json"
        assert run("decompose", "--in", path, "--out", out) == 3
        err = capsys.readouterr().err
        assert f"{path}, line {lineno}:" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, lineno, message", [
        ("0,1.0\n0,2.0\n2,3.0\n", 2, "repeated index 0"),
        ("# closed=yes\n1.0,0.0\n0.0,1.0\n-1.0,0.0\n0.0,-1.0\n", 1,
         "closed must be true or false, got 'yes'"),
    ], ids=["sequence-repeated-index", "curve-closed-yes"])
    def test_decompose_exits_3_on_ambiguous_input(self, tmp_path, capsys,
                                                   text, lineno, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        out = tmp_path / "p.json"
        assert run("decompose", "--in", path, "--out", out,
                   "--levels", 1) == 3
        assert f"{path}, line {lineno}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_readers_raise_bad_params(self, tmp_path):
        from nspyr import BadParamsError, read_sequence_csv
        curve = tmp_path / "curve.csv"
        curve.write_text("0.0,1.0\n2.0;3.0\n")
        with pytest.raises(BadParamsError, match="line 2"):
            read_curve_csv(curve)
        seq = tmp_path / "seq.csv"
        seq.write_text("0,1.0\n1.5,2.0\n")
        with pytest.raises(BadParamsError, match="line 2"):
            read_sequence_csv(seq)


class TestGamma:
    def test_conic_level1_33_coefficients(self, tmp_path):
        outdir = tmp_path / "filters"
        assert run("gamma", "--family", "conic",
                   "--theta", 2 * math.pi / 16, "--levels", 2,
                   "--out", outdir) == 0
        meta = json.loads((outdir / "zeta_level_1.json").read_text())
        assert meta["nonzero_count"] == 33
        rows = (outdir / "zeta_level_1.csv").read_text().splitlines()
        assert rows[0] == "index,zeta,gamma_raw"
        assert len(rows) == 1 + 33

    def test_interpolating_single_unit_coefficient(self, tmp_path):
        outdir = tmp_path / "filters"
        run("gamma", "--family", "ns4pt", "--theta", 0.3, "--levels", 1,
            "--out", outdir)
        rows = (outdir / "zeta_level_1.csv").read_text().splitlines()
        assert len(rows) == 2
        idx, zeta, _ = rows[1].split(",")
        assert idx == "0" and float(zeta) == 1.0

    def test_cubic_bspline_center_coefficient(self, tmp_path):
        outdir = tmp_path / "filters"
        run("gamma", "--family", "nscubic", "--theta", 0.0, "--levels", 1,
            "--out", outdir)
        rows = (outdir / "zeta_level_1.csv").read_text().splitlines()[1:]
        center = {int(r.split(",")[0]): float(r.split(",")[1])
                  for r in rows}[0]
        assert center == pytest.approx(math.sqrt(2.0), abs=1e-12)


class TestDemos:
    def test_circle_demo(self, tmp_path):
        outdir = tmp_path / "demo"
        assert run("circle-demo", "--out", outdir) == 0
        report = json.loads((outdir / "circle_report.json").read_text())
        assert report["clean"]["verdict_scale"] <= 1e-8
        verdicts = [w["verdict_scale"] for w in report["wavy"]]
        assert verdicts[0] < verdicts[1] < verdicts[2]
        for name in ("clean_curve.svg", "log_l1.svg", "log_avg_l2.svg",
                     "wavy_curve.svg", "oscillating_details.svg"):
            text = (outdir / name).read_text()
            assert text.startswith("<svg")

    def test_anomaly_demo(self, tmp_path):
        outdir = tmp_path / "demo"
        assert run("anomaly-demo", "--out", outdir) == 0
        report = json.loads((outdir / "anomaly_report.json").read_text())
        assert len(report["ranges"]) == 1
        assert (outdir / "anomaly_curve.svg").exists()
        assert (outdir / "anomaly_details.svg").exists()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_negative_threshold_ratio_exits_3(self, tmp_path, capsys, how):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"threshold_ratio": -5.0}))
        given = (["--threshold-ratio", -5.0] if how == "flag"
                 else ["--config", config])
        outdir = tmp_path / "demo"
        assert run("anomaly-demo", "--out", outdir, *given) == 3
        assert ("threshold_ratio must be nonnegative, got -5.0"
                in capsys.readouterr().err)
        assert not (outdir / "anomaly_report.json").exists()

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run("circle-demo", "--out", out1, "--n", 128, "--levels", 3)
        run("circle-demo", "--out", out2, "--n", 128, "--levels", 3)
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestConfigPrecedence:
    def test_flags_beat_config(self, tmp_path, circle_csv):
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"levels": 2, "epsilon": 1e-9}))
        pyr_path = tmp_path / "p.json"
        assert run("decompose", "--in", circle_csv, "--out", pyr_path,
                   "--config", config, "--levels", 4) == 0
        doc = json.loads(pyr_path.read_text())
        assert len(doc["details"]) == 4      # flag won
        assert doc["epsilon"] == 1e-9        # config used for the rest

    @pytest.mark.parametrize("config, key", [
        ({"levels": "3"}, "'levels'"),
        ({"levels": 2.5}, "'levels'"),
        ({"levels": True}, "'levels'"),
        ({"epsilon": "1e-15"}, "'epsilon'"),
        ({"theta": "0.3"}, "'theta'"),
        ({"family": 7}, "'family'"),
        ({"plot": "yes"}, "'plot'"),
        ([1, 2], "JSON object"),
        ({"level": 2}, "unknown key 'level'"),
        ({"boundary": "finite"}, "unknown key 'boundary'"),
    ])
    def test_mistyped_config_exits_3(self, tmp_path, circle_csv, capsys,
                                     config, key):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "p.json"
        assert run("decompose", "--in", circle_csv, "--out", out,
                   "--config", path) == 3
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_parser_keeps_no_state_between_calls(self, tmp_path, circle_csv):
        # main() builds its parser once; a later call in the same process
        # sees only its own flags and config
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"levels": 3}))
        first, here, fresh = (tmp_path / name for name in
                              ("first", "here", "fresh"))
        for outdir in (first, here, fresh):
            outdir.mkdir()
        assert run("decompose", "--in", circle_csv, "--out", first / "p.json",
                   "--levels", 2, "--plot") == 0
        assert (first / "p_details.svg").exists()
        second = ("decompose", "--in", circle_csv, "--config", config)
        assert run(*second, "--out", here / "p.json") == 0
        result = run_fresh(*second, "--out", fresh / "p.json")
        assert result.returncode == 0, result.stderr
        assert Pyramid.from_json((here / "p.json").read_text()).levels == 3
        assert sorted(p.name for p in here.iterdir()) == ["p.json",
                                                          "p_norms.csv"]
        for name in ("p.json", "p_norms.csv"):
            assert (here / name).read_bytes() == (fresh / name).read_bytes()

    def test_keys_the_subcommand_does_not_read_are_logged(self, tmp_path,
                                                          caplog):
        # one file may serve several subcommands: the keys circle-demo has
        # no flag for are named at info level, and change nothing
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"family": "ns4pt", "theta": 0.3,
                                      "plot": True, "levels": 3, "n": 64}))
        with caplog.at_level(logging.INFO, logger="nspyr"):
            assert run("circle-demo", "--out", tmp_path / "a",
                       "--config", config) == 0
        assert [r.getMessage() for r in caplog.records
                if r.levelno == logging.INFO and "ignored" in r.getMessage()
                ] == [f"config {config}: circle-demo does not read {key!r}; "
                      f"ignored" for key in ("family", "plot", "theta")]
        assert run("circle-demo", "--out", tmp_path / "b", "--levels", 3,
                   "--n", 64) == 0
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_invalid_epsilon_rejected(self, tmp_path, circle_csv):
        code = run("decompose", "--in", circle_csv,
                   "--out", tmp_path / "p.json", "--epsilon", 2.0)
        assert code == 3


def test_module_entry_point(tmp_path):
    result = run_fresh("gamma", "--family", "nscubic", "--theta", "0",
                       "--levels", "1", "--out", tmp_path, NSPYR_LOG="info")
    assert result.returncode == 0
    assert (tmp_path / "zeta_level_1.json").exists()
    # NSPYR_LOG=info surfaces the per-level summary on stderr
    assert "nonzero coefficients" in result.stderr


@pytest.mark.parametrize("mode", [[], ["--open"]],
                         ids=["scipy-blocked", "scipy-importable"])
def test_round_trips_without_scipy(tmp_path, mode):
    # numpy is the only runtime dependency: the CLI round trips work with
    # scipy blocked, and nothing imports scipy when it is installed
    script = Path(__file__).with_name("scipy_free_round_trip.py")
    result = run_python(script, tmp_path, *mode)
    assert result.returncode == 0, result.stderr
    assert "sequence round-trip error" in result.stdout
