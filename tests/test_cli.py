import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import qprolate as qp
from qprolate.cli import main

FAST_EIGEN = ["--keep", "4", "--depth", "40"]
FAST_RECON = ["--window", "-12:45", "--grid", "-8:30"]


def test_eigen_writes_reports(tmp_path, capsys):
    rc = main(["eigen", "--out", str(tmp_path), *FAST_EIGEN])
    assert rc == 0
    for name in ("eigen.json", "eigen.csv", "manifest.json"):
        assert (tmp_path / name).exists()
    payload = json.loads((tmp_path / "eigen.json").read_text())
    assert payload["q"] == 0.5 and payload["v"] == -0.5
    assert len(payload["eigenvalues"]) == 4

    # printed eigenvalues match the library byte-for-byte at %.12e
    basis = qp.compute_basis(qp.Bandlimit(0, 40), qp.QParams(0.5, -0.5), keep=4)
    out_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("lambda_")]
    assert len(out_lines) == 4
    for i, line in enumerate(out_lines):
        assert line.split(" = ")[1] == f"{basis.eigenvalues[i]:.12e}"


def test_eigen_underflowing_weights_write_no_nan(tmp_path):
    # ten of the 60 weights underflow float64 at q = 0.05, v = 3/2; the
    # report used to hold nan samples with exit code 0
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["eigen", "--q", "0.05", "--v", "1.5", "--a-exp", "-2", "--keep", "4",
                   "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "eigen.csv").read_text() + (tmp_path / "eigen.json").read_text()
    assert "nan" not in text.lower()


def test_eigen_short_of_keep_warns_on_stderr(tmp_path):
    # at a_exp = 400 only lambda_0 = 4.7e-121 lies above the 1e-150 floor;
    # the command used to print it alone, with exit code 0 and no word
    src = str(Path(qp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qprolate.cli", "eigen", "--a-exp", "400", "--keep", "4",
         "--out", str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["lambda_0 = 4.717976492016e-121"]
    assert "FewerPairsWarning: kept 1 of 4 eigenpairs" in proc.stderr


def test_eigen_with_every_pair_below_the_floor_exits_0(tmp_path):
    # at a_exp = 2000 the solve keeps no row: the command exited 1 with an
    # IndexError traceback
    src = str(Path(qp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qprolate.cli", "eigen", "--a-exp", "2000", "--keep", "4",
         "--q=0.5", "--v=0", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "FewerPairsWarning: kept 0 of 4 eigenpairs" in proc.stderr
    assert proc.stdout == ""
    assert json.loads((tmp_path / "eigen.json").read_text())["eigenvalues"] == []


def test_eigen_invalid_q(tmp_path, capsys):
    rc = main(["eigen", "--q", "1.5", "--out", str(tmp_path)])
    assert rc == 2
    assert "q must lie in (0,1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--v", "-2.0"],
        ["--keep", "90"],
        ["--depth", "0"],
        ["--keep", "0"],
        ["--q", "0"],
    ],
)
def test_eigen_invalid_configs(tmp_path, flags, capsys):
    out = tmp_path / "o"
    rc = main(["eigen", "--out", str(out), *flags])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["reconstruct", "transform"])
@pytest.mark.parametrize("span", ["5:1", "notaspan"])
def test_invalid_window_exit_code(tmp_path, command, span, capsys):
    # the commands that read the window check it; eigen, which does not,
    # used to refuse these too
    sample_file = tmp_path / "s.txt"
    sample_file.write_text("0 1.0\n")
    out = tmp_path / "o"
    rc = main([command, "--samples", str(sample_file), "--window", span, "--out", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flags", [
    ("eigen", ["--window", "0:1"]), ("eigen", ["--grid", "0:1"]),
    ("eigen", ["--format", "json"]), ("reconstruct", ["--depth", "5"]),
    ("reconstruct", ["--keep", "61"]), ("transform", ["--depth", "5"]),
    ("transform", ["--grid", "0:1"]), ("transform", ["--keep", "1"]),
    ("transform", ["--a-exp", "1"]),
])
def test_flags_of_unread_settings_are_unknown(tmp_path, command, flags, capsys):
    # eigen used to take --format json --window 0:1, exit 0 and record
    # both; transform --depth 5 and reconstruct --keep 61 exited 2 with
    # "keep must lie in [1, depth]" although neither reads either setting
    with pytest.raises(SystemExit) as exc:
        main([command, *flags, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err


def test_config_key_the_command_does_not_read_is_ignored(tmp_path):
    # transform reads neither depth nor keep; {"depth": 5} used to exit 2
    # with "keep must lie in [1, depth]"
    sample_file = tmp_path / "s.txt"
    sample_file.write_text("0 1.0\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"depth": 5, "samples_file": str(sample_file)}))
    out = tmp_path / "o"
    assert main(["transform", "--config", str(config), "--out", str(out)]) == 0
    assert "depth" not in json.loads((out / "manifest.json").read_text())


def test_eps_flag_is_unknown(tmp_path, capsys):
    # the series tolerance is a fixed constant; --eps 1e-8 used to run,
    # exit 0 and print lambda_0 = 1.000000006 for a contraction
    with pytest.raises(SystemExit) as exc:
        main(["eigen", "--keep", "8", "--eps", "1e-8", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --eps" in capsys.readouterr().err
    assert not (tmp_path / "eigen.csv").exists()


def test_config_eps_key_is_ignored(tmp_path):
    # an old manifest's eps is read as no setting: at 1e-8 the run used to
    # differ from the run without it
    outs = []
    for extra in ({}, {"eps": 1e-8}):
        config, out = tmp_path / f"c{len(outs)}.json", tmp_path / f"o{len(outs)}"
        config.write_text(json.dumps({"keep": 8, **extra}))
        assert main(["eigen", "--config", str(config), "--out", str(out)]) == 0
        outs.append((out / "eigen.csv").read_bytes())
    assert outs[0] == outs[1]


def test_eigen_solver_failure_exit_code(tmp_path, monkeypatch, capsys):
    import qprolate.cli as cli

    def boom(*a, **kw):
        raise qp.SolverNoConvergence("synthetic")

    monkeypatch.setattr(cli, "compute_basis", boom)
    rc = main(["eigen", "--out", str(tmp_path), *FAST_EIGEN])
    assert rc == 3
    assert "converge" in capsys.readouterr().err


def test_overflow_exit_code(tmp_path, monkeypatch, capsys):
    # a q-Bessel value beyond the float range is a numerical failure
    import qprolate.cli as cli

    def boom(*a, **kw):
        raise OverflowError("synthetic")

    monkeypatch.setattr(cli, "compute_basis", boom)
    rc = main(["eigen", "--out", str(tmp_path), *FAST_EIGEN])
    assert rc == 3
    assert "synthetic" in capsys.readouterr().err


def test_reconstruct_near_q_one_overflows_without_refining_underflows(tmp_path, capsys):
    # the y-side lattice values at s = -470..-420 lie near 1e-880, below
    # the float range, and are +0.0 without a decimal series; the z side
    # then reaches j_0.5(92.08...) = 8.5e830, beyond it
    rc = main(["reconstruct", "--q", "0.99", "--a-exp", "-460", "--window", "-12:45",
               "--grid", "-10:40", "--out", str(tmp_path)])
    assert rc == 3
    assert "j_0.5(92.07938948050328) = 8.467078e+830" in capsys.readouterr().err


def test_reconstruct_band_edge_beyond_the_float_range_names_it(tmp_path, capsys):
    # 0.5^-2000 used to exit 3 with the bare "(34, 'Numerical result out of
    # range')" of a float power
    rc = main(["reconstruct", "--function", "runge", "--a-exp", "-2000", "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "error: the band edge a = q^a_exp at q = 0.5, a_exp = -2000 lies beyond" in err


def test_reconstruct_runge_artifacts(tmp_path, capsys):
    rc = main(["reconstruct", "--function", "runge", "--out", str(tmp_path), *FAST_RECON])
    assert rc == 0
    sups = []
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("a_exp="):
            sups.append(float(line.split("sup_error=")[1]))
    assert len(sups) == 3
    assert sups[0] > sups[1] > sups[2] > 0

    for tag in ("a0", "am1", "am2"):
        csv_path = tmp_path / f"reconstruct_{tag}.csv"
        svg_path = tmp_path / f"reconstruct_{tag}.svg"
        assert csv_path.exists() and svg_path.exists()
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "z,f_true,f_reconstructed,abs_error"
        assert len(lines) > 200
        z, ft, fr, err = lines[1].split(",")
        assert abs(float(ft) - 1 / (1 + float(z) ** 2)) < 1e-12
        # columns are %.12e-rounded, so the recomputed difference can move
        # by the operands' rounding
        assert abs(float(err) - abs(float(ft) - float(fr))) < 3e-12
        tree = ET.parse(svg_path)
        polys = [e for e in tree.iter() if e.tag.endswith("polyline")]
        assert len(polys) == 2  # f and its reconstruction


def test_reconstruct_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs 11-15 ms in every fresh process (np.unique imports
    # it); fixedla is needed only by the extended-precision eigensolve,
    # which every eigen command takes and neither reconstruct nor
    # transform reaches; mpmath stays unloaded throughout, since the
    # package does not use it
    src = str(Path(qp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    sample_file = tmp_path / "f.txt"
    sample_file.write_text("\n".join(f"{k} {1.0 / (1.0 + 4.0**-k)!r}" for k in range(-12, 46)))
    commands = [
        ["reconstruct", "--out", str(tmp_path / "r"), *FAST_RECON],
        ["transform", "--samples", str(sample_file), "--window", "-12:45", "--roundtrip",
         "--out", str(tmp_path / "t")],
        ["eigen", "--keep", "4", "--out", str(tmp_path / "e")],
    ]
    mp_eigen = ["eigen", "--out", str(tmp_path / "mp")]
    code = (
        "import sys\n"
        "from qprolate.cli import main\n"
        f"for c in {commands!r}:\n"
        "    print('RESULT', c[0], main(c), [m in sys.modules for m in "
        "('numpy.ma', 'mpmath', 'qprolate.fixedla')])\n"
        f"rc = main({mp_eigen!r})\n"
        "print('MP', rc, [m in sys.modules for m in ('qprolate.fixedla', 'mpmath')])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith("RESULT")] == [
        "RESULT reconstruct 0 [False, False, False]",
        "RESULT transform 0 [False, False, False]",
        "RESULT eigen 0 [False, False, True]",
    ]
    assert lines[-1] == "MP 0 [True, False]"


def test_reconstruct_bandlimited_input(tmp_path, capsys):
    # f = F(u) with u supported in [0, a]_q is exactly reproduced for all
    # three band edges
    window = qp.LatticeWindow(-12, 45)
    p = qp.QParams(0.5, -0.5)
    plan = qp.make_plan(window, p)
    rng = np.random.default_rng(3)
    u = qp.LatticeFunction.zeros(window)
    sel = (window.exponents() >= 0) & (window.exponents() <= 30)
    u.values[sel] = rng.standard_normal(sel.sum())
    f = qp.fqv_transform(u, plan)
    sample_file = tmp_path / "bl.txt"
    sample_file.write_text(
        "# bandlimited input\n"
        + "\n".join(f"{k} {f.value_at_exp(int(k)):.17e}" for k in window.exponents())
    )
    rc = main(
        ["reconstruct", "--samples", str(sample_file), "--out", str(tmp_path / "o"), *FAST_RECON]
    )
    assert rc == 0
    sups = [
        float(line.split("sup_error=")[1])
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("a_exp=")
    ]
    assert len(sups) == 3 and all(s <= 1e-8 for s in sups)
    # sample-file runs have no analytic truth: one polyline per plot
    tree = ET.parse(tmp_path / "o" / "reconstruct_a0.svg")
    polys = [e for e in tree.iter() if e.tag.endswith("polyline")]
    assert len(polys) == 1


def test_reconstruct_zero_samples(tmp_path):
    window = qp.LatticeWindow(-12, 45)
    sample_file = tmp_path / "zero.txt"
    sample_file.write_text("\n".join(f"{k} 0.0" for k in window.exponents()))
    rc = main(
        ["reconstruct", "--samples", str(sample_file), "--out", str(tmp_path / "o"), *FAST_RECON]
    )
    assert rc == 0
    lines = (tmp_path / "o" / "reconstruct_a0.csv").read_text().strip().splitlines()[1:]
    assert all(float(line.split(",")[2]) == 0.0 for line in lines)


def test_reconstruct_grid_must_fit_window(tmp_path, capsys):
    rc = main(
        ["reconstruct", "--function", "runge", "--out", str(tmp_path), "--window", "-5:30", "--grid", "-8:20"]
    )
    assert rc == 2
    assert "grid" in capsys.readouterr().err


def test_manifest_reproduces_run(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    rc = main(["reconstruct", "--function", "runge", "--out", str(out1), *FAST_RECON])
    assert rc == 0
    rc = main(["reconstruct", "--config", str(out1 / "manifest.json"), "--out", str(out2)])
    assert rc == 0
    for name in ("reconstruct_a0.csv", "reconstruct_am1.csv", "reconstruct_am2.csv",
                 "reconstruct_a0.svg", "reconstruct_am1.svg", "reconstruct_am2.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("content", [
    "[1, 2]", '{"window": 5}', '{"q": [1]}',
    '{"depth": 45.9, "keep": true, "a_exp": -1.5}', '{"window": [-15.7, 60]}',
    '{"grid": [-10, 40.0]}', '{"v": true}', '{"q": "0.5"}', '{"keep": 4.0}',
])
def test_malformed_config_file_exit_code(tmp_path, capsys, content):
    # the first three used to end in a traceback with exit 1; the numbers
    # after them were cast, so that a depth of 45.9 ran at 45, a keep of
    # true at 1 and a window of (-15.7, 60) on (-15, 60), with exit 0
    config = tmp_path / "config.json"
    config.write_text(content)
    rc = main(["eigen", "--config", str(config), "--out", str(tmp_path / "o"), *FAST_EIGEN])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config file" in err
    raw = json.loads(content)
    if isinstance(raw, dict):
        assert any(f"config file: bad {key} " in err for key in raw)


def test_svg_format_in_config_exit_code(tmp_path, capsys):
    # no command writes svg through format; transform, the one command
    # that reads it, checks it
    sample_file = tmp_path / "s.txt"
    sample_file.write_text("0 1.0\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "svg", "samples_file": str(sample_file)}))
    out = tmp_path / "o"
    rc = main(["transform", "--config", str(config), "--out", str(out)])
    assert rc == 2
    assert "format must be csv or json, got 'svg'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", [
    '{"a_exps": 5}', '{"a_exps": "0"}', '{"a_exps": [0, 1.5]}', '{"a_exps": [0, "-1"]}',
    '{"a_exps": [true]}', '{"function": "sine"}', '{"function": 1}',
])
def test_bad_reconstruct_settings_in_config_exit_code(tmp_path, capsys, content):
    # a_exps of 5 used to end in a TypeError traceback with exit 1, and an
    # unknown function reconstructed Runge's function under its name
    config = tmp_path / "config.json"
    config.write_text(content)
    out = tmp_path / "o"
    rc = main(["reconstruct", "--config", str(config), "--out", str(out), *FAST_RECON])
    assert rc == 2
    assert "config file: bad" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("value", ['"no"', '"false"', "0", "1", "[]"])
def test_non_boolean_roundtrip_in_config_exit_code(tmp_path, capsys, value):
    # bool("no") is True, so a roundtrip of "no" used to run the round trip
    sample_file = tmp_path / "s.txt"
    sample_file.write_text("0 1.0\n")
    config = tmp_path / "config.json"
    config.write_text(f'{{"roundtrip": {value}, "samples_file": "{sample_file}"}}')
    out = tmp_path / "o"
    assert main(["transform", "--config", str(config), "--out", str(out)]) == 2
    assert "config file: bad roundtrip" in capsys.readouterr().err
    assert not (out / "roundtrip.csv").exists()


@pytest.mark.parametrize("roundtrip", [True, False])
def test_boolean_roundtrip_in_config(tmp_path, roundtrip):
    sample_file = tmp_path / "s.txt"
    sample_file.write_text("0 1.0\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"roundtrip": roundtrip, "samples_file": str(sample_file)}))
    out = tmp_path / "o"
    assert main(["transform", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "roundtrip.csv").exists() == roundtrip
    assert json.loads((out / "manifest.json").read_text())["roundtrip"] is roundtrip


def test_input_flag_overrides_config_input(tmp_path):
    # --samples used to leave the manifest's function in force, so the run
    # reconstructed Runge's function and recorded both inputs
    runge = tmp_path / "runge"
    assert main(["reconstruct", "--function", "runge", "--out", str(runge), *FAST_RECON]) == 0
    sample_file = tmp_path / "zero.txt"
    sample_file.write_text("0 0.0\n")
    out = tmp_path / "samples"
    rc = main(["reconstruct", "--config", str(runge / "manifest.json"),
               "--samples", str(sample_file), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["function"] is None and manifest["samples_file"] == str(sample_file)
    lines = (out / "reconstruct_a0.csv").read_text().strip().splitlines()[1:]
    assert all(float(line.split(",")[2]) == 0.0 for line in lines)
    # a config file naming both inputs is as ambiguous as both flags
    both = tmp_path / "both.json"
    both.write_text(json.dumps({**manifest, "function": "runge"}))
    assert main(["reconstruct", "--config", str(both), "--out", str(tmp_path / "b")]) == 2


def test_transform_rejects_svg_format(tmp_path, capsys):
    # it used to write transform.csv and exit 0
    sample_file = tmp_path / "e0.txt"
    sample_file.write_text("0 1.0\n")
    out = tmp_path / "o"
    rc = main(["transform", "--samples", str(sample_file), "--out", str(out), "--format", "svg"])
    assert rc == 2
    assert "svg" in capsys.readouterr().err
    assert not (out / "transform.csv").exists()


def test_transform_delta_column(tmp_path):
    sample_file = tmp_path / "e0.txt"
    sample_file.write_text("0 1.0\n")
    out = tmp_path / "o"
    rc = main(
        ["transform", "--samples", str(sample_file), "--out", str(out), "--q", "0.5", "--v", "0.0"]
    )
    assert rc == 0
    p = qp.QParams(0.5, 0.0)
    rows = (out / "transform.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == qp.DEFAULT_WINDOW.size
    for row in rows[:30]:
        m, _, val = row.split(",")
        want = p.c_qv * (1 - p.q) * qp.jv_at_exponent(int(m), p)
        assert float(val) == pytest.approx(want, rel=1e-10, abs=1e-200)


def test_transform_roundtrip(tmp_path, capsys):
    window = qp.DEFAULT_WINDOW
    rng = np.random.default_rng(9)
    sample_file = tmp_path / "r.txt"
    sample_file.write_text(
        "\n".join(f"{k} {rng.standard_normal():.17e}" for k in range(-3, 11))
    )
    out = tmp_path / "o"
    rc = main(["transform", "--samples", str(sample_file), "--out", str(out), "--roundtrip"])
    assert rc == 0
    dev_line = [l for l in capsys.readouterr().out.splitlines() if "roundtrip" in l][0]
    assert float(dev_line.split("=")[1]) <= 1e-8
    assert (out / "roundtrip.csv").exists()
    rows = (out / "roundtrip.csv").read_text().strip().splitlines()[1:]
    errs = [float(r.split(",")[4]) for r in rows]
    assert max(errs) <= 1e-8


def test_transform_json_format(tmp_path):
    sample_file = tmp_path / "e0.txt"
    sample_file.write_text("0 1.0\n")
    out = tmp_path / "o"
    rc = main(["transform", "--samples", str(sample_file), "--out", str(out), "--format", "json"])
    assert rc == 0
    payload = json.loads((out / "transform.json").read_text())
    assert len(payload) == qp.DEFAULT_WINDOW.size
    assert {"k", "point", "value"} <= set(payload[0])


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("bad line here\n", ":1:"),
        ("0 1.0\n1 nope\n", ":2:"),
        ("", "no samples"),
        ("# only a comment\n", "no samples"),
        ("999 1.0\n", "outside window"),
    ],
)
def test_transform_bad_files(tmp_path, capsys, content, fragment):
    sample_file = tmp_path / "bad.txt"
    sample_file.write_text(content)
    rc = main(["transform", "--samples", str(sample_file), "--out", str(tmp_path / "o")])
    assert rc == 4
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_transform_rejects_non_finite_sample(tmp_path, capsys, value):
    # a nan sample used to fill every row of transform.csv with nan, exit 0
    sample_file = tmp_path / "bad.txt"
    sample_file.write_text(f"0 1.0\n1 {value}\n")
    out = tmp_path / "o"
    rc = main(["transform", "--samples", str(sample_file), "--out", str(out)])
    assert rc == 4
    assert ":2:" in capsys.readouterr().err
    assert not (out / "transform.csv").exists()


def test_transform_rejects_repeated_exponent(tmp_path, capsys):
    # the last value used to win silently
    sample_file = tmp_path / "bad.txt"
    sample_file.write_text("0 1.0\n3 0.5\n0 2.0\n")
    rc = main(["transform", "--samples", str(sample_file), "--out", str(tmp_path / "o")])
    assert rc == 4
    err = capsys.readouterr().err
    assert ":3:" in err and "exponent 0" in err


def test_transform_missing_file(tmp_path, capsys):
    rc = main(["transform", "--samples", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
    assert rc == 4


def test_manifest_contents(tmp_path):
    rc = main(["eigen", "--out", str(tmp_path), *FAST_EIGEN, "--q", "0.6"])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "eigen"
    assert manifest["q"] == 0.6
    assert manifest["keep"] == 4
    # eigen does not read the window, so it does not record it
    assert "window" not in manifest and "eps" not in manifest
    python = "{}.{}.{}".format(*sys.version_info[:3])
    assert manifest["versions"] == {"qprolate": qp.__version__, "python": python,
                                    "numpy": np.__version__}


def _commands(tmp_path):
    """A fast run of each command, as its flags."""
    sample_file = tmp_path / "s.txt"
    sample_file.write_text("0 1.0\n3 -0.5\n")
    return {"eigen": FAST_EIGEN, "reconstruct": FAST_RECON,
            "transform": ["--samples", str(sample_file), "--roundtrip", "--format", "json"]}


@pytest.mark.parametrize("command", ["eigen", "reconstruct", "transform"])
def test_manifest_holds_the_settings_read_and_reproduces_the_run(tmp_path, command):
    from qprolate.cli import READS

    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main([command, *_commands(tmp_path)[command], "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert list(manifest) == [*READS[command], "command", "versions"]
    assert main([command, "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        if name != "manifest.json":
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_reconstruct_band_edge_above_the_window_runs(tmp_path):
    # the bands' depth is fixed, so no band edge makes it invalid
    rc = main(["reconstruct", "--a-exp", "70", "--out", str(tmp_path), *FAST_RECON])
    assert rc == 0
    assert (tmp_path / "reconstruct_a70.csv").exists()


def test_each_command_holds_exactly_the_settings_it_reads(tmp_path):
    # each setting is declared once, in _SETTINGS; a command's settings are
    # exactly those READS names for it, at the defaults when neither a
    # config file nor a flag sets them, and a config file holding every
    # setting adds none that the command does not read
    from qprolate.cli import _SETTINGS, READS, _build_parser, _resolve_config

    defaults = {"q": 0.5, "v": -0.5, "a_exp": 0, "depth": 60, "window": (-15, 60),
                "grid": (-10, 40), "keep": 15, "output_dir": "out", "format": "csv",
                "a_exps": None, "function": None, "samples_file": None, "roundtrip": False}
    assert {name: setting[0] for name, setting in _SETTINGS.items()} == defaults
    assert {name for names in READS.values() for name in names} == set(_SETTINGS)
    config = tmp_path / "all.json"
    config.write_text(json.dumps({
        "q": 0.6, "v": 0.0, "a_exp": -1, "depth": 30, "window": [-5, 20], "grid": [-2, 10],
        "keep": 3, "output_dir": "x", "format": "json", "a_exps": [-1], "function": "runge",
        "samples_file": "s.txt", "roundtrip": True}))
    parser = _build_parser()
    for command, names in READS.items():
        cfg = _resolve_config(parser.parse_args([command]))
        assert vars(cfg) == {name: defaults[name] for name in names}, command
        cfg = _resolve_config(parser.parse_args([command, "--config", str(config)]))
        assert list(vars(cfg)) == list(names), command
        for name in set(_SETTINGS) - set(names):
            with pytest.raises(AttributeError):
                getattr(cfg, name)


def test_repeated_a_exp_flag_is_recorded_and_reproduced(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc = main(["reconstruct", "--a-exp", "-1", "--a-exp", "-2", "--out", str(out1), *FAST_RECON])
    assert rc == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["a_exps"] == [-1, -2]
    assert main(["reconstruct", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    for name in ("reconstruct_am1.csv", "reconstruct_am2.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    assert not (out2 / "reconstruct_a0.csv").exists()
