import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from oseen2d import experiments
from oseen2d.cli import (build_config, list_mapping, main, parse_config_file,
                         write_artifacts)
from oseen2d.cli import ConfigError
from oseen2d.experiments import EXPERIMENTS, ExperimentConfig


def run_python(args, check=False):
    """Run the interpreter on args with the source tree on its path."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, check=check)


def run_cli(args):
    return run_python(["-m", "oseen2d.cli", *args])


def test_import_leaves_scipy_unloaded():
    # every transform runs on numpy.fft and only the eigen-solve imports
    # scipy (scipy.linalg, inside the call), so importing the package
    # (every module) does not pay for loading scipy
    code = ("import sys, oseen2d, oseen2d.cli, oseen2d.diagnostics, oseen2d.experiments; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_python(["-c", code], check=True).stdout.strip() == "[]"


def test_list_prints_every_subcommand():
    text = list_mapping()
    for name in EXPERIMENTS:
        assert name in text
    assert "A15" in text


def test_config_file_parsing(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("grid-n = 128\nbox_l = 30.0  # comment\n\n# full comment\nseed = 7\n")
    values = parse_config_file(p)
    assert values == {"grid_n": "128", "box_l": "30.0", "seed": "7"}
    cfg = build_config(values, {})
    assert cfg.grid_n == 128 and cfg.box_l == 30.0 and cfg.seed == 7


def test_config_flag_precedence(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("grid_n = 128\n")
    cfg = build_config(parse_config_file(p), {"grid_n": 64})
    assert cfg.grid_n == 64


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        build_config({"wibble": "3"}, {})
    with pytest.raises(ConfigError):
        build_config({"grid_n": "not-a-number"}, {})


@pytest.mark.parametrize("key", ["alpha", "dt", "box_l", "m"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_rejects_nonfinite_float(key, value):
    # from a config file (strings) and from flags (argparse's floats)
    with pytest.raises(ConfigError):
        build_config({key: value}, {})
    with pytest.raises(ConfigError):
        build_config({}, {key: float(value)})


def test_cli_nonfinite_flag_is_config_error():
    assert main(["spectrum", "--alpha", "nan", "--grid-n", "64",
                 "--basis", "16"]) == 1


@pytest.mark.parametrize("argv", [
    ["spectrum", "--basis", "8", "--grid-n", "64"], ["spectrum", "--grid-n", "0"],
    ["spectrum", "--grid-n", "-4"], ["spectrum", "--grid-n", "63"],
    ["spectrum", "--box-l", "-40"],
    ["commutation", "--seed", "-1", "--grid-n", "16"],
    ["two-vortex", "--epsilon", "-1", "--grid-n", "64"],
    ["two-vortex", "--t0", "-1", "--grid-n", "64"],
    ["s1-decay", "--dt", "-1", "--grid-n", "16"],
    ["semigroup-kernel", "--m", "-1", "--grid-n", "16"],
    ["oseen-exact", "--t-end", "0.001", "--grid-n", "64"]],
    ids=["basis-8", "grid-n-0", "grid-n-neg4", "grid-n-63", "box-l-neg40",
         "seed-neg1", "epsilon-neg1", "t0-neg1", "dt-neg1", "m-neg1",
         "t-end-below-t0"])
def test_cli_out_of_range_is_config_error(argv, capsys):
    # rejected while the config is built, before any experiment runs
    assert main(argv) == 1
    assert "numerical failure" not in capsys.readouterr().err


def test_cli_norm_that_overflows_is_a_numerical_failure():
    # A8's weighted norm at m = 200 overflows on the default box: one stderr
    # line and exit 2, where the norm came back inf with an overflow warning
    # and the run printed FAIL lines with the rate nan and exited 3
    out = run_cli(["s1-decay", "--grid-n", "64", "--m", "200"])
    assert (out.returncode, out.stdout) == (2, "")
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("numerical failure: the L^2 norm with q=2, m=200.0 ")


@pytest.mark.parametrize("alpha, extra", [("5", 3), ("1", 0)])
def test_cli_spectrum_adds_an_alpha_outside_the_pinned_ones(alpha, extra, capsys):
    # A9 solves alpha = 0, 1, 10 and 100, and --alpha adds one more in the
    # same loop, with its three lines last
    assert main(["spectrum", "--grid-n", "64", "--basis", "16",
                 "--alpha", alpha]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10 + extra
    assert all(line.startswith("PASS ") for line in lines)
    assert [line.split()[1] for line in lines[10:]] == [
        f"A9[alpha={alpha}]-{name}"
        for name in ("translation", "multiplicity", "maxreal")][:extra]


def test_cli_missing_config_file():
    assert main(["biot-savart-oracle", "/nonexistent/config"]) == 1


def test_cli_non_utf8_config_file_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_bytes(b"grid_n = 64\n# caf\xe9\n")
    assert main(["biot-savart-oracle", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "file-sub"])
def test_cli_out_not_a_directory_is_config_error(tmp_path, capsys, sub):
    # --out naming an existing file, or a path below one
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = os.path.join(blocker, sub) if sub else str(blocker)
    assert main(["spectrum", "--grid-n", "64", "--basis", "16",
                 "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_cli_unwritable_artifact_is_a_config_error(tmp_path, capsys):
    # the lines of the run still print; then a directory where
    # biot_savart.csv goes is a config error naming the file
    (tmp_path / "biot_savart.csv").mkdir()
    assert main(["biot-savart-oracle", "--grid-n", "64",
                 "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 3 and all(line.startswith(("PASS ", "FAIL ")) for line in lines)
    assert captured.err.startswith("error: cannot write ")
    assert "biot_savart.csv" in captured.err
    # the same path for a file where A7's t_alpha_1/ directory goes
    (tmp_path / "t_alpha_1").write_text("")
    with pytest.raises(ConfigError, match="cannot write .*t_alpha_1"):
        write_artifacts(tmp_path, {"t_alpha_1/series.csv": "t\n"})


def test_cli_out_from_config_file(tmp_path, capsys):
    # out = DIR in a config file writes the artifacts there, and --out
    # overrides it, as for every other key; stdout does not depend on it
    cfg = tmp_path / "cfg"
    cfg.write_text(f"grid_n = 64\nout = {tmp_path / 'file-out'}\n")
    assert main(["commutation", "--grid-n", "64"]) == 0
    no_out = capsys.readouterr().out
    assert main(["commutation", str(cfg)]) == 0
    assert capsys.readouterr().out == no_out
    assert (tmp_path / "file-out" / "manifest.txt").exists()
    (tmp_path / "file-out" / "manifest.txt").unlink()
    assert main(["commutation", str(cfg), "--out", str(tmp_path / "flag-out")]) == 0
    assert capsys.readouterr().out == no_out
    assert (tmp_path / "flag-out" / "manifest.txt").exists()
    assert not (tmp_path / "file-out" / "manifest.txt").exists()


def test_cli_requires_subcommand():
    assert main([]) == 1


def test_cli_unknown_subcommand():
    assert main(["frobnicate"]) == 1


def test_cli_list_exit_zero():
    assert main(["--list"]) == 0


@pytest.mark.parametrize("lines_read", [0, 1])
def test_cli_list_into_closed_pipe(lines_read):
    # `oseen2d --list | head -n 1`: the reader closes the pipe after one line
    # (or, to hit the closed pipe on every write, before the first); the
    # run prints no traceback and exits with its own status, 0 for --list
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    read_end, write_end = os.pipe()
    proc = subprocess.Popen([sys.executable, "-m", "oseen2d.cli", "--list"],
                            stdout=write_end, stderr=subprocess.PIPE, text=True,
                            env=env)
    os.close(write_end)
    with os.fdopen(read_end) as reader:
        lines = [reader.readline() for _ in range(lines_read)]
    stderr = proc.communicate(timeout=120)[1]
    assert lines == list_mapping().splitlines(keepends=True)[:lines_read]
    assert stderr == ""
    assert proc.returncode == 0


def test_cli_end_to_end_and_deterministic(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    args = ["commutation", "--grid-n", "64", "--out"]
    r1 = run_cli(args + [str(out1)])
    r2 = run_cli(args + [str(out2)])
    assert r1.returncode == 0, r1.stdout + r1.stderr
    assert r1.stdout == r2.stdout
    for line in r1.stdout.splitlines():
        assert line.startswith(("PASS", "FAIL"))
        assert len(line.split()) == 4
    m1 = (out1 / "manifest.txt").read_text()
    m2 = (out2 / "manifest.txt").read_text()
    assert m1 == m2
    assert "subcommand = commutation" in m1


def test_cli_artifacts_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = run_cli(["diffuse-localized", "--grid-n", "128", "--out", str(out)])
        assert r.returncode == 0, r.stdout + r.stderr
        outs.append((out / "diffuse_localized.csv").read_bytes())
    assert outs[0] == outs[1]


def test_default_config_values():
    cfg = ExperimentConfig()
    assert cfg.grid_n == 256
    assert cfg.box_l == 40.0
    assert cfg.m == 3.0
    assert cfg.t0 == 1e-2
    assert cfg.seed == 42


@pytest.mark.parametrize("rate, line", [
    (-0.7, "FAIL A3[p=1]-rate -0.7 -0.65"),
    (-0.6, "PASS A3[p=1]-rate -0.6 -0.65"),
    (-0.5, "PASS A3[p=1]-rate -0.5 -0.35"),
    (-0.3, "FAIL A3[p=1]-rate -0.3 -0.35"),
])
def test_rate_band_line_names_the_nearer_end(monkeypatch, rate, line):
    # A3's rate must lie in [-0.65, -0.35]; the line prints the end of the
    # band the rate is nearer to, so a failing line names the end it crossed
    monkeypatch.setattr(experiments, "fit_decay",
                        lambda traj, p, window: SimpleNamespace(rate=rate))
    # dt fits both the drift bound 4h/L = 0.125 and A3's sample spacing 0.1
    cfg = ExperimentConfig(grid_n=32, box_l=30.0, dt=0.1)
    records, _ = experiments.asym_decay(cfg)
    assert [r.line() for r in records if r.criterion == "A3[p=1]-rate"] == [line]
