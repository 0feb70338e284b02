"""Command-line interface: outputs, sidecar files, exit codes, determinism."""

import json
import math
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from periorbit import cli

RESONANT = """\
omega = 2*pi/3
p = 0
q = 18/5
b = 1+2*cos(3*t)
c = 1
e = 1
rho1 = 3/2
rho2 = 13/10
"""

BAD_C = """\
omega = 2*pi/3
p = 0
q = 1/40
b = 1+2*cos(3*t)
c = cos(3*t)
e = 10+cos(3*t)
rho1 = 3/2
rho2 = 13/10
"""

# l = q (1 + rho1) = 4 is constant, but xi = 2 exceeds pi/omega = 3/2, so
# the closed form is not positive and the numeric construction applies
ABOVE_HALF_PERIOD = """\
omega = 2*pi/3
p = 0
q = 8/5
b = 1+2*cos(3*t)
c = 1
e = 1
rho1 = 3/2
rho2 = 13/10
"""

MERGED_NONNEG = """\
omega = 2*pi/3
p = 0
q = 1/40
b = 2+cos(3*t)
c = exp(2*sin(3*t))
e = 10+cos(3*t)
rho1 = 3/2
rho2 = 3/2
"""


@pytest.fixture(autouse=True)
def _isolated_out(tmp_path, monkeypatch):
    monkeypatch.setenv("PERIORBIT_OUT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_check_bundled_text_report(tmp_path, capsys):
    code = cli.main(["check", "example41"])
    out = capsys.readouterr().out
    assert code == 0
    assert "theorem: T3.1" in out
    assert "verdict: TRUE" in out
    assert "[computed]" in out and "[reported]" in out
    assert "positivity source: closed-form" in out
    cert_path = tmp_path / "example41.certificate.json"
    assert cert_path.exists()
    doc = json.loads(cert_path.read_text())
    assert doc["theorem"] == "T3.1"
    assert doc["verdict"] is True
    assert doc["instance"]["name"] == "example41"
    assert doc["computed"]["checks"]["H1"]["ok"] is True


def test_check_json_flag_both_positions(tmp_path, capsys):
    code = cli.main(["--out", str(tmp_path / "d1"), "check", "example42", "--json"])
    first = capsys.readouterr().out
    assert code == 0
    doc = json.loads(first)
    assert doc["theorem"] == "T3.2"
    code = cli.main(["check", "example42", "--json", "--out", str(tmp_path / "d2")])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second
    assert (tmp_path / "d1" / "example42.certificate.json").exists()
    assert (tmp_path / "d2" / "example42.certificate.json").exists()


def test_check_missing_file_exit_2(capsys):
    code = cli.main(["check", "no_such_instance"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no such file" in err


def test_check_invalid_problem_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.problem"
    bad.write_text(BAD_C)
    code = cli.main(["check", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "c must be positive" in err


def test_check_resonant_instance_exit_1(tmp_path, capsys):
    res = tmp_path / "resonant.problem"
    res.write_text(RESONANT)
    code = cli.main(["check", str(res)])
    out = capsys.readouterr().out
    assert code == 1
    assert "theorem: NONE" in out
    assert "resonance" in out


def test_check_merged_nonnegative_instance(tmp_path, capsys):
    f = tmp_path / "merged.problem"
    f.write_text(MERGED_NONNEG)
    code = cli.main(["check", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert "theorem: T3.3-I" in out
    assert "CASE_I" in out


def test_greens_grid_and_csv(tmp_path, capsys):
    code = cli.main(["greens", "example41", "--n", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rows = 2601" in out
    assert "source = closed-form" in out
    csv_path = tmp_path / "example41.greens.csv"
    lines = csv_path.read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#")]
    assert data[0] == "t,s,G,Gt"
    assert len(data) == 1 + 2601
    # all kernel values on the grid are positive for this instance
    g_col = [float(l.split(",")[2]) for l in data[1:]]
    assert min(g_col) > 0.0


def test_greens_and_check_choose_the_same_kernel(tmp_path, capsys):
    f = tmp_path / "above.problem"
    f.write_text(ABOVE_HALF_PERIOD)
    assert cli.main(["greens", str(f), "--n", "20"]) == 0
    assert "source = numeric" in capsys.readouterr().out
    cli.main(["check", str(f)])
    assert "kernel: numeric" in capsys.readouterr().out


def test_greens_resonant_exit_1(tmp_path, capsys):
    res = tmp_path / "resonant.problem"
    res.write_text(RESONANT)
    code = cli.main(["greens", str(res)])
    err = capsys.readouterr().err
    assert code == 1
    assert "resonance" in err


def test_solve_outputs_and_determinism(tmp_path, capsys):
    code = cli.main(["solve", "example41", "--json", "--svg",
                     "--out", str(tmp_path / "r1")])
    out1 = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out1)
    assert abs(doc["x0"] - 399.93134103492781) <= 1e-6 * 400.0
    assert doc["periodicity_residual"] <= 1e-8
    assert doc["min_x"] > 0.0

    code = cli.main(["solve", "example41", "--json", "--svg",
                     "--out", str(tmp_path / "r2")])
    out2 = capsys.readouterr().out
    assert code == 0
    assert out1 == out2  # byte-identical reruns

    csv1 = (tmp_path / "r1" / "example41.orbit.csv").read_bytes()
    csv2 = (tmp_path / "r2" / "example41.orbit.csv").read_bytes()
    assert csv1 == csv2
    data = [l for l in csv1.decode().splitlines()
            if l and not l.startswith("#")]
    assert data[0] == "t,x,v"
    assert len(data) == 1 + 2049

    for name, n_poly in (("example41.phase.svg", 1),
                         ("example41.timeseries.svg", 2)):
        text = (tmp_path / "r1" / name).read_text()
        ET.fromstring(text)  # well-formed XML
        assert text.count("<polyline") == n_poly


def test_solve_subfloor_guess_exit_1(capsys):
    code = cli.main(["solve", "example41", "--x0", "1e-9"])
    err = capsys.readouterr().err
    assert code == 1
    assert "singularity" in err


def test_solve_respects_tol_flag(tmp_path, capsys):
    code = cli.main(["--tol", "1e-6", "solve", "example41", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["tol"] == 1e-6


def test_reproduce_single_instance(tmp_path, capsys):
    code = cli.main(["reproduce", "4.3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[4.3] PASS" in out
    assert "ALL PASS" in out
    # positive-part mean appears with its closed-form reference value
    assert "1.2179955620884" in out
    doc = json.loads((tmp_path / "reproduce.json").read_text())
    assert doc["4.3"]["pass"] is True
    assert doc["4.3"]["theorem"] == "T3.3-II"
    assert set(doc) == {"4.3"}


def test_reproduce_all_prints_both_slope_constants(tmp_path, capsys):
    code = cli.main(["reproduce", "all"])
    out = capsys.readouterr().out
    assert code == 0
    for key in ("4.1", "4.2", "4.3"):
        assert f"[{key}] PASS" in out
    assert "ALL PASS" in out
    # computed slope maximum and the alternative reported constant
    assert "slope max computed 0.5 reference 0.25881904510252079" in out
    doc = json.loads((tmp_path / "reproduce.json").read_text())
    assert set(doc) == {"4.1", "4.2", "4.3"}
    assert all(doc[k]["pass"] for k in doc)


def test_reproduce_rejects_unknown_id():
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "9.9"])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("periorbit")
    assert exe is not None, "console script should be installed"
    proc = subprocess.run(
        [exe, "check", "example41"], capture_output=True, text=True,
        env={"PATH": "/usr/bin:/usr/local/bin", "PERIORBIT_OUT": str(tmp_path)},
    )
    assert proc.returncode == 0
    assert "verdict: TRUE" in proc.stdout
