import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from l1sos import from_json_dict, parse_text, sdp, to_text, verify
from l1sos.approx import ApproximationResult, SosCertificate, motzkin_like
from l1sos.cli import main
from l1sos.moment import MomentVector, enumerate_basis

from conftest import near_motzkin


@pytest.fixture()
def motzkin_file(tmp_path):
    path = tmp_path / "motzkin.txt"
    path.write_text(to_text(motzkin_like()))
    return path


def result_from_json(data) -> ApproximationResult:
    basis = enumerate_basis(data["y_star"]["n"], data["y_star"]["degree"])
    cert = data["certificate"]
    return ApproximationResult(
        lam=np.array(data["lambda"]),
        rho=data["rho"],
        g=from_json_dict(data["g"]),
        y_star=MomentVector(basis, np.array(data["y_star"]["values"])),
        gram=np.array(data["gram"]),
        certificate=SosCertificate(
            tuple(from_json_dict(q) for q in cert["squares"]),
            tuple(cert["weights"]),
            cert["residual"],
        ),
        solver=None,
    )


class TestApproxCommand:
    def test_table_output(self, motzkin_file, capsys):
        assert main(["approx", "--input", str(motzkin_file), "--degree", "3"]) == 0
        out = capsys.readouterr().out
        assert "rho_d" in out
        assert "1.6178e-02" in out

    def test_json_round_trip(self, motzkin_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["approx", "--input", str(motzkin_file), "--degree", "3",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert list(data.keys()) == [
            "command", "d", "lambda", "rho", "g", "y_star", "gram",
            "certificate", "solver_report",
        ]
        assert data["solver_report"]["status"] == "optimal"
        # Re-parse the emitted result and re-run every verification check.
        res = result_from_json(data)
        assert verify(res, parse_text(motzkin_file.read_text()), 3).all_passed

    def test_byte_identical_output(self, motzkin_file, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(
                ["approx", "--input", str(motzkin_file), "--degree", "3",
                 "--format", "json", "--out", str(p)]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_input_accepted(self, tmp_path, capsys):
        path = tmp_path / "poly.json"
        path.write_text('{"n": 1, "terms": [{"c": 1.0, "e": [2]}, {"c": 1.0, "e": [0]}]}')
        assert main(["approx", "--input", str(path), "--degree", "1"]) == 0


class TestCheckSosCommand:
    def test_sos_verdict(self, tmp_path, capsys):
        path = tmp_path / "sq.txt"
        path.write_text("1.0 2\n1.0 0\n")  # x^2 + 1, headerless single-variable form
        assert main(["check-sos", "--input", str(path), "--degree", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("SOS")
        assert "^2" in out  # certificate squares printed

    def test_not_sos_verdict(self, motzkin_file, capsys):
        assert main(["check-sos", "--input", str(motzkin_file), "--degree", "3"]) == 0
        out = capsys.readouterr().out
        assert "not SOS" in out

    def test_json_fields(self, motzkin_file, tmp_path):
        out = tmp_path / "check.json"
        main(["check-sos", "--input", str(motzkin_file), "--degree", "3",
              "--format", "json", "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["is_sos"] is False
        assert data["certificate"] is None
        assert data["witness"]["riesz_value"] < -1e-9

    def test_undecidable_input_refused(self, tmp_path, capsys):
        # Motzkin-like + (1 - 1e-5) eps (1 + x1^6 + x2^6) lies too close to
        # the SOS cone to decide: no verdict is printed and no report is
        # written.
        path = tmp_path / "near.txt"
        path.write_text(to_text(near_motzkin(1.0 - 1e-5)))
        out = tmp_path / "check.json"
        code = main(["check-sos", "--input", str(path), "--degree", "3",
                     "--format", "json", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "witness value negative" in captured.err
        assert not out.exists()


class TestBaselineCommand:
    def test_negative_square(self, tmp_path, capsys):
        path = tmp_path / "neg.txt"
        path.write_text("n 1\n-1.0 2\n")
        assert main(["baseline", "--input", str(path), "--degree", "1"]) == 0
        out = capsys.readouterr().out
        assert "epsilon* = 1.000000e+00" in out

    def test_json(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("n 1\n-1.0 2\n")
        out = tmp_path / "base.json"
        main(["baseline", "--input", str(path), "--degree", "1",
              "--format", "json", "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["epsilon"] == pytest.approx(1.0, abs=1e-6)

    def test_refused_result_exit_code(self, tmp_path, capsys):
        # The tied solve of 1e-6 times Motzkin-like fails the zero duality
        # gap check, so nothing is printed.
        path = tmp_path / "small.txt"
        path.write_text(to_text(1e-6 * motzkin_like()))
        assert main(["baseline", "--input", str(path), "--degree", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "zero duality gap" in captured.err


class TestReproduceTable1:
    def test_three_rows(self, capsys):
        assert main(["reproduce-table1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4  # header + d = 3, 4, 5
        for line, d in zip(out[1:], (3, 4, 5)):
            assert line.strip().startswith(str(d))
        assert "1.6178e-02" in out[1]
        assert "2.1104e-03" in out[2]
        assert "8.7119e-05" in out[3]

    def test_json_rows(self, tmp_path):
        out = tmp_path / "table.json"
        main(["reproduce-table1", "--format", "json", "--out", str(out)])
        data = json.loads(out.read_text())
        assert [row["d"] for row in data["rows"]] == [3, 4, 5]
        assert data["rows"][0]["rho"] == pytest.approx(1.6e-2, rel=0.05)


class TestErrorPaths:
    def test_missing_file(self, capsys):
        assert main(["approx", "--input", "nowhere.txt", "--degree", "3"]) == 1
        assert "cannot read input" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("n 1\n1.0 2\n2.0 2\n")
        assert main(["approx", "--input", str(path), "--degree", "1"]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_nonfinite_coefficient(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("nan 2 0\n1.0 0 0\n")
        assert main(["check-sos", "--input", str(path), "--degree", "1"]) == 1
        assert "line 1: non-finite coefficient" in capsys.readouterr().err

    @pytest.mark.parametrize("entry,message", [
        ('{"c": null, "e": [2]}', "bad coefficient None (term 1)"),
        ('{"c": "abc", "e": [2]}', "bad coefficient 'abc' (term 1)"),
        ('{"c": 1.0, "e": [2.5]}', "bad exponent 2.5 (term 1)"),
    ], ids=["null_coefficient", "string_coefficient", "fractional_exponent"])
    def test_malformed_json_term_names_it(self, tmp_path, capsys, entry, message):
        # A null coefficient used to end in a TypeError traceback, a string
        # in an "invalid input" without the term, and a fractional exponent
        # was truncated and solved.
        path = tmp_path / "bad.json"
        path.write_text(f'{{"n": 1, "terms": [{{"c": 1.0, "e": [0]}}, {entry}]}}')
        assert main(["approx", "--input", str(path), "--degree", "1"]) == 1
        assert capsys.readouterr().err == f"l1sos: parse error: {message}\n"

    def test_unwritable_output(self, motzkin_file, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code = main(["approx", "--input", str(motzkin_file), "--degree", "3",
                     "--out", str(out)])
        assert code == 1
        assert "cannot write output" in capsys.readouterr().err

    def test_degree_too_small(self, motzkin_file, capsys):
        assert main(["approx", "--input", str(motzkin_file), "--degree", "1"]) == 1
        assert "degree bound too small" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_command(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize("flag,value", [
        ("--degree", "0"),
    ])
    def test_invalid_flag(self, motzkin_file, capsys, flag, value):
        code = main(["approx", "--input", str(motzkin_file), "--degree", "3", flag, value])
        assert code == 1
        assert flag in capsys.readouterr().err

    def test_solver_failure_exit_code(self, monkeypatch, motzkin_file, capsys):
        monkeypatch.setattr(sdp, "_MAX_ITER", 2)
        code = main(["approx", "--input", str(motzkin_file), "--degree", "3"])
        assert code == 2
        assert "solver failure" in capsys.readouterr().err


def test_runtime_needs_no_scipy(motzkin_file):
    """Neither importing the package nor running the CLI loads scipy."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import l1sos, l1sos.cli\n"
        "assert 'scipy' not in sys.modules, 'import l1sos loaded scipy'\n"
        f"assert l1sos.cli.main(['approx', '--input', {str(motzkin_file)!r}, '--degree', '3']) == 0\n"
        "assert 'scipy' not in sys.modules, 'l1sos approx loaded scipy'\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
