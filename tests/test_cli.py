import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from lrmor import (gen_fd_laplacian, read_dense, read_grid_csv, read_matrix,
                   write_matrix)
from lrmor.cli import main

from conftest import unstable_fd_system

ROM_FILES = ["rom_A.mtx", "rom_B.mtx", "rom_C.mtx", "rom_D.mtx", "rom_E.mtx"]


def write_plain_files(path, grid=5, e=False):
    """Write an FD model as A/B/C (and a diagonal E) files; return the
    matching CLI flags."""
    fd = gen_fd_laplacian(grid)
    flags = []
    mats = {"a": fd.a, "b": fd.b, "c": fd.c}
    if e:
        mats["e"] = sp.diags(1.0 + np.arange(fd.order) / fd.order)
    for x, m in mats.items():
        write_matrix(path / f"{x.upper()}.mtx", m)
        flags += [f"--{x}-file", str(path / f"{x.upper()}.mtx")]
    return flags


def listing(path):
    return sorted(p.name for p in path.iterdir())


class TestLyapCommand:
    def test_demo_fd(self, tmp_path, capsys):
        code = main(["lyap", "--demo-fd", "10", "--tol", "1e-10",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "final relative residual" in out
        final = float(out.split("final relative residual:")[1].split()[0])
        assert final <= 1e-10
        assert (tmp_path / "Z.mtx").exists()
        report = (tmp_path / "lyap_report.txt").read_text()
        assert "relative residual history" in report

    def test_file_inputs(self, tmp_path):
        from lrmor import gen_fd_laplacian
        fd = gen_fd_laplacian(5)
        write_matrix(tmp_path / "A.mtx", fd.a)
        write_matrix(tmp_path / "B.mtx", fd.b)
        write_matrix(tmp_path / "C.mtx", fd.c)
        code = main(["lyap", "--a-file", str(tmp_path / "A.mtx"),
                     "--b-file", str(tmp_path / "B.mtx"),
                     "--c-file", str(tmp_path / "C.mtx"),
                     "--out", str(tmp_path / "run")])
        assert code == 0

    def test_e_file_input(self, tmp_path):
        flags = write_plain_files(tmp_path, e=True)
        code = main(["lyap"] + flags + ["--out", str(tmp_path / "run")])
        assert code == 0
        assert listing(tmp_path / "run") == ["Z.mtx", "lyap_report.txt"]

    def test_side_t(self, tmp_path):
        code = main(["lyap", "--demo-fd", "5", "--side", "T",
                     "--out", str(tmp_path)])
        assert code == 0
        assert listing(tmp_path) == ["Z.mtx", "lyap_report.txt"]
        report = (tmp_path / "lyap_report.txt").read_text()
        assert report.startswith("equation side: T\n")
        assert read_dense(tmp_path / "Z.mtx").shape[0] == 25

    def test_missing_file_exits_1(self, tmp_path):
        code = main(["lyap", "--a-file", "nope.mtx", "--b-file", "b.mtx",
                     "--c-file", "c.mtx", "--out", str(tmp_path)])
        assert code == 1

    def test_numerical_failure_exits_2(self, tmp_path):
        # unstable scalar model: the stable shift hits the eigenvalue
        write_matrix(tmp_path / "A.mtx", np.array([[1.0]]))
        write_matrix(tmp_path / "B.mtx", np.array([[1.0]]))
        write_matrix(tmp_path / "C.mtx", np.array([[1.0]]))
        code = main(["lyap", "--a-file", str(tmp_path / "A.mtx"),
                     "--b-file", str(tmp_path / "B.mtx"),
                     "--c-file", str(tmp_path / "C.mtx"),
                     "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("command", ["lyap", "care"])
    def test_divergence_exits_2(self, tmp_path, command):
        sys_, flags = unstable_fd_system(), []
        for x, m in (("a", sys_.a), ("b", sys_.b), ("c", sys_.c)):
            write_matrix(tmp_path / f"{x}.mtx", m)
            flags += [f"--{x}-file", str(tmp_path / f"{x}.mtx")]
        assert main([command, *flags, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command, method", [("lyap", "ADI"),
                                                 ("care", "RADI")])
    def test_unmet_tolerance_exits_2(self, tmp_path, capsys, command,
                                     method):
        code = main([command, "--demo-fd", "5", "--tol", "1e-300",
                     "--out", str(tmp_path)])
        assert code == 2
        assert f"numerical failure: {method} iteration did not converge" \
            in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["bogus"]) == 1

    def test_bad_flag_value(self):
        assert main(["lyap", "--demo-fd", "ten"]) == 1

    @pytest.mark.parametrize("command", ["lyap", "care"])
    def test_nan_tolerance(self, command):
        # a usage error, not a run that cannot converge (exit code 2)
        assert main([command, "--demo-fd", "5", "--tol", "nan"]) == 1

    def test_bad_range(self):
        assert main(["sigma-grid", "--mu-range", "5"]) == 1

    @pytest.mark.parametrize("bounds", ["2:1", "0:1"])
    def test_range_needs_0_lt_lo_lt_hi(self, capsys, bounds):
        assert main(["sigma-grid", "--mu-range", bounds]) == 1
        assert "need 0 < lo < hi" in capsys.readouterr().err

    def test_help_exits_0(self):
        assert main(["--help"]) == 0

    def test_bt_needs_mode(self, tmp_path):
        code = main(["bt", "--demo-fd", "5", "--out", str(tmp_path)])
        assert code == 1

    def test_plain_input_needs_c_file(self, tmp_path, capsys):
        flags = write_plain_files(tmp_path)[:4]  # --a-file, --b-file only
        code = main(["lyap"] + flags + ["--out", str(tmp_path / "run")])
        assert code == 1
        assert "--c-file" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_affine_input_needs_a1_file(self, tmp_path, capsys):
        bench = tmp_path / "bench"
        assert main(["gen-bench", "--model", "thermal", "--grid", "8",
                     "--out", str(bench)]) == 0
        code = main(["pmor-interp",
                     "--a0-file", str(bench / "A0.mtx"),
                     "--b-file", str(bench / "B.mtx"),
                     "--c-file", str(bench / "C.mtx"),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert "--a1-file" in err and "--a0-file" not in err
        assert not (tmp_path / "run").exists()

    def test_affine_input_a1_of_wrong_order(self, tmp_path, capsys):
        bench = tmp_path / "bench"
        assert main(["gen-bench", "--model", "thermal", "--grid", "8",
                     "--out", str(bench)]) == 0
        write_matrix(bench / "A1.mtx", sp.identity(3, format="csr"))
        code = main(["pmor-interp",
                     "--a0-file", str(bench / "A0.mtx"),
                     "--a1-file", str(bench / "A1.mtx"),
                     "--b-file", str(bench / "B.mtx"),
                     "--c-file", str(bench / "C.mtx"),
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert "A1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_sigma_grid_files_need_b_file(self, tmp_path, capsys):
        flags = write_plain_files(tmp_path)
        del flags[2:4]  # drop --b-file
        code = main(["sigma-grid"] + flags + ["--out", str(tmp_path / "run")])
        assert code == 1
        assert "--b-file" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_care_numerical_failure_exits_2(self, tmp_path):
        # unstable scalar model: the stable shift hits the eigenvalue
        for name in ("A", "B", "C"):
            write_matrix(tmp_path / f"{name}.mtx", np.array([[1.0]]))
        code = main(["care", "--a-file", str(tmp_path / "A.mtx"),
                     "--b-file", str(tmp_path / "B.mtx"),
                     "--c-file", str(tmp_path / "C.mtx"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert listing(tmp_path / "run") == []


class TestPipelines:
    def test_gen_bench_fd(self, tmp_path):
        assert main(["gen-bench", "--model", "fd", "--grid", "6",
                     "--out", str(tmp_path)]) == 0
        a = read_matrix(tmp_path / "A.mtx")
        assert a.shape == (36, 36)

    def test_gen_bench_thermal(self, tmp_path):
        assert main(["gen-bench", "--model", "thermal", "--grid", "8",
                     "--out", str(tmp_path)]) == 0
        for name in ("A0.mtx", "A1.mtx", "B.mtx", "C.mtx"):
            assert (tmp_path / name).exists()
        assert read_dense(tmp_path / "C.mtx").shape == (4, 64)

    def test_care_demo(self, tmp_path, capsys):
        code = main(["care", "--demo-fd", "7", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "K.mtx").exists()
        final = float(capsys.readouterr().out.split(
            "final relative residual:")[1].split()[0])
        assert final <= 1e-9

    def test_care_side_n(self, tmp_path):
        code = main(["care", "--demo-fd", "5", "--side", "N",
                     "--out", str(tmp_path)])
        assert code == 0
        assert listing(tmp_path) == ["K.mtx", "Z.mtx", "care_report.txt"]
        assert (tmp_path / "care_report.txt").read_text().startswith(
            "equation side: N\n")

    def test_file_inputs(self, tmp_path):
        flags = write_plain_files(tmp_path)
        runs = {"care": ([], ["K.mtx", "Z.mtx", "care_report.txt"]),
                "bt": (["--order", "3"],
                       ["bt_report.txt", "hsv.mtx"] + ROM_FILES),
                "irka": (["--order", "2"], ["irka_report.txt"] + ROM_FILES)}
        for cmd, (extra, files) in runs.items():
            out = tmp_path / cmd
            assert main([cmd] + flags + extra + ["--out", str(out)]) == 0
            assert listing(out) == files

    def test_bt_demo(self, tmp_path):
        code = main(["bt", "--demo-fd", "7", "--order", "8",
                     "--out", str(tmp_path)])
        assert code == 0
        assert read_dense(tmp_path / "rom_A.mtx").shape == (8, 8)
        assert (tmp_path / "hsv.mtx").exists()

    def test_irka_demo(self, tmp_path):
        code = main(["irka", "--demo-fd", "7", "--order", "4",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "interpolation points" in \
            (tmp_path / "irka_report.txt").read_text()

    def test_pmor_piecewise(self, tmp_path):
        code = main(["pmor-piecewise", "--grid", "10", "--samples", "4",
                     "--method", "bt-tol", "--tol", "1e-4", "--one-sided",
                     "--trunc-tol", "1e-6", "--grid-points", "6",
                     "--out", str(tmp_path)])
        assert code == 0
        grid = read_grid_csv(tmp_path / "error_grid.csv")
        assert grid.values.shape == (6, 6)
        report = (tmp_path / "pmor_piecewise_report.txt").read_text()
        assert "local order" in report and "rank truncation" in report

    def test_pmor_interp_lagrange(self, tmp_path):
        code = main(["pmor-interp", "--grid", "10", "--samples", "10",
                     "--basis", "lagrange", "--grid-points", "5",
                     "--out", str(tmp_path)])
        assert code == 0
        grid = read_grid_csv(tmp_path / "error_grid.csv")
        assert grid.values.shape == (5, 5)
        assert np.isfinite(grid.values).any()

    def test_sigma_grid_cmd(self, tmp_path):
        code = main(["sigma-grid", "--model", "thermal", "--grid", "8",
                     "--samples", "5", "--out", str(tmp_path)])
        assert code == 0
        grid = read_grid_csv(tmp_path / "sigma_grid.csv")
        assert grid.values.shape == (5, 5)

    def test_sigma_grid_mu_range(self, tmp_path):
        code = main(["sigma-grid", "--model", "thermal", "--grid", "8",
                     "--samples", "3", "--mu-range", "1e-3:1e1",
                     "--out", str(tmp_path)])
        assert code == 0
        grid = read_grid_csv(tmp_path / "sigma_grid.csv")
        assert grid.mus[0] == 1e-3
        assert grid.values.shape == (3, 3)

    def test_pmor_from_affine_files(self, tmp_path):
        bench = tmp_path / "bench"
        assert main(["gen-bench", "--model", "thermal", "--grid", "8",
                     "--out", str(bench)]) == 0
        code = main(["pmor-interp",
                     "--a0-file", str(bench / "A0.mtx"),
                     "--a1-file", str(bench / "A1.mtx"),
                     "--b-file", str(bench / "B.mtx"),
                     "--c-file", str(bench / "C.mtx"),
                     "--samples", "4", "--grid-points", "4",
                     "--out", str(tmp_path / "run")])
        assert code == 0
        grid = read_grid_csv(tmp_path / "run" / "error_grid.csv")
        assert grid.values.shape == (4, 4)
        # gen-bench wrote exactly the model the built-in run reduces
        assert main(["pmor-interp", "--grid", "8", "--samples", "4",
                     "--grid-points", "4", "--out", str(tmp_path / "own")]) \
            == 0
        own = read_grid_csv(tmp_path / "own" / "error_grid.csv")
        np.testing.assert_array_equal(grid.values, own.values)

    def test_pmor_piecewise_from_affine_files(self, tmp_path):
        bench = tmp_path / "bench"
        assert main(["gen-bench", "--model", "thermal", "--grid", "8",
                     "--out", str(bench)]) == 0
        code = main(["pmor-piecewise",
                     "--a0-file", str(bench / "A0.mtx"),
                     "--a1-file", str(bench / "A1.mtx"),
                     "--b-file", str(bench / "B.mtx"),
                     "--c-file", str(bench / "C.mtx"),
                     "--samples", "4", "--grid-points", "4",
                     "--out", str(tmp_path / "run")])
        assert code == 0
        assert listing(tmp_path / "run") == ["error_grid.csv",
                                             "pmor_piecewise_report.txt"]
        grid = read_grid_csv(tmp_path / "run" / "error_grid.csv")
        assert grid.values.shape == (4, 4)
        # gen-bench wrote exactly the model the built-in run reduces
        assert main(["pmor-piecewise", "--grid", "8", "--samples", "4",
                     "--grid-points", "4", "--out", str(tmp_path / "own")]) \
            == 0
        own = read_grid_csv(tmp_path / "own" / "error_grid.csv")
        np.testing.assert_array_equal(grid.values, own.values)

    def test_sigma_grid_fd_model(self, tmp_path):
        code = main(["sigma-grid", "--model", "fd", "--grid", "6",
                     "--samples", "4", "--out", str(tmp_path)])
        assert code == 0
        assert listing(tmp_path) == ["sigma_grid.csv"]
        grid = read_grid_csv(tmp_path / "sigma_grid.csv")
        assert grid.values.shape == (1, 4)

    def test_sigma_grid_from_files(self, tmp_path):
        from lrmor import gen_fd_laplacian
        fd = gen_fd_laplacian(4)
        write_matrix(tmp_path / "A.mtx", fd.a)
        write_matrix(tmp_path / "B.mtx", fd.b)
        write_matrix(tmp_path / "C.mtx", fd.c)
        code = main(["sigma-grid", "--a-file", str(tmp_path / "A.mtx"),
                     "--b-file", str(tmp_path / "B.mtx"),
                     "--c-file", str(tmp_path / "C.mtx"),
                     "--samples", "4", "--out", str(tmp_path / "run")])
        assert code == 0
        grid = read_grid_csv(tmp_path / "run" / "sigma_grid.csv")
        assert grid.values.shape == (1, 4)


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lrmor.cli", "lyap", "--demo-fd", "5",
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "final relative residual" in proc.stdout
