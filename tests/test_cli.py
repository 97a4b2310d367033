"""Command-line behavior: config parsing, subcommands, exit codes, outputs."""

import json
import math
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import test_sweep as _sweep_tests
from _support import OMEGA_M, base_params
from oemsim import (
    build_diffusion,
    build_drift,
    preset,
    run_sweep,
    solve_lyapunov,
    solve_steady_state,
    sweep,
)
from oemsim.cli import main, params_to_config, parse_config


def write_config(tmp_path, payload, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def fig3_config_dict():
    return params_to_config(preset("fig3").base)


class TestParseConfig:
    def test_full_round_trip(self, tmp_path):
        path = write_config(tmp_path, fig3_config_dict())
        assert parse_config(path) == preset("fig3").base

    def test_ratio_form_equivalence(self, tmp_path):
        payload = fig3_config_dict()
        ratio = dict(payload)
        del ratio["kappa_c"]
        ratio["kappa_c_over_omega_m"] = 0.08
        direct = dict(payload)
        direct["kappa_c"] = 0.08 * payload["omega_m"]
        a = parse_config(write_config(tmp_path, ratio, "a.json"))
        b = parse_config(write_config(tmp_path, direct, "b.json"))
        assert a == b

    def test_missing_file(self, tmp_path):
        from oemsim import ParameterError
        with pytest.raises(ParameterError, match="cannot read"):
            parse_config(tmp_path / "absent.json")

    def test_malformed_json_reports_location(self, tmp_path):
        from oemsim import ParameterError
        path = tmp_path / "broken.json"
        path.write_text('{"omega_m": 1.0,,}')
        with pytest.raises(ParameterError, match="line 1"):
            parse_config(path)

    def test_non_object_rejected(self, tmp_path):
        from oemsim import ParameterError
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ParameterError, match="JSON object"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        from oemsim import ParameterError
        payload = fig3_config_dict()
        payload["omega_n"] = 1.0
        with pytest.raises(ParameterError, match="omega_n"):
            parse_config(write_config(tmp_path, payload))

    def test_both_forms_rejected(self, tmp_path):
        from oemsim import ParameterError
        payload = fig3_config_dict()
        payload["kappa_c_over_omega_m"] = 0.08
        with pytest.raises(ParameterError, match="kappa_c"):
            parse_config(write_config(tmp_path, payload))

    def test_missing_key_rejected(self, tmp_path, capsys):
        from oemsim import ParameterError
        for key in ("mu", "omega_m"):  # omega_m is looked up first: ratios need it
            payload = fig3_config_dict()
            del payload[key]
            path = write_config(tmp_path, payload)
            with pytest.raises(ParameterError, match=f"^missing required key {key}$"):
                parse_config(path)
            assert main(["point", "--params", str(path)]) == 1
            err = capsys.readouterr().err
            assert err == f"parameter error: missing required key {key}\n"

    def test_non_numeric_value_rejected(self, tmp_path):
        from oemsim import ParameterError
        payload = fig3_config_dict()
        payload["mass"] = True
        with pytest.raises(ParameterError, match="mass"):
            parse_config(write_config(tmp_path, payload))

    def test_field_invariants_enforced(self, tmp_path):
        from oemsim import ParameterError
        payload = fig3_config_dict()
        payload["omega_m"] = -1.0
        with pytest.raises(ParameterError, match="omega_m"):
            parse_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("key", ["mass", "g_over_omega_m", "omega_m"])
    def test_oversized_integer_is_parameter_error(self, tmp_path, capsys, key):
        from oemsim import ParameterError
        payload = fig3_config_dict()
        if key == "g_over_omega_m":
            del payload["g"]
        payload[key] = 10 ** 400  # a JSON integer float() cannot hold
        path = write_config(tmp_path, payload)
        with pytest.raises(ParameterError, match=f"^{key} is out of floating"):
            parse_config(path)
        assert main(["point", "--params", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"parameter error: {key} ")


class TestPointCommand:
    def test_preset_point_json(self, capsys):
        assert main(["point", "--preset", "fig3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stable"] is True
        assert payload["x"] == 1.0
        assert payload["delta_c"] == OMEGA_M
        assert set(payload["e_n"]) == {"mr_oc", "mr_mc", "oc_mc", "oc_sba", "oc_scb"}
        assert payload["error"] is None

    def test_params_file_matches_preset(self, tmp_path, capsys):
        main(["point", "--preset", "fig3", "--x", "1.0"])
        via_preset = json.loads(capsys.readouterr().out)
        path = write_config(tmp_path, fig3_config_dict())
        main(["point", "--params", str(path), "--x", "1.0"])
        via_file = json.loads(capsys.readouterr().out)
        assert via_file == via_preset

    def test_pair_selection_and_normalization(self, capsys):
        assert main(["point", "--preset", "fig3", "--pairs", "MR-MC"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["e_n"]) == {"mr_mc"}

    def test_unknown_pair_is_usage_error(self, capsys):
        assert main(["point", "--preset", "fig3", "--pairs", "mr_zz"]) == 1
        assert "usage error" in capsys.readouterr().err
        # a repeated pair too, as in a sweep
        assert main(["point", "--preset", "fig3", "--pairs", "mr_mc,MR-MC"]) == 1
        assert "usage error: duplicate mode pairs" in capsys.readouterr().err
        # and a list that names no pair
        assert main(["point", "--preset", "fig3", "--pairs", ","]) == 1
        assert capsys.readouterr().err == (
            "usage error: --pairs must name at least one mode pair\n")

    def test_unstable_point_is_reported_not_failed(self, capsys):
        assert main(["point", "--preset", "fig2", "--x", "-1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stable"] is False
        assert payload["max_real_part"] > 0.0
        assert all(v is None for v in payload["e_n"].values())

    def test_baseline_block(self, capsys):
        assert main(["point", "--preset", "fig3", "--baseline"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["baseline_e_n"]) == {"mr_oc", "mr_mc", "oc_mc"}

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "point.json"
        assert main(["point", "--preset", "fig3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["stable"] is True

    def test_point_failure_exits_two(self, tmp_path, capsys):
        from oemsim.model import _coherence_coefficients
        seed = base_params(rho_aa0=1.0, rho_cc0=0.0, rho_ca0=0.0,
                           delta_c=0.0, kappa_c=1.0)
        pole = 1j * seed.g * sum(_coherence_coefficients(seed))
        broken = seed.replace(kappa_c=-pole.real, delta_c=-pole.imag)
        path = write_config(tmp_path, params_to_config(broken))
        assert main(["point", "--params", str(path)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] is not None


class TestSweepCommand:
    def test_preset_sweep_writes_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "fig3.csv"
        code = main(["sweep", "--preset", "fig3", "--out", str(out),
                     "--grid", "-0.5", "1.5", "21"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 22
        meta = json.loads((tmp_path / "fig3.csv.meta.json").read_text())
        assert meta["name"] == "fig3"
        assert meta["counts"]["points"] == 21
        assert meta["axis"]["count"] == 21
        assert meta["pairs"] == ["mr_mc"]
        assert meta["tool"]["name"] == "oemsim"

    def test_sidecar_params_round_trip(self, tmp_path):
        out = tmp_path / "fig3.csv"
        main(["sweep", "--preset", "fig3", "--out", str(out),
              "--grid", "0.5", "1.5", "3"])
        meta = json.loads((tmp_path / "fig3.csv.meta.json").read_text())
        echoed = write_config(tmp_path, meta["params"], "echo.json")
        assert parse_config(echoed) == preset("fig3").base

    def test_all_unstable_sweep_exits_two(self, tmp_path, capsys):
        out = tmp_path / "blue.csv"
        code = main(["sweep", "--preset", "fig2", "--out", str(out),
                     "--grid", "-2.0", "-0.5", "9"])
        assert code == 2
        assert "no stable grid point" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert len(lines) == 10  # grid is still fully recorded

    def test_every_point_failing_exits_two(self, tmp_path, capsys):
        # 2n + 1 at 1e300 K overflows the microwave diffusion at every point;
        # no raw numpy warning reaches the user, and each point's record
        # names the non-finite entries and the temperature
        path = write_config(tmp_path, {**fig3_config_dict(), "temperature": 1e300})
        out = tmp_path / "hot.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", "--params", str(path), "--out", str(out),
                         "--grid", "0.5", "1.5", "5"])
            assert code == 2
            assert capsys.readouterr().err == "error: every grid point failed\n"
            assert main(["point", "--params", str(path), "--x", "1.0"]) == 2
        counts = json.loads((tmp_path / "hot.csv.meta.json").read_text())["counts"]
        assert counts == {"points": 5, "stable": 0, "errors": 5}
        assert json.loads(capsys.readouterr().out)["error"] == (
            "diffusion matrix contains non-finite entries: (4, 4) = inf, "
            "(5, 5) = inf; at bath temperature 1e+300 K")

    def test_custom_params_sweep(self, tmp_path):
        path = write_config(tmp_path, fig3_config_dict())
        out = tmp_path / "custom.csv"
        # kappa_c = 0.1 omega_m here, so 8..12 sits inside the stable lobe
        code = main(["sweep", "--params", str(path), "--out", str(out),
                     "--grid", "8.0", "12.0", "5", "--pairs", "mr_mc",
                     "--axis", "delta_c_over_kappa_c"])
        assert code == 0
        meta = json.loads((tmp_path / "custom.csv.meta.json").read_text())
        assert meta["name"] == "custom"
        assert meta["axis"]["label"] == "delta_c_over_kappa_c"
        assert meta["axis"]["scale_rad_per_s"] == preset("fig3").base.kappa_c
        assert meta["baseline"] is False

    @pytest.mark.parametrize("count", ["4.7", "nan", "inf"])
    def test_grid_count_must_be_a_whole_number(self, tmp_path, capsys, count):
        out = tmp_path / "x.csv"
        code = main(["sweep", "--preset", "fig3", "--out", str(out),
                     "--grid", "-0.5", "1.5", count])
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["sweep", "--preset", "fig3", "--out", str(out),
                     "--jobs", "0", "--grid", "0.5", "1.5", "3"])
        assert code == 1
        assert "jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("args, jobs", [
        (["--preset", "fig3", "--grid", "-0.5", "1.5", "21"], ("1", "3", "3")),
        # x = 0 fails the eigenbasis residual check: a direct fallback block
        (["--preset", "fig5"], ("1", "2")),
        # 16 blocks in one model stage, then 63 blocks in four stages
        (["--preset", "fig6a", "--grid", "-2", "2", "1001"], ("1", "2")),
        (["--preset", "fig6a", "--grid", "-2", "2", "4001"], ("1", "2")),
        # the dense atomic traffic: all-stable blocks that are solved whole
        (["--preset", "fig5", "--grid", "0", "100", "8001",
          "--pairs", "mr_oc,mr_mc,oc_mc,oc_sba,oc_scb"], ("1", "2")),
    ], ids=["fig3", "fig5", "fig6a-1001", "fig6a-4001", "fig5-dense"])
    def test_repeat_runs_identical_at_any_parallelism(self, tmp_path, args, jobs):
        outs = []
        for k, j in enumerate(jobs):
            out = tmp_path / f"{k}.csv"
            assert main(["sweep", *args, "--out", str(out), "--jobs", j]) == 0
            meta = tmp_path / f"{k}.csv.meta.json"
            outs.append((out.read_bytes(), meta.read_bytes()))
        assert all(out == outs[0] for out in outs)

    def test_slow_atoms_keep_the_atom_free_columns(self, tmp_path, capsys):
        grid = ["--grid", "-2", "2", "41"]
        fig6a = tmp_path / "fig6a.csv"
        assert main(["sweep", "--preset", "fig6a", *grid, "--out", str(fig6a)]) == 0
        params = json.loads((tmp_path / "fig6a.csv.meta.json").read_text())["params"]
        path = write_config(tmp_path, {**params, "kappa_a": 1e-5})
        slow = tmp_path / "slow.csv"
        # the marginal atoms leave no main point stable, but the CSV is written
        assert main(["sweep", "--params", str(path), *grid, "--baseline",
                     "--out", str(slow)]) == 2
        assert "no stable grid point" in capsys.readouterr().err

        def x_and_baseline(csv_path):  # columns x_value and en_baseline_*
            rows = [line.split(",") for line in csv_path.read_text().splitlines()]
            return [[row[0], *row[9:12]] for row in rows]

        kept = x_and_baseline(fig6a)
        assert kept[0] == ["x_value", "en_baseline_mr_oc", "en_baseline_mr_mc",
                           "en_baseline_oc_mc"]
        assert any(all(cells) for cells in kept[1:])
        assert x_and_baseline(slow) == kept

    def test_sweep_builds_no_point_records(self, tmp_path, monkeypatch):
        built = []
        init = sweep.PointRecord.__init__
        monkeypatch.setattr(sweep.PointRecord, "__init__",
                            lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
        out = tmp_path / "fig3.csv"
        assert main(["sweep", "--preset", "fig3", "--out", str(out)]) == 0
        assert built == []
        records = run_sweep(preset("fig3")).records
        assert len(built) == len(records) == 401  # the counter sees records
        meta = json.loads((tmp_path / "fig3.csv.meta.json").read_text())
        assert meta["counts"] == {
            "points": 401,
            "stable": sum(r.stable is True for r in records),
            "errors": sum(r.error is not None for r in records)}

    @pytest.mark.parametrize("module", ["oemsim", "oemsim.cli", None],
                             ids=["oemsim", "oemsim.cli", "console-script"])
    def test_module_form_runs_the_sweep(self, tmp_path, module):
        # None: the installed console script, or `python -m oemsim` where
        # the package is not installed
        script = shutil.which("oemsim") if module is None else None
        command = [script] if script else [sys.executable, "-m", module or "oemsim"]
        args = ["sweep", "--preset", "fig3", "--grid", "-0.5", "1.5", "21"]
        out = tmp_path / "module.csv"
        proc = subprocess.run([*command, *args, "--out", str(out)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert main(args + ["--out", str(tmp_path / "main.csv")]) == 0
        assert out.read_bytes() == (tmp_path / "main.csv").read_bytes()


class TestUnwritableOutput:
    """An --out path that cannot be written is reported, not raised."""

    @staticmethod
    def assert_reported(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ")
        assert "Traceback" not in err

    def test_sweep(self, tmp_path, capsys, monkeypatch):
        def no_sweep(spec, jobs=1):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr(sweep, "run_sweep", no_sweep)
        out = tmp_path / "missing" / "dir" / "x.csv"
        assert main(["sweep", "--preset", "fig3", "--grid", "0.5", "1.5", "3",
                     "--out", str(out)]) == 1
        self.assert_reported(capsys)

    def test_sweep_sidecar_is_checked_before_the_grid(self, tmp_path, capsys,
                                                      monkeypatch):
        def no_sweep(spec, jobs=1):
            raise AssertionError("the sweep ran before the sidecar was checked")

        monkeypatch.setattr(sweep, "run_sweep", no_sweep)
        out = tmp_path / "x.csv"
        (tmp_path / "x.csv.meta.json").mkdir()
        assert main(["sweep", "--preset", "fig3", "--out", str(out)]) == 1
        self.assert_reported(capsys)
        assert not out.exists()

    def test_failed_write_leaves_neither_file_behind(self, tmp_path, capsys,
                                                     monkeypatch):
        def full_disk(result, path):
            raise OSError("no space left on device")

        monkeypatch.setattr(sweep, "write_csv", full_disk)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--preset", "fig3", "--grid", "0.5", "1.5", "3",
                     "--out", str(out)]) == 1
        self.assert_reported(capsys)
        assert sorted(tmp_path.iterdir()) == []

    def test_failed_sweep_leaves_no_csv_behind(self, tmp_path, capsys):
        # run_sweep rejects --jobs 0, after --out has been checked
        out = tmp_path / "x.csv"
        args = ["sweep", "--preset", "fig3", "--grid", "0.5", "1.5", "3",
                "--jobs", "0"]
        assert main(args + ["--out", str(out)]) == 1
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()
        out.write_text("earlier output\n")  # an existing file is left as it was
        assert main(args + ["--out", str(out)]) == 1
        assert out.read_text() == "earlier output\n"

    def test_point(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["point", "--preset", "fig3", "--out", str(out)]) == 1
        self.assert_reported(capsys)
        assert not out.parent.exists()

    def test_dump_matrices(self, tmp_path, capsys):
        plain = tmp_path / "plain"
        plain.write_text("")
        assert main(["dump-matrices", "--preset", "fig3",
                     "--out", str(plain / "sub")]) == 1
        self.assert_reported(capsys)


class TestOtherCommands:
    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig6c"):
            assert name in out

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_stdout_exits_without_traceback(self, monkeypatch, unbuffered):
        # the read end is closed before the child has imported oemsim, so
        # the listing meets a broken pipe: in print when stdout is
        # unbuffered, in the last flush when it is not
        monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        proc = subprocess.Popen(
            [sys.executable, "-c", "from oemsim.cli import entry; entry()", "presets"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 1
        assert stderr == ""

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "oemsim" in capsys.readouterr().out

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_source_is_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path / "x.csv")]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_dump_matrices_stable_point(self, tmp_path):
        out = tmp_path / "mats"
        assert main(["dump-matrices", "--preset", "fig3", "--out", str(out)]) == 0
        drift = np.loadtxt(out / "drift.csv", delimiter=",")
        diffusion = np.loadtxt(out / "diffusion.csv", delimiter=",")
        cov = np.loadtxt(out / "covariance.csv", delimiter=",")
        params = preset("fig3").base
        ss = solve_steady_state(params)
        assert np.array_equal(drift, build_drift(params, ss))
        assert np.array_equal(diffusion, build_diffusion(params))
        assert cov.shape == (10, 10)
        assert np.array_equal(cov, cov.T)
        assert np.array_equal(cov, solve_lyapunov(drift, diffusion))

    def test_dump_matrices_at_a_pole_exits_two(self, tmp_path, capsys):
        spec = _sweep_tests.TestBlockEngine.mixed_spec()
        pole = spec.base.replace(delta_c=1.0 * spec.axis_scale)  # its x = 1
        path = write_config(tmp_path, params_to_config(pole))
        out = tmp_path / "mats"
        assert main(["dump-matrices", "--params", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: optical response has a pole at these parameters\n")
        assert list(out.iterdir()) == []

    def test_dump_matrices_unstable_point(self, tmp_path, capsys):
        out = tmp_path / "mats"
        code = main(["dump-matrices", "--preset", "fig2", "--x", "-1.0",
                     "--out", str(out)])
        assert code == 2
        assert "unstable" in capsys.readouterr().err
        assert (out / "drift.csv").exists()
        assert (out / "diffusion.csv").exists()
        assert not (out / "covariance.csv").exists()
