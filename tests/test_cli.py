import json
import math
from pathlib import Path

import pytest

from branchedham import classical, cli, quantum
from branchedham.cli import DEFAULT_CONFIGS, FIELDS, main, run, validate_config
from branchedham.errors import EmptyDatasetError, ValidationError
from branchedham.svg import PlotStyle, Series, render_svg

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def load_fixture(name):
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def assert_rejected(tmp_path, capsys, fixture, change, path):
    """The fixture with `change` applied exits 2, names `path`, writes nothing."""
    cfg = load_fixture(fixture)
    cfg.update(change)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([cfg["command"], "--config", str(cfg_path), "--out", str(out)]) == 2
    assert path in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


class TestValidation:
    def test_unknown_top_level_field(self):
        cfg = {"command": "branches", "frobnicate": 1}
        with pytest.raises(ValidationError, match="unknown fields"):
            validate_config(cfg)

    def test_unknown_command(self):
        with pytest.raises(ValidationError, match="command"):
            validate_config({"command": "simulate"})

    def test_bad_model(self):
        with pytest.raises(ValidationError, match="model"):
            validate_config({"command": "branches", "model": {"kind": "x"}})

    def test_quantum_needs_bracket_or_scan(self):
        with pytest.raises(ValidationError):
            validate_config({"command": "quantum", "model": {"kind": "susy"}})

    def test_fixtures_validate(self):
        for fx in FIXTURES.glob("*.json"):
            validate_config(load_fixture(fx.name))

    @pytest.mark.parametrize("change, path", [
        ({"trajectories": [{"x": 0.7, "p": 0.0, "branch": "foo"}]},
         "config.trajectories[0].branch"),
        ({"trajectories": [{"p": 0.0, "branch": "middle"}]},
         "config.trajectories[0].x"),
        ({"n_samples": -5}, "config.n_samples"),
        ({"tol": "abc"}, "config.tol"),
        ({"energies": [0.8, float("nan")]}, "config.energies[1]"),
        ({"n_samples": 10 ** 11}, "config.n_samples"),
        ({"n_samples": 1.5}, "config.n_samples"),
        ({"n_samples": 10 ** 5 + 1}, "config.n_samples"),
        ({"t_max": 1001.0}, "config.t_max"),
        ({"energies": [0.8] * 101}, "config.energies"),
        ({"trajectories": [{"x": 0.7, "p": 0.0, "branch": "middle",
                            "t_max": 1e9}]}, "config.trajectories[0].t_max"),
        ({"grid": {"nx": -3}}, "config: unknown fields ['grid']"),
        # file names keep 6 significant digits, so these share contour_E*.csv
        ({"energies": [0.1234561, 0.1234562]},
         "config.energies[1]: 0.1234562 takes the file name of energies[0]"),
        ({"energies": [1.0, 1, 1.0]},
         "config.energies[1]: 1 takes the file name of energies[0]"),
    ])
    def test_classical_probe_exits_2_without_files(self, tmp_path, capsys,
                                                   change, path):
        cfg = load_fixture("gaussian_portrait.json")
        cfg.update(change)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = main(["classical", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert path in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("change, path", [
        ({"trajectories": [{"x_v": [0.3, 0.5]}]}, "config.trajectories[0].x_v"),
        ({"model": {"kind": "susy"}, "energies": [1.4],
          "trajectories": [{"x": 0.0, "p": -1.0, "branch": "h_plus"}]},
         "config.trajectories[0]"),
        ({"model": {"kind": "susy"}, "trajectories": [{"x_v": [1e9, 0.5]}]},
         "config.trajectories[0].x_v[0]"),
        ({"model": {"kind": "susy"}, "trajectories": [{"x_v": [0.0, 1e9]}]},
         "config.trajectories[0].x_v[1]"),
        # a flow started on the escape bound never crosses it
        ({"model": {"kind": "susy"}, "trajectories": [{"x_v": [0, 1000000]}]},
         "config.trajectories[0].x_v[1]"),
        ({"model": {"kind": "susy"}, "trajectories": [{"x_v": [1000000, 1.5]}]},
         "config.trajectories[0].x_v[0]"),
        # p^(-(2k+1)/2) and p^(-(2k-1)/2) overflow a double at tiny momenta
        ({"model": {"kind": "susy"},
          "trajectories": [{"x": 0.2, "p": 1e-300, "branch": "h_plus"}]},
         "config.trajectories[0]"),
        ({"model": {"kind": "family", "k": 25, "potential": {"kind": "square"}},
          "trajectories": [{"x": 0.2, "p": 1e-13, "branch": "h_minus"}]},
         "config.trajectories[0]"),
    ])
    def test_classical_trajectory_probe_exits_2_without_files(
            self, tmp_path, capsys, change, path):
        assert_rejected(tmp_path, capsys, "gaussian_portrait.json", change, path)

    @pytest.mark.parametrize("fixture, change, path", [
        ("quantum_excited.json", {"tol": "abc"}, "config.tol"),
        ("quantum_excited.json", {"e_max": "x"}, "config.e_max"),
        ("quantum_excited.json", {"bracket": [0.5]}, "config.bracket"),
        ("quantum_deformed.json", {"kappa": -1}, "config.kappa"),
        ("quantum_deformed.json", {"bracket": [0.5, -0.5]}, "config.bracket"),
        ("quantum_deformed.json", {"e_max": float("nan")}, "config.e_max"),
        ("quantum_deformed.json", {"p_max": 0.1}, "config.p_max"),
        ("quantum_deformed.json", {"tol_e": -1}, "config.tol_e"),
        ("quantum_excited.json", {"e_max": 3000}, "config.e_max"),
        ("quantum_excited.json", {"e_max": 61}, "config.e_max"),
        ("quantum_excited.json", {"bracket": [-1e9, 0.5]}, "config.bracket[0]"),
        ("quantum_excited.json", {"bracket": [1.5, 1e6]}, "config.bracket[1]"),
        ("quantum_excited.json", {"p_max": 105.0}, "config.p_max"),
        ("quantum_ground.json", {"tol_e": 1e9}, "config.tol_e"),
        ("quantum_ground.json", {"profile": ["susy_minus"]}, "config.profile"),
    ])
    def test_quantum_probe_exits_2_without_files(self, tmp_path, capsys,
                                                 fixture, change, path):
        assert_rejected(tmp_path, capsys, fixture, change, path)

    @pytest.mark.parametrize("change, path", [
        ({"kappas": [float("nan")]}, "config.kappas[0]"),
        ({"kappas": [1.0, True]}, "config.kappas[1]"),
        ({"kappas": [1e300]}, "config.kappas[0]"),
        ({"kappas": [-0.5]}, "config.kappas[0]"),
        ({"p_grid": [1, 2]}, "config.p_grid"),
        ({"p_grid": {"max": 10.0, "n": 0}}, "config.p_grid.n"),
        ({"p_grid": {"max": 10.0, "n": -5}}, "config.p_grid.n"),
        ({"p_grid": {"max": 10.0, "n": 1001.0}}, "config.p_grid.n"),
        ({"p_grid": {"max": 10.0, "n": 10 ** 6 + 1}}, "config.p_grid.n"),
        ({"p_grid": {"max": -10.0, "n": 1001}}, "config.p_grid.max"),
        ({"p_grid": {"max": 200.0, "n": 1001}}, "config.p_grid.max"),
        ({"p_grid": {"max": 10.0, "n": 1001, "min": 0.0}}, "config.p_grid"),
        ({"kappas": []}, "config.kappas"),
        ({"kappas": [0.5] * 101}, "config.kappas"),
        ({"kappas": [1.234567, 1.234571]},
         "config.kappas[1]: 1.234571 takes the file name of kappas[0]"),
    ])
    def test_deform_probe_exits_2_without_files(self, tmp_path, capsys,
                                                change, path):
        assert_rejected(tmp_path, capsys, "deform_profiles.json", change, path)

    @pytest.mark.parametrize("fixture, change, path", [
        # the p_max-doubling check shoots to 2 p_max, past the G table's 130
        ("quantum_deformed.json", {"p_max": 70.0}, "config.p_max"),
        ("quantum_deformed.json", {"bracket": [-0.5, 50.0]}, "config.bracket[1]"),
        ("quantum_ground.json", {"output": {"formats": "csv"}},
         "config.output.formats: must be a list"),
        ("deform_profiles.json", {"output": {"formats": ["csv", 3]}},
         "config.output.formats[1]"),
        ("gaussian_branches.json", {"n_points": -5}, "config.n_points"),
        ("gaussian_branches.json", {"n_points": 1.5}, "config.n_points"),
        ("gaussian_branches.json", {"n_points": 10 ** 8}, "config.n_points"),
        ("gaussian_branches.json", {"output": {"directory": 5}},
         "config.output.directory"),
        ("gaussian_branches.json",
         {"model": {"kind": "gaussian", "m": "abc"}}, "config.model"),
        ("gaussian_branches.json",
         {"model": {"kind": "gaussian",
                    "potential": {"kind": "harmonic_shifted", "a": "x"}}},
         "config.model"),
        ("family_branches.json", {"model": {"kind": "family", "k": 1.5}},
         "config.model"),
        ("family_branches.json", {"model": {"kind": "family", "k": 10 ** 9}},
         "config.model"),
    ])
    def test_work_bound_and_formats_probe_exits_2_without_files(
            self, tmp_path, capsys, fixture, change, path):
        assert_rejected(tmp_path, capsys, fixture, change, path)

    def test_deformed_scan_reach_probe_exits_2_without_files(self, tmp_path,
                                                             capsys):
        # a scan shoots to p_max = e_max + 25, past the G table's 130
        cfg = load_fixture("quantum_deformed.json")
        del cfg["bracket"]
        cfg["e_max"] = 110.0
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["quantum", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "config.e_max" in capsys.readouterr().err
        assert not out.exists()

    def test_deformed_reach_limit_is_inclusive(self):
        cfg = dict(load_fixture("quantum_deformed.json"), p_max=65.0)
        validate_config(cfg)

    def test_validation_builds_no_start_state(self, monkeypatch):
        # run builds each start state once, before it writes anything
        from branchedham import classical

        def fail(*args, **kwargs):
            raise AssertionError("validate_config built a start state")

        monkeypatch.setattr(classical, "make_state", fail)
        validate_config(load_fixture("gaussian_portrait.json"))

    def test_run_rejects_bad_start_state_before_writing(self, tmp_path):
        cfg = dict(load_fixture("susy_portrait.json"), energies=[1.4],
                   trajectories=[{"x": 0.0, "p": -1.0, "branch": "h_plus"}])
        validate_config(cfg)
        with pytest.raises(ValidationError, match=r"config\.trajectories\[0\]"):
            run(cfg, tmp_path / "out", ("csv", "json"))
        assert not (tmp_path / "out").exists()

    def test_deform_needs_kappas(self):
        with pytest.raises(ValidationError, match=r"config\.kappas: required"):
            validate_config({"command": "deform"})

    def test_output_directory_under_default_out(self, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.chdir(tmp_path)
        for directory, code in ((5, 2), ("d", 0)):
            cfg = dict(load_fixture("family_branches.json"),
                       output={"directory": directory, "formats": ["csv"]})
            Path("cfg.json").write_text(json.dumps(cfg))
            assert main(["branches", "--config", "cfg.json"]) == code
        assert "config.output.directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "d"]

    def test_rejected_config_produces_no_files(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"command": "branches", "oops": 1}))
        out = tmp_path / "out"
        code = main(["branches", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert not out.exists() or not list(out.iterdir())


class TestRun:
    def test_branches_manifest_complete(self, tmp_path):
        cfg = validate_config(load_fixture("gaussian_branches.json"))
        report = run(cfg, tmp_path, ("csv", "json", "svg"))
        on_disk = sorted(p.name for p in tmp_path.iterdir())
        assert report["files"] == on_disk
        assert "hamiltonian_branches.csv" in on_disk
        assert "kinetic_curve.csv" in on_disk

    def test_branches_csv_closes_with_cusps(self, tmp_path):
        cfg = validate_config(load_fixture("gaussian_branches.json"))
        run(cfg, tmp_path, ("csv",))
        rows = (tmp_path / "hamiltonian_branches.csv").read_text().splitlines()[1:]
        pc = 1.0 / math.sqrt(math.e)
        by_branch = {}
        for row in rows:
            b, p, h = row.split(",")
            by_branch.setdefault(b, []).append((float(p), float(h)))
        assert set(by_branch) == {"minus", "middle", "plus"}
        # the three branches span exactly [-pc, pc] and meet at the cusps
        assert min(p for p, _ in by_branch["middle"]) == pytest.approx(-pc)
        assert max(p for p, _ in by_branch["middle"]) == pytest.approx(pc)
        h_mid_end = dict(by_branch["middle"])[pc]
        h_plus_end = dict(by_branch["plus"])[pc]
        assert h_mid_end == pytest.approx(h_plus_end, abs=1e-12)
        assert h_mid_end == pytest.approx(2.0 / math.sqrt(math.e) - 1.0, abs=1e-12)

    def test_determinism(self, tmp_path):
        cfg = validate_config(load_fixture("deform_profiles.json"))
        run(cfg, tmp_path / "a", ("csv", "json", "svg"))
        run(cfg, tmp_path / "b", ("csv", "json", "svg"))
        for fa in sorted((tmp_path / "a").iterdir()):
            if fa.name == "run_report.json":  # carries wall time
                continue
            fb = tmp_path / "b" / fa.name
            assert fa.read_bytes() == fb.read_bytes()

    def test_quantum_excited_level(self, tmp_path):
        cfg = validate_config(load_fixture("quantum_excited.json"))
        run(cfg, tmp_path, ("json",))
        data = json.loads((tmp_path / "spectrum.json").read_text())
        assert abs(data[0]["E"] - 1.89379) < 1e-3

    def test_susy_portrait_emits_all_energies(self, tmp_path):
        cfg = validate_config(load_fixture("susy_portrait.json"))
        report = run(cfg, tmp_path, ("csv",))
        for e in (-0.5, 0.0, 0.5, 1.0, 1.2, 1.4):
            tag = f"{e:g}".replace("-", "m").replace(".", "p")
            assert (tmp_path / f"contour_E{tag}.csv").exists()
        assert (tmp_path / "trajectory_0.csv").exists()
        assert report["diagnostics"]["energy_drift"]["trajectory_1"] < 1e-6

    @pytest.mark.parametrize("p_max", [0.3, 0.30000001, 0.2])
    def test_deform_residual_window_is_fixed(self, tmp_path, p_max):
        # the residuals use p in [0.3, 10] whatever the sampled profile range
        reports = {}
        for p_hi in (10.0, p_max):
            cfg = {"command": "deform", "kappas": [1.0],
                   "p_grid": {"max": p_hi, "n": 101}}
            cfg_path = tmp_path / f"deform_{p_hi}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / f"out_{p_hi}"
            assert main(["deform", "--config", str(cfg_path), "--out", str(out)]) == 0
            reports[p_hi] = json.loads((out / "run_report.json").read_text())
        assert reports[p_max]["diagnostics"] == reports[10.0]["diagnostics"]

    def test_deform_diagnostics(self, tmp_path):
        cfg = validate_config(load_fixture("deform_profiles.json"))
        report = run(cfg, tmp_path, ("csv", "json"))
        for kappa in ("1.0", "0.5", "0.25", "0.125"):
            d = report["diagnostics"][kappa]
            assert d["zero_mode_first_order"] < 1e-4
            assert d["robin"] < 1e-6
        rows = (tmp_path / "deform_kappa_1.csv").read_text().splitlines()
        assert rows[0] == "p,w_kappa,phi0,U_kappa"


class TestMain:
    def test_default_config_runs(self, tmp_path):
        code = main(["branches", "--out", str(tmp_path), "--format", "csv"])
        assert code == 0
        assert (tmp_path / "run_report.json").exists()

    def test_command_mismatch_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(load_fixture("quantum_ground.json")))
        assert main(["deform", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, key", [("classical", "tol"),
                                              ("quantum", "tol_e")])
    def test_tol_flag_sets_the_main_tolerance(self, monkeypatch, command, key):
        seen = []

        def fake_run(cfg, out_dir, formats):
            seen.append(cfg)
            return {"files": [], "wall_time_s": 0.0}

        monkeypatch.setattr(cli, "run", fake_run)
        assert main([command, "--tol", "1e-5"]) == 0
        assert seen[0][key] == 1e-5

    def test_bad_format_flag(self, tmp_path):
        assert main(["branches", "--out", str(tmp_path), "--format", "png"]) == 2

    def test_switch_cap_exits_1(self, tmp_path, capsys, monkeypatch):
        # far up V = x^2 the flow bounces between the cusps every ~4e-4 time
        # units: the uncapped run made 10000 switches by t = 4.04
        monkeypatch.setattr(classical, "_MAX_SWITCHES", 20)
        cfg = {"command": "classical",
               "model": {"kind": "gaussian", "potential": {"kind": "square"}},
               "trajectories": [{"x": 1000, "p": 0.1, "branch": "middle",
                                 "t_max": 20}]}
        cfg_path = tmp_path / "cap.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["classical", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("computation error [classical]: "
                              "integrate_branch_flow: more than 20 branch switches")
        assert "Traceback" not in err

    def test_scan_matches_the_library_spectrum(self, tmp_path, capsys):
        # the path of every generated `scan` op: a spectrum below e_max
        cfg = {"command": "quantum", "profile": "susy_plus", "bc": "dirichlet",
               "e_max": 4.0}
        cfg_path = tmp_path / "scan.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["quantum", "--config", str(cfg_path), "--out", str(out),
                     "--format", "json"]) == 0

        def reject(token):
            raise ValueError(f"non-strict JSON token {token}")
        json.loads(capsys.readouterr().out, parse_constant=reject)
        json.loads((out / "run_report.json").read_text(), parse_constant=reject)
        levels = json.loads((out / "spectrum.json").read_text(), parse_constant=reject)
        expected = quantum.spectrum(quantum.PotentialProfile.susy_plus(),
                                    quantum.BoundaryCondition.dirichlet(), 4.0)
        assert expected  # one level, 2.7709...
        assert [repr(lv["E"]) for lv in levels] == [repr(s.E) for s in expected]


class TestRenderSvg:
    def test_single_polyline(self):
        doc = render_svg([Series("y=x", [(0.0, 0.0), (1.0, 1.0)])])
        assert doc.count("<polyline") == 1
        assert doc.startswith("<?xml")
        assert "</svg>" in doc

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            render_svg([])
        with pytest.raises(EmptyDatasetError):
            render_svg([Series("empty", [])])

    def test_separatrix_two_black_components(self):
        # inner oval and outer cusped curve at the separatrix energy
        from branchedham.classical import energy_contour
        from branchedham.models import (BranchId, GaussianModel, Potential)
        m = GaussianModel(1.0, 1.0, Potential("harmonic_shifted", c0=1.0, a=1.0))
        e_sep = 2.0 / math.sqrt(math.e)
        series = []
        for branch in (BranchId.MINUS, BranchId.MIDDLE, BranchId.PLUS):
            for ln in energy_contour(m, e_sep, branch):
                series.append(Series("separatrix", [(x, p) for x, p in ln],
                                     color="#000000"))
        assert len(series) >= 2
        doc = render_svg(series, PlotStyle(legend=False))
        assert doc.count('stroke="#000000"') >= 2

    def test_phi0_series_order(self):
        import numpy as np
        from branchedham.deformation import DeformationProfile
        ps = np.linspace(0.01, 8.0, 120)
        series = []
        for kappa in (1.0, 0.5, 0.25, 0.125):
            prof = DeformationProfile(kappa)
            series.append(Series(f"kappa={kappa:g}",
                                 list(zip(ps.tolist(), prof.phi0(ps).tolist()))))
        doc = render_svg(series)
        order = [doc.index(f"kappa={k:g}") for k in (1.0, 0.5, 0.25, 0.125)]
        assert order == sorted(order)

    def test_deterministic_bytes(self):
        s = [Series("a", [(0.0, 1.0), (2.0, 3.0)], color="#123456")]
        assert render_svg(s) == render_svg(s)


class TestDefaults:
    def test_default_configs_pinned(self):
        # echoed into run_report.json by a run without --config
        assert json.dumps(DEFAULT_CONFIGS) == json.dumps({
            "branches": {"model": {"kind": "gaussian", "m": 1.0, "C": 1.0,
                                   "potential": {"kind": "zero"}},
                         "n_points": 801},
            "classical": {"model": {"kind": "susy"},
                          "energies": [-0.5, 0.0, 0.5, 1.0, 1.2, 1.4],
                          "tol": 1e-9, "t_max": 20.0, "n_samples": 2000},
            "quantum": {"model": {"kind": "susy"}, "profile": "susy_minus",
                        "bc": "neumann", "bracket": [-0.5, 0.5],
                        "tol_e": 1e-7, "tol": 1e-9},
            "deform": {"model": {"kind": "susy"},
                       "kappas": [1.0, 0.5, 0.25, 0.125],
                       "p_grid": {"max": 10.0, "n": 1001}},
        })

    def test_readme_schema_lists_every_field(self):
        readme = (ROOT / "README.md").read_text()
        schema = readme.split("### Config schema", 1)[1].split("\n## ", 1)[0]
        missing = [f.path for f in FIELDS if f"`{f.path}`" not in schema]
        assert missing == []

    def test_default_configs_validate(self):
        for command, cfg in DEFAULT_CONFIGS.items():
            full = dict(cfg)
            full["command"] = command
            validate_config(full)
