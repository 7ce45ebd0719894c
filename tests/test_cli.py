"""CLI entry points: config hashing, idempotent run directories, task
outputs, and error reporting."""

import copy
import json

import numpy as np
import pytest

from nls2lab import cli
from nls2lab.errors import BracketInvalidError
from nls2lab.spectral import make_grid, read_field, write_field, zeros


def base_config(**overrides):
    cfg = {
        "seed": 0,
        "grid": {"dim": 3, "n": 16, "half_width": 8.0},
        "solver": {"dt": 1e-2, "t_end": 0.1, "record_every": 5},
        "data": {
            "u0": {"family": "gaussian", "amplitude": 0.3, "width": 1.0},
            "v0": {"family": "gaussian", "amplitude": 0.2, "width": 1.0},
        },
        "task": {"name": "simulate"},
    }
    cfg.update(overrides)
    return cfg


def threshold_config(**task):
    """Zero v0 and a Gaussian shape: the a_lo = 0 probe stays identically zero
    and scatters, while the a_hi probe's accumulators still grow at t_end."""
    cfg = base_config(
        task={
            "name": "threshold",
            "shape": {"family": "gaussian", "width": 1.0},
            "a_lo": 0.0,
            "a_hi": 2.0,
            "max_bisections": 0,
            **task,
        }
    )
    cfg["solver"]["record_every"] = 1
    cfg["data"] = {"v0": {"family": "zero"}}
    return cfg


# a value for every key each task block takes
TASK_KEYS = {
    "simulate": {},
    "groundstate": {"omega": 1.0, "tol": 1e-9, "max_iter": 50},
    "eigen": {"theta": "scan", "n_angles": 4, "tol": 1e-8},
    "bounds": {"n_angles": 4, "c_list": [1.0, 4.0]},
    "threshold": {
        "shape": {"family": "gaussian", "width": 1.0},
        "a_lo": 0.0,
        "a_hi": 2.0,
        "max_bisections": 0,
        "classifier": {"r_scatter": 0.5, "r_grow": 0.9, "plateau_floor": 0.01,
                       "zero_level": 1e-28},
    },
    "symmetry-check": {"xi": [0.0, 0.0, 0.0], "t_final": 0.1},
}

# one misspelt or misplaced key per block, family and task:
# (task, path at which the value is set, value, the key the error must name)
MISSPELT = {
    "config": ("simulate", ("sed",), 0, "sed"),
    "grid": ("simulate", ("grid", "half_widht"), 8.0, "half_widht"),
    "solver": ("simulate", ("solver", "record_evry"), 5, "record_evry"),
    "data": ("simulate", ("data", "w0"), {"family": "zero"}, "w0"),
    "zero": ("simulate", ("data", "v0"), {"family": "zero", "amplitude": 0.0},
             "amplitude"),
    "gaussian": ("simulate", ("data", "u0", "amplitud"), 5.0, "amplitud"),
    "ground_state_component": (
        "simulate", ("data", "v0"),
        {"family": "ground_state_component", "omgea": 2.0}, "omgea",
    ),
    "file": ("simulate", ("data", "v0"), {"family": "file", "pth": "v0.nls2"}, "pth"),
    "shape": ("threshold", ("task", "shape", "widht"), 1.0, "widht"),
    "classifier": ("threshold", ("task", "classifier", "r_scater"), 0.5, "r_scater"),
    "task-simulate": ("simulate", ("task", "t_end"), 1.0, "t_end"),
    "task-groundstate": ("groundstate", ("task", "max_iters"), 50, "max_iters"),
    "task-eigen": ("eigen", ("task", "n_angle"), 4, "n_angle"),
    "task-bounds": ("bounds", ("task", "c_lst"), [1.0], "c_lst"),
    "task-threshold": ("threshold", ("task", "max_bisection"), 0, "max_bisection"),
    "task-symmetry-check": ("symmetry-check", ("task", "t_fnal"), 0.1, "t_fnal"),
}


# one required key per block, family and task: (task, path of the key)
REQUIRED = {
    "grid": ("simulate", ("grid", "n")),
    "solver-dt": ("simulate", ("solver", "dt")),
    "solver-t_end": ("simulate", ("solver", "t_end")),
    "file": ("simulate", ("data", "v0", "path")),
    "shape": ("threshold", ("task", "shape")),
    "a_lo": ("threshold", ("task", "a_lo")),
    "a_hi": ("threshold", ("task", "a_hi")),
    "xi": ("symmetry-check", ("task", "xi")),
    "t_final": ("symmetry-check", ("task", "t_final")),
}


def full_config(task):
    """A config that sets every key of its blocks."""
    cfg = base_config(task={"name": task, **copy.deepcopy(TASK_KEYS[task])})
    cfg["solver"].update(dealias=True, blowup_linf_factor=1e3, blowup_hs_factor=1e3)
    cfg["data"]["u0"].update(center=[0.0, 0.0, 0.0], phase=0.0, boost=[0.0, 0.0, 0.0])
    return cfg


class TestConfigHash:
    def test_stable_and_order_independent(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert cli.config_hash(a) == cli.config_hash(b)
        assert len(cli.config_hash(a)) == 12

    def test_sensitive_to_values(self):
        assert cli.config_hash({"x": 1}) != cli.config_hash({"x": 2})


class TestBuildData:
    def test_families(self):
        g = make_grid(3, 16, 6.0)
        z = cli.build_data({"family": "zero"}, g)
        assert np.all(z.values == 0)
        f = cli.build_data(
            {"family": "gaussian", "amplitude": 2.0, "width": 0.5, "phase": 0.25},
            g,
        )
        center = f.values[g.center_index]
        assert abs(center) == pytest.approx(2.0, rel=1e-12)
        assert np.angle(center) == pytest.approx(0.25, rel=1e-9)

    def test_boost_doubled_for_v(self):
        g = make_grid(3, 16, np.pi)
        desc = {"family": "gaussian", "amplitude": 1.0, "boost": [1.0, 0.0, 0.0]}
        fu = cli.build_data(desc, g, "u")
        fv = cli.build_data(desc, g, "v")
        ratio_u = fu.values[:, 8, 8] / np.abs(fu.values[:, 8, 8])
        ratio_v = fv.values[:, 8, 8] / np.abs(fv.values[:, 8, 8])
        assert np.allclose(ratio_v, ratio_u ** 2)

    def test_file_family_and_grid_mismatch(self, tmp_path):
        g = make_grid(3, 16, 6.0)
        p = tmp_path / "f.nls2"
        write_field(p, zeros(g))
        f = cli.build_data({"family": "file", "path": str(p)}, g)
        assert f.grid == g
        other = make_grid(3, 16, 4.0)
        with pytest.raises(ValueError, match="mismatched grid"):
            cli.build_data({"family": "file", "path": str(p)}, other)

    def test_vector_length_must_match_grid(self):
        g = make_grid(3, 16, 6.0)
        for key, vec in (("center", [0.0, 0.0, 0.0, 1.0]), ("boost", [1.0, 0.0])):
            with pytest.raises(ValueError, match="3 components"):
                cli.build_data({"family": "gaussian", key: vec}, g)

    def test_ground_state_component_which_checked_before_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the ground state was solved")

        monkeypatch.setattr(cli.groundstate, "solve_ground_state", no_solve)
        desc = {"family": "ground_state_component", "omega": 3.0, "which": "Q3"}
        with pytest.raises(ValueError, match="'Q1' or 'Q2'"):
            cli.build_data(desc, make_grid(3, 16, 6.0))

    def test_unknown_family(self):
        g = make_grid(3, 16, 6.0)
        with pytest.raises(ValueError, match="unknown data family"):
            cli.build_data({"family": "plane_wave"}, g)


class TestRun:
    def test_simulate_outputs_and_idempotence(self, tmp_path):
        cfg = base_config()
        run_dir = cli.run(cfg, tmp_path)
        assert (run_dir / "summary.json").exists()
        assert (run_dir / "series.csv").exists()
        assert (run_dir / "final_state.nls2").exists()
        assert run_dir.name.startswith("simulate-")
        first = (run_dir / "summary.json").read_bytes()
        # identical config: no-op, byte-identical summary
        again = cli.run(cfg, tmp_path)
        assert again == run_dir
        assert (run_dir / "summary.json").read_bytes() == first
        summary = json.loads(first)
        assert summary["result"]["outcome"]["kind"] == "completed"
        assert "heuristic" in summary["result"]["heuristic_note"]

    def test_different_config_different_dir(self, tmp_path):
        d1 = cli.run(base_config(), tmp_path)
        cfg2 = base_config()
        cfg2["solver"]["t_end"] = 0.2
        d2 = cli.run(cfg2, tmp_path)
        assert d1 != d2

    def test_groundstate_task(self, tmp_path):
        cfg = {
            "grid": {"dim": 3, "n": 24, "half_width": 10.0},
            "task": {"name": "groundstate", "omega": 1.0, "tol": 1e-9},
        }
        run_dir = cli.run(cfg, tmp_path)
        meta = json.loads((run_dir / "groundstate.json").read_text())
        assert meta["residual1"] < 1e-9
        q1 = read_field(run_dir / "q1.nls2")
        assert q1.values.real.max() > 1.0

    def test_eigen_task(self, tmp_path):
        cfg = {
            "grid": {"dim": 3, "n": 16, "half_width": 8.0},
            "data": {"v0": {"family": "gaussian", "amplitude": 3.0}},
            "task": {"name": "eigen", "theta": 0.0, "tol": 1e-8},
        }
        run_dir = cli.run(cfg, tmp_path)
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["result"]["e_tilde"] < -1.0
        assert (run_dir / "phi.nls2").exists()

    def test_bounds_task(self, tmp_path):
        cfg = {
            "grid": {"dim": 3, "n": 16, "half_width": 8.0},
            "data": {"v0": {"family": "gaussian", "amplitude": 3.0}},
            "task": {"name": "bounds", "n_angles": 4, "c_list": [1.0, 4.0]},
        }
        run_dir = cli.run(cfg, tmp_path)
        summary = json.loads((run_dir / "summary.json").read_text())
        kinds = [r["kind"] for r in summary["result"]["reports"]]
        assert kinds[0] == "Eigenvalue"
        assert "EnergySign" in kinds
        assert kinds.count("LargeData") == 2

    def test_bounds_task_without_negative_eigenvalue(self, tmp_path):
        # on the periodic box the lowest eigenvalue sits near the mean of the
        # potential, about -8e-12 here: above -tol at every angle
        cfg = {
            "grid": {"dim": 3, "n": 16, "half_width": 8.0},
            "data": {"v0": {"family": "gaussian", "amplitude": 1e-9}},
            "task": {"name": "bounds", "n_angles": 4, "c_list": [1.0]},
        }
        run_dir = cli.run(cfg, tmp_path)
        reports = json.loads((run_dir / "summary.json").read_text())["result"]["reports"]
        assert reports[0] == {
            "kind": "Eigenvalue",
            "bound_value": None,
            "witness": {"reason": "no angle in the scan produces a negative eigenvalue"},
        }
        # no eigen witness and no u0: the energy-sign test is skipped
        assert [r["kind"] for r in reports] == ["Eigenvalue", "LargeData"]

    def test_threshold_honours_blowup_factor(self, tmp_path):
        def probes(cfg):
            run_dir = cli.run(cfg, tmp_path)
            return json.loads((run_dir / "summary.json").read_text())["result"]["runs"]

        # the default limits leave the a_hi probe running to t_end
        cfg = threshold_config()
        runs = probes(cfg)
        assert [r["verdict"] for r in runs] == ["Scatters", "NonScatter"]
        assert not runs[1]["evidence"]["blowup"]
        # a limit below the initial sup-norm is crossed on the first step
        cfg["solver"]["blowup_linf_factor"] = 0.5
        runs = probes(cfg)
        assert not runs[0]["evidence"]["blowup"]
        assert runs[1]["evidence"]["blowup"]
        assert runs[1]["evidence"]["t_blowup"] == pytest.approx(cfg["solver"]["dt"])

    def test_threshold_classifier_keys(self, tmp_path, capsys):
        # zero_level above every accumulator makes the a_hi probe scatter
        cfg = threshold_config(classifier={"zero_level": 1e300})
        with pytest.raises(BracketInvalidError, match="still scatters"):
            cli.run(cfg, tmp_path)
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps(threshold_config(classifier={"r_scater": 0.5})))
        rc = cli.main(
            ["threshold", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"] == "ValueError"
        assert "r_scater" in err["message"]

    def test_symmetry_task(self, tmp_path):
        cfg = {
            "grid": {"dim": 3, "n": 32, "half_width": float(1.5 * np.pi)},
            "solver": {"dt": 5e-3, "t_end": 0.1, "dealias": False},
            "data": {
                "u0": {"family": "gaussian", "amplitude": 0.1, "width": 0.7},
                "v0": {"family": "gaussian", "amplitude": 0.1, "width": 0.7},
            },
            "task": {
                "name": "symmetry-check",
                "xi": [2.0 / 3.0, 0.0, 0.0],
                "t_final": 0.1,
            },
        }
        run_dir = cli.run(cfg, tmp_path)
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["result"]["discrepancy"] < 1e-6

    def test_unserializable_result_leaves_no_summary(self, tmp_path, monkeypatch):
        calls = []

        def task(config, grid, run_dir):
            calls.append(run_dir)
            return {"value": object()} if len(calls) == 1 else {"value": 1.0}

        monkeypatch.setitem(cli._TASKS, "simulate", task)
        cfg = base_config()
        with pytest.raises(TypeError):
            cli.run(cfg, tmp_path)
        assert not (calls[0] / "summary.json").exists()
        # the rerun is not mistaken for a finished run
        run_dir = cli.run(cfg, tmp_path)
        assert len(calls) == 2
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["result"] == {"value": 1.0}

    def test_unknown_task(self, tmp_path):
        cfg = base_config(task={"name": "frobnicate"})
        with pytest.raises(ValueError, match="unknown task"):
            cli.run(cfg, tmp_path)


class TestMain:
    def test_cli_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = base_config()
        del cfg["task"]
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(
            ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert "run_dir" in out

    def test_cli_error_reporting(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg = base_config()
        cfg["grid"]["n"] = 17
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(
            ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
        )
        assert rc == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"] == "ValueError"
        assert not (tmp_path / "out").exists()  # the grid is checked first

    @pytest.mark.parametrize("task", TASK_KEYS)
    def test_every_key_accepted(self, task, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setitem(cli._TASKS, task, lambda *args: calls.append(args) or {})
        cfg = full_config(task)
        run_dir = cli.run(cfg, tmp_path)
        assert run_dir.name == f"{task}-{cli.config_hash(cfg)}"
        assert len(calls) == 1

    @pytest.mark.parametrize("case", REQUIRED.values(), ids=REQUIRED.keys())
    def test_missing_key_rejected_before_any_work(self, case, tmp_path, capsys,
                                                  monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the ground state was solved")

        monkeypatch.setattr(cli.groundstate, "solve_ground_state", no_solve)
        task, path = case
        cfg = full_config(task)
        # a v0 that reaches a solve or a read if the check comes too late
        cfg["data"]["v0"] = ({"family": "file", "path": "v0.nls2"} if path[-1] == "path"
                             else {"family": "ground_state_component"})
        block = cfg
        for name in path[:-1]:
            block = block[name]
        del block[path[-1]]
        cfg_path = tmp_path / "missing.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main([task, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"] == "ValueError"
        assert f"missing key [{path[-1]!r}]" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_n_angles_needs_a_theta_scan(self, tmp_path):
        cfg = full_config("eigen")
        cfg["task"]["theta"] = 0.0
        with pytest.raises(ValueError, match=r"unknown key \['n_angles'\]"):
            cli.run(cfg, tmp_path)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("case", MISSPELT.values(), ids=MISSPELT.keys())
    def test_unknown_key_rejected_before_any_work(self, case, tmp_path, capsys):
        task, path, value, key = case
        cfg = full_config(task)
        block = cfg
        for name in path[:-1]:
            block = block[name]
        block[path[-1]] = value
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main([task, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"] == "ValueError"
        assert repr(key) in err["message"]
        assert not (tmp_path / "out").exists()
