"""CLI entry points: config hashing, idempotent run directories, task
outputs, and error reporting."""

import copy
import json
from types import SimpleNamespace

import numpy as np
import pytest

from nls2lab import cli, spectral
from nls2lab.dynamics import SolverConfig
from nls2lab.spectral import fh_half_norm, make_grid, read_field, write_field, zeros


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
    "classifier": ("threshold", ("task", "classifier"), {"zero_level": 1e-28},
                   "classifier"),
    "task-simulate": ("simulate", ("task", "t_end"), 1.0, "t_end"),
    "task-groundstate": ("groundstate", ("task", "max_iters"), 50, "max_iters"),
    "task-eigen": ("eigen", ("task", "n_angle"), 4, "n_angle"),
    "task-bounds": ("bounds", ("task", "c_lst"), [1.0], "c_lst"),
    "task-threshold": ("threshold", ("task", "max_bisection"), 0, "max_bisection"),
    "task-symmetry-check": ("symmetry-check", ("task", "t_fnal"), 0.1, "t_fnal"),
}


# one solver value that SolverConfig rejects per key it checks
INVALID_SOLVER = {"dt": -0.01, "record_every": 0, "blowup_linf_factor": 0.0,
                  "blowup_hs_factor": -1.0}

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

# the input blocks each task reads, by path: ("solver",) or ("data", "u0"/"v0")
READS = {
    "simulate": [("solver",), ("data", "u0"), ("data", "v0")],
    "groundstate": [],
    "eigen": [("data", "v0")],
    "bounds": [("data", "v0")],
    "threshold": [("solver",), ("data", "v0")],
    "symmetry-check": [("solver",), ("data", "u0"), ("data", "v0")],
}
# each input block removed alone, and the whole data block
MISSING_INPUT = {f"{task}-{path[-1]}": (task, path)
                 for task, paths in READS.items() if paths
                 for path in paths + [("data",)]}


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
        assert f.grid is g
        other = make_grid(3, 16, 4.0)
        with pytest.raises(ValueError, match="mismatched grid"):
            cli.build_data({"family": "file", "path": str(p)}, other)

    def test_file_field_shares_the_weight_build(self, tmp_path, monkeypatch):
        builds = []
        build = spectral._fh_half_weight
        monkeypatch.setattr(spectral, "_fh_half_weight",
                            lambda grid: builds.append(grid) or build(grid))
        p = tmp_path / "f.nls2"
        write_field(p, cli.build_data({"family": "gaussian"}, make_grid(3, 16, 6.0)))
        g = make_grid(3, 16, 6.0)
        u0 = cli.build_data({"family": "gaussian", "width": 0.5}, g)
        v0 = cli.build_data({"family": "file", "path": str(p)}, g)
        assert fh_half_norm(u0) > 0.0 and fh_half_norm(v0) > 0.0
        assert len(builds) == 1

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

    def test_ground_state_cached_by_value(self, monkeypatch):
        g = make_grid(1, 8, 2.75)  # no other test uses this grid: a fresh cache entry
        solves = []

        def spy(grid, omega, **solve_keys):
            solves.append(omega)
            return SimpleNamespace(Q1=zeros(grid), Q2=zeros(grid))

        monkeypatch.setattr(cli.groundstate, "solve_ground_state", spy)
        cli.build_data({"family": "ground_state_component", "which": "Q1"}, g)
        cli.build_data({"family": "ground_state_component", "which": "Q2", "omega": 1.0}, g)
        assert solves == [1.0]

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

    def test_groundstate_task_on_an_under_resolved_grid(self, tmp_path):
        cfg = {
            "grid": {"dim": 3, "n": 16, "half_width": 8.0},
            "task": {"name": "groundstate", "omega": 1.5, "tol": 1e-9},
        }
        run_dir = cli.run(cfg, tmp_path)
        meta = json.loads((run_dir / "groundstate.json").read_text())
        assert max(meta["residual1"], meta["residual2"]) < 1e-9

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
        # the energy-sign test runs only on a config u0: the eigen witness has
        # zero energy by construction, so its sign would be roundoff
        cfg = {
            "grid": {"dim": 3, "n": 16, "half_width": 8.0},
            "data": {"v0": {"family": "gaussian", "amplitude": 3.0}},
            "task": {"name": "bounds", "n_angles": 4, "c_list": [1.0, 4.0]},
        }
        run_dir = cli.run(cfg, tmp_path)
        summary = json.loads((run_dir / "summary.json").read_text())
        kinds = [r["kind"] for r in summary["result"]["reports"]]
        assert kinds == ["Eigenvalue", "LargeData", "LargeData"]

    def test_bounds_task_with_config_u0(self, tmp_path):
        u0 = {"family": "gaussian", "amplitude": 3.0}  # energy about -52
        cfg = {
            "grid": {"dim": 3, "n": 16, "half_width": 8.0},
            "data": {"u0": u0, "v0": {"family": "gaussian", "amplitude": 3.0}},
            "task": {"name": "bounds", "n_angles": 4, "c_list": [1.0]},
        }
        run_dir = cli.run(cfg, tmp_path)
        reports = json.loads((run_dir / "summary.json").read_text())["result"]["reports"]
        assert [r["kind"] for r in reports] == ["Eigenvalue", "EnergySign", "LargeData"]
        sign = reports[1]
        assert sign["witness"]["energy"] < 0.0
        grid = make_grid(3, 16, 8.0)
        assert sign["bound_value"] == fh_half_norm(cli.build_data(u0, grid, "u"))

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
        # no u0 in the config: the energy-sign test is skipped
        assert [r["kind"] for r in reports] == ["Eigenvalue", "LargeData"]

    def test_threshold_task_without_negative_eigenvalue(self, tmp_path):
        # v0 = 0: the threshold run records the bounds task's unfired report
        run_dir = cli.run(threshold_config(), tmp_path)
        result = json.loads((run_dir / "threshold.json").read_text())
        assert result["analytic_bounds"] == [{
            "kind": "Eigenvalue",
            "bound_value": None,
            "witness": {"reason": "no angle in the scan produces a negative eigenvalue"},
        }]

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
        assert isinstance(calls[0][0]["solver"], SolverConfig)

    @pytest.mark.parametrize("key", INVALID_SOLVER)
    def test_invalid_solver_value_rejected_before_any_work(self, key, tmp_path,
                                                           capsys):
        cfg = full_config("simulate")
        cfg["solver"][key] = INVALID_SOLVER[key]
        cfg_path = tmp_path / "invalid.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["simulate", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        err = json.loads(capsys.readouterr().out.strip())
        assert err["error"] == "ValueError"
        assert key in err["message"]
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("case", MISSING_INPUT.values(), ids=MISSING_INPUT.keys())
    def test_missing_input_block_rejected_before_any_work(self, case, tmp_path, capsys,
                                                          monkeypatch):
        task, path = case
        monkeypatch.setitem(cli._TASKS, task, lambda *args: pytest.fail("the task ran"))
        cfg = full_config(task)
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

    @pytest.mark.parametrize("task", READS)
    def test_unread_input_blocks_stay_optional(self, task, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setitem(cli._TASKS, task, lambda *args: calls.append(args) or {})
        cfg = full_config(task)
        read = READS[task]
        if ("solver",) not in read:
            del cfg["solver"]
        if not read:
            del cfg["data"]
        for role in ("u0", "v0"):
            if read and ("data", role) not in read:
                del cfg["data"][role]
        cli.run(cfg, tmp_path)
        assert len(calls) == 1

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

    @pytest.mark.parametrize("task", [{"xi": [1.0, 0.0, 0.0]}, {"t_final": -0.5}],
                             ids=["xi-off-lattice", "negative-t_final"])
    def test_task_error_leaves_out_empty(self, task, tmp_path, capsys):
        # values only the task can reject: it has started when it raises
        cfg = full_config("symmetry-check")
        cfg["task"].update(task)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = cli.main(["symmetry-check", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        assert json.loads(capsys.readouterr().out.strip())["error"] == "ValueError"
        assert list(out.iterdir()) == []
