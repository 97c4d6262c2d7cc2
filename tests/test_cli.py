import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import truncflow
from truncflow.cli import ConfigError, ScenarioConfig, main, run_scenario
from truncflow.flows import effective_rhs
from truncflow.scenarios import make_separated_config
from truncflow.verify import _monotonicity_case, gradients_suite


NAN, INF = float("nan"), float("inf")
I2, I3 = np.eye(2).tolist(), np.eye(3).tolist()


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def all_positive_config(tmp_path, out_name="out"):
    return {
        "q": 2,
        "mode": "effective",
        "s_end": 1.0,
        "output": str(tmp_path / out_name),
        "data": {
            "q": 2,
            "clusters": [[[5.0, 5.2], [5.3, 5.1]], [[8.0, 8.1], [8.2, 7.9]]],
            "labels": [[5.1, 5.15], [8.1, 8.0]],
        },
        "init": {"kind": "all-positive"},
    }


class TestConfigParsing:
    def test_round_trip(self):
        doc = {
            "q": 2,
            "l": 2,
            "mode": "effective",
            "s_end": 2.5,
            "output": "somewhere",
            "data": {"q": 2, "clusters": [[[0.0, 1.0]], [[2.0, 3.0]]], "labels": [[1.0, 1.0], [2.0, 2.0]]},
            "init": {"kind": "identity"},
            "tolerances": {"step": 0.005},
        }
        cfg = ScenarioConfig.from_dict(doc)
        assert {key: getattr(cfg, key) for key in doc} == doc
        assert cfg.depth == 2

    def test_config_must_be_an_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            ScenarioConfig.from_dict([{"q": 2}])

    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="'s_end'"):
            ScenarioConfig.from_dict({"q": 2, "mode": "effective", "output": "x"})

    def test_bad_mode_named(self):
        with pytest.raises(ConfigError, match="'mode'"):
            ScenarioConfig.from_dict({"q": 2, "mode": "warp", "s_end": 1.0, "output": "x"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="banana"):
            ScenarioConfig.from_dict(
                {"q": 2, "mode": "collapsed", "s_end": 1.0, "output": "x", "banana": 1}
            )

    @pytest.mark.parametrize("name", ["step", "min_step", "cost_slack", "bisect_tol", "atol", "rtol"])
    def test_boolean_tolerance_rejected(self, name):
        cfg = ScenarioConfig.from_dict({"q": 1, "mode": "collapsed", "s_end": 1.0, "output": "x",
                                        "init": {"b": [[1.0]], "w": [[1.0]], "y": [[1.0]]},
                                        "tolerances": {name: False}})
        with pytest.raises(ConfigError, match=f"'tolerances.{name}'"):
            cfg.integrator_options()

    def test_mode_specific_requirements(self):
        with pytest.raises(ConfigError, match="init.b"):
            ScenarioConfig.from_dict({"q": 2, "mode": "collapsed", "s_end": 1.0, "output": "x"})
        with pytest.raises(ConfigError, match="init.b0"):
            ScenarioConfig.from_dict(
                {"q": 1, "mode": "oned", "s_end": 1.0, "output": "x",
                 "data": {"q": 1, "clusters": [[[1.0]]], "labels": [[5.0]]}}
            )


class TestRunCommand:
    def test_effective_all_positive(self, tmp_path, capsys):
        cfg = write_config(tmp_path, all_positive_config(tmp_path))
        assert main(["run", cfg]) == 0
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_events"] == 0
        assert summary["final_cost"] == summary["initial_cost"]
        assert summary["stopped_reason"] is None
        steps = len((out / "trajectory.csv").read_text().strip().split("\n")) - 2
        assert summary["integrator"] == {"rk4_steps": steps, "rhs_calls": 4 * steps + 1,
                                         "localizations": 0, "prediction_misses": 0,
                                         "reprojections": 0, "probes": 0, "cost_retries": 0}
        assert (out / "trajectory.csv").exists() and (out / "events.csv").exists()

    def test_exit_2_on_bad_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"q": 2, "mode": "nope", "s_end": 1.0, "output": str(tmp_path)})
        assert main(["run", cfg]) == 2
        assert "mode" in capsys.readouterr().err

    def test_exit_2_on_missing_file(self, capsys):
        assert main(["run", "/nonexistent/config.json"]) == 2

    def test_exit_3_on_step_underflow(self, tmp_path, capsys):
        doc = {
            "q": 1,
            "mode": "effective",
            "s_end": 4.0,
            "output": str(tmp_path / "u"),
            "data": {"q": 1, "clusters": [[[-3.0], [-2.5]]], "labels": [[1.0]]},
            "init": {"kind": "identity"},
            "tolerances": {"step": 3.0, "min_step": 2.0},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["run", cfg]) == 3
        assert not (tmp_path / "u").exists()

    def test_exit_3_on_sliding_writes_the_run_so_far(self, tmp_path, capsys):
        # each stopping trajectory as an explicit config
        stops = [
            # the monotonicity suite's sliding case (seed 0, case 5)
            ("general", _monotonicity_case(0, 5)[:2], 0.25527, 0.25528,
             "layer 0, cluster 0, point 0, coordinate 0 "),
            # layer 1 of the cluster-separated flow starts truncating cluster 2: separation lost
            ("effective", make_separated_config(4, n_per=10, seed=1), 0.640843, 0.640844,
             "layer 1, cluster 2, point 0, coordinate 2 "),
        ]
        for mode, (state, data), s_lo, s_hi, where in stops:
            out = tmp_path / mode
            doc = {
                "q": data.q,
                "mode": mode,
                "s_end": 1.0,
                "output": str(out),
                "data": {"q": data.q, "clusters": [c.tolist() for c in data.clusters],
                         "labels": state.labels.tolist()},
                "init": {"kind": "explicit", "rotations": state.rotations.tolist(),
                         "betas": state.betas.tolist(), "output_map": state.output_map.tolist()},
            }
            assert main(["run", write_config(tmp_path, doc, f"{mode}.json")]) == 3
            summary = json.loads((out / "summary.json").read_text())
            assert where in summary["stopped_reason"]
            assert summary["stopped_reason"] in capsys.readouterr().err
            rows = (out / "trajectory.csv").read_text().strip().split("\n")[1:]
            assert s_lo <= float(rows[-1].split(",")[0]) <= s_hi
            events = (out / "events.csv").read_text().strip().split("\n")[1:]
            assert events and events[-1].split(",")[0] == rows[-1].split(",")[0]
            work = summary["integrator"]
            assert work["localizations"] >= len({ev.split(",")[0] for ev in events})
            assert work["rhs_calls"] == len(rows) + 3 * work["rk4_steps"] + work["localizations"]

    def test_collapsed_scenario(self, tmp_path):
        doc = {
            "q": 3,
            "mode": "collapsed",
            "s_end": 5.0,
            "output": str(tmp_path / "c"),
            "init": {
                "b": (2 * np.eye(3)).tolist(),
                "w": np.eye(3).tolist(),
                "y": np.eye(3).tolist(),
            },
        }
        assert main(["run", write_config(tmp_path, doc)]) == 0
        summary = json.loads((tmp_path / "c" / "summary.json").read_text())
        assert summary["conservation_drift"] <= 1e-6 * (1 + 3 * np.sqrt(3))
        assert summary["phases"][0]["log_cost_slope"] <= -5.5

    def test_oned_scenario(self, tmp_path):
        doc = {
            "q": 1,
            "mode": "oned",
            "s_end": 2.0,
            "output": str(tmp_path / "o"),
            "data": {"q": 1, "clusters": [[[1.0], [2.0]]], "labels": [[5.0]]},
            "init": {"b0": 1.0},
        }
        assert main(["run", write_config(tmp_path, doc)]) == 0
        events = (tmp_path / "o" / "events.csv").read_text().strip().split("\n")
        assert len(events) == 2
        s_cross = float(events[1].split(",")[0])
        assert abs(s_cross - 2 * np.log(4.0 / 3.0)) <= 1e-6
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["closed_form_breakpoints"][0] == pytest.approx(2 * np.log(4.0 / 3.0))
        # the integrator block, as in the effective and general modes
        work = summary["integrator"]
        rows = (tmp_path / "o" / "trajectory.csv").read_text().strip().split("\n")[1:]
        assert set(work) == {"rk4_steps", "rhs_calls", "localizations", "prediction_misses",
                             "reprojections", "probes", "cost_retries"}
        assert work["localizations"] >= 1
        assert work["rhs_calls"] == len(rows) + 3 * work["rk4_steps"] + work["localizations"]

    def test_oned_events_name_config_points(self, tmp_path):
        # the points are integrated in config order: the crossing of 2.0 is point 0
        doc = {
            "q": 1,
            "mode": "oned",
            "s_end": 2.0,
            "output": str(tmp_path / "o"),
            "data": {"q": 1, "clusters": [[[2.0], [1.0]]], "labels": [[5.0]]},
            "init": {"b0": 1.0},
        }
        assert main(["run", write_config(tmp_path, doc)]) == 0
        events = (tmp_path / "o" / "events.csv").read_text().strip().split("\n")[1:]
        assert [row.split(",")[1:] for row in events] == [["0", "0", "0", "0", "entering"]]
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["closed_form_breakpoints"][0] == pytest.approx(2 * np.log(4.0 / 3.0))

    @pytest.mark.parametrize("l, layers, named", [
        (3, None, "'l'"),               # deeper than q = 2
        (1, 2, "'init.rotations'"),     # an explicit init does not override l
        (None, 3, "'init.rotations'"),  # an explicit init deeper than q = 2
    ])
    def test_depth_checked_against_the_config(self, tmp_path, capsys, l, layers, named):
        for mode in ("effective", "general"):
            doc = all_positive_config(tmp_path)
            doc["mode"] = mode
            if l is not None:
                doc["l"] = l
            if layers is not None:
                doc["init"] = {"kind": "explicit", "rotations": [np.eye(2).tolist()] * layers,
                               "betas": [[0.0, 0.0]] * layers}
            assert main(["run", write_config(tmp_path, doc)]) == 2
            assert named in capsys.readouterr().err

    @pytest.mark.parametrize("rotations, betas, named", [
        ([I3], [[0.0] * 3], "'init.rotations'"),  # one 3 x 3 rotation at q = 2
        ([I3], [[0.0] * 2], "'init.rotations'"),
        ([I2], [[0.0] * 3], "'init.betas'"),
        ([I2, I2], [[0.0] * 2], "'init.betas'"),   # one beta for two rotations
    ])
    def test_explicit_init_shapes_checked_against_q(self, tmp_path, capsys, rotations, betas, named):
        doc = json.loads((Path(__file__).parents[1] / "configs" / "effective_equilibrium.json").read_text())
        doc.update(output=str(tmp_path / "out"), init={"kind": "explicit", "rotations": rotations, "betas": betas})
        assert main(["run", write_config(tmp_path, doc)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("init, message", [
        ({"kind": "explicit", "rotations": [I2, [[1.0, 0.1], [0.0, 1.0]]], "betas": [[0.0, 0.0]] * 2},
         "error: field 'init': rotation 1 is not orthogonal: ||R^T R - I|| = 1.418e-01\n"),
        ({"kind": "fully-truncated", "output_map": [[1.0, 1.0], [1.0, 1.0]]},
         "error: field 'init': output_map is numerically singular\n"),
    ], ids=["rotation-off-the-group", "singular-output-map"])
    def test_init_rejected_by_the_state_names_its_fault(self, tmp_path, capsys, init, message):
        # the state's own checks, each once: the rotation named by its layer, and the output map
        # of a fully truncated start rejected before its labels are pulled back
        doc = all_positive_config(tmp_path)
        doc["init"] = init
        assert main(["run", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["oned", "collapsed", "clustered"])
    def test_depth_rejected_where_unused(self, tmp_path, capsys, mode):
        # only the layered modes read l; elsewhere a depth would be dropped without a word
        doc = json.loads((Path(__file__).parents[1] / "configs" / "oned_ladder.json").read_text())
        doc.update(mode=mode, l=5, output=str(tmp_path / "out"))
        doc["init"].update(b=[[1.0]], w=[[1.0]], y=[[1.0]], w0=[[1.0]])
        assert main(["run", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "'l'" in err and f"'{mode}'" in err
        assert not (tmp_path / "out").exists()

    def test_clustered_scenario(self, tmp_path):
        doc = {
            "q": 2,
            "mode": "clustered",
            "s_end": 3.0,
            "output": str(tmp_path / "k"),
            "data": {"q": 2, "clusters": [[[1.0, 0.0]], [[0.0, 1.0]]], "labels": [[2.0, 1.0], [1.0, 3.0]]},
            "init": {"w0": [[0.5, 0.1], [0.0, 0.7]]},
        }
        assert main(["run", write_config(tmp_path, doc)]) == 0
        summary = json.loads((tmp_path / "k" / "summary.json").read_text())
        assert summary["closed_vs_ode_max"] <= 1e-6
        assert summary["final_cost"] <= summary["initial_cost"]
        # the summary agrees with the table it was written beside
        rows = (tmp_path / "k" / "trajectory.csv").read_text().strip().split("\n")
        assert rows[0] == "s,cost,closed_vs_ode" and len(rows) == 202
        table = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        assert summary["closed_vs_ode_max"] == np.max(table[:, 2])
        assert summary["final_cost"] == table[-1, 1]
        assert table[-1, 0] == doc["s_end"]

    def test_general_mode_runs(self, tmp_path):
        doc = all_positive_config(tmp_path, out_name="g")
        doc["mode"] = "general"
        assert main(["run", write_config(tmp_path, doc)]) == 0

    def test_determinism_byte_identical(self, tmp_path):
        outputs = []
        for name in ("r1", "r2"):
            doc = {
                "q": 1,
                "mode": "oned",
                "s_end": 1.5,
                "output": str(tmp_path / name),
                "data": {"q": 1, "clusters": [[[1.0], [2.0]]], "labels": [[5.0]]},
                "init": {"b0": 1.0},
            }
            assert main(["run", write_config(tmp_path, doc, f"{name}.json")]) == 0
            outputs.append(
                (tmp_path / name / "trajectory.csv").read_bytes()
                + (tmp_path / name / "events.csv").read_bytes()
            )
        assert outputs[0] == outputs[1]

    # sha256 of each shipped config's summary.json: its final state, integrator stats and phase fits
    SUMMARY_DIGESTS = {
        "collapsed_spectral_gap.json": "165054ccf9e9493c34ad5c13fec4818bbfda6a25e2666f8967760cca1df2ee39",
        "effective_equilibrium.json": "0022ded52563284ad99627164824ca606b4b184e06fc837dbeed6cd0fdaf6312",
        "oned_ladder.json": "89d6c20810e3353d7399e012aac226a1d3f6736304e420efe32116e363f96613",
    }

    @pytest.mark.skipif(not (sys.platform == "linux" and platform.machine() == "x86_64"),
                        reason="CSV digests are recorded on x86_64 Linux")
    def test_shipped_configs_match_recorded_digests(self, tmp_path):
        # README promises byte-identical CSVs per platform; the digests were
        # recorded from these configs and are only read here; so is each run's summary.json
        root = Path(__file__).resolve().parents[1]
        digests = json.loads((root / "perfbench" / "digests.json").read_text())
        assert sorted(digests) == sorted(p.name for p in (root / "configs").glob("*.json"))
        for name, expected in digests.items():
            doc = json.loads((root / "configs" / name).read_text())
            doc["output"] = str(tmp_path / Path(name).stem)
            assert main(["run", write_config(tmp_path, doc, name)]) == 0
            got = {csv: hashlib.sha256((tmp_path / Path(name).stem / csv).read_bytes()).hexdigest()
                   for csv in expected}
            assert got == expected, name
            summary = (tmp_path / Path(name).stem / "summary.json").read_bytes()
            assert hashlib.sha256(summary).hexdigest() == self.SUMMARY_DIGESTS[name], name

    @pytest.mark.parametrize("change, code, named", [
        ({"s_end": float("inf")}, 2, "'s_end'"),
        ({"s_end": float("nan")}, 2, "'s_end'"),
        ({"tolerances": {"bisect_tol": 0}}, 2, "'tolerances.bisect_tol'"),
        ({"tolerances": {"step": float("nan")}}, 2, "'tolerances.step'"),
        ({"tolerances": {"step": -0.01}}, 2, "'tolerances.step'"),
        ({"tolerances": {"step": None}}, 2, "'tolerances.step'"),
        ({"tolerances": {"bisect_tol": 1e-300}}, 0, None),
        ({"q": True}, 2, "'q'"),
        ({"l": True}, 2, "'l'"),
        ({"s_end": True}, 2, "'s_end'"),
        ({"tolerances": {"step": True}}, 2, "'tolerances.step'"),
        # non-finite input, rejected where it enters the library and named by its field
        ({"mode": "effective", "data": {"q": 1, "clusters": [[[1.0], [2.0]]], "labels": [[NAN]]}},
         2, "'data.labels'"),
        ({"mode": "effective", "data": {"q": 1, "clusters": [[[1.0], [NAN]]], "labels": [[5.0]]}},
         2, "'data.clusters'"),
        ({"mode": "effective", "data": {"q": 1, "clusters": [[[INF], [2.0]]], "labels": [[5.0]]}},
         2, "'data.clusters'"),
        ({"mode": "collapsed", "init": {"b": [[NAN]], "w": [[1.0]], "y": [[1.0]]}}, 2, "'init.b'"),
        ({"mode": "clustered", "init": {"w0": [[NAN]]}}, 2, "'init.w0'"),
        ({"init": {"b0": NAN}}, 2, "'init.b0'"),
        ({"mode": "effective", "init": {"output_map": [[NAN]]}}, 2, "'init.output_map'"),
        # numbers of the wrong JSON type
        ({"data": {"q": 2.7, "clusters": [[[1.0], [2.0]]], "labels": [[5.0]]}}, 2, "'data.q'"),
        ({"data": {"q": True, "clusters": [[[1.0], [2.0]]], "labels": [[5.0]]}}, 2, "'data.q'"),
        ({"mode": "effective", "init": {"kind": "random-orthogonal", "seed": 2.5}}, 2, "'init.seed'"),
        ({"mode": "effective", "init": {"kind": "random-orthogonal", "seed": True}}, 2, "'init.seed'"),
        ({"init": {"b0": True}}, 2, "'init.b0'"),
        ({"init": {"b0": "1.0"}}, 2, "'init.b0'"),
        ({"init": {"b0": None}}, 2, "'init.b0'"),
        # every mode validates its tolerances, the clustered closed form too
        ({"mode": "clustered", "init": {"w0": [[1.0]]}, "tolerances": {"step": -1}}, 2, "'tolerances.step'"),
        ({"mode": "clustered", "init": {"w0": [[1.0]]}, "tolerances": {"bogus": 1}}, 2, "'tolerances.bogus'"),
        # an explicit init needs one beta per rotation
        ({"mode": "effective", "init": {"kind": "explicit", "rotations": [[[1.0]], [[1.0]]], "betas": [[0.0]]}},
         2, "'init.betas'"),
        # fields of the wrong JSON type
        ({"output": 5}, 2, "'output'"),
        ({"data": 5}, 2, "'data'"),
        ({"data": {"path": 7}}, 2, "'data.path'"),
        ({"init": [1]}, 2, "'init'"),
        ({"init": []}, 2, "'init'"),
        ({"init": 0}, 2, "'init'"),
        ({"tolerances": [1]}, 2, "'tolerances'"),
        ({"data": {"q": 1, "clusters": 5, "labels": [[5.0]]}}, 2, "'data.clusters'"),
        ({"mode": "effective", "init": {"kind": "explicit", "rotations": 5, "betas": [[0.0]]}},
         2, "'init.rotations'"),
        ({"mode": "collapsed", "init": {"b": 1, "w": [[1.0]], "y": [[1.0]]}}, 2, "'init.b'"),
        # the collapsed and clustered init matrices are q x q
        ({"q": 3, "mode": "collapsed", "init": {"b": I2, "w": I3, "y": I3}}, 2, "'init.b'"),
        ({"q": 2, "mode": "collapsed", "init": {"b": I2, "w": I3, "y": I2}}, 2, "'init.w'"),
        ({"q": 2, "mode": "collapsed", "init": {"b": I2, "w": I2, "y": [[1.0]]}}, 2, "'init.y'"),
        ({"q": 3, "mode": "collapsed", "init": {"b": I2, "w": I2, "y": I2}}, 2, "'init.b'"),
        ({"mode": "clustered", "init": {"w0": I2}}, 2, "'init.w0'"),
        # a data file that cannot be opened, named by its field
        ({"data": {"path": "no-such-dir/missing.json"}}, 2, "'data.path': [Errno 2]"),
        # rejected by the library call itself, still before any output, naming the field at fault
        ({"q": 2, "mode": "clustered", "init": {"w0": I2},
          "data": {"q": 2, "clusters": [[[1.0, 1.0]], [[2.0, 2.0]]], "labels": I2}}, 2, "'data.clusters': X X^T"),
        ({"data": {"q": 1, "clusters": [[[1.0], [6.0]]], "labels": [[5.0]]}}, 2, "'data.labels': label"),
        ({"data": {"q": 1, "clusters": [[[1.0], [1.0]]], "labels": [[5.0]]}}, 2, "'data.clusters': points"),
        ({"init": {"b0": 7.0}}, 2, "'init.b0': threshold"),
    ])
    def test_degenerate_numbers_end_fast(self, tmp_path, change, code, named):
        # in a subprocess with a timeout, so an input that never ends fails the test
        doc = json.loads((Path(__file__).parents[1] / "configs" / "oned_ladder.json").read_text())
        doc.update({"output": str(tmp_path / "out"), **change})
        env = dict(os.environ, PYTHONPATH=str(Path(truncflow.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "truncflow.cli", "run", write_config(tmp_path, doc)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == code, done.stderr
        if named:
            assert named in done.stderr
            assert not (tmp_path / "out").exists()  # a rejected config leaves no directory
        else:
            assert (tmp_path / "out" / "summary.json").is_file()

    def test_random_orthogonal_init_seeded(self, tmp_path):
        doc = all_positive_config(tmp_path, out_name="s")
        doc["init"] = {"kind": "random-orthogonal", "seed": 3}
        doc["s_end"] = 0.1
        assert main(["run", write_config(tmp_path, doc)]) == 0


class TestVerifyCommand:
    def test_quick_suite_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["verify", "conservation", "--seed", "1", "--out", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] conservation/invariant_drift" in out
        assert "10 cases, 0 skipped)" in out
        report = json.loads(report_path.read_text())
        assert report["passed"] and report["seed"] == 1

    def test_monotonicity_report_names_its_stops(self, tmp_path, capsys):
        # four of the twelve trajectories at seed 0 end at a sliding configuration
        report_path = tmp_path / "report.json"
        assert main(["verify", "monotonicity", "--seed", "0", "--out", str(report_path)]) == 0
        stopped = json.loads(report_path.read_text())["suites"][0]["stopped"]
        assert [stop["case"] for stop in stopped] == [1, 5, 7, 9]
        for stop, s in zip(stopped, (0.988244, 0.255279, 0.962544, 0.812095)):
            assert abs(stop["s"] - s) <= 1e-6
            assert stop["reason"].startswith(f"sliding at s = {s:.6g}: ")
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[STOP]")]
        assert lines == [f"[STOP] monotonicity/case {stop['case']}: {stop['reason']}" for stop in stopped]

    def test_unknown_suite(self, capsys):
        assert main(["verify", "bogus"]) == 2

    def test_negative_seed_exits_2(self, capsys):
        # exit 1 means "FAILURES detected"; a seed numpy cannot take is a usage error
        assert main(["verify", "conservation", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_mutation_sanity_gradient_flip_fails(self, monkeypatch):
        def flipped(state, data):
            beta_dots, omegas = effective_rhs(state, data)
            return beta_dots, -omegas

        monkeypatch.setattr("truncflow.verify.effective_rhs", flipped)
        report = gradients_suite(seed=0, cases=6)
        assert not report["passed"]

