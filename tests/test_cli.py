import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quantkmeans
from quantkmeans import sim
from quantkmeans.cli import (_SETTINGS, _apply_config_file, _experiment_config,
                             build_parser, main)
from quantkmeans.graph import (generate_random_digraph, parse_edge_list,
                               serialize_edge_list)
from quantkmeans.sim import (ConsensusTrace, ExperimentConfig, KMeansTrace,
                             RoundRecord, config_for_seed, run_consensus,
                             run_experiment, sweep)

from conftest import NOT_STRONGLY_CONNECTED, eight_node_counterexample


def read(path):
    return path.read_text(encoding="utf-8")


class TestGenGraph:
    def test_writes_edge_list_and_prints_summary(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        rc = main(["gen-graph", "--n", "20", "--extra-edge-probability",
                   "0.1", "--seed", "3", "-o", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert printed.startswith("n=20 m=")
        assert " D=" in printed
        g = parse_edge_list(read(out))
        assert g.n == 20

    def test_rejects_small_n(self, tmp_path, capsys):
        rc = main(["gen-graph", "--n", "2", "-o", str(tmp_path / "g.txt")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_exits_nonzero(self):
        with pytest.raises(SystemExit) as err:
            main(["gen-graph"])      # missing --out
        assert err.value.code == 2

    def test_missing_n_is_an_input_error(self, tmp_path, capsys):
        rc = main(["gen-graph", "-o", str(tmp_path / "g.txt")])
        assert rc == 1
        assert capsys.readouterr().err == "error: --n is required\n"
        assert list(tmp_path.iterdir()) == []

    def test_config_keys_it_does_not_use_are_ignored(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["gen-graph", "--help"])
        assert ("--config CONFIG key=value file of the settings kmeans "
                "takes; gen-graph uses n, extra_edge_probability, graph_seed "
                "and seed, and parses and ignores the other keys; flags "
                "override") in " ".join(capsys.readouterr().out.split())
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=6\nk=9\ndim=0\nmax_rounds=0\nseed=2\n",
                       encoding="utf-8")
        assert main(["gen-graph", "--config", str(cfg),
                     "-o", str(tmp_path / "a.txt")]) == 0
        assert main(["gen-graph", "--n", "6", "--seed", "2",
                     "-o", str(tmp_path / "b.txt")]) == 0
        for suffix in (".txt", ".txt.meta.json"):
            assert read(tmp_path / f"a{suffix}") == \
                read(tmp_path / f"b{suffix}")
        # a key gen-graph ignores is still parsed
        cfg.write_text("n=6\nk=x\n", encoding="utf-8")
        assert main(["gen-graph", "--config", str(cfg),
                     "-o", str(tmp_path / "c.txt")]) == 1
        assert capsys.readouterr().err == \
            "error: config key 'k': bad value 'x'\n"


class TestConsoleEntryPoint:
    """``python -m quantkmeans.cli`` runs ``main`` and exits with its code."""

    def run(self, tmp_path, *args):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(quantkmeans.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "quantkmeans.cli", "gen-graph", *args,
             "-o", "g.txt"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)

    def test_success_exits_zero(self, tmp_path):
        done = self.run(tmp_path, "--n", "5")
        assert done.returncode == 0
        assert done.stdout.startswith("n=5 m=") and done.stderr == ""
        assert parse_edge_list(read(tmp_path / "g.txt")).n == 5

    def test_input_error_exits_one_with_one_line(self, tmp_path):
        done = self.run(tmp_path)
        assert done.returncode == 1
        assert (done.stdout, done.stderr) == ("", "error: --n is required\n")


class TestConsensusCommand:
    def test_three_cycle_summary(self, tmp_path, capsys):
        graph = tmp_path / "g.txt"
        graph.write_text("3 3\n1 0\n2 1\n0 2\n", encoding="utf-8")
        values = tmp_path / "v.txt"
        values.write_text("2\n4\n6\n", encoding="utf-8")
        rc = main(["consensus", "--graph", str(graph), "--values", str(values),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = json.loads(read(tmp_path / "consensus_summary.json"))
        assert summary["estimates"] == ["4/1", "4/1", "4/1"]
        assert summary["bound_ok"] is True
        assert summary["S_t"] <= summary["step_bound"]
        trace = read(tmp_path / "consensus_trace.csv")
        assert trace.startswith("# config:")

    def test_vector_values(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("3 3\n1 0\n2 1\n0 2\n", encoding="utf-8")
        values = tmp_path / "v.txt"
        values.write_text("1 2\n3 4\n5 6\n", encoding="utf-8")
        rc = main(["consensus", "--graph", str(graph), "--values", str(values),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = json.loads(read(tmp_path / "consensus_summary.json"))
        assert summary["estimates"] == ["3/1 4/1"] * 3


KMEANS_ARGS = ["kmeans", "--n", "14", "--k", "2",
               "--extra-edge-probability", "0.2", "--region", "0:20",
               "--seed", "7", "--max-rounds", "50"]
SWEEP_FLAGS = ["--n", "10", "--k", "2", "--extra-edge-probability", "0.25",
               "--region", "0:15", "--seed", "3"]


class TestKMeansCommand:
    def test_run_emits_all_artifacts(self, tmp_path):
        rc = main(KMEANS_ARGS + ["--out-dir", str(tmp_path)])
        assert rc == 0
        summary = json.loads(read(tmp_path / "kmeans_summary.json"))
        assert summary["terminated"] is True
        assert summary["equivalence"] == "pass"
        assert summary["bound_ok"] is True
        assert summary["config"]["graph_seed"] == 7
        for name in ("rounds.csv", "fcurve.csv", "trajectories.csv",
                     "assignments.csv"):
            content = read(tmp_path / name)
            assert content.startswith("# config:")

    def test_run_unequal_to_lloyd_fails_its_check(self, tmp_path, capsys,
                                                  monkeypatch):
        finalize_round = sim.finalize_round

        def swapped(verdict, current):
            centroids, unchanged = finalize_round(verdict, current)
            return centroids[::-1], unchanged

        monkeypatch.setattr(sim, "finalize_round", swapped)
        rc = main(KMEANS_ARGS + ["--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().out.startswith("equivalence: fail\n")
        summary = json.loads(read(tmp_path / "kmeans_summary.json"))
        assert summary["equivalence"] == "fail"
        assert summary["equivalence_detail"].startswith("round 1 cluster 0: ")

    def test_max_rounds_one_reports_early_stop(self, tmp_path, capsys):
        # the files are written; the stop is reported as sweep reports it
        rc = main(["kmeans", "--n", "10", "--k", "2",
                   "--extra-edge-probability", "0.3", "--region", "0:30",
                   "--seed", "1", "--max-rounds", "1",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == \
            "no termination within max_rounds=1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "assignments.csv", "fcurve.csv", "kmeans_summary.json",
            "rounds.csv", "trajectories.csv"]
        summary = json.loads(read(tmp_path / "kmeans_summary.json"))
        assert summary["terminated"] is False
        assert summary["T"] == 1
        assert summary["equivalence"] == "pass"

    def test_invalid_cluster_count(self, tmp_path, capsys):
        rc = main(["kmeans", "--n", "5", "--k", "5", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "k" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=14\nk=2\nextra-edge-probability=0.2\nregion=0:20\n"
                       "seed=7\nmax-rounds=50\n", encoding="utf-8")
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        rc = main(["kmeans", "--config", str(cfg), "--out-dir", str(dir_a)])
        assert rc == 0
        main(KMEANS_ARGS + ["--out-dir", str(dir_b)])
        assert read(dir_a / "rounds.csv") == read(dir_b / "rounds.csv")
        # a flag overrides the file value
        dir_c = tmp_path / "c"
        rc = main(["kmeans", "--config", str(cfg), "--k", "3",
                   "--out-dir", str(dir_c)])
        assert rc == 0
        summary = json.loads(read(dir_c / "kmeans_summary.json"))
        assert summary["k"] == 3

    def test_explicit_input_files(self, tmp_path):
        graph = tmp_path / "g.txt"
        rc = main(["gen-graph", "--n", "8", "--extra-edge-probability",
                   "0.3", "--seed", "2", "-o", str(graph)])
        assert rc == 0
        obs = tmp_path / "obs.txt"
        obs.write_text("\n".join(f"{i} {i}" for i in range(8)) + "\n",
                       encoding="utf-8")
        cents = tmp_path / "cents.txt"
        cents.write_text("0 0\n7 7\n", encoding="utf-8")
        rc = main(["kmeans", "--graph", str(graph), "--observations", str(obs),
                   "--centroids", str(cents), "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = json.loads(read(tmp_path / "kmeans_summary.json"))
        assert summary["equivalence"] == "pass"

    def write_inputs(self, tmp_path):
        """A 6-node cycle, six 2-dim observations and two centroids."""
        graph = tmp_path / "g.txt"
        graph.write_text("6 6\n" + "".join(f"{(i + 1) % 6} {i}\n"
                                           for i in range(6)),
                         encoding="utf-8")
        obs = tmp_path / "obs.txt"
        obs.write_text("0 0\n1 1\n2 2\n8 8\n9 9\n10 10\n", encoding="utf-8")
        cents = tmp_path / "cents.txt"
        cents.write_text("0 0\n9 9\n", encoding="utf-8")
        return ["--graph", str(graph), "--observations", str(obs),
                "--centroids", str(cents)]

    def test_config_records_what_the_input_files_imply(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["kmeans", *self.write_inputs(tmp_path), "--region", "0:5",
                   "--out-dir", str(out)])
        assert rc == 0
        summary = json.loads(read(out / "kmeans_summary.json"))
        config = summary["config"]
        assert (config["n"], config["k"], config["dim"]) == (6, 2, 2)
        assert config["region"] == [[0, 5], [0, 5]]
        assert (summary["n"], summary["k"], summary["dim"]) == (6, 2, 2)
        assert read(out / "rounds.csv").startswith(
            "# config: " + json.dumps(config, sort_keys=True))

    @pytest.mark.parametrize("key, value, implied", [
        ("n", 12, 6), ("k", 4, 2), ("dim", 3, 2)])
    @pytest.mark.parametrize("source", ["flag", "config file"])
    def test_conflicting_size_is_an_input_error(self, tmp_path, capsys,
                                                key, value, implied, source):
        args = ["kmeans", *self.write_inputs(tmp_path)]
        if source == "flag":
            args += [f"--{key}", str(value)]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n", encoding="utf-8")
            args += ["--config", str(cfg)]
        out = tmp_path / "out"
        rc = main(args + ["--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {key}={value} conflicts with {key}={implied} "
            f"implied by the input files\n")
        assert not out.exists()

    def test_zero_denominator_centroid_is_an_input_error(self, tmp_path, capsys):
        cents = tmp_path / "cents.txt"
        cents.write_text("0 0\n1/0 7\n", encoding="utf-8")
        rc = main(["kmeans", "--n", "8", "--k", "2", "--centroids", str(cents),
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {cents}: line 2: bad centroid coordinate\n"

    @pytest.mark.parametrize("value", ["5", "0:x", "0:5,7"])
    def test_malformed_interval_names_expected_form(self, tmp_path, capsys,
                                                    value):
        rc = main(["kmeans", "--n", "8", "--k", "2", "--region", value,
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: bad interval") and "LO:HI" in err

    @pytest.mark.parametrize("command", ["kmeans", "sweep"])
    def test_non_integer_d_bound_usage_error_says_what_is_expected(
            self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--d-bound", "1.5", "--out-dir", str(tmp_path)])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"quantkmeans {command}: error: argument --d-bound: expected "
            "'auto' or an integer, not '1.5'")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [["--box", "1:2"], ["--oracle-check"]],
                             ids=["box", "oracle-check"])
    def test_deleted_flags_are_usage_errors(self, tmp_path, flags):
        with pytest.raises(SystemExit) as err:
            main(["kmeans", "--n", "5", "--k", "2", *flags,
                  "--out-dir", str(tmp_path)])
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["kmeans", "sweep"])
    def test_one_region_interval_applies_to_every_dimension(self, command):
        parser = build_parser()

        def config(region):
            return _experiment_config(parser.parse_args(
                [command, "--region", region, "--dim", "3"]), {})

        assert config("0:7") == config("0:7,0:7,0:7") == \
            ExperimentConfig(dim=3, region=((0, 7),) * 3)

    @pytest.mark.parametrize("lo, hi", [(0, 3), (5, 5)])
    def test_one_interval_runs_at_the_default_dimension(self, tmp_path, lo,
                                                        hi):
        # a one-point interval is nonempty
        rc = main(["kmeans", "--n", "5", "--k", "2", "--region", f"{lo}:{hi}",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        summary = json.loads(read(tmp_path / "kmeans_summary.json"))
        assert summary["config"]["region"] == [[lo, hi], [lo, hi]]

    def test_dim_without_one_interval_each_is_an_input_error(self, tmp_path,
                                                            capsys):
        rc = main(["kmeans", "--n", "6", "--k", "2", "--dim", "3",
                   "--region", "0:5,0:5", "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: one region interval per dimension is required\n"
        assert not (tmp_path / "kmeans_summary.json").exists()

    @pytest.mark.parametrize("command, flags, message", [
        pytest.param(command, flags, message, id=command + suffix)
        for command in ("kmeans", "sweep")
        for flags, message, suffix in (
            (["--dim", "0"], "dim must be a positive integer", ""),
            (["--max-rounds", "0"], "max_rounds must be a positive integer",
             "-max-rounds"))])
    def test_zero_dimensions_is_an_input_error(self, tmp_path, capsys,
                                               command, flags, message):
        rc = main([command, "--n", "6", "--k", "2", *flags,
                   "--region", "0:5", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestStepBoundViolation:
    def test_kmeans_reports_and_exits_nonzero(self, tmp_path, capsys,
                                              over_step_bound):
        rc = main(KMEANS_ARGS + ["--out-dir", str(tmp_path)])
        assert rc == 1
        summary = json.loads(read(tmp_path / "kmeans_summary.json"))
        assert summary["bound_ok"] is False
        assert capsys.readouterr().err == (
            f"step bound exceeded: C_t={summary['C_t']} is above the "
            f"paper's bound {summary['step_bound']}\n")

    def test_consensus_reports_and_exits_nonzero(self, tmp_path, capsys,
                                                 over_step_bound):
        graph = tmp_path / "g.txt"
        graph.write_text("3 3\n1 0\n2 1\n0 2\n", encoding="utf-8")
        values = tmp_path / "v.txt"
        values.write_text("5\n0\n0\n", encoding="utf-8")
        rc = main(["consensus", "--graph", str(graph), "--values", str(values),
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        summary = json.loads(read(tmp_path / "consensus_summary.json"))
        assert summary["bound_ok"] is False
        assert capsys.readouterr().err == (
            f"step bound exceeded: S_t={summary['S_t']} is above the "
            f"paper's bound {summary['step_bound']}\n")

    def test_consensus_runaway_is_a_protocol_violation(self, tmp_path,
                                                       capsys, monkeypatch):
        # at factor 1 the cap is n*m^2 = 6,272, below this run's S_t 8,357
        g, values = eight_node_counterexample()
        (tmp_path / "g.txt").write_text(serialize_edge_list(g),
                                        encoding="utf-8")
        (tmp_path / "v.txt").write_text("".join(f"{v}\n" for v, in values),
                                        encoding="utf-8")
        monkeypatch.setattr(sim, "_RUNAWAY_FACTOR", 1)
        out = tmp_path / "out"
        rc = main(["consensus", "--graph", str(tmp_path / "g.txt"),
                   "--values", str(tmp_path / "v.txt"), "--out-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr() == (
            "", "protocol violation: no stop within 1 times the step bound "
                "6272\n")
        assert not out.exists()

    def test_sweep_reports_and_exits_nonzero(self, tmp_path, capsys,
                                             over_step_bound):
        rc = main(["sweep", *SWEEP_FLAGS, "--seeds", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        aggregate = json.loads(read(tmp_path / "sweep_aggregate.json"))
        assert aggregate["all_bounds_ok"] is False
        assert capsys.readouterr().err == \
            "step bound exceeded: C_t is above the paper's bound for " \
            "seeds [0, 1]\n"


class TestGraphInputErrors:
    # ``sweep`` checks the probability in ``ExperimentConfig.validate``,
    # before any seed runs, and finds the diameter bound per seed, inside
    # ``run_experiment``, naming the seed.  Both are input errors, not
    # protocol violations.
    @pytest.mark.parametrize("flags, message", [
        (["--n", "10", "--extra-edge-probability", "2"],
         "extra_edge_probability must lie in [0, 1], not 2.0"),
        (["--n", "30", "--d-bound", "1"],
         "diameter bound 1 is below the true diameter 8")])
    @pytest.mark.parametrize("command, prefix, extra", [
        ("kmeans", "", []), ("sweep", "sweep seed 0: ", ["--seeds", "1"])])
    def test_reported_as_input_errors(self, tmp_path, capsys, command,
                                      prefix, extra, flags, message):
        if not message.startswith("diameter"):
            prefix = ""
        rc = main([command, *flags, *extra, "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {prefix}{message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, inputs", [
        ("consensus", {"--values": "1\n2\n3\n"}),
        ("kmeans", {"--observations": "1 1\n2 2\n3 3\n",
                    "--centroids": "0 0\n"})])
    def test_disconnected_graph_refused(self, tmp_path, capsys, command,
                                        inputs):
        # a one-way chain: both commands reject it with ``diameter``'s line
        args = [command]
        for flag, text in {"--graph": "3 2\n1 0\n2 1\n", **inputs}.items():
            path = tmp_path / f"{flag[2:]}.txt"
            path.write_text(text, encoding="utf-8")
            args += [flag, str(path)]
        out = tmp_path / "out"
        assert main(args + ["--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {NOT_STRONGLY_CONNECTED}\n"
        assert not out.exists()


class TestInputFileErrors:
    """A parse error names the file it is in."""

    @pytest.mark.parametrize("command, flag, text, message", [
        ("kmeans", "--graph", "6 x\n", "line 1: header fields must be integers"),
        ("kmeans", "--observations", "0 0\n1 a\n",
         "line 2: observations must be integers"),
        ("kmeans", "--centroids", "0 0\n1.5 7\n",
         "line 2: bad centroid coordinate"),
        ("consensus", "--values", "2\n\n4 x\n",
         "line 3: observations must be integers")])
    def test_error_names_the_file(self, tmp_path, capsys, command, flag, text,
                                  message):
        inputs = {"--graph": "6 6\n" + "".join(f"{(i + 1) % 6} {i}\n"
                                               for i in range(6)),
                  "--observations": "0 0\n1 1\n2 2\n8 8\n9 9\n10 10\n",
                  "--centroids": "0 0\n9 9\n",
                  "--values": "1\n2\n3\n4\n5\n6\n"}
        inputs[flag] = text
        flags = {"kmeans": ("--graph", "--observations", "--centroids"),
                 "consensus": ("--graph", "--values")}[command]
        args = [command]
        for name in flags:
            path = tmp_path / f"{name[2:]}.txt"
            path.write_text(inputs[name], encoding="utf-8")
            args += [name, str(path)]
        out = tmp_path / "out"
        assert main(args + ["--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: {tmp_path / (flag[2:] + '.txt')}: {message}\n"
        assert not out.exists()


class TestSweepCommand:
    def test_unset_flags_keep_the_config_defaults(self):
        parser = build_parser()
        assert _experiment_config(parser.parse_args(["sweep"]), {}) == \
            ExperimentConfig()
        config = _experiment_config(parser.parse_args(["sweep", "--dim", "3"]),
                                    {})
        assert config == ExperimentConfig(dim=3, region=((0, 50),) * 3)

    def test_small_sweep(self, tmp_path):
        args = ["sweep", *SWEEP_FLAGS, "--seeds", "3",
                "--out-dir", str(tmp_path)]
        rc = main(args)
        assert rc == 0
        aggregate = json.loads(read(tmp_path / "sweep_aggregate.json"))
        assert aggregate["config"]["num_seeds"] == 3
        assert "num_seeds" not in aggregate
        assert aggregate["all_bounds_ok"] is True
        per_seed = read(tmp_path / "sweep_per_seed.csv")
        assert per_seed.count("\n") == 5    # config + header + 3 rows
        assert (tmp_path / "sweep_thist.csv").exists()
        assert (tmp_path / "sweep_fmean.csv").exists()

    def test_seeds_out_of_rounds_are_reported_after_the_files(self, tmp_path,
                                                              capsys):
        rc = main(["sweep", *SWEEP_FLAGS, "--max-rounds", "1", "--seeds", "3",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == \
            "no termination within max_rounds=1 for seeds [0, 1, 2]\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "sweep_aggregate.json", "sweep_fmean.csv", "sweep_per_seed.csv",
            "sweep_thist.csv"]
        header, *rows = read(tmp_path / "sweep_per_seed.csv").splitlines()[1:]
        column = header.split(",").index("terminated")
        assert [row.split(",")[column] for row in rows] == ["False"] * 3

    def test_sweep_outputs_are_deterministic(self, tmp_path):
        # one worker is the serial sweep
        base = ["sweep", *SWEEP_FLAGS, "--seeds", "3"]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(base + ["--out-dir", str(dir_a)]) == 0
        assert main(base + ["--workers", "1", "--out-dir", str(dir_b)]) == 0
        for name in ("sweep_aggregate.json", "sweep_per_seed.csv",
                     "sweep_thist.csv", "sweep_fmean.csv"):
            assert read(dir_a / name) == read(dir_b / name)

    def test_protocol_error_names_its_seed(self, tmp_path, capsys,
                                           delivery_leak):
        rc = main(["sweep", *SWEEP_FLAGS, "--seeds", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == \
            "protocol violation: sweep seed 0: mass conservation violated\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_an_input_error(self, tmp_path, capsys,
                                                 workers):
        rc = main(["sweep", "--n", "10", "--k", "2", "--seeds", "1",
                   "--workers", workers, "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: workers must be a positive integer\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag",
                             ["--graph", "--observations", "--centroids"])
    def test_input_file_flags_are_refused(self, tmp_path, flag):
        # sweep generates every input from its seeds; a file is not read
        with pytest.raises(SystemExit) as err:
            main(["sweep", flag, str(tmp_path / "x.txt"), "--n", "10",
                  "--k", "2", "--seeds", "1", "--out-dir", str(tmp_path)])
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []


def counters(cls):
    """The ``int`` and ``bool`` fields of a trace or record class, in
    declaration order."""
    return [f.name for f in dataclasses.fields(cls)
            if f.type in ("int", "bool")]


def embedded_config(csv_text):
    first = csv_text.splitlines()[0]
    assert first.startswith("# config: ")
    return json.loads(first[len("# config: "):])


class TestArtifactsFollowTheDataclasses:
    """Each config, summary and ``rounds.csv`` counter is read off the
    dataclass that holds it."""

    @pytest.mark.parametrize("command, files, extra", [
        ("kmeans", ("kmeans_summary.json", "rounds.csv"),
         {"graph_file", "observations_file", "centroids_file"}),
        ("sweep", ("sweep_aggregate.json", "sweep_per_seed.csv"),
         {"num_seeds"})], ids=["kmeans", "sweep"])
    def test_embedded_config_has_exactly_the_config_fields(
            self, tmp_path, command, files, extra):
        assert main([command, "--n", "12", "--k", "2", "--region",
                     "0:20,-3:4", "--d-bound", "11", "--seed", "4",
                     "--max-rounds", "50", "--out-dir", str(tmp_path),
                     *(["--seeds", "1"] if command == "sweep" else [])]) == 0
        config = json.loads(read(tmp_path / files[0]))["config"]
        assert embedded_config(read(tmp_path / files[1])) == config
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert set(config) == {*names, "command", *extra}
        assert config["command"] == command
        assert config["region"] == [[0, 20], [-3, 4]]
        ran = ExperimentConfig(n=12, k=2, region=((0, 20), (-3, 4)),
                               graph_seed=4, observation_seed=5,
                               centroid_seed=6, d_bound=11, max_rounds=50)
        assert all(config[name] == getattr(ran, name)
                   for name in names if name != "region")

    def test_kmeans_summary_and_rounds_header(self, tmp_path):
        assert main(KMEANS_ARGS + ["--out-dir", str(tmp_path)]) == 0
        summary = json.loads(read(tmp_path / "kmeans_summary.json"))
        assert set(summary) == {"schema", "config", *counters(KMeansTrace),
                                "final_centroids", "objective_final",
                                "equivalence", "equivalence_detail"}
        assert (summary["equivalence"], summary["equivalence_detail"]) == \
            ("pass", "identical centroid sequences")
        # the embedded config reruns the experiment
        config = {f.name: summary["config"][f.name]
                  for f in dataclasses.fields(ExperimentConfig)}
        config["region"] = tuple(map(tuple, config["region"]))
        trace = run_experiment(ExperimentConfig(**config))
        assert all(summary[name] == getattr(trace, name)
                   for name in counters(KMeansTrace))
        lines = read(tmp_path / "rounds.csv").splitlines()
        leading = counters(RoundRecord)
        assert lines[1].split(",") == [*leading, "F_num", "F_den",
                                       "c_0", "c_1"]
        assert [line.split(",")[:len(leading)] for line in lines[2:]] == \
            [[str(getattr(r, name)) for name in leading] for r in trace.rounds]

    def test_sweep_rows_and_per_seed_header(self, tmp_path):
        assert main(["sweep", *SWEEP_FLAGS, "--seeds", "2",
                     "--out-dir", str(tmp_path)]) == 0
        config = _experiment_config(build_parser().parse_args(
            ["sweep", *SWEEP_FLAGS]), {})
        rows = sweep(config, 2).per_seed
        keys = ["seed", "graph_seed", "observation_seed", "centroid_seed",
                *counters(KMeansTrace), "objective_monotone",
                "objective_final", "objective_curve_float"]
        assert [list(row) for row in rows] == [keys, keys]
        for row in rows:
            trace = run_experiment(config_for_seed(config, row["seed"]))
            assert all(row[name] == getattr(trace, name)
                       for name in counters(KMeansTrace))
        lines = read(tmp_path / "sweep_per_seed.csv").splitlines()
        columns = keys[:-1]
        assert lines[1].split(",") == [*columns, "objective_final_float"]
        assert [line.split(",") for line in lines[2:]] == \
            [[*(str(row[c]) for c in columns),
              str(row["objective_curve_float"][-1])] for row in rows]

    def test_consensus_summary(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text("3 3\n1 0\n2 1\n0 2\n", encoding="utf-8")
        values = tmp_path / "v.txt"
        values.write_text("5 1\n0 2\n0 3\n", encoding="utf-8")
        assert main(["consensus", "--graph", str(graph), "--values",
                     str(values), "--out-dir", str(tmp_path)]) == 0
        summary = json.loads(read(tmp_path / "consensus_summary.json"))
        assert set(summary) == {"schema", "config",
                                *counters(ConsensusTrace),
                                "average", "estimates"}
        trace = run_consensus(parse_edge_list(read(graph)),
                              [(5, 1), (0, 2), (0, 3)])
        assert all(summary[name] == getattr(trace, name)
                   for name in counters(ConsensusTrace))
        assert summary["average"] == "5/3 2/1"


class TestConfigFile:
    @pytest.mark.parametrize("command", ["kmeans", "sweep", "gen-graph"])
    @pytest.mark.parametrize("line", ["max_round=0", "scale=3", "box=0:5",
                                      "p=0.3", "obs-seed=4"])
    def test_unknown_key_is_an_input_error(self, tmp_path, capsys, command,
                                           line):
        # a misspelt key, the deleted scale and box settings, and the old
        # spellings of extra_edge_probability and observation_seed must not
        # fall back to the defaults
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n=6\nk=2\n# comment\nregion=0:5\n{line}\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        args = {"kmeans": ["--out-dir", str(out)],
                "sweep": ["--seeds", "1", "--out-dir", str(out)],
                "gen-graph": ["--out", str(out / "g.txt")]}[command]
        rc = main([command, "--config", str(cfg), *args])
        assert rc == 1
        key = line.split("=")[0]
        assert capsys.readouterr().err == \
            f"error: config line 5: unknown key '{key}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["kmeans", "gen-graph"])
    @pytest.mark.parametrize("key, value", [
        ("n", "abc"), ("extra_edge_probability", "x"), ("k", "abc"),
        ("d_bound", "1.5")])
    def test_bad_value_names_its_key(self, tmp_path, capsys, command, key,
                                     value):
        cfg = tmp_path / "run.cfg"
        valid = "" if key == "n" else "n=6\n"
        cfg.write_text(f"{valid}k=2\nregion=0:5\n{key}={value}\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        args = {"kmeans": ["--out-dir", str(out)],
                "gen-graph": ["--out", str(out / "g.txt")]}[command]
        rc = main([command, "--config", str(cfg), *args])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: config key '{key}': bad value '{value}'\n"
        assert not out.exists()

    def test_gen_graph_builds_the_graph_kmeans_would(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=10\nextra_edge_probability=0.3\ngraph_seed=5\n",
                       encoding="utf-8")
        graph = tmp_path / "g.txt"
        assert main(["gen-graph", "--config", str(cfg), "-o", str(graph)]) == 0
        assert read(graph) == serialize_edge_list(
            generate_random_digraph(10, 0.3, 5))
        meta = json.loads(read(tmp_path / "g.txt.meta.json"))
        assert meta["config"] == {"command": "gen-graph", "n": 10,
                                  "extra_edge_probability": 0.3,
                                  "graph_seed": 5}
        out = tmp_path / "out"
        assert main(["kmeans", "--config", str(cfg), "--out-dir", str(out)]) == 0
        summary = json.loads(read(out / "kmeans_summary.json"))
        assert summary["config"]["graph_seed"] == 5
        assert (summary["n"], summary["m"]) == (10, parse_edge_list(
            read(graph)).m)

    @pytest.mark.parametrize("command", ["kmeans", "sweep", "gen-graph"])
    def test_line_without_equals_is_an_input_error(self, tmp_path, capsys,
                                                   command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=6\nk 2\n", encoding="utf-8")
        out = tmp_path / "out"
        args = {"kmeans": ["--out-dir", str(out)],
                "sweep": ["--seeds", "1", "--out-dir", str(out)],
                "gen-graph": ["--out", str(out / "g.txt")]}[command]
        rc = main([command, "--config", str(cfg), *args])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: config line 2: expected key=value\n"
        assert not out.exists()

    def test_consensus_takes_no_config_file(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["consensus", "--graph", "g.txt", "--values", "v.txt",
                  "--config", str(tmp_path / "x.cfg"),
                  "--out-dir", str(tmp_path)])
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_repeated_key_last_value_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=6\nk=2\nregion=0:5\nn=8\n", encoding="utf-8")
        assert main(["kmeans", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        summary = json.loads(read(tmp_path / "kmeans_summary.json"))
        assert (summary["config"]["n"], summary["n"]) == (8, 8)

    def test_every_documented_key_is_accepted(self, tmp_path):
        # one interval for every dimension, or one per dimension
        cfg = tmp_path / "run.cfg"
        for interval in ("region=0:9,0:9", "region=0:9"):
            cfg.write_text(f"n=8\nk=2\ndim=2\nextra-edge-probability=0.3\n"
                           f"{interval}\n"
                           "seed=4\ngraph-seed=5\nobservation_seed=6\n"
                           "centroid_seed=7\nd_bound=auto\nmax_rounds=20\n",
                           encoding="utf-8")
            assert main(["kmeans", "--config", str(cfg),
                         "--out-dir", str(tmp_path)]) == 0


def subcommand(name):
    (subparsers,) = [action for action in build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices[name]


class TestOneNamePerSetting:
    """A setting's flag and config key are its ``ExperimentConfig`` field
    name, with ``-`` or ``_``; ``seed``, which sets three seeds, is the one
    setting that is not a field."""

    NAMES = {f.name for f in dataclasses.fields(ExperimentConfig)} | {"seed"}
    # a value each setting parses
    VALUES = {"n": "8", "k": "2", "dim": "3", "region": "0:9",
              "extra_edge_probability": "0.3", "seed": "4", "graph_seed": "5",
              "observation_seed": "6", "centroid_seed": "7",
              "d_bound": "auto", "max_rounds": "20"}
    FLAGS = {"gen-graph": {"n", "extra_edge_probability", "seed",
                           "graph_seed"},
             "kmeans": NAMES, "sweep": NAMES}
    OTHER = {"help", "config", "out", "graph", "observations", "centroids",
             "log_messages", "out_dir", "seeds", "workers"}

    def test_config_keys_are_the_names(self):
        assert set(_SETTINGS) == self.NAMES == set(self.VALUES)

    @pytest.mark.parametrize("command", ["gen-graph", "kmeans", "sweep"])
    def test_flag_and_key_spell_the_name(self, tmp_path, command):
        settings = [action for action in subcommand(command)._actions
                    if action.dest not in self.OTHER]
        assert {action.dest for action in settings} == self.FLAGS[command]
        parser, cfg = build_parser(), tmp_path / "run.cfg"
        required = ["-o", "g.txt"] if command == "gen-graph" else []
        for action in settings:
            name = action.dest
            flag = "--" + name.replace("_", "-")
            assert action.option_strings == [flag]
            from_flag = parser.parse_args(
                [command, *required, flag, self.VALUES[name]])
            for key in {name, name.replace("_", "-")}:
                cfg.write_text(f"{key}={self.VALUES[name]}\n",
                               encoding="utf-8")
                from_key = parser.parse_args(
                    [command, *required, "--config", str(cfg)])
                _apply_config_file(from_key)
                assert getattr(from_key, name) == getattr(from_flag, name)

    @pytest.mark.parametrize("command", ["gen-graph", "kmeans", "sweep"])
    @pytest.mark.parametrize("flags", [["--p", "0.3"], ["--obs-seed", "4"],
                                       ["--extra", "0.3"]],
                             ids=["p", "obs-seed", "abbreviation"])
    def test_other_spellings_are_usage_errors(self, tmp_path, command, flags):
        out = tmp_path / "out"
        args = {"kmeans": ["--out-dir", str(out)],
                "sweep": ["--seeds", "1", "--out-dir", str(out)],
                "gen-graph": ["--out", str(out / "g.txt")]}[command]
        with pytest.raises(SystemExit) as err:
            main([command, "--n", "6", *flags, *args])
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_graph_seed_sets_what_seed_sets(self, tmp_path):
        for flag in ("--seed", "--graph-seed"):
            assert main(["gen-graph", "--n", "12", flag, "5",
                         "-o", str(tmp_path / f"{flag[2:]}.txt")]) == 0
        for suffix in (".txt", ".txt.meta.json"):
            assert read(tmp_path / f"seed{suffix}") == \
                read(tmp_path / f"graph-seed{suffix}")


PIN_FLAGS = ["--n", "16", "--k", "3", "--extra-edge-probability", "0.2",
             "--region", "0:30", "--seed", "8"]


def digests(root):
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


class TestArtifactsPinned:
    """Every file a command writes, byte for byte.  The commands run in the
    output directory, so only relative paths are embedded."""

    def test_kmeans(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["kmeans", *PIN_FLAGS, "--log-messages"]) == 0
        assert capsys.readouterr().out == \
            "equivalence: pass\nT=7 C_t=211 terminated=True\n"
        assert digests(tmp_path) == {
            "assignments.csv": "782a0978bf1c92698a282e3ec5ca2df5"
                               "ce4f4626a43e08937a4135bfa29f62ea",
            "fcurve.csv": "5a1692355adcc149feeb3da86affaff2"
                          "806122fbc7896a780a4ebc530c7a00ff",
            "kmeans_summary.json": "bac51c558305f39b1496e38aa40023ca"
                                   "e8512fa1efdd497e59a7e35fad7d6a19",
            "messages.csv": "d1180b969d49455f3e78cee18ccc5ee1"
                            "46c68136386946e3ae7b2692bd71ef4f",
            "rounds.csv": "4712a47ebc77f49b9b2fe578d3020255"
                          "7bfcbed82d443d572a72203a4c8af583",
            "trajectories.csv": "26fde24cd53d00be6946ec2fb9e60cbb"
                                "5a43449db0c6b451e2e0a511a17e0756",
        }

    def test_sweep(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", *PIN_FLAGS, "--seeds", "3"]) == 0
        assert digests(tmp_path) == {
            "sweep_aggregate.json": "303fad4acac8062bbca944a56d900300"
                                    "8f6694bfb1006aa021330eec9e0cb17a",
            "sweep_fmean.csv": "14c8974b98a66fc22c5d18d272017ea6"
                               "fbcc54db624731edeb3da3807aa714fc",
            "sweep_per_seed.csv": "188d3aebd7a26ea4acd4cb97f84cc136"
                                  "235897b78479a1893805e2f2b0ec23ce",
            "sweep_thist.csv": "7bad4eb2134a3e557fff5e48a47516d7"
                               "46a7aee1d3c47f1799b9b8a5c051f7ee",
        }

    def test_gen_graph_then_consensus(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "v.txt").write_text(
            "".join(f"{i % 4} {2 * i % 5}\n" for i in range(12)),
            encoding="utf-8")
        assert main(["gen-graph", "--n", "12", "--extra-edge-probability",
                     "0.3", "--seed", "5", "-o", "g.txt"]) == 0
        assert main(["consensus", "--graph", "g.txt", "--values", "v.txt",
                     "--log-messages"]) == 0
        assert digests(tmp_path) == {
            "consensus_messages.csv": "5a492c2bd17ee8a2fbdbebce66d8d5e8"
                                      "75750da9967677de9903ff33b835d7fa",
            "consensus_summary.json": "10d3cce91a6ae5d2c00e365be16d7328"
                                      "9a22f97690622dde2446a19a9ad93390",
            "consensus_trace.csv": "37a5241d47ae4643c190f6bc084f1e3d"
                                   "ad025f443e13953c1702319316a3ede0",
            "g.txt": "acff5e2cc9760c8ca32950cc60fa49d9"
                     "3fb19c7901268d83991344f06f7f99c6",
            "g.txt.meta.json": "94f78eed46120af5300068b161f7d635"
                               "6040f846a6ea4162bc02ae40638c8a78",
            "v.txt": "847c18e42ec83bb9d6b704dd039b746a"
                     "af87741c8f8034db895281e435e9385d",
        }
