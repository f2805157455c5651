"""Experiment runner: configs, determinism, bound parity, exit codes."""

import dataclasses
import json
import math

import numpy as np
import pytest

import dvopt.algorithms
from dvopt import cli, objectives, theory
from dvopt.cli import (
    ExperimentConfig,
    ValidationError,
    bounds_command,
    execute,
    graphinfo_command,
    main,
    sweep,
)
from dvopt.graphs import GraphSchedule, gen_topology, laplacian
from dvopt.linalg import pinv_sqrt_psd, project_consensus_orth
from dvopt.objectives import LogisticObjective, dual_constants, gen_ridge_instance, load_sparse_labeled


def minimal_config(tmp_path, **overrides):
    cfg = {
        "seed": 3,
        "objective": {"kind": "ridge", "n": 2, "l": 4, "m": 2, "c": 0.1, "noise": 0.1},
        "schedule": {
            "horizon": 10,
            "epochs": [{"start": 0, "kind": "path", "n": 2}],
        },
        "algorithms": ["nesterov"],
        "max_iter": 10,
        "record_every": 1,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


# star/cycle alternating every 5 iterations: 200 epochs, 2 distinct graphs
ALTERNATING_RUN = {
    "objective": {"kind": "ridge", "n": 20, "l": 10, "m": 5, "c": 0.1, "noise": 0.1},
    "schedule": {
        "alternating": {"kinds": ["star", "cycle"], "n": 20, "period": 5, "horizon": 1000}
    },
    "max_iter": 1000,
}


class TestConfigValidation:
    def test_minimal_roundtrip(self, tmp_path):
        cfg = ExperimentConfig.from_dict(minimal_config(tmp_path))
        assert cfg.run_id == "run3"
        assert cfg.algorithms == ("nesterov",)

    def test_unknown_algorithm_listed(self, tmp_path):
        with pytest.raises(ValidationError, match="nesterov"):
            ExperimentConfig.from_dict(minimal_config(tmp_path, algorithms=["panda"]))

    def test_empty_algorithms(self, tmp_path):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_dict(minimal_config(tmp_path, algorithms=[]))

    def test_missing_field(self, tmp_path):
        raw = minimal_config(tmp_path)
        del raw["seed"]
        with pytest.raises(ValidationError, match="seed"):
            ExperimentConfig.from_dict(raw)

    def test_missing_schedule_file(self, tmp_path):
        raw = minimal_config(tmp_path, schedule={"file": "does_not_exist.json"})
        with pytest.raises(ValidationError, match="does_not_exist"):
            ExperimentConfig.from_dict(raw, base_dir=str(tmp_path))


class TestExecute:
    def test_smoke_and_outputs(self, tmp_path):
        cfg = ExperimentConfig.from_dict(minimal_config(tmp_path))
        summary = execute(cfg)
        out = tmp_path / "out"
        assert (out / "run3_nesterov.csv").exists()
        assert (out / "run3_summary.json").exists()
        assert summary["changes"]["m"] == 0
        assert "accel_residual_bound" in summary["bounds"]

    def test_deterministic_outputs(self, tmp_path):
        raw = minimal_config(
            tmp_path,
            algorithms=["nesterov", "dual_gd", "diging"],
            max_iter=20,
            schedule={
                "horizon": 20,
                "epochs": [
                    {"start": 0, "kind": "erdos_renyi", "n": 2, "params": {"p": 1.0}, "seed": 5},
                    {"start": 10, "kind": "path", "n": 2},
                ],
            },
        )
        cfg = ExperimentConfig.from_dict({**raw, "output_dir": str(tmp_path / "a")})
        names = ("run3_nesterov.csv", "run3_dual_gd.csv", "run3_diging.csv", "run3_summary.json")
        execute(cfg)
        first = {n: (tmp_path / "a" / n).read_bytes() for n in names}
        execute(cfg)
        for n in names:
            assert (tmp_path / "a" / n).read_bytes() == first[n], n

    def test_summary_constants_match_theory(self, tmp_path):
        cfg = ExperimentConfig.from_dict(minimal_config(tmp_path))
        summary = execute(cfg)
        kappa = summary["dual_constants"]["kappa"]
        expected = theory.alg1_complexity(kappa, 0.0, log_term=1.0).alpha_ceiling
        assert summary["alpha_ceiling"] == expected

    def test_agent_mismatch(self, tmp_path):
        raw = minimal_config(
            tmp_path,
            objective={"kind": "ridge", "n": 3, "l": 4, "m": 2, "c": 0.1, "noise": 0.1},
        )
        with pytest.raises(ValidationError, match="agents"):
            execute(ExperimentConfig.from_dict(raw))

    @pytest.mark.parametrize("omitted", [("c",), ("noise",), ("c", "noise")])
    def test_ridge_defaults_write_the_same_csv_bytes(self, tmp_path, omitted):
        # the generator holds the defaults c = noise = 0.1, which the runner does not restate
        names = ("run3_nesterov.csv", "run3_dual_gd.csv", "run3_diging.csv")
        given = {"kind": "ridge", "n": 2, "l": 4, "m": 2, "c": 0.1, "noise": 0.1}
        outputs = []
        for label, objective in (
            ("given", given),
            ("omitted", {k: v for k, v in given.items() if k not in omitted}),
        ):
            raw = minimal_config(
                tmp_path,
                objective=objective,
                algorithms=["nesterov", "dual_gd", "diging"],
                output_dir=str(tmp_path / label),
            )
            execute(ExperimentConfig.from_dict(raw))
            outputs.append([(tmp_path / label / n).read_bytes() for n in names])
        assert outputs[0] == outputs[1]

    def test_dataset_objective(self, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("+1 1:1.0 2:0.5\n-1 1:-0.8\n+1 2:1.1\n-1 2:-0.3\n")
        raw = minimal_config(
            tmp_path,
            objective={"kind": "dataset", "path": str(data), "n": 2, "c": 0.5},
        )
        summary = execute(ExperimentConfig.from_dict(raw, base_dir=str(tmp_path)))
        assert summary["algorithms"]["nesterov"]["final_dual_residual"] < 1.0

    def test_dataset_agents_hold_shuffled_blocks_bit_for_bit(self, tmp_path):
        # 7 samples over 2 agents: 3 each, and the last one shuffled in is left out
        data = tmp_path / "data.txt"
        data.write_text(
            "+1 1:1.0 2:0.5\n-1 1:-0.8\n+1 2:1.1\n-1 2:-0.3\n+1 1:0.2 2:0.9\n-1 1:-1.5\n0 2:0.4\n"
        )
        raw = minimal_config(
            tmp_path, objective={"kind": "dataset", "path": str(data), "n": 2, "c": 0.5}
        )
        agg = cli._build_objective(ExperimentConfig.from_dict(raw))
        dense, labels = load_sparse_labeled(data).to_dense()
        order = np.random.default_rng(cli._derive_seed(3, cli._SEED_DATA)).permutation(7)
        assert agg.n == 2
        for i, local in enumerate(agg.locals):
            rows = order[3 * i : 3 * (i + 1)]
            want = LogisticObjective(dense[rows], labels[rows], ridge=0.5 / 2, scale=2.0 * 2 * 3)
            assert local.samples.tobytes() == want.samples.tobytes()
            assert local.labels.tobytes() == want.labels.tobytes()
            assert (local.ridge, local.scale, local.L, local.mu) == (
                want.ridge, want.scale, want.L, want.mu,
            )

    def test_gd_contraction_verdict_on_static_gd(self, tmp_path):
        raw = minimal_config(tmp_path, algorithms=["dual_gd"], max_iter=10)
        summary = execute(ExperimentConfig.from_dict(raw))
        verdict = summary["bounds"]["gd_contraction_bound"]
        assert verdict["clean"]

    def test_infeasible_alpha_warns_but_runs(self, tmp_path):
        raw = minimal_config(
            tmp_path,
            objective={"kind": "ridge", "n": 5, "l": 3, "m": 2, "c": 0.1, "noise": 0.1},
            schedule={"alternating": {"kinds": ["star", "cycle"], "n": 5, "period": 1}},
            max_iter=20,
        )
        summary = execute(ExperimentConfig.from_dict(raw))
        assert not summary["alpha_feasible"]
        assert any("ceiling" in w for w in summary["warnings"])
        assert summary["algorithms"]["nesterov"]["final_iter"] == 20

    def test_many_changes_run_reports_a_bound(self, tmp_path, capsys):
        # 199 changes make kappa^m overflow; the run still exits 0
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(tmp_path, **ALTERNATING_RUN)))
        assert main(["run", str(p)]) == 0
        summary = json.loads((tmp_path / "out" / "run3_summary.json").read_text())
        assert summary["changes"]["m"] == 199
        assert summary["bounds"]["accel_residual_bound"]["checked"] == 1001
        capsys.readouterr()
        assert main(["bounds", "thm3", "L=4643", "mu=1", "R=1", "m=199", "N=1000"]) == 0
        assert capsys.readouterr().out.rstrip().endswith("= inf")

    def test_spectra_once_per_distinct_topology(self, tmp_path, monkeypatch):
        import dvopt.graphs

        calls = []
        eig_sym = dvopt.graphs.eig_sym
        monkeypatch.setattr(dvopt.graphs, "eig_sym", lambda a: calls.append(a) or eig_sym(a))
        raw = minimal_config(
            tmp_path, **dict(ALTERNATING_RUN, algorithms=["dual_gd", "diging"], record_every=50)
        )
        summary = execute(ExperimentConfig.from_dict(raw))
        assert len(summary["per_epoch"]) == 200
        # the schedule's spectra, one per distinct topology, serve theta,
        # the dual_gd runner and the summary
        assert len(calls) == 2

    def test_centralized_problem_solved_once(self, tmp_path, monkeypatch):
        # the oracle's minimizer also gives the minimum-norm dual solution
        import dvopt.algorithms

        calls = []
        solve = cli.centralized_solve

        def counted(*args, **kwargs):
            calls.append(None)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "centralized_solve", counted)
        monkeypatch.setattr(dvopt.algorithms, "centralized_solve", counted)
        raw = minimal_config(tmp_path, algorithms=list(cli.ALGORITHMS))
        execute(ExperimentConfig.from_dict(raw))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "schedule",
        [
            {"alternating": {"kinds": ["star", "cycle"], "n": 5, "period": 3, "horizon": 30}},
            {"horizon": 30, "epochs": [{"start": 0, "kind": "star", "n": 5}]},
        ],
    )
    def test_runs_keep_no_record_arrays(self, tmp_path, monkeypatch, schedule):
        # what a record keeps stays alive until the run's rows are written.
        # The one array read is dual_gd's z on a single-epoch schedule, by its
        # verdict; that run keeps its full state (keep_state=True).
        traces = []

        def capture(name, runner):
            def run(agg, s, cfg):
                trace = runner(agg, s, cfg)
                traces.append((name, len(s.epochs), trace))
                return trace

            return run

        for name, runner in list(cli._RUNNERS.items()):
            monkeypatch.setitem(cli._RUNNERS, name, capture(name, runner))
        raw = minimal_config(
            tmp_path,
            objective={"kind": "ridge", "n": 5, "l": 4, "m": 3, "c": 0.1, "noise": 0.1},
            schedule=schedule,
            algorithms=list(cli.ALGORITHMS),
            max_iter=30,
        )
        summary = execute(ExperimentConfig.from_dict(raw))
        assert [name for name, _, _ in traces] == list(cli.ALGORITHMS)
        for name, epochs, trace in traces:
            keeps_z = name == "dual_gd" and epochs == 1
            assert len(trace.records) == 31 and not trace.aborted
            for rec in trace.records:
                kept = (rec.z, rec.z_tilde, rec.y_tilde)
                assert all((a is not None) == keeps_z for a in kept), (name, rec.iter)
        single = "epochs" in schedule
        assert ("gd_contraction_bound" in summary["bounds"]) == single


class TestBoundsCommand:
    def test_prop1_matches_theory(self):
        reports = bounds_command("prop1", {"kappa_bar": 4.0, "n": 9.0})
        lam0, _ = theory.diging_rates(4.0, 9)
        assert reports[0].value == lam0

    def test_thm5_matches_theory(self):
        reports = bounds_command("thm5", {"kappa": 100.0, "alpha": 0.0, "log_term": 10.0})
        res = theory.alg1_complexity(100.0, 0.0, log_term=10.0)
        assert reports[0].value == res.n_iters == 100
        assert reports[1].value == res.alpha_ceiling

    def test_cor2_zero_eps(self):
        reports = bounds_command("cor2", {"eps": 0.0})
        assert reports[0].value == 0.0
        # a zero gap certifies 0 whatever the other constants are, so they may be given
        reports = bounds_command("cor2", {"eps": 0.0, "kappa": 4.0, "L": 2.0, "mu": 1.0})
        assert reports[0].value == 0.0

    def test_gated_constants_are_read_with_their_gate(self):
        # the constants that need (or exclude) another one pass once it is given (or left out)
        assert bounds_command("thm5", {"kappa": 100.0, "L": 2.0, "mu": 1.0, "R": 3.0, "eps": 0.001})
        assert len(bounds_command("prop2", {"kappa": 4.0, "L": 7.0, "B": 3.0, "c": 0.01})) == 3
        prop1 = {"kappa_bar": 4.0, "n": 9.0, "B": 2.0, "delta": 0.1, "mu_bar": 2.0, "alpha": 1e-4}
        assert len(bounds_command("prop1", prop1)) == 2

    def test_missing_constant_named(self):
        with pytest.raises(ValidationError, match="mu"):
            bounds_command("cor1", {"L": 2.0, "R": 1.0, "eps": 0.1})

    def test_unknown_bound(self):
        with pytest.raises(ValidationError, match="valid: cor1, thm3, thm5, cor2, prop1, prop2, prop3"):
            bounds_command("thm9", {})

    def test_unread_step_drops_its_rate(self):
        names = [r.name for r in bounds_command("prop2", {"kappa": 4.0})]
        assert names == ["prop2.lambda0", "prop2.alpha_step"]
        names = [r.name for r in bounds_command("prop1", {"kappa_bar": 4.0, "n": 9.0, "alpha": 1e-4})]
        assert names == ["prop1.lambda0", "prop1.lambda_of_alpha"]

    def test_cor2_missing_constant_named(self):
        with pytest.raises(ValidationError, match=r"\['L'\]"):
            bounds_command("cor2", {"eps": 0.01, "kappa": 4.0, "mu": 1.0, "norm_xstar": 3.0})

    @pytest.mark.parametrize(
        "args, message",
        [
            (["thm5", "kappa=100", "alpah=0.5", "log_term=10"], "unknown thm5 constants field(s) ['alpah']"),
            (["thm3", "L=2", "mu=1", "R=1", "m=2", "N=10", "nn=3"], "unknown thm3 constants field(s) ['nn']"),
            (["cor1", "κ=3", "L=2", "mu=1", "R=1", "eps=0.1"], "unknown cor1 constants field(s) ['kappa']"),
            (["thm3", "L=2", "L=3", "mu=1", "R=1", "m=2", "N=10"], "constant L given twice, again in 'L=3'"),
            (["thm5", "kappa=1", "κ=100", "log_term=10"], "constant kappa given twice, again in 'κ=100'"),
            (
                ["thm5", "kappa=100", "L=2", "mu=1", "R=3", "eps=0.001", "log_term=10"],
                "thm5 reads constant(s) ['L', 'mu', 'R', 'eps'] only without log_term",
            ),
            (["thm5", "kappa=100", "log_term=10", "eps=0.1"], "thm5 reads constant(s) ['eps'] only without log_term"),
            (["prop2", "kappa=4", "L=7"], "prop2 reads constant(s) ['L'] only with c"),
            (["prop2", "kappa=4", "B=3"], "prop2 reads constant(s) ['B'] only with c"),
            (
                ["prop1", "kappa_bar=4", "n=9", "mu_bar=5", "B=3"],
                "prop1 reads constant(s) ['mu_bar', 'B'] only with alpha",
            ),
            (["prop1", "kappa_bar=4", "n=9", "delta=0.1"], "prop1 reads constant(s) ['delta'] only with alpha"),
            (["thm3", "L2", "mu=1", "R=1", "m=2", "N=10"], "expected key=value, got 'L2'"),
            (["thm3", "L=abc", "mu=1", "R=1", "m=2", "N=10"], "non-numeric value in 'L=abc'"),
        ],
    )
    def test_unread_or_repeated_constant_exits_one_naming_it(self, capsys, args, message):
        assert main(["bounds", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_aliases_print_the_same_lines(self, capsys):
        assert main(["bounds", "thm5", "kappa=100", "alpha=0", "log_term=10"]) == 0
        plain = capsys.readouterr().out
        assert main(["bounds", "thm5", "κ=100", "α=0", "logterm=10"]) == 0
        assert capsys.readouterr().out == plain
        assert plain.startswith("thm5.iterations [kappa=100 alpha=0 log_term=10] = 100 feasible=True\n")


class TestGraphInfo:
    def test_summary_values(self, tmp_path):
        spec = {
            "horizon": 30,
            "epochs": [
                {"start": 0, "kind": "complete", "n": 4},
                {"start": 15, "kind": "star", "n": 4},
            ],
        }
        p = tmp_path / "sched.json"
        p.write_text(json.dumps(spec))
        info = graphinfo_command(p)
        assert info["m"] == 1
        assert info["theta_max"] == pytest.approx(16.0, abs=1e-8)
        assert info["theta_min"] == pytest.approx(1.0, abs=1e-8)
        assert info["epochs"][0]["chi"] == pytest.approx(1.0, abs=1e-9)

    def test_single_complete(self, tmp_path):
        spec = {"horizon": 5, "epochs": [{"start": 0, "kind": "complete", "n": 4}]}
        p = tmp_path / "k4.json"
        p.write_text(json.dumps(spec))
        info = graphinfo_command(p)
        assert info["epochs"][0]["chi"] == pytest.approx(1.0, abs=1e-9)

    def test_path_chi(self, tmp_path):
        spec = {"horizon": 5, "epochs": [{"start": 0, "kind": "path", "n": 3}]}
        p = tmp_path / "p3.json"
        p.write_text(json.dumps(spec))
        assert graphinfo_command(p)["epochs"][0]["chi"] == pytest.approx(3.0, abs=1e-9)


def ref_gd_contraction_verdict(trace, dc, x_star, schedule):
    """The dual-GD contraction verdict as a loop of its own."""
    pinv_sqrt = pinv_sqrt_psd(laplacian(schedule.topologies()[0]))
    radius = float(np.linalg.norm(x_star))
    rho = (dc.l_f - dc.mu_f) / (dc.l_f + dc.mu_f)
    worst = -math.inf
    first = None
    for rec in trace.records:
        if rec.z is None:
            continue
        x_k = -(rec.z @ pinv_sqrt)
        violation = float(np.linalg.norm(x_k - x_star)) - (rho**rec.iter * radius + 1e-10)
        if violation > worst:
            worst = violation
        if violation > 0 and first is None:
            first = rec.iter
    return {"clean": first is None, "max_violation": worst, "first_violation_iter": first}


class TestGdContractionVerdict:
    AGG = gen_ridge_instance(5, 4, 3, seed=2)
    SCHED = GraphSchedule(80, ((0, gen_topology("cycle", 5)),))

    def verdicts(self, trace, x_star):
        dc = dual_constants(self.AGG, self.SCHED.theta)
        got = cli._gd_contraction_verdict(trace, dc, x_star, self.SCHED)
        # repr tells floats apart bit for bit
        assert repr(got) == repr(ref_gd_contraction_verdict(trace, dc, x_star, self.SCHED))
        return got["first_violation_iter"]

    def test_matches_its_own_loop_bit_for_bit(self, monkeypatch):
        full = dvopt.algorithms.run_dual_gradient(self.AGG, self.SCHED)
        x_star = dvopt.algorithms.solve_dual_min_norm(self.AGG, self.SCHED)
        radius = np.linalg.norm(x_star)
        # a consensus direction: X* moves, the distance to every x_k grows
        ones = np.ones_like(x_star) / math.sqrt(x_star.size)
        assert self.verdicts(full, x_star) is None
        assert 0 < self.verdicts(full, x_star + 0.3 * radius * ones) < 80
        # the distance at iteration 0 is the radius, and radius + 1e-10 rounds
        # to the radius: a violation of exactly 0, which is no violation
        assert self.verdicts(full, x_star + 1e7 * ones) == 1
        offset = 1e-2 * project_consensus_orth(np.random.default_rng(0).standard_normal(x_star.shape))
        moved = [dataclasses.replace(r, z=r.z + offset) for r in full.records]
        assert self.verdicts(dataclasses.replace(full, records=moved), x_star) == 0
        # an aborted run's last record keeps no z
        monkeypatch.setattr(dvopt.algorithms, "_DIVERGENCE_LIMIT", np.linalg.norm(full.records[40].z))
        aborted = dvopt.algorithms.run_dual_gradient(self.AGG, self.SCHED)
        assert aborted.aborted and aborted.records[-1].z is None
        assert self.verdicts(aborted, x_star) is None
        assert 0 < self.verdicts(aborted, x_star + 0.5 * radius * ones) < aborted.records[-1].iter


def sweep_raw(tmp_path):
    return {
        "seed": 1,
        "objective": {"kind": "ridge", "n": 5, "l": 3, "m": 2, "c": 0.1, "noise": 0.1},
        "schedule": {"alternating": {"kinds": ["star", "cycle"], "n": 5, "period": 10}},
        "algorithms": ["nesterov"],
        "max_iter": 40,
        "output_dir": str(tmp_path / "sweep"),
    }


class TestSweep:
    def _sweep_config(self, tmp_path):
        return ExperimentConfig.from_dict(sweep_raw(tmp_path))

    def test_single_cell_matches_execute(self, tmp_path):
        cfg = self._sweep_config(tmp_path)
        table = sweep(cfg, [1], [10])
        assert len(table) == 1
        assert table[0]["algorithm"] == "nesterov"
        assert math.isfinite(table[0]["final_dual_residual"])

    def test_empty_periods_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            sweep(self._sweep_config(tmp_path), [1], [])

    def test_negative_seed_rejected_before_any_cell(self, tmp_path):
        with pytest.raises(ValidationError, match=r"^sweep seed must be >= 0, got -2$"):
            sweep(self._sweep_config(tmp_path), [1, -2], [10])
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "periods, message",
        [
            ([5, 0], r"^sweep period must be >= 1, got 0$"),
            ([5, 2.5], r"^sweep period must be an integer, got 2.5$"),
        ],
    )
    def test_bad_period_rejected_before_any_cell(self, tmp_path, periods, message):
        with pytest.raises(ValidationError, match=message):
            sweep(self._sweep_config(tmp_path), [1], periods)
        assert not (tmp_path / "sweep").exists()

    def test_requires_alternating_schedule(self, tmp_path):
        cfg = ExperimentConfig.from_dict(minimal_config(tmp_path))
        with pytest.raises(ValidationError):
            sweep(cfg, [1], [5])


_ALT = {"kinds": ["path", "star"], "n": 2, "period": 2, "horizon": 10}
_EPOCH = {"start": 0, "kind": "path", "n": 2}


class TestMainExitCodes:
    def test_run_success(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(tmp_path)))
        assert main(["run", str(p)]) == 0
        assert "trace file" in capsys.readouterr().out

    def test_validation_error_exit_one(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(tmp_path, algorithms=["panda"])))
        assert main(["run", str(p)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"diging_stepsize": -1},
            {"diging_stepsize": 0},
            {"diging_stepsize": "abc"},
            {"diging_stepsize": None},
            {"diging_stepsize": True},
            {"diging_stepsize": math.inf},
            {"diging_stepsize": math.nan},
            {"diging_stepsze": 0.05},
            [0.05],
        ],
    )
    def test_bad_overrides_exit_one_before_any_file(self, tmp_path, capsys, overrides):
        # nesterov runs first, so a late check would leave its CSV behind
        raw = minimal_config(tmp_path, algorithms=["nesterov", "diging"], overrides=overrides)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field",
        [
            {"max_iter": None},
            {"record_every": None},
            {"seed": [1]},
            {"seed": math.inf},
            {"seed": True},
            {"seed": "1"},
            {"seed": -1},
            {"max_iter": 9.7},
            {"record_every": "3"},
            {"objective": {"kind": "ridge", "n": 2, "l": 4, "m": 2, "c": True}},
            {"objective": {"kind": "ridge", "n": 2, "l": 4, "m": 2, "noise": "0.1"}},
            {"algorithms": 5},
            {"objective": 5},
            {"objective": {"kind": "ridge", "l": 4, "m": 2}},
            {"objective": {"kind": "ridge", "n": None, "l": 4, "m": 2}},
            {"objective": {"kind": "logistic", "n": 2, "l": 4, "m": 2}},
            {"schedule": {"alternating": {**_ALT, "period": None}}},
            {"schedule": {"alternating": {**_ALT, "period": 2.5}}},
            {"schedule": {"alternating": {**_ALT, "kinds": 5}}},
            {"schedule": {"alternating": 5}},
            {"schedule": {"alternating": {**_ALT, "params": [None]}}},
            {"schedule": {"file": 5}},
            {"objective": {"kind": "dataset", "path": 5, "n": 2, "c": 0.5}},
            # a typo, fractional counts, a NaN, a repeated algorithm, run ids
            # that are not a file name and a non-string output_dir
            {"objective": {"kind": "ridge", "n": 2, "l": 4, "m": 2, "nosie": 5.0}},
            {"objective": {"kind": "ridge", "n": 2, "l": 4, "m": 2, "noise": math.nan}},
            {"schedule": {"alternating": {**_ALT, "horizn": 10}}},
            {"schedule": {"horizon": 30.9, "epochs": [{"start": 0, "kind": "path", "n": 2}]}},
            {"schedule": {"horizon": 10, "epochs": [{"start": 0, "kind": "path", "n": 2.5}]}},
            {"schedule": {"horizon": 10, "epochs": [{"start": 0, "kind": "path", "n": 2, "seed": True}]}},
            {
                "schedule": {
                    "horizon": 10,
                    "epochs": [{"start": 0, "kind": "erdos_renyi", "n": 2, "params": {"p": "0.9"}}],
                }
            },
            {"algorithms": ["nesterov", "nesterov"]},
            {"run_id": 5},
            {"run_id": "a/b"},
            {"run_id": ""},
            {"output_dir": 5},
        ],
    )
    def test_wrongly_typed_field_exits_one_before_any_file(self, tmp_path, capsys, field):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(tmp_path, **field)))
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, what",
        [
            ({"seed": -1}, "seed"),
            (
                {"schedule": {"alternating": {**_ALT, "kinds": ["erdos_renyi", "path"], "seed": -1}}},
                "alternating seed",
            ),
            (
                {"schedule": {"horizon": 10, "epochs": [{**_EPOCH, "kind": "erdos_renyi", "seed": -1}]}},
                "epoch 0: seed",
            ),
        ],
    )
    def test_negative_seed_error_names_the_field(self, tmp_path, capsys, field, what):
        # numpy's own message for a negative seed names no field
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(tmp_path, **field)))
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {what} must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, key",
        [
            ({"sed": 3}, "sed"),
            ({"overrides": {"diging_stepsze": 0.05}}, "diging_stepsze"),
            ({"objective": {"kind": "ridge", "n": 2, "l": 4, "m": 2, "nosie": 5.0}}, "nosie"),
            ({"objective": {"kind": "logistic", "n": 2, "l": 4, "m": 2, "c": 1, "noise": 0}}, "noise"),
            ({"objective": {"kind": "dataset", "path": "d.txt", "n": 2, "c": 0.5, "l": 4}}, "l"),
            ({"schedule": {"file": "sched.json", "horizon": 10}}, "horizon"),
            ({"schedule": {"alternating": _ALT, "period": 2}}, "period"),
            ({"schedule": {"alternating": {**_ALT, "horizn": 10}}}, "horizn"),
            ({"schedule": {"horizon": 10, "epochs": [], "epoch": []}}, "epoch"),
            ({"schedule": {"horizon": 10, "epochs": [{**_EPOCH, "sed": 1}]}}, "sed"),
            ({"schedule": {"horizon": 10, "epochs": [{**_EPOCH, "params": {"p": 1}}]}}, "p"),
            (
                {"schedule": {"alternating": {**_ALT, "params": [None, {"radius": 1}]}}},
                "radius",
            ),
            (
                {
                    "schedule": {
                        "horizon": 10,
                        "epochs": [{**_EPOCH, "kind": "erdos_renyi", "params": {"q": 0.5}}],
                    }
                },
                "q",
            ),
            (
                {
                    "schedule": {
                        "horizon": 10,
                        "epochs": [{**_EPOCH, "kind": "random_geometric", "params": {"r": 1}}],
                    }
                },
                "r",
            ),
        ],
    )
    def test_unknown_key_exits_one_naming_it(self, tmp_path, capsys, field, key):
        (tmp_path / "sched.json").write_text(json.dumps(minimal_config(tmp_path)["schedule"]))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(tmp_path, **field)))
        assert main(["run", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown ") and f"field(s) ['{key}']" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"record_every": 0}, "record_every must be >= 1"),
            ({"max_iter": 11}, "max_iter exceeds the schedule horizon"),
            ({"objective": {"kind": "dataset", "path": "d.txt", "n": 5, "c": 0.5}}, "dataset has 4 samples, fewer than 5 agents"),
            ({"objective": {"kind": "dataset", "path": "d.txt", "n": 0, "c": 0.5}}, "dataset objective n must be >= 1, got 0"),
            ({"objective": {"kind": "dataset", "path": "d.txt", "n": -1, "c": 0.5}}, "dataset objective n must be >= 1, got -1"),
        ],
    )
    def test_bad_value_exits_one_naming_it(self, tmp_path, capsys, field, message):
        (tmp_path / "d.txt").write_text("+1 1:1.0 2:0.5\n-1 1:-0.8\n+1 2:1.1\n-1 2:-0.3\n")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(tmp_path, **field)))
        assert main(["run", str(p)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["run", "adir"], "Is a directory: 'adir'"),
            (["graph-info", "adir"], "Is a directory: 'adir'"),
            (["sweep", "adir", "--seeds", "1", "--periods", "2"], "Is a directory: 'adir'"),
            (["run", "afile.json"], "File exists: '{tmp}/afile.json'"),
            (["run", "below.json"], "Not a directory: '{tmp}/afile.json/out'"),
            (["sweep", "afile.json", "--seeds", "1", "--periods", "2"], "Not a directory: '{tmp}/afile.json/s1_p2'"),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_unusable_path_or_no_command_exits_one_naming_it(
        self, tmp_path, capsys, monkeypatch, argv, named
    ):
        # a directory read as a file, an output_dir that is a file or lies below one
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile.json").write_text(json.dumps(sweep_raw(tmp_path) | {"output_dir": "afile.json"}))
        (tmp_path / "below.json").write_text(json.dumps(minimal_config(tmp_path, output_dir="afile.json/out")))
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: " in err and named.format(tmp=tmp_path) in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_numerical_failure_mid_run_exits_two(self, tmp_path, capsys, monkeypatch):
        # the family kernel that each step calls fails on its fourth call
        calls = []
        argmax = objectives._QuadraticStack.conj_argmax

        def failing(stack, z):
            calls.append(None)
            if len(calls) == 4:
                raise ValueError("argmax input must be finite")
            return argmax(stack, z)

        monkeypatch.setattr(objectives._QuadraticStack, "conj_argmax", failing)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(minimal_config(tmp_path)))
        assert main(["run", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime failure: ") and "must be finite" in err
        assert len(calls) == 4

    def test_valid_override_reaches_diging(self, tmp_path):
        raw = minimal_config(
            tmp_path, algorithms=["diging"], overrides={"diging_stepsize": 0.05}
        )
        cfg = ExperimentConfig.from_dict(raw)
        assert cfg.overrides == {"diging_stepsize": 0.05}
        assert not execute(cfg)["algorithms"]["diging"]["aborted"]

    def test_run_resolves_files_against_config_dir(self, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "cfgdir"
        cfg_dir.mkdir()
        sched = {"horizon": 10, "epochs": [{"start": 0, "kind": "path", "n": 2}]}
        (cfg_dir / "sched.json").write_text(json.dumps(sched))
        (cfg_dir / "data.txt").write_text("+1 1:1.0 2:0.5\n-1 1:-0.8\n+1 2:1.1\n-1 2:-0.3\n")
        raw = minimal_config(
            tmp_path,
            objective={"kind": "dataset", "path": "data.txt", "n": 2, "c": 0.5},
            schedule={"file": "sched.json"},
        )
        p = cfg_dir / "cfg.json"
        p.write_text(json.dumps(raw))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["run", str(p)]) == 0
        assert (tmp_path / "out" / "run3_nesterov.csv").exists()

    def test_run_writes_relative_output_dir_under_config_dir(self, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "cfgdir"
        cfg_dir.mkdir()
        p = cfg_dir / "cfg.json"
        p.write_text(json.dumps(minimal_config(tmp_path, output_dir="out")))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["run", str(p)]) == 0
        assert (cfg_dir / "out" / "run3_nesterov.csv").exists()
        assert not (elsewhere / "out").exists()

    def test_bounds_exit_codes(self, capsys):
        assert main(["bounds", "prop1", "kappa_bar=4", "n=9"]) == 0
        out = capsys.readouterr().out
        assert "0.99652" in out
        assert main(["bounds", "prop1", "kappa_bar=4"]) == 1

    @pytest.mark.parametrize(
        "args, constant",
        [
            (["thm3", "L=2", "mu=1", "R=1", "m=2.5", "N=10"], "m"),
            (["thm3", "L=2", "mu=1", "R=1", "m=2", "N=10.5"], "N"),
            (["prop1", "kappa_bar=4", "n=9.7"], "n"),
            (["prop1", "kappa_bar=4", "n=9", "B=1.5"], "B"),
            (["prop2", "kappa=4", "B=1.5"], "B"),
            (["cor1", "L=2", "mu=1", "R=1", "eps=nan"], "eps"),
            (["thm5", "kappa=inf"], "kappa"),
        ],
    )
    def test_bounds_bad_constant_exits_one_naming_it(self, capsys, args, constant):
        assert main(["bounds", *args]) == 1
        assert capsys.readouterr().err.startswith(f"error: {constant} must be ")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seeds", "1", "2.5", "--periods", "2"], "sweep seed must be an integer, got 2.5"),
            (["--seeds", "abc", "--periods", "2"], "sweep seed must be an integer, got 'abc'"),
            (["--seeds", "1", "--periods", "5", "0"], "sweep period must be >= 1, got 0"),
            (["--seeds", "1", "1", "--periods", "5"], "sweep seed 1 given twice"),
            (["--seeds", "1", "--periods", "5", "5.0"], "sweep period 5 given twice"),
        ],
    )
    def test_bad_sweep_flags_exit_one_before_any_file(self, tmp_path, capsys, flags, message):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(sweep_raw(tmp_path)))
        assert main(["sweep", str(p), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sweep").exists()

    def test_sweep_flags_take_integral_floats_and_exact_large_seeds(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(sweep_raw(tmp_path)))
        seed = 2**70 + 1  # beyond a float's exact range
        assert main(["sweep", str(p), "--seeds", str(seed), "--periods", "2.0"]) == 0
        table = json.loads((tmp_path / "sweep" / "run1_sweep.json").read_text())
        assert [(row["seed"], row["period"]) for row in table] == [(seed, 2)]
        assert (tmp_path / "sweep" / f"s{seed}_p2" / f"run1_s{seed}_p2_summary.json").exists()

    def test_graphinfo_exit(self, tmp_path, capsys):
        spec = {"horizon": 5, "epochs": [{"start": 0, "kind": "complete", "n": 4}]}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(spec))
        assert main(["graph-info", str(p)]) == 0
        assert main(["graph-info", str(tmp_path / "missing.json")]) == 1

    def test_graphinfo_rejects_a_fractional_horizon(self, tmp_path, capsys):
        spec = {"horizon": 30.9, "epochs": [{"start": 0, "kind": "complete", "n": 4}]}
        p = tmp_path / "s.json"
        p.write_text(json.dumps(spec))
        assert main(["graph-info", str(p)]) == 1
        assert capsys.readouterr().err == "error: horizon must be an integer, got 30.9\n"
