"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import SCENARIOS, _parse_policy, build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "figures" in output
    assert "scenarios" in output
    assert "reference" in output


def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_parse_policy_variants():
    assert _parse_policy("P").preemptive
    assert not _parse_policy("np").preemptive
    da = _parse_policy("DA(0/20)")
    assert da.map_drop_ratio(0) == pytest.approx(0.2)
    assert da.map_drop_ratio(1) == 0.0
    three = _parse_policy("DA(0/10/20)")
    assert three.map_drop_ratio(2) == 0.0
    assert three.map_drop_ratio(1) == pytest.approx(0.1)
    assert three.map_drop_ratio(0) == pytest.approx(0.2)


def test_parse_policy_rejects_garbage():
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        _parse_policy("FIFO")


def test_all_scenarios_buildable():
    for name, factory in SCENARIOS.items():
        scenario = factory()
        assert scenario.priorities, name


def test_compare_command_runs_small_comparison(capsys):
    code = main([
        "compare", "--scenario", "reference", "--policies", "P", "DA(0/20)",
        "--num-jobs", "40", "--seed", "1",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "DA(0/20)" in output
    assert "diff_mean_pct" in output


def test_table_command(capsys):
    code = main(["table", "2", "--num-jobs", "60", "--seed", "1"])
    assert code == 0
    output = capsys.readouterr().out
    assert "Table 2" in output
    assert "mean_queueing_s" in output


def test_figure7_command(capsys):
    code = main(["figure", "7", "--num-jobs", "60", "--seed", "1"])
    assert code == 0
    assert "Figure 7" in capsys.readouterr().out


def test_sweep_command(capsys):
    code = main([
        "sweep", "--scenario", "reference", "--ratios", "0", "0.2",
        "--num-jobs", "50", "--seed", "1",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "drop_ratio" in output
    assert "accuracy_loss_pct" in output


def test_load_sweep_command(capsys):
    code = main([
        "load-sweep", "--scenario", "reference", "--utilisations", "0.5",
        "--num-jobs", "40", "--seed", "1",
    ])
    assert code == 0
    assert "utilisation" in capsys.readouterr().out


def test_invalid_figure_rejected_by_argparse():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["figure", "99"])


def test_fleet_command_runs_small_fleet(capsys):
    code = main([
        "fleet", "--clusters", "2", "--router", "jsq",
        "--scenario", "two-priority", "--num-jobs", "25", "--seed", "1",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "router=jsq" in output
    assert "Per-cluster load" in output
    assert "load_imbalance" in output


def test_fleet_command_three_priority_default_policy(capsys):
    code = main([
        "fleet", "--clusters", "3", "--router", "least_work_left",
        "--scenario", "three-priority", "--num-jobs", "20",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "policy=DA(0/10/20)" in output


def test_fleet_command_shared_budget_and_explicit_policy(capsys):
    code = main([
        "fleet", "--clusters", "2", "--router", "round_robin",
        "--num-jobs", "15", "--policy", "DA(0/20)", "--budget", "shared",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "budget=shared" in output
    assert "policy=DA(0/20)" in output


def test_fleet_command_rejects_unknown_router(capsys):
    """A typo'd router exits non-zero with the valid choices, no traceback."""
    code = main(["fleet", "--router", "mystery", "--num-jobs", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown router 'mystery'" in err
    assert "valid choices:" in err
    for router in ("random", "round_robin", "jsq", "least_work_left"):
        assert router in err


def test_list_mentions_fleet_routers(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "fleet routers" in output
    assert "least_work_left" in output


def test_list_mentions_dag_layer(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "dag scenarios" in output
    assert "critical_path_first" in output


def test_dag_command_runs_small_scenario(capsys):
    code = main([
        "dag", "--scenario", "layered", "--scheduler", "critical_path_first",
        "--num-jobs", "15", "--seed", "1",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "scheduler=critical_path_first" in output
    assert "mean_cp_stretch" in output
    assert "mean_makespan_s" in output


def test_dag_command_slack_biased_and_policy(capsys):
    code = main([
        "dag", "--scenario", "fork-join", "--scheduler", "fifo",
        "--num-jobs", "10", "--policy", "DA(0/30)", "--slack-biased",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "policy=DA(0/30)" in output
    assert "slack_biased=True" in output


def test_dag_command_rejects_unknown_scheduler(capsys):
    """A typo'd stage scheduler exits non-zero listing the valid names."""
    code = main(["dag", "--scheduler", "lifo", "--num-jobs", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown stage scheduler 'lifo'" in err
    assert "valid choices:" in err
    for scheduler in ("fifo", "critical_path_first", "widest_first"):
        assert scheduler in err


def test_dag_command_rejects_unknown_scenario():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["dag", "--scenario", "mystery"])


def test_compare_command_parallel_jobs_matches_serial(capsys):
    argv = ["compare", "--scenario", "reference", "--policies", "P", "DA(0/20)",
            "--num-jobs", "30", "--seed", "1"]
    assert main(argv) == 0
    serial_output = capsys.readouterr().out
    assert main(argv + ["--jobs", "2"]) == 0
    parallel_output = capsys.readouterr().out
    assert parallel_output == serial_output


def test_compare_command_replications_reports_intervals(capsys):
    code = main([
        "compare", "--scenario", "reference", "--policies", "P",
        "--num-jobs", "25", "--replications", "3",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "half_width" in output
    assert "replications" in output


def test_jobs_flag_rejects_zero():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["compare", "--jobs", "0"])
    with pytest.raises(SystemExit):
        parser.parse_args(["fleet", "--jobs", "-1"])
    with pytest.raises(SystemExit):
        parser.parse_args(["dag", "--replications", "0"])
    with pytest.raises(SystemExit):
        parser.parse_args(["sweep", "--jobs", "two"])


def test_jobs_flag_error_message_is_clear(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["compare", "--jobs", "0"])
    err = capsys.readouterr().err
    assert "must be >= 1" in err


@pytest.mark.parametrize("value", ["nan", "inf", "Infinity", "NaN"])
@pytest.mark.parametrize(
    "flags",
    [
        ["fleet", "--telemetry-interval"],
        ["fleet", "--until"],
        ["fleet", "--replay-time-scale"],
        ["chaos", "--utilisation"],
    ],
)
def test_positive_float_flags_reject_non_finite_values(flags, value, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(flags + [value])
    assert excinfo.value.code == 2
    assert "must be a finite number > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("crash:mttf=nan", "crash mttf must be a finite number"),
        ("crash:mttf=100,repair=nan", "crash repair must be a finite number"),
        ("stragglers:p=0.1,slowdown=nan", "straggler slowdown must be a finite number"),
        ("stragglers:p=0.1,slowdown=inf", "straggler slowdown must be a finite number"),
        ("stragglers:p=0.1,speculate=nan", "speculate factor must be a finite number"),
    ],
)
def test_non_finite_fault_specs_fail_before_running(spec, message, capsys):
    code = main(["compare", "--num-jobs", "5", "--faults", spec])
    assert code == 1
    assert message in capsys.readouterr().err


def test_fleet_command_replications(capsys):
    code = main([
        "fleet", "--clusters", "2", "--router", "round_robin",
        "--num-jobs", "10", "--replications", "2",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "replications=2" in output
    assert "half_width" in output


def test_dag_command_replications(capsys):
    code = main([
        "dag", "--scenario", "layered", "--num-jobs", "6", "--replications", "2",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "replications=2" in output
    assert "mean_makespan_s" in output


def test_sweep_command_with_replications(capsys):
    code = main([
        "sweep", "--scenario", "reference", "--ratios", "0", "0.2",
        "--num-jobs", "20", "--replications", "2",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "drop_ratio" in output
    assert "replications" in output


def test_fleet_command_with_faults_reports_counters(capsys):
    code = main([
        "fleet", "--clusters", "2", "--num-jobs", "20", "--seed", "3",
        "--faults", "crash:mttf=300,repair=40;stragglers:p=0.1",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "Faults & recovery" in output
    assert "crashes" in output
    assert "quarantine_redirects" in output


def test_fleet_command_rejects_bad_fault_spec(capsys):
    code = main(["fleet", "--num-jobs", "5", "--faults", "crash:mtbf=10"])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown crash key 'mtbf'" in err
    assert "valid keys:" in err


def test_fleet_command_rejects_unknown_fault_kind(capsys):
    code = main(["fleet", "--num-jobs", "5", "--faults", "meteor:p=1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown fault kind 'meteor'" in err
    for kind in ("crash", "stragglers", "taskfail"):
        assert kind in err


def test_fleet_zero_capacity_crash_exits_cleanly(capsys):
    """Permanent crashes that drain the fleet exit 1 with a clear message."""
    code = main([
        "fleet", "--clusters", "2", "--num-jobs", "30", "--seed", "1",
        "--faults", "crash:mttf=100,repair=0",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "zero available workers" in err
    assert "no repair scheduled" in err


def test_dag_command_with_faults(capsys):
    code = main([
        "dag", "--scenario", "fork-join", "--num-jobs", "10", "--seed", "2",
        "--faults", "taskfail:p=0.1,retries=2",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "Faults & recovery" in output
    assert "retries" in output


def test_compare_command_with_faults(capsys):
    code = main([
        "compare", "--scenario", "reference", "--policies", "NP", "P",
        "--num-jobs", "25", "--faults", "stragglers:p=0.1,slowdown=3",
    ])
    assert code == 0
    assert "NP" in capsys.readouterr().out


def test_chaos_command_reports_levels(capsys):
    code = main([
        "chaos", "--clusters", "2", "--num-jobs", "15", "--seed", "4",
        "--faults", "stragglers:p=0.2,slowdown=3", "--levels", "0", "1",
    ])
    assert code == 0
    output = capsys.readouterr().out
    assert "Sensitivity to fault intensity" in output
    assert "delta_mean_pct" in output


def test_chaos_command_requires_faults(capsys):
    with pytest.raises(SystemExit):
        main(["chaos", "--num-jobs", "5"])


def test_fleet_checkpoint_resume_via_cli(tmp_path, capsys):
    ckpt = str(tmp_path / "fleet.ckpt")
    base = [
        "fleet", "--clusters", "2", "--num-jobs", "30", "--seed", "11",
        "--utilisation", "0.4", "--router", "round_robin",
        "--faults", "crash:mttf=400,repair=40;taskfail:p=0.05,retries=2",
    ]
    assert main(base) == 0
    reference = capsys.readouterr().out

    assert main(base + ["--checkpoint", ckpt, "--checkpoint-every", "50",
                        "--until", "3000"]) == 0
    capsys.readouterr()

    assert main(["fleet", "--resume", ckpt]) == 0
    resumed = capsys.readouterr().out
    # Identical metrics; only the title line mentions the resume.
    ref_body = reference.split("\n", 2)[2]
    resumed_body = resumed.split("\n", 2)[2]
    assert resumed_body == ref_body


def test_fleet_resume_rejects_replications_and_tracing(tmp_path, capsys):
    ckpt = str(tmp_path / "missing.ckpt")
    code = main(["fleet", "--resume", ckpt, "--replications", "4"])
    assert code == 1
    assert "--replications" in capsys.readouterr().err
    code = main(["fleet", "--resume", ckpt, "--trace", str(tmp_path / "t.json")])
    assert code == 1
    assert "--trace" in capsys.readouterr().err


def test_fleet_resume_missing_file_exits_cleanly(tmp_path, capsys):
    code = main(["fleet", "--resume", str(tmp_path / "nope.ckpt")])
    assert code == 1
    assert "cannot read checkpoint" in capsys.readouterr().err


def test_fleet_checkpoint_every_requires_checkpoint_path(capsys):
    code = main(["fleet", "--num-jobs", "5", "--checkpoint-every", "50"])
    assert code == 1
    assert "--checkpoint-every needs --checkpoint" in capsys.readouterr().err


def test_list_mentions_fault_kinds(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "fault kinds" in output
    assert "crash" in output and "stragglers" in output and "taskfail" in output


# ------------------------------------------------------------- trace replay
def _synth_cli_trace(tmp_path, capsys, *extra):
    path = str(tmp_path / "trace.jsonl")
    assert main(["synth-trace", "--out", path, "--num-jobs", "30",
                 "--seed", "5", *extra]) == 0
    capsys.readouterr()
    return path


def test_synth_trace_prints_a_histogram(tmp_path, capsys):
    path = str(tmp_path / "t.jsonl")
    code = main(["synth-trace", "--out", path, "--num-jobs", "25", "--seed", "1"])
    assert code == 0
    output = capsys.readouterr().out
    assert "jobs: 25" in output
    assert "length buckets" in output


def test_synth_trace_google_mix_rejects_scenario(tmp_path, capsys):
    path = str(tmp_path / "t.jsonl")
    code = main(["synth-trace", "--out", path, "--mix", "google",
                 "--scenario", "reference"])
    assert code == 1
    assert "--mix" in capsys.readouterr().err


def test_fleet_replay_runs_and_reports(tmp_path, capsys):
    path = _synth_cli_trace(tmp_path, capsys)
    assert main(["fleet", "--replay", path]) == 0
    output = capsys.readouterr().out
    assert "Fleet replay" in output
    assert "30 jobs" in output


def test_replay_rejects_conflicting_flags(tmp_path, capsys):
    path = _synth_cli_trace(tmp_path, capsys)
    code = main(["fleet", "--replay", path, "--num-jobs", "10"])
    assert code == 1
    assert "conflicts" in capsys.readouterr().err
    code = main(["fleet", "--replay", path, "--scenario", "two-priority"])
    assert code == 1
    assert "conflicts" in capsys.readouterr().err


def test_replay_fails_fast_on_malformed_files(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not a trace\n")
    assert main(["fleet", "--replay", str(bad)]) == 1
    assert "unrecognised trace file" in capsys.readouterr().err
    assert main(["fleet", "--replay", str(tmp_path / "missing.jsonl")]) == 1
    assert "no such trace file" in capsys.readouterr().err


def test_replay_mode_mismatch_points_at_the_other_command(tmp_path, capsys):
    path = _synth_cli_trace(tmp_path, capsys)
    assert main(["dag", "--replay", path]) == 1
    assert "repro fleet --replay" in capsys.readouterr().err


def test_dag_replay_runs_from_a_dag_trace(tmp_path, capsys):
    path = str(tmp_path / "dag.jsonl")
    assert main(["synth-trace", "--out", path, "--format", "dag-jsonl",
                 "--num-jobs", "10", "--seed", "2"]) == 0
    capsys.readouterr()
    assert main(["dag", "--replay", path]) == 0
    output = capsys.readouterr().out
    assert "DAG replay" in output
    assert "10 jobs" in output


def test_dag_replay_rejects_a_job_id_still_in_flight(tmp_path, capsys):
    import json

    path = tmp_path / "dag.jsonl"
    assert main(["synth-trace", "--out", str(path), "--format", "dag-jsonl",
                 "--num-jobs", "6", "--seed", "2"]) == 0
    capsys.readouterr()
    header, first, second, *rest = path.read_text().splitlines()
    record = json.loads(second)
    record["id"] = json.loads(first)["id"]
    path.write_text("\n".join([header, first, json.dumps(record), *rest]) + "\n")
    assert main(["dag", "--replay", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: job id ")
    assert "still in flight" in err[0]


def _cluster_csv(path, rows) -> str:
    from repro.traces.formats import CSV_COLUMNS

    lines = [",".join(CSV_COLUMNS)]
    lines += [f"{job_id},{arrival},1,100,4,5.0,0,0,0" for job_id, arrival in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_fleet_replay_rejects_a_job_id_still_in_flight(tmp_path, capsys):
    trace = _cluster_csv(tmp_path / "dup.csv", [(0, 0.0), (1, 0.5), (0, 1.0)])
    assert main(["fleet", "--replay", trace, "--clusters", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        "error: job id 0 arrived at t=1.0 while a job with the same id is still "
        "in flight; job ids must be unique among unfinished jobs"
    ]


def test_fleet_replay_reuses_a_job_id_once_its_job_finished(tmp_path, capsys):
    trace = _cluster_csv(tmp_path / "reuse.csv", [(0, 0.0), (1, 0.5), (0, 100.0)])
    assert main(["fleet", "--replay", trace, "--clusters", "1"]) == 0
    summary = capsys.readouterr().out.split("Summary")[1]
    completed = next(line for line in summary.splitlines() if "completed_jobs" in line)
    assert float(completed.split()[-1]) == 3.0


def test_list_mentions_trace_formats(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "trace formats" in output
    assert "cluster-csv" in output and "dag-jsonl" in output


# --------------------------------------------------------- learn / policy
def test_learn_routing_trains_evaluates_and_saves(tmp_path, capsys):
    agent_path = tmp_path / "agent.json"
    out_path = tmp_path / "learn.json"
    code = main([
        "learn", "--env", "routing", "--agent", "linucb",
        "--clusters", "3", "--num-jobs", "30",
        "--episodes", "2", "--eval-episodes", "2",
        "--save", str(agent_path), "--out", str(out_path),
    ])
    output = capsys.readouterr().out
    assert code == 0
    assert "baseline:random" in output
    assert "baseline:jsq" in output
    assert "p95_response_s" in output
    import json as json_module

    saved = json_module.loads(agent_path.read_text())
    assert saved["agent"] == "linucb"
    results = json_module.loads(out_path.read_text())
    assert results["key_metric"] == "p95_response_s"
    assert len(results["train"]["history"]) == 2
    assert set(results["eval"]["rows"]) == {
        "linucb", "baseline:random", "baseline:jsq"
    }


def test_policy_replays_a_saved_agent_byte_identically(tmp_path, capsys):
    agent_path = tmp_path / "agent.json"
    assert main([
        "learn", "--env", "routing", "--agent", "epsilon_greedy",
        "--clusters", "2", "--num-jobs", "20",
        "--episodes", "1", "--eval-episodes", "1",
        "--save", str(agent_path),
    ]) == 0
    capsys.readouterr()
    outputs = []
    for jobs in ("1", "2"):
        assert main([
            "policy", "--env", "routing", "--load", str(agent_path),
            "--clusters", "2", "--num-jobs", "20",
            "--episodes", "2", "--jobs", jobs,
        ]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "epsilon_greedy" in outputs[0]


def test_policy_scheduling_with_scheduler_agent(capsys):
    code = main([
        "policy", "--env", "scheduling", "--agent",
        "scheduler:critical_path_first", "--num-jobs", "2", "--episodes", "1",
    ])
    output = capsys.readouterr().out
    assert code == 0
    assert "scheduler:critical_path_first" in output
    assert "mean_makespan_s" in output


def test_policy_rejects_scheduler_agents_on_the_routing_env(capsys):
    assert main([
        "policy", "--env", "routing", "--agent", "scheduler:fifo",
    ]) == 1
    assert "stage decisions" in capsys.readouterr().err


def test_policy_rejects_unknown_agents(capsys):
    assert main(["policy", "--env", "routing", "--agent", "dqn"]) == 1
    assert "unknown agent" in capsys.readouterr().err


def test_learn_rejects_unknown_baselines(capsys):
    assert main([
        "learn", "--env", "routing", "--clusters", "2", "--num-jobs", "5",
        "--episodes", "1", "--eval-episodes", "1", "--baseline", "nope",
    ]) == 1
    assert "baseline router" in capsys.readouterr().err


def test_learn_rejects_mismatched_scenarios(capsys):
    assert main([
        "learn", "--env", "scheduling", "--scenario", "two-priority",
        "--episodes", "1", "--eval-episodes", "1",
    ]) == 1
    assert "unknown scheduling scenario" in capsys.readouterr().err


def test_list_mentions_decision_envs_and_agents(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    assert "decision envs (learn, policy): scheduling, routing" in output
    assert "epsilon_greedy" in output
    assert "linucb" in output
