"""CLI contract tests: subcommand behavior, exit codes, determinism."""

import json
import typing
from dataclasses import asdict, fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latgov.cli import main
from latgov.config import Mitigation, PolicySpec, RailDistribution, SimConfig, SimResult
from latgov.governor import GovernorState, Reason, step
from latgov.model import ContextProfile, ModelParams, context_conversion, median_abandon_time
from latgov.telemetry import OPTIONAL_FIELDS, REQUIRED_FIELDS, SloConfig
from reference import (
    GOOD_EVENT, HUGE, WILD, assert_no_non_finite, breach_window, make_event, run_latgov,
    run_quietly, write_telemetry,
)


class TestSimulate:
    def test_runs_and_writes_result(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(["simulate", "--sessions", "2000", "--seed", "42", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        result = SimResult.from_dict(doc["result"])
        assert 0.0 <= result.conversion_rate <= 1.0
        assert doc["config"]["sessions"] == 2000
        assert doc["outcome_model"] == "survive-then-convert"
        assert "policy=letw" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        args = ["simulate", "--sessions", "3000", "--seed", "42", "--policy", "letw"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_sessions_is_usage_error(self, tmp_path, capsys):
        code = main(["simulate", "--sessions", "0"])
        assert code == 2
        assert "sessions must be positive" in capsys.readouterr().err

    def test_policy_all_prints_comparison(self, tmp_path, capsys):
        out = tmp_path / "all.json"
        code = main(["simulate", "--sessions", "3000", "--policy", "all", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        for kind in ("none", "static_messaging", "letw"):
            assert kind in stdout
        doc = json.loads(out.read_text())
        results = {k: SimResult.from_dict(v) for k, v in doc["policies"].items()}
        assert set(results) == {"none", "static_messaging", "letw"}
        trust = {k: r.mean_trust for k, r in results.items()}
        assert trust["letw"] >= trust["static_messaging"] >= trust["none"]

    def test_config_file_applies(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sessions": 777, "params": {"alpha": 1.5}}))
        out = tmp_path / "out.json"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["sessions"] == 777
        assert doc["config"]["params"]["alpha"] == 1.5

    def test_bare_params_config(self, tmp_path):
        config = tmp_path / "params.json"
        config.write_text(json.dumps({"alpha": 1.2, "beta": 0.5}))
        out = tmp_path / "out.json"
        assert main(["simulate", "--config", str(config), "--sessions", "500", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["params"]["alpha"] == 1.2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sessions": 10, "warp": 9}))
        assert main(["simulate", "--config", str(config)]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/cfg.json"]) == 2

    def test_flag_overrides_config(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sessions": 777, "seed": 1}))
        out = tmp_path / "out.json"
        assert main(
            ["simulate", "--config", str(config), "--sessions", "50", "--seed", "9",
             "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["sessions"] == 50
        assert doc["config"]["seed"] == 9

    @pytest.mark.parametrize("token", ["NaN", "-Infinity", "1e999"])
    def test_non_finite_config_value_is_usage_error(self, tmp_path, capsys, token):
        config = tmp_path / "cfg.json"
        config.write_text('{"params": {"alpha": %s}}' % token)
        assert main(["simulate", "--config", str(config), "--sessions", "100"]) == 2
        captured = capsys.readouterr()
        assert token in captured.err
        assert "conversion=" not in captured.out

    def test_large_congestion_shift_abandons_everyone(self, tmp_path):
        """exp(gamma * L) overflows past ~1.9 ks; an infinite hazard abandons."""
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"rail": {"shift_s": 5000}}))
        out = tmp_path / "out.json"
        proc = run_latgov(
            ["simulate", "--config", str(config), "--sessions", "2000", "--out", str(out)], tmp_path
        )
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert proc.returncode == 0, proc.stderr
        result = json.loads(out.read_text())["result"]
        assert result["abandonment_rate"] == 1.0
        assert result["conversion_rate"] == 0.0


class TestReplay:
    def test_constant_latency_all_instant(self, tmp_path, capsys):
        telemetry = tmp_path / "t.jsonl"
        write_telemetry(telemetry, [1.0] * 25)
        out = tmp_path / "d.jsonl"
        assert main(["replay", "--telemetry", str(telemetry), "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 25
        assert all(r["mode"] == "instant" for r in records)
        assert all(
            set(r) == {"session_id", "perceived_latency_s", "trust", "mode", "reason"}
            for r in records
        )
        assert "transitions=0" in capsys.readouterr().out

    def test_ramp_has_two_transitions(self, tmp_path):
        telemetry = tmp_path / "ramp.jsonl"
        write_telemetry(telemetry, [1.0 + 0.1 * i for i in range(31)])  # 1.0 .. 4.0
        out = tmp_path / "d.jsonl"
        assert main(["replay", "--telemetry", str(telemetry), "--out", str(out)]) == 0
        modes = [json.loads(line)["mode"] for line in out.read_text().splitlines()]
        changes = sum(a != b for a, b in zip(modes, modes[1:]))
        assert changes == 2
        assert modes[0] == "instant"
        assert modes[-1] == "deferred"
        assert "soft" in modes

    def test_ramp_up_and_down_matches_step_fold(self, tmp_path, capsys):
        # Window 1 makes each perceived latency the event's own latency.
        up = [0.5 + 0.25 * i for i in range(15)]  # 0.5 .. 4.0
        telemetry = tmp_path / "ramp.jsonl"
        write_telemetry(telemetry, up + up[-2::-1] + [4.0, 0.5, 0.5])
        out = tmp_path / "d.jsonl"
        argv = ["replay", "--telemetry", str(telemetry), "--window", "1", "--out", str(out)]
        assert main(argv) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        state, seen = GovernorState(), set()
        params = ModelParams()
        for record in records:
            state, decision = step(state, record["perceived_latency_s"], params)
            assert record["mode"] == decision.mode.value
            assert record["reason"] == decision.reason.value
            assert record["trust"] == decision.trust
            seen.add((decision.mode.value, decision.reason))
        assert seen == {
            ("instant", Reason.WITHIN_BUDGET),
            ("soft", Reason.BUDGET_EXCEEDED),
            ("soft", Reason.HYSTERESIS_HOLD),
            ("deferred", Reason.SOFT_LIMIT_EXCEEDED),
            ("deferred", Reason.HYSTERESIS_HOLD),
        }
        assert f"transitions={state.transitions} " in capsys.readouterr().out

    def test_malformed_line_number_reported(self, tmp_path, capsys):
        telemetry = tmp_path / "bad.jsonl"
        lines = [make_event(f"s{i}", 1.0) for i in range(6)] + ["{broken"]
        telemetry.write_text("\n".join(lines) + "\n")
        assert main(["replay", "--telemetry", str(telemetry)]) == 2
        assert "line 7" in capsys.readouterr().err

    def test_skip_bad(self, tmp_path, capsys):
        telemetry = tmp_path / "bad.jsonl"
        lines = [make_event("a", 1.0), "{broken", make_event("b", 1.0)]
        telemetry.write_text("\n".join(lines) + "\n")
        out = tmp_path / "d.jsonl"
        assert main(["replay", "--telemetry", str(telemetry), "--skip-bad", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_non_finite_number_rejected(self, tmp_path, capsys):
        telemetry = tmp_path / "inf.jsonl"
        bad = make_event("a", 1.0).replace('"media_rtt_ms": 80', '"media_rtt_ms": Infinity')
        telemetry.write_text(bad + "\n" + make_event("b", 1.0) + "\n")
        assert main(["replay", "--telemetry", str(telemetry)]) == 2
        assert "line 1" in capsys.readouterr().err
        out = tmp_path / "d.jsonl"
        assert main(["replay", "--telemetry", str(telemetry), "--skip-bad", "--out", str(out)]) == 0
        assert [json.loads(line)["session_id"] for line in out.read_text().splitlines()] == ["b"]

    def test_missing_file_is_usage_error_before_output(self, tmp_path, capsys):
        assert main(["replay", "--telemetry", str(tmp_path / "absent.jsonl")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot read telemetry" in captured.err

    def test_deterministic_output(self, tmp_path):
        telemetry = tmp_path / "t.jsonl"
        write_telemetry(telemetry, [1.0, 2.5, 3.2, 1.1])
        out1, out2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
        main(["replay", "--telemetry", str(telemetry), "--out", str(out1)])
        main(["replay", "--telemetry", str(telemetry), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("to_stdout", [False, True], ids=["out_file", "stdout"])
    def test_records_are_compact_sorted_json(self, tmp_path, capsys, to_stdout):
        # Ids that need escaping; latencies that visit every mode and reason.
        ids = ["café", 'q"uote', "back\\slash", "tab\there", " ", "emoji\U0001f600", "", "s"]
        latencies = [0.5, 2.6, 2.4, 3.3, 3.1, 1.0, 0.25, 1e-3]
        telemetry = tmp_path / "t.jsonl"
        telemetry.write_text(
            "\n".join(make_event(i, lat) for i, lat in zip(ids, latencies)) + "\n", encoding="utf-8"
        )
        out = tmp_path / "d.jsonl"
        argv = ["replay", "--telemetry", str(telemetry), "--window", "1"]
        assert main(argv if to_stdout else [*argv, "--out", str(out)]) == 0
        text = capsys.readouterr().out if to_stdout else out.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert [json.loads(line)["session_id"] for line in lines] == ids
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))

    def test_window_from_config_unless_flagged(self, tmp_path):
        # A ramp whose modes follow the window: window 1 sees each latency alone.
        telemetry = tmp_path / "t.jsonl"
        write_telemetry(telemetry, [1.0] * 20 + [2.4, 3.5, 1.0, 2.4, 1.0, 3.5, 3.5, 1.0])
        config = tmp_path / "cfg.json"
        config.write_text('{"window_capacity": 1}')

        def replay(*flags):
            out = tmp_path / "d.jsonl"
            code, stdout, stderr, _ = run_quietly(
                ["replay", "--telemetry", str(telemetry), *flags, "--out", str(out)]
            )
            assert (code, stderr) == (0, "")
            return stdout, out.read_bytes()

        from_config = replay("--config", str(config))
        assert from_config == replay("--window", "1")
        assert from_config != replay()
        assert replay("--config", str(config), "--window", "256") == replay()


class TestReport:
    def test_quantile_mode_table(self, tmp_path, capsys):
        telemetry = tmp_path / "t.jsonl"
        # 100 events: ranks 50 -> 1.4, 90 -> 2.2, 99 -> 4.7 (nearest-rank).
        latencies = [1.4] * 50 + [2.2] * 40 + [4.7] * 10
        write_telemetry(telemetry, latencies, engaged_every=10)
        assert main(["report", "--telemetry", str(telemetry)]) == 0
        stdout = capsys.readouterr().out
        assert "instant" in stdout and "soft" in stdout and "deferred" in stdout
        assert "repeat engagement: 10.0%" in stdout

    def test_rows_json(self, tmp_path):
        telemetry = tmp_path / "t.jsonl"
        write_telemetry(telemetry, [1.4] * 50 + [2.2] * 40 + [4.7] * 10)
        out = tmp_path / "rows.json"
        assert main(["report", "--telemetry", str(telemetry), "--out", str(out)]) == 0
        rows = {r["statistic"]: r for r in json.loads(out.read_text())["rows"]}
        assert rows["p50"]["latency_s"] == pytest.approx(1.4)
        assert rows["p50"]["mode"] == "instant"
        assert rows["p90"]["mode"] == "soft"
        assert rows["p99"]["mode"] == "deferred"

    def test_single_event(self, tmp_path, capsys):
        telemetry = tmp_path / "one.jsonl"
        write_telemetry(telemetry, [1.7])
        out = tmp_path / "rows.json"
        assert main(["report", "--telemetry", str(telemetry), "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert all(r["latency_s"] == pytest.approx(1.7) for r in rows)

    def test_sim_input(self, tmp_path, capsys):
        sim_out = tmp_path / "sim.json"
        assert main(["simulate", "--sessions", "2000", "--out", str(sim_out)]) == 0
        assert main(["report", "--sim", str(sim_out)]) == 0
        assert "p99" in capsys.readouterr().out

    def test_sim_input_from_a_policy_comparison(self, tmp_path):
        sim_out = tmp_path / "all.json"
        assert main(["simulate", "--sessions", "300", "--policy", "all", "--out", str(sim_out)]) == 0
        code, stdout, stderr, _ = run_quietly(["report", "--sim", str(sim_out)])
        assert (code, stdout) == (2, "")
        assert stderr == (
            f"error: {sim_out} is a policy comparison of letw, none, static_messaging; "
            "report --sim reads the --out of a one-policy simulate run\n"
        )

    @pytest.mark.parametrize(
        "conversion_rate, repeat_rate, alerts",
        [
            pytest.param(0.5, 0.1, [], id="above_both_floors"),
            pytest.param(0.05, 0.1, ["conversion 5.0% [ALERT: below floor]"], id="conversion"),
            pytest.param(0.5, 0.01, ["repeat engagement 1.0% [ALERT: below floor]"], id="repeat"),
        ],
    )
    def test_sim_floor_alerts(self, tmp_path, capsys, conversion_rate, repeat_rate, alerts):
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps(
            {**SIM_RESULT, "conversion_rate": conversion_rate, "repeat_rate": repeat_rate}
        ))
        assert main(["report", "--sim", str(sim)]) == 0
        assert [line for line in capsys.readouterr().out.splitlines() if "ALERT" in line] == alerts

    def test_context_from_config(self, tmp_path, capsys):
        telemetry = tmp_path / "t.jsonl"
        write_telemetry(telemetry, [1.4] * 50 + [2.2] * 40 + [4.7] * 10)
        config = tmp_path / "cfg.json"
        config.write_text('{"ctx": {"m_c": 2.0}}')
        out = tmp_path / "rows.json"
        argv = ["report", "--telemetry", str(telemetry), "--config", str(config), "--out", str(out)]
        assert main(argv) == 0
        table = capsys.readouterr().out.splitlines()[2:5]
        rows = json.loads(out.read_text())["rows"]
        ctx, params = ContextProfile(m_c=2.0), ModelParams()
        for line, row, latency in zip(table, rows, (1.4, 2.2, 4.7)):
            assert row["conversion"] == context_conversion(latency, ctx, params)
            assert line.split()[-1] == f"{row['conversion'] * 100:.1f}"
        assert rows[0]["conversion"] != context_conversion(1.4, ContextProfile(), params)

    def test_requires_exactly_one_source(self, tmp_path):
        assert main(["report"]) == 2
        telemetry = tmp_path / "t.jsonl"
        write_telemetry(telemetry, [1.0])
        assert main(["report", "--telemetry", str(telemetry), "--sim", str(telemetry)]) == 2


class TestSlo:
    def test_compliant_stream(self, tmp_path, capsys):
        telemetry = tmp_path / "ok.jsonl"
        write_telemetry(telemetry, [0.8] * 60)
        code = main(["slo", "--telemetry", str(telemetry), "--window", "20"])
        assert code == 0
        assert "escalated=no" in capsys.readouterr().out

    def test_three_breaching_windows_escalate(self, tmp_path, capsys):
        telemetry = tmp_path / "bad.jsonl"
        write_telemetry(telemetry, breach_window() * 3)
        out = tmp_path / "slo.json"
        code = main(["slo", "--telemetry", str(telemetry), "--window", "20", "--out", str(out)])
        assert code == 3
        doc = json.loads(out.read_text())
        assert doc["escalated"] is True
        assert doc["escalation_windows"] == [2]
        assert doc["windows"][0]["breaches"] == ["p50", "p90"]
        assert doc["windows"][0]["alerts"] == ["p90"]
        assert "ESCALATED" in capsys.readouterr().out

    def test_two_breaches_then_clean_exits_zero(self, tmp_path):
        telemetry = tmp_path / "mixed.jsonl"
        write_telemetry(telemetry, breach_window() * 2 + [0.8] * 20)
        assert main(["slo", "--telemetry", str(telemetry), "--window", "20"]) == 0

    def test_malformed_line(self, tmp_path, capsys):
        telemetry = tmp_path / "bad.jsonl"
        telemetry.write_text("{broken\n")
        assert main(["slo", "--telemetry", str(telemetry)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_bad_window_is_usage_error(self, tmp_path):
        telemetry = tmp_path / "t.jsonl"
        write_telemetry(telemetry, [0.8] * 5)
        assert main(["slo", "--telemetry", str(telemetry), "--window", "0"]) == 2
        code, _, stderr, _ = run_quietly(["replay", "--telemetry", str(telemetry), "--window", "0"])
        assert (code, stderr) == (2, "error: window_capacity must be >= 1, got 0\n")


class TestFit:
    def test_two_point_fit(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main(["fit", "--points", "0.5:0.16,2.5:0.104", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["alpha"] == pytest.approx(-1.534398, abs=1e-6)
        assert doc["beta"] == pytest.approx(0.247661, abs=1e-6)
        stdout = capsys.readouterr().out
        assert "alpha=-1.534398" in stdout
        assert "beta=0.247661" in stdout

    def test_hazard_anchor(self, tmp_path):
        out = tmp_path / "fit.json"
        code = main(["fit", "--hazard-anchor", "1:7", "--gamma", "0.38", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["lambda0"] == pytest.approx(0.067717, abs=1e-6)

    def test_hazard_anchor_out_keeps_its_gamma(self, tmp_path):
        out = tmp_path / "fit.json"
        assert main(["fit", "--hazard-anchor", "1:7", "--gamma", "1.0", "--out", str(out)]) == 0
        params = ModelParams(**json.loads(out.read_text()))
        assert params.gamma == 1.0
        assert median_abandon_time(1.0, params) == pytest.approx(7.0, abs=1e-12)

    def test_flat_points(self, tmp_path):
        out = tmp_path / "fit.json"
        assert main(["fit", "--points", "1:0.5,2:0.5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["alpha"] == pytest.approx(0.0, abs=1e-12)
        assert doc["beta"] == 0.0

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            *(pytest.param("--points", points, message, id=points) for points, message in [
                ("1:0.5", "expected exactly two latency:probability points, got 1"),
                ("1:0.5,2:0.6,3:0.7", "expected exactly two latency:probability points, got 3"),
                ("nonsense", "could not parse point 'nonsense'"),
                ("1:2:3,4:5", "could not parse point '1:2:3'"),
                ("1:0.5,1:0.6", "latencies must be distinct"),
                ("-1e308:0.6,1e308:0.5", "latency must be non-negative, got -1e+308"),
                ("1:0.6,-0.5:0.5", "latency must be non-negative, got -0.5"),
            ]),
            *(pytest.param("--hazard-anchor", anchor, "could not parse hazard anchor",
                           id=f"anchor-{anchor}") for anchor in ["7", "1:7:2", "one:7", "1:inf"]),
        ],
    )
    def test_bad_points_usage_error(self, capsys, flag, value, message):
        assert main(["fit", f"{flag}={value}"]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_points_too_close_for_a_finite_fit(self, capsys):
        assert main(["fit", "--points", "0:0.1,5e-324:0.9"]) == 2
        stderr = capsys.readouterr().err
        assert len([line for line in stderr.splitlines() if "error:" in line]) == 1, stderr
        assert not any(token in stderr.lower() for token in ("nan", "inf")), stderr

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["--points", "1:0.3,2:0.5"], "beta"),
            (["--hazard-anchor", "1:7", "--gamma", "-1"], "gamma"),
        ],
        ids=["rising_points", "negative_gamma"],
    )
    def test_fit_the_model_rejects_writes_nothing(self, tmp_path, capsys, argv, field):
        out = tmp_path / "fit.json"
        assert main(["fit", *argv, "--out", str(out)]) == 2
        stderr = capsys.readouterr().err
        assert len(stderr.splitlines()) == 1, stderr
        assert stderr.startswith(f"error: {field} must be >= 0, got -"), stderr
        assert not out.exists()

    def test_nothing_to_fit(self, capsys):
        assert main(["fit"]) == 2
        assert "nothing to fit" in capsys.readouterr().err


class TestParser:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["transmogrify"]) == 2

    def test_bad_flag_value(self):
        assert main(["simulate", "--sessions", "many"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["slo", "--telemetry", "{t}", "--skip", "--win", "64"],
            ["report", "--tel", "{t}"],
            ["replay", "--telemetry", "{t}", "--wind", "3"],
            ["simulate", "--sess", "100"],
            ["fit", "--poin", "1:0.5,2:0.4"],
        ],
        ids=["slo", "report", "replay", "simulate", "fit"],
    )
    def test_flag_prefix_is_a_usage_error(self, tmp_path, capsys, argv):
        telemetry, out = tmp_path / "t.jsonl", tmp_path / "out.json"
        write_telemetry(telemetry, [0.8] * 512 + [2.9] * 768)  # slo escalates on it
        argv = [arg.replace("{t}", str(telemetry)) for arg in argv]
        assert main([*argv, "--out", str(out)]) == 2
        assert "usage: latgov" in capsys.readouterr().err
        assert not out.exists()


# A valid `report --sim` input: one simulation result document.
SIM_RESULT = {
    "conversion_rate": 0.5, "abandonment_rate": 0.1, "repeat_rate": 0.1, "mean_trust": 0.6,
    "mode_shares": {"instant": 0.7, "soft": 0.2, "deferred": 0.1},
    "latency_p50": 1.4, "latency_p90": 2.2, "latency_p99": 4.7,
}


def huge_field_telemetry(field):
    bad = dict(GOOD_EVENT, session_id="s1", **{field: HUGE})
    return "\n".join([json.dumps(GOOD_EVENT), json.dumps(bad)]) + "\n"


# A config "policy" that is not an object -> (its decoded Python type, the
# JSON type the error names).
POLICY_NOT_AN_OBJECT = {
    "5": ("int", "number"), "null": ("NoneType", "null"), '"ab"': ("str", "string"),
    '[["static_threshold_s", 1.0]]': ("list", "array"),
}

# A JSON value nested deeper than the interpreter's recursion limit.
DEEP = "[" * 100_000
DEEP_TELEMETRY = "\n".join([make_event("s0", 1.0), DEEP, make_event("s2", 2.0)]) + "\n"

# (files to write, argv) per input that once ended in a traceback, a NaN or
# Infinity, a silently ignored value, or an error without its line.
REPROS = {
    "rail_sigma_log_1000": ({"cfg.json": '{"rail": {"sigma_log": 1000}}'},
                            ["simulate", "--config", "cfg.json"]),
    "rail_mu_log_800": ({"cfg.json": '{"rail": {"mu_log": 800}}'},
                        ["simulate", "--config", "cfg.json"]),
    "fit_nan_point": ({}, ["fit", "--points", "nan:0.5,1:0.4"]),
    "fit_nan_gamma": ({}, ["fit", "--hazard-anchor", "1:7", "--gamma", "nan"]),
    "config_400_digit_alpha": ({"cfg.json": '{"params": {"alpha": %d}}' % HUGE},
                               ["simulate", "--config", "cfg.json"]),
    **{
        f"{command}_huge_{field}": ({"t.jsonl": huge_field_telemetry(field)},
                                    [command, "--telemetry", "t.jsonl"])
        for command in ("replay", "slo", "report")
        for field in ("confirm_ts", "media_rtt_ms")
    },
    "simulate_gamma_5000": ({"cfg.json": '{"params": {"gamma": 5000}}'},
                            ["simulate", "--config", "cfg.json"]),
    "replay_gamma_5000": ({"cfg.json": '{"params": {"gamma": 5000}}',
                           "t.jsonl": make_event("s0", 1.0) + "\n"},
                          ["replay", "--config", "cfg.json", "--telemetry", "t.jsonl"]),
    "fit_anchor_5000": ({}, ["fit", "--hazard-anchor", "5000:7"]),
    # A session count too large to allocate fails at once, before any per-block list grows.
    "simulate_sessions_2_64": ({}, ["simulate", "--sessions", str(2**64)]),
    "config_sessions_2_64": ({"cfg.json": '{"sessions": %d}' % 2**64},
                             ["simulate", "--config", "cfg.json"]),
    "fit_gamma_minus_5000": ({}, ["fit", "--hazard-anchor", "1:7", "--gamma", "-5000"]),
    **{
        f"config_{name}": ({"cfg.json": doc}, ["simulate", "--config", "cfg.json"])
        for name, doc in (
            ("sessions_1.5", '{"sessions": 1.5}'),
            ("seed_1.5", '{"seed": 1.5}'),
            ("window_capacity_2.5", '{"window_capacity": 2.5}'),
            ("alpha_string", '{"params": {"alpha": "x"}}'),
            ("mu_log_string", '{"rail": {"mu_log": "x"}}'),
            ("sessions_true", '{"sessions": true}'),
            ("alpha_null", '{"params": {"alpha": null}}'),
            *((f"policy_{kind}", '{"policy": %s}' % text)
              for text, (kind, _) in POLICY_NOT_AN_OBJECT.items()),
        )
    },
    "replay_alpha_string": ({"cfg.json": '{"params": {"alpha": "x"}}',
                             "t.jsonl": make_event("s0", 1.0) + "\n"},
                            ["replay", "--config", "cfg.json", "--telemetry", "t.jsonl"]),
    "slo_target_string": ({"cfg.json": '{"slo": {"p90_max_s": "x"}}',
                           "t.jsonl": make_event("s0", 1.0) + "\n"},
                          ["slo", "--config", "cfg.json", "--telemetry", "t.jsonl"]),
    "config_beta_times_m_c_overflows": (
        {"cfg.json": '{"params": {"beta": 1e308}, "ctx": {"m_c": 1e10}}'},
        ["simulate", "--config", "cfg.json"]),
    "fit_config_flag": ({}, ["fit", "--config", "nope.json", "--points", "1:0.5,2:0.4"]),
    "replay_seed_flag": ({"t.jsonl": make_event("s0", 1.0) + "\n"},
                         ["replay", "--seed", "1", "--telemetry", "t.jsonl"]),
    "replay_k_1e308": ({"cfg.json": '{"params": {"k": 1e308}}',
                        "t.jsonl": "\n".join(make_event(f"s{i}", latency) for i, latency
                                             in enumerate([1.0, 1.0, 100.0, 1.0])) + "\n"},
                       ["replay", "--config", "cfg.json", "--telemetry", "t.jsonl"]),
    "slo_deep_telemetry": ({"t.jsonl": DEEP_TELEMETRY}, ["slo", "--telemetry", "t.jsonl"]),
    "simulate_deep_config": ({"cfg.json": DEEP}, ["simulate", "--config", "cfg.json"]),
    "report_deep_sim": ({"sim.json": DEEP}, ["report", "--sim", "sim.json"]),
    **{
        f"report_sim_{name}": ({"sim.json": json.dumps({**SIM_RESULT, **bad})},
                               ["report", "--sim", "sim.json"])
        for name, bad in (
            ("latency_p50_minus_1", {"latency_p50": -1}),
            ("conversion_minus_5", {"conversion_rate": -5}),
            ("quantiles_unordered", {"latency_p50": 3.0, "latency_p99": 1.0}),
            *((f"mode_share_{name}", {"mode_shares": {"instant": share, "soft": 0.0,
                                                      "deferred": 0.0}})
              for name, share in (("string", "x"), ("null", None), ("true", True))),
            ("mode_shares_bogus_key", {"mode_shares": {"bogus": 1.0}}),
        )
    },
}

# REPROS name -> the start of its error line: a usage error (exit 2) that says where.
USAGE_ERRORS = {
    "slo_deep_telemetry": "error: line 2: malformed JSON: maximum recursion depth exceeded",
    "simulate_deep_config": "error: config file cfg.json is not valid JSON: ",
    "report_deep_sim": "error: simulation output sim.json is not valid JSON: ",
    "report_sim_latency_p50_minus_1": "error: bad simulation output: latency quantiles",
    "report_sim_conversion_minus_5": "error: bad simulation output: conversion_rate",
    "report_sim_quantiles_unordered": "error: bad simulation output: latency quantiles",
    **{
        f"report_sim_mode_share_{name}": "error: bad simulation output: simulation result "
                                         "field mode_shares['instant'] must be float"
        for name in ("string", "null", "true")
    },
    "report_sim_mode_shares_bogus_key": "error: bad simulation output: mode_shares key 'bogus'",
    "config_sessions_true": "error: simulation config field sessions must be int, got true\n",
    "config_alpha_null": "error: params field alpha must be float, got null\n",
    "config_alpha_string": 'error: params field alpha must be float, got "x"\n',
}


class TestBadInputEndsCleanly:
    @pytest.mark.parametrize("name", sorted(REPROS))
    def test_exits_with_one_error_line(self, tmp_path, monkeypatch, name):
        files, argv = REPROS[name]
        for file_name, text in files.items():
            (tmp_path / file_name).write_text(text)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.json"
        code, stdout, stderr, runtime = run_quietly([*argv, "--out", str(out)])
        assert code in (1, 2), (code, stdout, stderr)
        assert len([line for line in stderr.splitlines() if "error:" in line]) == 1, stderr
        assert "Traceback" not in stderr
        assert not runtime, [str(w.message) for w in runtime]
        assert not any(token in stdout for token in ("nan", "inf", "NaN", "Infinity")), stdout
        assert not out.exists()
        if name in USAGE_ERRORS:
            assert code == 2 and stderr.startswith(USAGE_ERRORS[name]), stderr

    def test_skip_bad_drops_a_deep_line(self, tmp_path):
        deep, clean = tmp_path / "deep.jsonl", tmp_path / "clean.jsonl"
        deep.write_text(DEEP_TELEMETRY)
        clean.write_text(DEEP_TELEMETRY.replace(DEEP, ""))
        runs = [
            run_quietly(["slo", "--telemetry", str(path), "--skip-bad", "--window", "2"])
            for path in (deep, clean)
        ]
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and "n=2" in runs[0][1]

    def test_out_of_memory(self, monkeypatch):
        def exhausted(rng, n):  # a generator, as draw_variates is: it fails when a lane is taken
            raise MemoryError("Unable to allocate 763. MiB")
            yield

        monkeypatch.setattr("latgov.simulator.draw_variates", exhausted)
        code, _, stderr, _ = run_quietly(["simulate", "--sessions", "100"])
        assert code == 1
        assert len([line for line in stderr.splitlines() if "error:" in line]) == 1, stderr
        assert "Traceback" not in stderr

    def test_skip_bad_drops_a_huge_timestamp(self, tmp_path):
        telemetry = tmp_path / "t.jsonl"
        telemetry.write_text(huge_field_telemetry("confirm_ts"))
        out = tmp_path / "d.jsonl"
        assert main(["replay", "--telemetry", str(telemetry), "--skip-bad", "--out", str(out)]) == 0
        assert [json.loads(line)["session_id"] for line in out.read_text().splitlines()] == ["s0"]


TELEMETRY_COMMANDS = ("replay", "report", "slo")


class TestTelemetryInput:
    """The telemetry reader replay, report and slo share."""

    @pytest.mark.parametrize(
        "text,flags", [("", []), ("{broken\n\n[1]\n", ["--skip-bad"])], ids=["empty", "all_bad"]
    )
    @pytest.mark.parametrize("command", TELEMETRY_COMMANDS)
    def test_no_events_is_one_error_line(self, tmp_path, command, text, flags):
        telemetry = tmp_path / "t.jsonl"
        telemetry.write_text(text)
        out = tmp_path / "out.json"
        code, stdout, stderr, _ = run_quietly(
            [command, "--telemetry", str(telemetry), *flags, "--out", str(out)]
        )
        assert code == 1
        assert stderr == "error: no telemetry events\n"
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", TELEMETRY_COMMANDS)
    def test_non_utf8_line_is_a_line_error(self, tmp_path, command):
        # Past the first 8 KiB, so a whole-chunk decode error would not name the line.
        good = [make_event(f"s{i}", 1.0 + i % 7 / 10) for i in range(120)]
        clean = tmp_path / "clean.jsonl"
        clean.write_text("\n".join(good) + "\n")
        dirty = tmp_path / "dirty.jsonl"
        dirty.write_bytes(
            ("\n".join(good[:100]) + "\n").encode()
            + b'{"session_id":"\xff\xfe"}\n'
            + ("\n".join(good[100:]) + "\n").encode()
        )
        code, stdout, stderr, _ = run_quietly([command, "--telemetry", str(dirty)])
        assert code == 2
        assert stderr == "error: line 101: line is not valid UTF-8\n"
        assert stdout == ""

        clean_out, dirty_out = tmp_path / "clean.out", tmp_path / "dirty.out"
        expected = run_quietly([command, "--telemetry", str(clean), "--out", str(clean_out)])
        got = run_quietly(
            [command, "--telemetry", str(dirty), "--skip-bad", "--out", str(dirty_out)]
        )
        assert expected[0] == 0
        assert got[:3] == expected[:3]
        assert dirty_out.read_bytes() == clean_out.read_bytes()

    @pytest.mark.parametrize("char", ["\x0b", "\x1c", "\x85", "\xa0", "\u2028"])
    @pytest.mark.parametrize("command", TELEMETRY_COMMANDS)
    def test_only_json_whitespace_is_stripped(self, tmp_path, command, char):
        """A character str.strip() takes and JSON does not count as whitespace makes a
        bad line, after an event or alone."""
        events = [make_event(f"s{i}", 1.0 + i / 10) for i in range(3)]
        clean = tmp_path / "clean.jsonl"
        clean.write_text(f"{events[0]}\n{events[2]}\n")
        want = run_quietly([command, "--telemetry", str(clean)])[:3]
        assert want[0] == 0
        for line in (events[1] + char, char):
            path = tmp_path / "t.jsonl"
            path.write_text(f"{events[0]}\n{line}\n{events[2]}\n", encoding="utf-8")
            code, stdout, stderr, _ = run_quietly([command, "--telemetry", str(path)])
            assert (code, stdout) == (2, "")
            assert stderr.startswith("error: line 2: malformed JSON: ") and stderr.count("\n") == 1
            assert run_quietly([command, "--telemetry", str(path), "--skip-bad"])[:3] == want

    @pytest.mark.parametrize("flags", [[], ["--skip-bad"]], ids=["strict", "skip_bad"])
    @pytest.mark.parametrize("command", TELEMETRY_COMMANDS)
    def test_byte_order_mark_is_dropped(self, tmp_path, command, flags):
        # An outlier first event, so losing it changes every command's output.
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        write_telemetry(plain, [6.0, 1.0, 1.1, 1.2, 1.3])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        runs = []
        for path in (plain, marked):
            out = tmp_path / f"{path.stem}.out"
            code, stdout, stderr, _ = run_quietly(
                [command, "--telemetry", str(path), *flags, "--out", str(out)]
            )
            runs.append((code, stdout, stderr, out.read_bytes()))
        assert runs[0][0] == 0
        assert runs[1] == runs[0]


# Every section of one config document, "slo" included.
FULL_CONFIG = {**SimConfig(sessions=300).to_dict(), "slo": asdict(SloConfig(p90_max_s=0.5))}


class TestConfigFile:
    """One --config document, decoded the same way by every command that takes it."""

    @pytest.mark.parametrize("text", sorted(POLICY_NOT_AN_OBJECT))
    def test_policy_must_be_an_object(self, tmp_path, text):
        config = tmp_path / "cfg.json"
        config.write_text('{"policy": %s}' % text)
        code, stdout, stderr, _ = run_quietly(["simulate", "--config", str(config)])
        assert (code, stdout) == (2, "")
        json_type = POLICY_NOT_AN_OBJECT[text][1]
        assert stderr == f"error: policy must be a JSON object, got {json_type}\n"

    @pytest.mark.parametrize(
        "argv,text,message",
        [
            (["simulate", "--config", "{path}"], "[1]",
             "config file {path} must hold a JSON object, got array"),
            (["report", "--sim", "{path}"], '"result"',
             "simulation output {path} must hold a JSON object, got string"),
            (["report", "--sim", "{path}"], '{"result": true}',
             "bad simulation output: simulation result must be a JSON object, got boolean"),
            (["slo", "--telemetry", "{path}"], make_event("s0", 1.0) + "\n2.5\n",
             "line 2: event must be a JSON object, got number"),
            (["replay", "--telemetry", "{path}"], "null\n",
             "line 1: event must be a JSON object, got null"),
        ],
        ids=["config_array", "sim_string", "sim_result_boolean", "telemetry_number",
             "telemetry_null"],
    )
    def test_messages_name_json_types(self, tmp_path, argv, text, message):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, stdout, stderr, _ = run_quietly([a.format(path=path) for a in argv])
        assert (code, stdout, stderr) == (2, "", f"error: {message.format(path=path)}\n")

    @pytest.mark.parametrize(
        "flags,kind",
        [([], "none"), (["--policy", "static"], "static_messaging"), (["--policy", "letw"], "letw")],
        ids=["config", "flag_static", "flag_letw"],
    )
    def test_policy_kind_from_config_unless_flagged(self, tmp_path, flags, kind):
        config = tmp_path / "cfg.json"
        config.write_text('{"policy": {"kind": "none", "static_threshold_s": 1.5}}')
        out = tmp_path / "out.json"
        argv = ["simulate", "--config", str(config), "--sessions", "300", *flags, "--out", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["config"]["policy"] == {
            "kind": kind, "static_threshold_s": 1.5
        }

    @pytest.mark.parametrize("command", TELEMETRY_COMMANDS)
    def test_unknown_key_rejected(self, tmp_path, command):
        config = tmp_path / "cfg.json"
        config.write_text('{"parms": {}}')
        write_telemetry(tmp_path / "t.jsonl", [1.0, 1.2])
        code, stdout, stderr, _ = run_quietly(
            [command, "--config", str(config), "--telemetry", str(tmp_path / "t.jsonl")]
        )
        assert (code, stdout) == (2, "")
        assert stderr == "error: unknown simulation config field(s): parms\n"

    @pytest.mark.parametrize("command", ["simulate", *TELEMETRY_COMMANDS])
    def test_one_document_serves_every_command(self, tmp_path, command):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(FULL_CONFIG))
        write_telemetry(tmp_path / "t.jsonl", [1.0] * 6)
        argv = [command, "--config", str(config)]
        if command != "simulate":
            argv += ["--telemetry", str(tmp_path / "t.jsonl")]
        if command == "slo":
            argv += ["--window", "2"]
        code, _, stderr, _ = run_quietly(argv)
        # Every 1 s window breaches the document's 0.5 s p90 target.
        assert code == (3 if command == "slo" else 0), stderr

    def test_byte_order_mark_is_accepted(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_bytes(b"\xef\xbb\xbf" + b'{"params": {"alpha": 1.5}}')
        out = tmp_path / "out.json"
        assert main(["simulate", "--config", str(config), "--sessions", "300",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["params"]["alpha"] == 1.5


# Accepted configs whose arithmetic overflows to +-inf or divides by zero
# where that limit is the right answer.
EXTREME_CONFIGS = {
    "beta_1e308": {"params": {"beta": 1e308}},
    "k_1e308": {"params": {"k": 1e308}},
    "lambda0_5e-324": {"params": {"lambda0": 5e-324}},
    "rho_5e-324": {"mitigation": {"rho_soft": 5e-324, "rho_deferred": 5e-324}},
}


@pytest.mark.parametrize("name", sorted(EXTREME_CONFIGS))
def test_extreme_config_runs_quietly(tmp_path, name):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(EXTREME_CONFIGS[name]))
    out = tmp_path / "out.json"
    code, stdout, stderr, runtime = run_quietly(
        ["simulate", "--config", str(config), "--sessions", "2000", "--policy", "all",
         "--out", str(out)]
    )
    assert code == 0, stderr
    assert not runtime, [str(w.message) for w in runtime]
    assert not any(token in stdout for token in ("nan", "inf", "NaN", "Infinity")), stdout
    assert_no_non_finite(out)


def wild_section(cls):
    """Wild values for some of ``cls``'s fields, or a wild value in place of the section."""
    return st.dictionaries(st.sampled_from([f.name for f in fields(cls)]), WILD, max_size=3) | WILD


SECTIONS = {
    "rail": RailDistribution, "policy": PolicySpec, "params": ModelParams,
    "ctx": ContextProfile, "mitigation": Mitigation,
}
TOP_LEVEL = [f.name for f in fields(SimConfig) if f.name not in SECTIONS]

sim_docs = st.builds(
    lambda top, sections: {"sessions": 500, **top, **sections},
    st.dictionaries(st.sampled_from(TOP_LEVEL), WILD, max_size=2),
    st.fixed_dictionaries({}, optional={k: wild_section(c) for k, c in SECTIONS.items()}),
)
# The sections replay, report and slo read.
telemetry_docs = st.fixed_dictionaries(
    {},
    optional={"params": wild_section(ModelParams), "ctx": wild_section(ContextProfile),
              "window_capacity": WILD, "slo": wild_section(SloConfig)},
)
wild_events = st.lists(
    st.dictionaries(st.sampled_from(REQUIRED_FIELDS + OPTIONAL_FIELDS), WILD,
                    min_size=1, max_size=2).map(lambda bad: {**GOOD_EVENT, **bad}),
    max_size=3,
)


class TestCliFuzz:
    """Wild config values and telemetry fields end in 0-3, never an exception,
    and any --out parses without NaN or Infinity."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(doc=sim_docs, policy=st.sampled_from(["letw", "all"]))
    @example(doc={"sessions": 2**64}, policy="all")
    def test_simulate(self, tmp_path_factory, doc, policy):
        tmp = tmp_path_factory.mktemp("fuzz")
        (tmp / "cfg.json").write_text(json.dumps(doc))
        out = tmp / "out.json"
        code, _, _, runtime = run_quietly(["simulate", "--config", str(tmp / "cfg.json"),
                                           "--policy", policy, "--out", str(out)])
        assert code in (0, 1, 2, 3)
        assert not runtime, [str(w.message) for w in runtime]
        assert_no_non_finite(out)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        doc=telemetry_docs,
        events=wild_events,
        command=st.sampled_from(["replay", "slo", "report"]),
        skip_bad=st.booleans(),
    )
    def test_telemetry_commands(self, tmp_path_factory, doc, events, command, skip_bad):
        tmp = tmp_path_factory.mktemp("fuzz")
        (tmp / "cfg.json").write_text(json.dumps(doc))
        lines = [json.dumps(GOOD_EVENT)] * 4 + [json.dumps(e) for e in events]
        (tmp / "t.jsonl").write_text("\n".join(lines) + "\n")
        out = tmp / ("out.jsonl" if command == "replay" else "out.json")
        argv = [command, "--config", str(tmp / "cfg.json"), "--telemetry", str(tmp / "t.jsonl"),
                "--out", str(out)] + (["--skip-bad"] if skip_bad else [])
        code, _, _, runtime = run_quietly(argv)
        assert code in (0, 1, 2, 3)
        assert not runtime, [str(w.message) for w in runtime]
        assert_no_non_finite(out)


def float_fields(cls):
    """The fields of ``cls`` that take a float, ``Optional[float]`` ones too."""
    hints = typing.get_type_hints(cls)
    return [f.name for f in fields(cls)
            if float in (hints[f.name], *typing.get_args(hints[f.name]))]


EXTREME_FLOATS = [1e308, -1e308, 5e-324, 1e-300, 0.0]
# (section or None for the top level, field): every float field simulate reads ...
SIM_FLOAT_FIELDS = [(None, name) for name in float_fields(SimConfig)] + [
    (section, name) for section, cls in SECTIONS.items() for name in float_fields(cls)
]
# ... and every float field replay, report and slo read.
TELEMETRY_FLOAT_FIELDS = [
    (section, name)
    for section, cls in (("params", ModelParams), ("ctx", ContextProfile), ("slo", SloConfig))
    for name in float_fields(cls)
]


def field_id(section_field):
    section, name = section_field
    return name if section is None else f"{section}.{name}"


def assert_ends_cleanly(tmp, doc, argv):
    """``argv`` on a config of ``doc`` exits 0, 1 or 2 with no RuntimeWarning, and
    neither stdout nor ``tmp / out.json(l)`` holds NaN or Infinity."""
    (tmp / "cfg.json").write_text(json.dumps(doc))
    out = tmp / ("out.jsonl" if argv[0] == "replay" else "out.json")
    code, stdout, stderr, runtime = run_quietly([*argv, "--config", str(tmp / "cfg.json"),
                                                 "--out", str(out)])
    assert code in (0, 1, 2), stderr
    assert not runtime, [str(w.message) for w in runtime]
    assert not any(token in stdout for token in ("nan", "inf", "NaN", "Infinity")), stdout
    assert_no_non_finite(out)


class TestOneExtremeFloat:
    """One extreme value in one float field of an otherwise default config, for
    every such field and value: the fuzz above draws several fields at once and
    never made ``beta * m_c * L`` overflow, which this sweep reaches."""

    @pytest.mark.parametrize("value", EXTREME_FLOATS)
    @pytest.mark.parametrize("section_field", SIM_FLOAT_FIELDS, ids=field_id)
    def test_simulate(self, tmp_path, section_field, value):
        section, name = section_field
        doc = {name: value} if section is None else {section: {name: value}}
        assert_ends_cleanly(tmp_path, doc, ["simulate", "--sessions", "2000", "--policy", "all"])

    @pytest.mark.parametrize("command", ["replay", "report", "slo"])
    @pytest.mark.parametrize("value", EXTREME_FLOATS)
    @pytest.mark.parametrize("section_field", TELEMETRY_FLOAT_FIELDS, ids=field_id)
    def test_telemetry_commands(self, tmp_path, section_field, value, command):
        section, name = section_field
        write_telemetry(tmp_path / "t.jsonl", [0.4, 1.1, 2.6, 0.9, 4.2, 1.7], engaged_every=2)
        argv = [command, "--telemetry", str(tmp_path / "t.jsonl")]
        assert_ends_cleanly(tmp_path, {section: {name: value}}, argv)
