import csv
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsim.adversary import (
    ExplicitReliability,
    FractionalPolynomial,
    LinearFraction,
    NoCrashes,
    PolyLog,
    SpreadCrashes,
    UniformReliability,
    UpfrontCrashes,
)
from relsim.engine import ConfigError, RunConfig, run
from relsim.estimator import EstimationParams
from relsim.harness import (
    ExperimentSpec,
    UsageError,
    config_from_args,
    main,
    parse_p_spec,
    render_trace,
    summarize,
    sweep,
    write_sweep_csv,
    write_trace,
)
from relsim.trace import EVENT_KINDS, SCHEMA_VERSION, TraceCollector

# Payload keys of each event kind, in the order they are written.
PAYLOAD_KEYS = {"send": ("type", "to", "ell"), "drop": ("type", "reason"),
                "receive": ("type",)}


def reference_line(record: dict) -> str:
    """A trace line rendered the plain way: a dict in key order, json.dumps."""
    ordered = {"v": SCHEMA_VERSION}
    for key in ("seq", "round", "stage", "step", "id", "kind",
                *PAYLOAD_KEYS.get(record["kind"], ())):
        if key in record:
            ordered[key] = record[key]
    assert set(ordered) == set(record)
    return json.dumps(ordered, separators=(",", ":"))


@st.composite
def traced_configs(draw):
    return RunConfig(
        n=draw(st.integers(1, 24)),
        params=EstimationParams(draw(st.floats(0.6, 0.9)), draw(st.floats(0.2, 0.5))),
        model=draw(st.one_of(
            st.builds(LinearFraction, st.floats(0.0, 0.6)),
            st.builds(FractionalPolynomial, st.floats(0.3, 0.8)),
            st.builds(PolyLog, st.floats(1.0, 1.5)))),
        crash_pattern=draw(st.one_of(
            st.just(NoCrashes()), st.just(UpfrontCrashes()),
            st.builds(SpreadCrashes, st.integers(1, 16)))),
        reliability=UniformReliability(0.3, 1.0),
        seed=draw(st.integers(0, 2**32)),
        max_rounds=draw(st.integers(1, 150)),
    )


class TestCliRun:
    def test_run_emits_summary_json(self, tmp_path, capsys):
        code = main([
            "run", "--n", "16", "--epsilon", "0.5", "--delta", "0.1",
            "--model", "lf", "--f", "0.25", "--seed", "7",
            "--out", str(tmp_path),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["completion"] == "all_halted"
        assert summary["config"]["n"] == 16
        assert summary["config"]["seed"] == 7
        printed = json.loads(capsys.readouterr().out)
        assert printed == summary

    @pytest.mark.parametrize("flags, model", [
        ([], {"kind": "lf", "f": 0.25}),
        (["--model", "lf"], {"kind": "lf", "f": 0.25}),
        (["--model", "fp", "--coeff", "2"], {"kind": "fp", "a": 0.5, "coeff": 2.0}),
        (["--model", "pl", "--f", "0.9"], {"kind": "pl", "c": 1.0, "coeff": 1.0}),
    ])
    def test_model_flags_fill_model_defaults(self, flags, model, capsys):
        assert main(["run", "--n", "8", "--max-rounds", "2", *flags]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["model"] == model

    def test_round_cap_hit_notes_cap_and_active_workers(self, capsys):
        assert main(["run", "--n", "12", "--max-rounds", "3"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["completion"] == "round_cap_hit"
        note = captured.err.strip()
        assert "\n" not in note
        assert "round cap of 3 rounds" in note
        assert "12 workers still active: 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ..." in note

    def test_round_cap_note_leaves_out_crashed_workers(self, capsys):
        assert main(["run", "--n", "12", "--max-rounds", "3", "--model", "fp",
                     "--crash-pattern", "upfront"]) == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert summary["completion"] == "round_cap_hit" and summary["crashed"] > 0
        assert f"{12 - summary['crashed']} workers still active" in captured.err

    def test_completed_run_prints_no_note(self, capsys):
        assert main(["run", "--n", "4", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["completion"] == "all_halted"
        assert captured.err == ""

    def test_n_zero_is_usage_error(self, capsys):
        assert main(["run", "--n", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_flag_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["run", "--model", "bogus", "--n", "4"])

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "n": 8, "epsilon": 0.5, "delta": 0.1, "seed": 1,
            "model": {"kind": "lf", "f": 0.25},
        }))
        code = main(["run", "--config", str(config_path), "--seed", "99"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["config"]["seed"] == 99
        assert summary["config"]["n"] == 8


class TestPSpec:
    def test_parse_variants(self):
        assert parse_p_spec("constant:0.9").p == 0.9
        uniform = parse_p_spec("uniform:0.3,1.0")
        assert (uniform.lo, uniform.hi) == (0.3, 1.0)
        assert parse_p_spec("explicit:0.5,0.7").values == (0.5, 0.7)

    def test_bad_spec_raises_usage_error(self):
        with pytest.raises(UsageError):
            parse_p_spec("gaussian:0.5")
        with pytest.raises(UsageError):
            parse_p_spec("constant:nope")


class TestTraceArtifacts:
    def _config(self):
        return RunConfig(n=8, params=EstimationParams(0.5, 0.1), seed=5)

    def test_trace_roundtrip_replay(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace"
        code = main(["run", "--n", "8", "--seed", "5", "--trace", str(trace_path)])
        assert code == 0
        capsys.readouterr()
        assert main(["replay", "--trace", str(trace_path)]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_trace_header_embeds_config(self, tmp_path):
        result = run(self._config(), collect_trace=True)
        path = tmp_path / "t.trace"
        write_trace(result, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["config"]["n"] == 8
        assert RunConfig.from_dict(header["config"]) == self._config()

    def test_send_events_match_message_total(self):
        result = run(self._config(), collect_trace=True)
        sends = sum(1 for e in result.trace.events if e.kind == "send")
        assert sends == result.metrics.messages_total

    def test_halt_event_schema(self):
        result = run(self._config(), collect_trace=True)
        record = next(r for r in map(json.loads, result.trace.lines)
                      if r["kind"] == "halt")
        assert {"round", "id", "kind"} <= set(record)
        assert record["kind"] == "halt"

    def test_kind_filter(self):
        result = run(self._config(), collect_trace=True, trace_kinds=["halt"])
        assert {e.kind for e in result.trace.events} == {"halt"}

    def test_render_matches_write(self, tmp_path):
        result = run(self._config(), collect_trace=True)
        path = tmp_path / "t.trace"
        write_trace(result, path)
        assert path.read_text() == render_trace(result)

    @settings(max_examples=60)
    @given(traced_configs(),
           st.one_of(st.none(), st.lists(st.sampled_from(EVENT_KINDS), unique=True)))
    def test_lines_match_reference_renderer(self, config, kinds):
        full = run(config, collect_trace=True).trace.lines
        records = [json.loads(line) for line in full]
        assert full == [reference_line(r) for r in records]
        assert [r["seq"] for r in records] == list(range(len(records)))
        kept = [r for r in records if kinds is None or r["kind"] in kinds]
        filtered = run(config, collect_trace=True, trace_kinds=kinds).trace.lines
        assert filtered == [reference_line({**r, "seq": seq})
                            for seq, r in enumerate(kept)]

    def test_filter_keeping_nothing_gives_header_only_trace(self, tmp_path, capsys):
        path = tmp_path / "run.trace"
        assert main(["run", "--n", "8", "--seed", "5", "--trace", str(path),
                     "--trace-kinds", "crash"]) == 0
        capsys.readouterr()
        [header] = path.read_text().splitlines()
        assert json.loads(header)["trace_kinds"] == ["crash"]
        assert main(["replay", "--trace", str(path)]) == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_empty_batch_emits_nothing(self):
        trace = TraceCollector()
        trace.emit(0, "query", "send", "crash", [])
        trace.emit(0, "query", "send", "send", [], type=[], to=[])
        trace.emit(2, "gossip", "compute", "halt", [3])
        assert trace.lines == ['{"v":1,"seq":0,"round":2,"stage":"gossip",'
                               '"step":"compute","id":3,"kind":"halt"}']


class TestSweep:
    def _spec(self, tmp_path, trials=2, jobs=1):
        base = RunConfig(n=16, params=EstimationParams(0.5, 0.1), seed=100)
        return ExperimentSpec(grid=(16, 32), trials=trials, base=base, jobs=jobs)

    def test_row_shape(self, tmp_path):
        rows = sweep(self._spec(tmp_path))
        trial_rows = [r for r in rows if r["row_type"] == "trial"]
        aggregate_rows = [r for r in rows if r["row_type"] == "aggregate"]
        assert len(trial_rows) == 4
        assert len(aggregate_rows) == 2

    def test_deterministic_rows(self, tmp_path):
        assert sweep(self._spec(tmp_path)) == sweep(self._spec(tmp_path))

    def test_parallel_equals_serial(self, tmp_path):
        assert sweep(self._spec(tmp_path, jobs=2)) == sweep(self._spec(tmp_path))

    def test_csv_written_with_fixed_header(self, tmp_path):
        rows = sweep(self._spec(tmp_path))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        with open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            body = list(reader)
        assert header[:8] == ["row_type", "n", "trial", "seed", "completion",
                              "T", "W", "M"]
        assert len(body) == 6

    def test_grid_must_increase(self, tmp_path):
        base = RunConfig(n=16, params=EstimationParams(0.5, 0.1))
        with pytest.raises(UsageError):
            ExperimentSpec(grid=(32, 16), trials=1, base=base)
        with pytest.raises(UsageError):
            ExperimentSpec(grid=(16, 32), trials=0, base=base)

    def test_cli_sweep_end_to_end(self, tmp_path, capsys):
        code = main(["sweep", "--grid", "8,16", "--trials", "2",
                     "--seed", "4", "--out", str(tmp_path)])
        assert code == 0
        path = Path(capsys.readouterr().out.strip())
        assert path.exists()
        text_a = path.read_text()
        main(["sweep", "--grid", "8,16", "--trials", "2",
              "--seed", "4", "--out", str(tmp_path)])
        assert path.read_text() == text_a


class TestSummary:
    def test_summary_embeds_effective_config_and_counts(self):
        config = RunConfig(n=8, params=EstimationParams(0.5, 0.1), seed=5)
        result = run(config)
        summary = summarize(result)
        assert summary["config"] == config.to_dict()
        assert summary["messages_total"] == sum(
            summary["messages_by_type"].values()
        )
        assert summary["halted"] == 8

    def test_dump_estimates_serializes_nan_as_null(self):
        config = RunConfig(n=4, params=EstimationParams(0.5, 0.1), seed=5,
                           max_rounds=3)
        result = run(config)
        # force one halted row artificially for serialization shape
        import numpy as np

        result.estimates = {0: np.array([1.0, np.nan, -1.0, 0.5])}
        summary = summarize(result, dump_estimates=True)
        assert summary["estimates"]["0"] == [1.0, None, -1.0, 0.5]
        json.dumps(summary)


class TestInputFaults:
    def _config_file(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        return str(path)

    def test_malformed_config_json_is_usage_error(self, tmp_path, capsys):
        path = self._config_file(tmp_path, '{"n": 8,')
        assert main(["run", "--config", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = self._config_file(tmp_path, '{"n": 8, "epslion": 0.3}')
        assert main(["run", "--config", path]) == 2
        assert "epslion" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"n": 4, "epsilon": 0.5, "delta": 0.1,
                                 "model": {"kind": "lf", "fraction": 0.5}})

    def test_every_written_key_still_read(self):
        config = RunConfig(n=5, params=EstimationParams(0.5, 0.1),
                           model=PolyLog(1.5, 0.5), crash_pattern=SpreadCrashes(3),
                           reliability=ExplicitReliability((0.5,) * 5), seed=9,
                           max_rounds=12, literal_ell_reset=True)
        assert RunConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("text", [
        '{"n": "abc"}',
        '{"n": 4, "epsilon": "x"}',
        '{"n": 4, "model": {"kind": "lf", "f": "x"}}',
        '{"n": 2.7}',
        '{"n": true}',
        '{"n": 4, "seed": 1.5}',
        '{"n": 4, "seed": false}',
        '{"n": 4, "max_rounds": 2.9}',
        '{"n": 4, "crash_pattern": {"kind": "spread", "rounds": 1.5}}',
        '{"n": 4, "crash_pattern": {"kind": "spread", "rounds": true}}',
    ])
    def test_bad_config_value_is_usage_error(self, tmp_path, text, capsys):
        path = self._config_file(tmp_path, text)
        assert main(["run", "--config", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_integral_float_counts_accepted(self):
        config = RunConfig.from_dict({"n": 4.0, "epsilon": 0.5, "delta": 0.1,
                                      "seed": 3.0, "max_rounds": 9.0})
        assert (config.n, config.seed, config.max_rounds) == (4, 3, 9)
        assert all(type(v) is int for v in (config.n, config.seed, config.max_rounds))

    @pytest.mark.parametrize("seed", ["-3", str(2**64)])
    def test_seed_outside_uint64_is_usage_error(self, seed, capsys):
        assert main(["run", "--n", "4", "--seed", seed]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "not json\n", '{"kind": "event"}\n'])
    def test_replay_of_headerless_trace_is_usage_error(self, tmp_path, text, capsys):
        path = tmp_path / "bad.trace"
        path.write_text(text)
        assert main(["replay", "--trace", str(path)]) == 2
        assert "header" in capsys.readouterr().err

    def test_replay_checks_schema_version(self, tmp_path, capsys):
        path = tmp_path / "run.trace"
        assert main(["run", "--n", "4", "--seed", "1", "--trace", str(path)]) == 0
        capsys.readouterr()
        header, _, rest = path.read_text().partition("\n")
        record = json.loads(header)
        record["v"] = 99
        path.write_text(json.dumps(record) + "\n" + rest)
        assert main(["replay", "--trace", str(path)]) == 2
        assert "version" in capsys.readouterr().err

    @pytest.mark.parametrize("only", ["x", "9", "0", "1,9", "1,,2"])
    def test_bad_verify_only_is_usage_error(self, only, capsys):
        assert main(["verify", "--only", only]) == 2
        assert "1-8" in capsys.readouterr().err

    def test_unknown_trace_kind_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "run.trace"
        assert main(["run", "--n", "4", "--trace", str(path),
                     "--trace-kinds", "halt,bogus"]) == 2
        assert "bogus" in capsys.readouterr().err
