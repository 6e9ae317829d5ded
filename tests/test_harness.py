import concurrent.futures
import csv
import json
import os
import re
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsim.acceptance import CRITERIA, CriterionResult
from relsim.adversary import (
    ConstantReliability,
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
    SWEEP_COLUMNS,
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
from relsim.metrics import accuracy
from relsim.trace import (
    CODED_COLUMNS,
    CODES,
    EVENT_KINDS,
    SCHEMA_VERSION,
    Batch,
    TraceCollector,
)
from trace_events import events

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


def _flip_middle_byte(data: bytes) -> bytes:
    mid = len(data) // 2
    return data[:mid] + bytes([data[mid] ^ 1]) + data[mid + 1:]


def _respace_header(data: bytes) -> bytes:
    header, _, rest = data.partition(b"\n")
    return json.dumps(json.loads(header)).encode() + b"\n" + rest


# Edits of a trace file that replay must report as a mismatch.
TRACE_EDITS = {
    "byte-changed": _flip_middle_byte,
    "last-line-removed": lambda data: data[:data.rindex(b"\n", 0, -1) + 1],
    "line-appended": lambda data: data + data[data.rindex(b"\n", 0, -1) + 1:],
    "header-respaced": _respace_header,
}


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

    def test_crash_scheduled_after_last_round_is_not_counted(self, capsys):
        # Crash rounds are drawn from a window far longer than the run.
        assert main(["run", "--n", "64", "--crash-pattern", "spread",
                     "--spread-rounds", "100000", "--seed", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["completion"] == "all_halted"
        assert summary["halted"] + summary["crashed"] <= 64
        assert summary["crashed"] == summary["dropped_to_crashed"] == 0

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

    @pytest.mark.parametrize("flags, model", [
        (["--model", "fp", "--coeff", "2"], {"kind": "fp", "a": 0.3, "coeff": 2.0}),
        (["--model", "fp"], {"kind": "fp", "a": 0.3, "coeff": 1.0}),
        (["--model", "pl"], {"kind": "pl", "c": 1.0, "coeff": 1.0}),
    ], ids=["same kind with field", "same kind", "other kind"])
    def test_kind_flag_keeps_file_fields_of_same_kind(self, tmp_path, flags, model,
                                                      capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"n": 8, "model": {"kind": "fp", "a": 0.3}}))
        assert main(["run", "--config", str(config_path), "--max-rounds", "2",
                     *flags]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["model"] == model

    def test_verify_only_runs_each_criterion_once(self, monkeypatch, capsys):
        calls = []
        result = CriterionResult(8, "stub", True, "ok")
        monkeypatch.setitem(CRITERIA, 8, lambda: calls.append(8) or result)
        assert main(["verify", "--only", "8,8"]) == 0
        assert calls == [8]
        assert capsys.readouterr().out.count("criterion 8:") == 1

    def test_verify_line_ends_in_wall_time(self, monkeypatch, capsys):
        monkeypatch.setitem(CRITERIA, 8, lambda: CriterionResult(8, "stub", True, "ok"))
        assert main(["verify", "--only", "8"]) == 0
        assert re.fullmatch(r"PASS  criterion 8: stub -- ok \(\d+\.\d s\)\n",
                            capsys.readouterr().out)


class TestPSpec:
    def test_parse_variants(self):
        assert parse_p_spec("constant:0.9").p == 0.9
        uniform = parse_p_spec("uniform:0.3,1.0")
        assert (uniform.lo, uniform.hi) == (0.3, 1.0)
        assert parse_p_spec("explicit:0.5,0.7").values == (0.5, 0.7)

    def test_bad_spec_raises_usage_error(self):
        for text in ("gaussian:0.5", "constant:nope", "constant:", "uniform:0.3",
                     "constant:0.5,0.6"):
            with pytest.raises(UsageError):
                parse_p_spec(text)


# Runs whose config is rejected; the third needs more survivors
# (log2(4)**3) than it has workers, and the last gives 2 values for 3 workers.
REJECTED_RUNS = [["--n", "0"], ["--n", "8", "--epsilon", "1.5"],
                 ["--n", "4", "--model", "pl", "--c", "3"],
                 ["--n", "8", "--p-spec", "constant:1.5"],
                 ["--n", "3", "--p-spec", "explicit:0.5,0.5"]]


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
        sends = sum(1 for e in events(result.trace) if e.kind == "send")
        assert sends == result.metrics.messages_total

    def test_halt_event_schema(self):
        result = run(self._config(), collect_trace=True)
        record = next(r for r in map(json.loads, result.trace.lines)
                      if r["kind"] == "halt")
        assert {"round", "id", "kind"} <= set(record)
        assert record["kind"] == "halt"

    def test_kind_filter(self):
        result = run(self._config(), collect_trace=True, trace_kinds=["halt"])
        assert {e.kind for e in events(result.trace)} == {"halt"}

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
        batches = []
        trace = TraceCollector(sink=batches.append)
        held = TraceCollector()
        none = np.empty(0, dtype=np.int64)
        for collector in (trace, held):
            collector.emit(0, "query", "send", "crash", none)
            collector.emit(0, "query", "send", "send", none, type=0, to=none)
            collector.emit(2, "gossip", "compute", "halt", np.array([3]))
        assert held.lines == ['{"v":1,"seq":0,"round":2,"stage":"gossip",'
                              '"step":"compute","id":3,"kind":"halt"}']
        assert [(b.seq, b.kind) for b in batches] == [(0, "halt")]

    @pytest.mark.parametrize("kinds", [None, ["crash", "halt", "send", "drop"]])
    def test_emit_matches_reference_renderer_at_edge_values(self, kinds):
        # Around each digit boundary, 2**16, and negative values.
        edges = [0, 9, 10, 99, 100, 65535, 65536, 2**30 - 1, -1, -65536]
        share, profess, request, crashed, halted = map(CODES.index, (
            "share", "profess", "task_request", "crashed", "halted"))
        trace = TraceCollector(kinds)
        expected = []

        def emit(rnd, stage, step, kind, ids, **columns):
            # A list column is one value per id; an int, one for every line.
            trace.emit(rnd, stage, step, kind, np.array(ids), **{
                key: np.array(col) if isinstance(col, list) else col
                for key, col in columns.items()})
            if kinds is None or kind in kinds:
                expected.extend(reference_line({
                    "v": SCHEMA_VERSION, "seq": len(expected), "round": rnd,
                    "stage": stage, "step": step, "id": pid, "kind": kind,
                    **{key: CODES[value] if key in CODED_COLUMNS else value
                       for key, col in columns.items()
                       for value in [col[i] if isinstance(col, list) else col]}})
                    for i, pid in enumerate(ids))

        for value in edges:
            emit(value, "gossip", "compute", "halt", [value])
        # Mixed code and int columns, then constant ones given as arrays.
        emit(3, "gossip", "send", "send", edges, type=[share, profess] * 5,
             to=edges[::-1], ell=edges)
        emit(3, "gossip", "send", "send", edges, type=[share] * 10, to=edges,
             ell=[0] * 10)
        emit(3, "gossip", "send", "send", edges[:3], type=[profess] * 3,
             to=[-7] * 3, ell=[2**40] * 3)
        emit(3, "gossip", "send", "send", edges, type=[share] * 9 + [profess],
             to=edges, ell=[0] * 9 + [-2])
        # Codes given as one value for every line, and mixed reasons.
        emit(4, "query", "receive", "drop", edges, type=request,
             reason=[crashed, halted] * 5)
        emit(4, "gossip", "receive", "drop", edges[:4], type=[share, profess] * 2,
             reason=[halted] * 4)
        emit(5, "gossip", "receive", "receive", [7], type=[share])
        emit(5, "query", "receive", "receive", [-3, 70000], type=request)
        # 100 lines whose seq crosses 99 -> 100, with or without the filter.
        emit(6, "query", "send", "crash", list(range(100)))
        assert trace.lines == expected
        assert trace.text == "".join(line + "\n" for line in expected)

    @settings(max_examples=25)
    @given(traced_configs(),
           st.one_of(st.none(), st.lists(st.sampled_from(EVENT_KINDS), unique=True)))
    def test_rendered_batches_are_the_text_chunks(self, config, kinds):
        # A run renders nothing, whether a sink takes its batches or it
        # holds them.
        renders, batches = [], []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Batch, "render", lambda batch: renders.append(batch))
            run(config, trace_kinds=kinds, trace_sink=batches.append)
            held = run(config, trace_kinds=kinds, collect_trace=True).trace
        assert not renders and len(batches) == len(held.batches)
        # The held trace's text is its batches rendered, and a sink's
        # batches render to the same chunks.
        rendered = [batch.render() for batch in batches]
        assert rendered == [batch.render() for batch in held.batches]
        assert "".join(rendered) == held.text

    @pytest.mark.parametrize("kinds", [None, "halt,send"])
    def test_run_trace_file_matches_render_trace(self, tmp_path, kinds, capsys):
        path = tmp_path / "run.trace"
        flags = [] if kinds is None else ["--trace-kinds", kinds]
        assert main(["run", "--n", "8", "--seed", "5", "--trace", str(path), *flags]) == 0
        config = RunConfig.from_dict(json.loads(capsys.readouterr().out)["config"])
        result = run(config, collect_trace=True,
                     trace_kinds=None if kinds is None else kinds.split(","))
        assert path.read_bytes() == render_trace(result).encode()

    @pytest.mark.parametrize("flags", REJECTED_RUNS)
    def test_rejected_run_leaves_no_trace_file(self, tmp_path, flags, capsys):
        path = tmp_path / "run.trace"
        assert main(["run", *flags, "--trace", str(path)]) == 2
        assert "error" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("flags", REJECTED_RUNS)
    def test_rejected_run_leaves_no_summary_file(self, tmp_path, flags, capsys):
        out = tmp_path / "out"
        assert main(["run", *flags, "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", sorted(TRACE_EDITS))
    def test_replay_of_edited_trace_is_mismatch(self, tmp_path, edit, capsys):
        path = tmp_path / "run.trace"
        assert main(["run", "--n", "8", "--seed", "5", "--trace", str(path)]) == 0
        capsys.readouterr()
        path.write_bytes(TRACE_EDITS[edit](path.read_bytes()))
        assert main(["replay", "--trace", str(path)]) == 1
        assert "MISMATCH" in capsys.readouterr().out


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
        assert header == SWEEP_COLUMNS
        assert header[:8] == ["row_type", "n", "trial", "seed", "completion",
                              "T", "W", "M"]
        assert len(body) == 6
        assert all(len(row) == len(SWEEP_COLUMNS) for row in body)

    def test_trial_rows_carry_halted_and_pooled_counts(self, tmp_path):
        spec = self._spec(tmp_path)
        trial_rows = [r for r in sweep(spec) if r["row_type"] == "trial"]
        assert len(trial_rows) == len(spec.points())
        for row, (_, config) in zip(trial_rows, spec.points()):
            result = run(config)
            report = accuracy(result, result.truth, result.schedule, config.params)
            assert (row["n"], row["seed"]) == (config.n, config.seed)
            assert row["halted"] == len(result.estimates)
            assert row["n_within"] == report.n_within
            assert row["n_numeric_live"] == report.n_numeric_live

    def test_grid_must_increase(self, tmp_path):
        base = RunConfig(n=16, params=EstimationParams(0.5, 0.1))
        with pytest.raises(UsageError):
            ExperimentSpec(grid=(32, 16), trials=1, base=base)
        with pytest.raises(UsageError):
            ExperimentSpec(grid=(16, 32), trials=0, base=base)
        with pytest.raises(UsageError):
            ExperimentSpec(grid=(16, 32), trials=1, base=base, jobs=0)

    @pytest.mark.parametrize("trials", [1, 3])
    def test_aggregates_recompute_from_trial_rows(self, tmp_path, trials):
        rows = sweep(self._spec(tmp_path, trials=trials))
        aggregates = [r for r in rows if r["row_type"] == "aggregate"]
        assert [r["n"] for r in aggregates] == [16, 32]
        for aggregate in aggregates:
            group = [r for r in rows
                     if r["row_type"] == "trial" and r["n"] == aggregate["n"]]
            assert len(group) == trials
            assert list(aggregate) == SWEEP_COLUMNS
            assert aggregate["trial"] == aggregate["seed"] == ""
            capped = sum(r["completion"] == "round_cap_hit" for r in group)
            assert aggregate["completion"] == f"round_cap_hit {capped}/{trials}"
            for name, digits in [("T", 3), ("W", 3), ("M", 3),
                                 ("fraction_within_band", 6),
                                 ("false_positives", 3), ("undetermined", 3)]:
                values = [float(r[name]) for r in group]
                assert aggregate[name] == round(statistics.mean(values), digits)
                if name in ("T", "W", "M", "fraction_within_band"):
                    assert aggregate[f"std_{name}"] == round(
                        statistics.pstdev(values), digits)

    def test_aggregate_counts_round_cap_hits(self, tmp_path):
        # Uncapped, these trials halt after 79, 70, 76, 76 rounds at n=16
        # and 88, 76, 78, 76 at n=32; a cap of 77 stops one and two of them.
        base = RunConfig(n=16, params=EstimationParams(0.5, 0.1), seed=100,
                         max_rounds=77)
        rows = sweep(ExperimentSpec(grid=(16, 32), trials=4, base=base))
        aggregates = [r["completion"] for r in rows if r["row_type"] == "aggregate"]
        assert aggregates == ["round_cap_hit 1/4", "round_cap_hit 2/4"]
        trials = [r["completion"] for r in rows if r["row_type"] == "trial"]
        assert trials.count("round_cap_hit") == 3

    # jobs is one more than the 4 runs; cpu_count None counts as one CPU.
    @pytest.mark.parametrize("cpus, workers", [(64, [4]), (2, [2]), (None, [])])
    def test_pool_is_bounded_by_runs_and_cpus(self, tmp_path, monkeypatch, cpus, workers):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        serial = sweep(self._spec(tmp_path))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert sweep(self._spec(tmp_path, jobs=5)) == serial
        assert started == workers

    @pytest.mark.parametrize("flags", [
        ["--grid", "2,4", "--model", "pl", "--c", "3"],
        ["--grid", "8", "--seed", str(2**64 - 1), "--trials", "2"],
        ["--grid", "4,8", "--p-spec", "explicit:0.5,0.5,0.5,0.5"],
    ], ids=["survivors-exceed-n", "seed-passes-2**64", "explicit-list-misses-n"])
    def test_rejected_sweep_point_leaves_no_csv(self, tmp_path, flags, capsys):
        # The first point of each sweep is valid; a later one is not.
        out = tmp_path / "out"
        assert main(["sweep", *flags, "--out", str(out)]) == 2
        assert "error" in capsys.readouterr().err
        assert not out.exists()

    def test_harness_import_loads_no_pool_or_statistics(self):
        code = ("import sys, relsim.harness; print(sorted(set(sys.modules) & "
                "{'multiprocessing', 'concurrent.futures', 'statistics'}))")
        src = str(Path(sys.modules["relsim"].__file__).parent.parent)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out == "[]\n"

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

    # One case per spec kind of every section; the others keep the PolyLog
    # case's specs.
    @pytest.mark.parametrize("section, spec", [
        ("model", LinearFraction(0.4)), ("model", FractionalPolynomial(0.3, 2.5)),
        ("model", PolyLog(1.5, 0.5)), ("crash_pattern", NoCrashes()),
        ("crash_pattern", UpfrontCrashes()), ("crash_pattern", SpreadCrashes(3)),
        ("reliability", ConstantReliability(0.7)),
        ("reliability", UniformReliability(0.2, 0.9)),
        ("reliability", ExplicitReliability((0.5, 0.25, 1.0, 0.75, 0.5))),
    ], ids=lambda arg: arg if isinstance(arg, str) else type(arg).__name__)
    def test_every_written_key_still_read(self, section, spec):
        config = RunConfig(n=5, params=EstimationParams(0.5, 0.1),
                           model=PolyLog(1.5, 0.5), crash_pattern=SpreadCrashes(3),
                           reliability=ExplicitReliability((0.5,) * 5), seed=9,
                           max_rounds=12, literal_ell_reset=True)
        config = replace(config, **{section: spec})
        assert RunConfig.from_dict(config.to_dict()) == config
        assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_written_config_bytes_are_pinned(self):
        config = RunConfig(n=3, params=EstimationParams(0.3, 0.05),
                           model=FractionalPolynomial(0.4, 1.5), crash_pattern=NoCrashes(),
                           reliability=ExplicitReliability((0.5, 0.75, 1.0)),
                           seed=2**63 + 1, max_rounds=40)
        assert json.dumps(config.to_dict(), separators=(",", ":")) == (
            '{"n":3,"epsilon":0.3,"delta":0.05,"model":{"kind":"fp","a":0.4,"coeff":1.5},'
            '"crash_pattern":{"kind":"none"},'
            '"reliability":{"kind":"explicit","values":[0.5,0.75,1.0]},'
            '"seed":9223372036854775809,"max_rounds":40,"literal_ell_reset":false}')

    @pytest.mark.parametrize("section, data, key", [
        ("model", {"kind": "fp", "a": 0.5, "f": 0.5}, "f"),
        ("crash_pattern", {"kind": "upfront", "rounds": 3}, "rounds"),
        ("reliability", {"kind": "constant", "p": 0.9, "lo": 0.1}, "lo"),
    ])
    def test_unknown_spec_key_is_usage_error(self, tmp_path, section, data, key, capsys):
        path = self._config_file(tmp_path, json.dumps({"n": 4, section: data}))
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err and f"keys [{key!r}]" in err

    # The last flag of each case is the one a run would ignore.
    @pytest.mark.parametrize("flags", [
        ["--model", "pl", "--f", "0.9"],
        ["--model", "fp", "--f", "0.5"],
        ["--f", "0.5"],
        ["--a", "0.5"],
        ["--model", "lf", "--c", "2"],
        ["--model", "lf", "--coeff", "2"],
        ["--crash-pattern", "upfront", "--spread-rounds", "5"],
        ["--spread-rounds", "5"],
    ], ids=" ".join)
    def test_ignored_run_flag_is_usage_error(self, flags, capsys):
        assert main(["run", "--n", "8", "--max-rounds", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flags[-2]} needs --")

    @pytest.mark.parametrize("flags, flag", [
        (["--n", "8"], "--n"),
        (["--jobs", "0"], "jobs"),
    ], ids=["n", "jobs"])
    def test_ignored_sweep_flag_is_usage_error(self, tmp_path, flags, flag, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--grid", "8,16", "--out", str(out), *flags]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_spread_alone_means_32_rounds(self, capsys):
        assert main(["run", "--n", "8", "--max-rounds", "2",
                     "--crash-pattern", "spread"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["crash_pattern"] == {
            "kind": "spread", "rounds": 32}
        assert main(["run", "--n", "8", "--max-rounds", "2",
                     "--crash-pattern", "spread", "--spread-rounds", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["crash_pattern"] == {
            "kind": "spread", "rounds": 5}

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

    # A delta of inf takes the log of 0; the others overflow or divide by
    # zero in the stopping threshold.
    @pytest.mark.parametrize("flags", [
        ["--delta", "inf"], ["--delta", "1e-320"],
        ["--epsilon", "1e-160"], ["--epsilon", "1e-200"],
    ], ids=" ".join)
    def test_estimation_params_without_finite_threshold_are_usage_errors(
            self, flags, capsys):
        assert main(["run", "--n", "4", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_literal_ell_reset_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--n", "4", "--literal-ell-reset"])
        assert exit_.value.code == 2
        assert "--literal-ell-reset" in capsys.readouterr().err

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
        assert not path.exists()

    # One case per output flag: a missing directory, and a file where a
    # directory belongs.  Each fails before the run, so nothing is printed.
    @pytest.mark.parametrize("argv", [
        ["run", "--n", "8", "--trace", "{tmp}/missing/x.trace"],
        ["run", "--n", "8", "--out", "{tmp}/file"],
        ["sweep", "--grid", "8,16", "--out", "{tmp}/file"],
    ], ids=["run-trace", "run-out", "sweep-out"])
    def test_unwritable_output_is_usage_error(self, tmp_path, argv, capsys):
        (tmp_path / "file").write_text("kept\n")
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: cannot write") and not out
        assert (tmp_path / "file").read_text() == "kept\n"
        assert not (tmp_path / "missing").exists()
