import json
import os

import pytest

from logforge import logio
from logforge.cli import main
from logforge.simulate import SimConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_diagnostics(err):
    return [json.loads(line) for line in err.strip().splitlines() if line]


def test_version(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
    assert "schema" in capsys.readouterr().out


def test_fixture_then_dataset_end_to_end(tmp_path, capsys):
    fdir = str(tmp_path / "fx")
    code, _, _ = run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    assert code == 0
    assert os.path.exists(os.path.join(fdir, "m0.json"))
    assert os.path.exists(os.path.join(fdir, "grid.json"))

    ddir = str(tmp_path / "ds")
    code, _, _ = run_cli(capsys, "dataset", "--model", os.path.join(fdir, "m0.json"),
                         "--grid", os.path.join(fdir, "grid.json"), "--out", ddir)
    assert code == 0
    manifest = logio.read_json(os.path.join(ddir, "manifest.json"))
    assert len(manifest["cells"]) == 12
    logs = [e["paths"]["log_jsonl"] for e in manifest["cells"]]
    assert all(os.path.exists(os.path.join(ddir, p)) for p in logs)


def test_validate_ok_and_failure(tmp_path, capsys):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "assembly", "--out", fdir)
    model = os.path.join(fdir, "m0.json")
    code, _, err = run_cli(capsys, "validate", "--model", model)
    assert code == 0 and not err.strip()

    doc = json.load(open(model))
    doc["transitions"].append(dict(doc["transitions"][0]))  # duplicate id
    bad = os.path.join(fdir, "bad.json")
    open(bad, "w").write(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", "--model", bad)
    assert code == 1
    assert any(d["code"] == "DuplicateId" for d in stderr_diagnostics(err))


def test_transform_role_mismatch_exits_one(tmp_path, capsys):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    apps = [{"application_id": "x", "code": "BI_1",
             "mapping": {"p": "p_carrying", "p_r": "p_done"}, "params": {}}]
    apps_path = os.path.join(fdir, "apps.json")
    open(apps_path, "w").write(json.dumps(apps))
    out = os.path.join(fdir, "ml.json")
    code, _, err = run_cli(capsys, "transform", "--model", os.path.join(fdir, "m0.json"),
                           "--apply", apps_path, "--out", out)
    assert code == 1
    assert any(d["code"] == "RoleMismatch" for d in stderr_diagnostics(err))
    assert not os.path.exists(out)  # no partial output


def test_transform_writes_model_and_ledger(tmp_path, capsys):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    apps = [{"application_id": "bi3", "code": "BI_3", "mapping": {"t": "ring"},
             "params": {"weight": 2.0}}]
    apps_path = os.path.join(fdir, "apps.json")
    open(apps_path, "w").write(json.dumps(apps))
    out = os.path.join(fdir, "ml.json")
    ledger = os.path.join(fdir, "ledger.json")
    code, _, _ = run_cli(capsys, "transform", "--model", os.path.join(fdir, "m0.json"),
                         "--apply", apps_path, "--out", out, "--ledger", ledger)
    assert code == 0
    ml = logio.read_model(out)
    assert any(t.id.endswith("#bi3") for t in ml.transitions)
    entries = logio.read_json(ledger)["entries"]
    assert entries[0]["code"] == "BI_3"


def test_simulate_missing_model_exits_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--model",
                           str(tmp_path / "missing.json"), "--out", str(tmp_path / "o"))
    assert code == 2


def test_simulate_writes_trace_and_logs(tmp_path, capsys):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    grid = logio.read_json(os.path.join(fdir, "grid.json"))
    config = grid["sim_configs"][0]
    config["schema_version"] = "1"
    cpath = os.path.join(fdir, "config.json")
    open(cpath, "w").write(json.dumps(config))
    out = str(tmp_path / "sim")
    code, _, _ = run_cli(capsys, "simulate", "--model", os.path.join(fdir, "m0.json"),
                         "--config", cpath, "--seed", "7", "--out", out)
    assert code == 0
    trace = logio.read_trace(os.path.join(out, "trace.gt.jsonl"))
    assert trace.seed == 7
    log = logio.read_observed_jsonl(os.path.join(out, "log.jsonl"))
    assert len(log.events) == len(trace.labeled_records())


def test_oracle_align_report_score(tmp_path, capsys):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    ddir = str(tmp_path / "ds")
    run_cli(capsys, "dataset", "--model", os.path.join(fdir, "m0.json"),
            "--grid", os.path.join(fdir, "grid.json"), "--out", ddir)
    manifest = logio.read_json(os.path.join(ddir, "manifest.json"))
    entry = manifest["cells"][0]
    align = str(tmp_path / "gt.jsonl")
    code, _, _ = run_cli(capsys, "oracle", "align",
                         "--model", os.path.join(ddir, "m0.json"),
                         "--net", os.path.join(ddir, entry["paths"]["model"]),
                         "--trace", os.path.join(ddir, entry["paths"]["trace"]),
                         "--log", os.path.join(ddir, entry["paths"]["log_jsonl"]),
                         "--out", align)
    assert code == 0 and os.path.exists(align)

    code, out, _ = run_cli(capsys, "oracle", "report",
                           "--trace", os.path.join(ddir, entry["paths"]["trace"]))
    assert code == 0
    report = json.loads(out)
    assert entry["application_ids"][0] in report["entries"]

    code, out, _ = run_cli(capsys, "oracle", "score", "--candidate", align, "--gt", align)
    assert code == 0 and float(out.strip()) == 0.0


GOOD_MOVE = '{"object":"o_1","seq":0,"kind":"synchronous","activity":"a","objects":["o_1"]}'
NO_PLACE = "alignment line needs a string 'object' and an integer 'seq'"
BAD_CAUSE = "malformed alignment move: 'cause' must hold a string 'pattern_code' and 'application_id'"


@pytest.mark.parametrize("bad_line,message", [
    ('{"seq":1,"kind":"log","activity":"a","objects":["o_1"]}', NO_PLACE),  # no object
    ('{"object":"o_1","seq":1,"activity":"a","objects":["o_1"]}',
     "malformed alignment move: 'kind' must be a string"),
    ('[1,2]', "line is not a JSON object"),
    ('"o_1"', "line is not a JSON object"),
    ('{"object":"o_1","seq":"1","kind":"log"}', NO_PLACE),
    ('{"object":"o_1","seq":1,"kind":"log","objects":[["o_1"]]}',
     "malformed alignment move: 'objects' must be a list of strings"),
    ('{"object":"o_1","seq":1,"kind":"log","activity":["a"]}',
     "malformed alignment move: 'activity' must be a string or null"),
    ('{"object":"o_1","seq":1,"kind":"log","cause":"BI_3"}', BAD_CAUSE),
    ('{"object":"o_1","seq":1,"kind":"log","cause":{"pattern_code":"BI_3"}}', BAD_CAUSE),
    ('\ufeff' + GOOD_MOVE, "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ('{} x', "Extra data"),
    ('{"object":"o_1","seq":1,"kind":"log",'
     '"cause":{"pattern_code":"BI_3","application_id":"a","origin":5}}',
     "malformed alignment move: 'cause' must hold a string 'origin' if any"),
], ids=["no-object", "no-kind", "array", "string", "text-seq", "nested-objects",
        "list-activity", "text-cause", "incomplete-cause", "bom", "trailing-data",
        "number-cause-origin"])
def test_oracle_score_malformed_alignment_exits_two(tmp_path, capsys, bad_line, message):
    good = tmp_path / "gt.jsonl"
    good.write_text(GOOD_MOVE + "\n")
    bad = tmp_path / "cand.jsonl"
    bad.write_text(GOOD_MOVE + "\n" + bad_line + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "oracle", "score", "--candidate", str(bad),
                             "--gt", str(good))
    assert code == 2 and not out
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ParseError"
    assert diag["message"] == f"{message} at {bad}:2"


TRACE_HEADER = ('{"schema_version":"1","kind":"ground_truth_trace","run_id":"r","seed":0,'
                '"epoch":"2024-03-04T08:00:00Z"}')
GOOD_RECORD = '{"seq_no":0,"time":0.0,"transition":"t","activity":"a"}'
BAD_RECORD = "malformed ground_truth_trace line: "
LOG_HEADER = '{"schema_version":"1","kind":"observed_log","run_id":"r","objects":{}}'


def with_record_field(field):
    """The firing after GOOD_RECORD, with one more field."""
    return '{"seq_no":1,"time":1.0,"transition":"t",' + field + '}'


def with_header_field(field):
    return TRACE_HEADER[:-1] + "," + field + "}"


BAD_TRACES = {
    "no-seq-no": ([TRACE_HEADER, GOOD_RECORD, '{"time":1.0,"transition":"t","activity":"a"}'],
                  3, BAD_RECORD + """ConfigInvalid("missing field 'seq_no'")"""),
    "array-record": ([TRACE_HEADER, GOOD_RECORD, '[1,2]'], 3, "line is not a JSON object"),
    "text-seq-no": ([TRACE_HEADER, GOOD_RECORD, '{"seq_no":"1","time":1.0,"transition":"t"}'],
                    3, BAD_RECORD + """ConfigInvalid("field 'seq_no' is not int: '1'")"""),
    "short-value-pair": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"values":[["x"]]')], 3,
        BAD_RECORD + "ValueError('not enough values to unpack (expected 2, got 1)')"),
    "bad-json": ([TRACE_HEADER, GOOD_RECORD, '{"seq_no":1,'], 3,
                 "Expecting property name enclosed in double quotes"),
    "list-header": (['[' + TRACE_HEADER + ']', GOOD_RECORD], 1, "line is not a JSON object"),
    "no-run-id": ([TRACE_HEADER.replace('"run_id":"r",', ''), GOOD_RECORD], 1,
                  BAD_RECORD + """ConfigInvalid("missing field 'run_id'")"""),
    "text-seed": ([TRACE_HEADER.replace('"seed":0', '"seed":"0"'), GOOD_RECORD], 1,
                  BAD_RECORD + """ConfigInvalid("field 'seed' is not int: '0'")"""),
    "bom": (['\ufeff' + TRACE_HEADER, GOOD_RECORD], 1,
            "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    "trailing-data": ([TRACE_HEADER, GOOD_RECORD + ' x'], 2, "Extra data"),
    "list-provenance": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"provenance":[]')], 3,
        BAD_RECORD + """ValueError("'provenance' must be an object, got []")"""),
    "number-provenance-origin": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"provenance":{"origin":5}')], 3,
        BAD_RECORD + """ValueError("'provenance' must hold a string 'origin' and strings or """
        """nulls, got {'origin': 5}")"""),
    "text-consumed-token": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"consumed":[["p","abc"]]')], 3,
        BAD_RECORD + """ValueError("'consumed' must be a list of strings, got 'abc'")"""),
    "text-produced-token": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"produced":[["p","abc",1.0]]')], 3,
        BAD_RECORD + """ValueError("'produced' must be a list of strings, got 'abc'")"""),
    "text-injected-token": (
        [with_header_field('"injected":[["p","abc"]]'), GOOD_RECORD], 1,
        BAD_RECORD + """ValueError("'injected' must be a list of strings, got 'abc'")"""),
    "number-value": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"values":[["x",5]]')], 3,
        BAD_RECORD + """ValueError("'values' must be a list of [variable, identifier] string """
        """pairs, got [['x', 5]]")"""),
    "text-value-pair": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"fresh":["ab"]')], 3,
        BAD_RECORD + """ValueError("'fresh' must be a list of [variable, identifier] string """
        """pairs, got ['ab']")"""),
    "number-recorded-object": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"recorded_objects":[1]')], 3,
        BAD_RECORD + """ValueError("'recorded_objects' must be a list of strings, got [1]")"""),
    "text-recorded-objects": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"recorded_objects":"abc"')], 3,
        BAD_RECORD + """ValueError("'recorded_objects' must be a list of strings, got 'abc'")"""),
    "text-timing-causes": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"timing_causes":"abc"')], 3,
        BAD_RECORD + """ValueError("'timing_causes' must be a list of strings, got 'abc'")"""),
    "list-object-types": (
        [with_header_field('"object_types":[1]'), GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid("field 'object_types' is not dict: [1]")"""),
    "text-model-digests": (
        [with_header_field('"model_digests":"abc"'), GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid("field 'model_digests' is not dict: 'abc'")"""),
    "list-pattern-stats": (
        [with_header_field('"pattern_stats":[]'), GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid("field 'pattern_stats' is not dict: []")"""),
    # with two defects, the one an unchecked decode trips over is reported
    "number-value-and-short-token": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"values":[["x",5]],"consumed":[["p"]]')],
        3, BAD_RECORD + "ValueError('not enough values to unpack (expected 2, got 1)')"),
    "number-provenance-origin-and-short-token": (
        [TRACE_HEADER, GOOD_RECORD,
         with_record_field('"provenance":{"origin":5},"produced":[["p",["a"]]]')],
        3, BAD_RECORD + "ValueError('not enough values to unpack (expected 3, got 2)')"),
    "text-recorded-objects-and-number-timing-causes": (
        [TRACE_HEADER, GOOD_RECORD,
         with_record_field('"recorded_objects":"abc","timing_causes":5')],
        3, BAD_RECORD + """TypeError("'int' object is not iterable")"""),
    "list-object-types-and-short-injected": (
        [with_header_field('"object_types":[1],"injected":[["p"]]'), GOOD_RECORD], 1,
        BAD_RECORD + "ValueError('not enough values to unpack (expected 2, got 1)')"),
    "text-injected-token-and-bad-rule": (
        [with_header_field('"injected":[["p","abc"]],"report_rules":[{}]'), GOOD_RECORD], 1,
        BAD_RECORD + "KeyError('transition')"),
    "number-report-rule": (
        [with_header_field('"report_rules":[1]'), GOOD_RECORD], 1,
        BAD_RECORD + """ValueError('a report rule must be an object, got 1')"""),
    "number-rule-transition": (
        [with_header_field('"report_rules":[{"transition":5}]'), GOOD_RECORD], 1,
        BAD_RECORD + """ValueError("field 'transition' is not str: 5")"""),
    "text-rule-responsible": (
        [with_header_field('"report_rules":[{"transition":"t","responsible":"ab"}]'),
         GOOD_RECORD], 1,
        BAD_RECORD + """ValueError("field 'responsible' is not list: 'ab'")"""),
    "object-report-rules": (
        [with_header_field('"report_rules":{"transition":"t"}'), GOOD_RECORD], 1,
        BAD_RECORD + """ValueError("'report_rules' must be a list, got {'transition': 't'}")"""),
    "number-rule-transition-and-text-injected-token": (
        [with_header_field('"report_rules":[{"transition":5}],"injected":[["p","abc"]]'),
         GOOD_RECORD], 1,
        BAD_RECORD + """ValueError("'injected' must be a list of strings, got 'abc'")"""),
    "number-rule-responsible-and-list-object-types": (
        [with_header_field('"report_rules":[{"transition":"t","responsible":5}],'
                           '"object_types":[1]'), GOOD_RECORD], 1,
        BAD_RECORD + """TypeError("'int' object is not iterable")"""),
}


@pytest.mark.parametrize("lines,bad_at,message", BAD_TRACES.values(), ids=BAD_TRACES)
def test_oracle_report_malformed_trace_exits_two(tmp_path, capsys, lines, bad_at, message):
    trace = tmp_path / "trace.gt.jsonl"
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "oracle", "report", "--trace", str(trace))
    assert code == 2 and not out
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ParseError"
    assert diag["message"] == f"{message} at {trace}:{bad_at}"


@pytest.mark.parametrize("lines,bad_at,message", BAD_TRACES.values(), ids=BAD_TRACES)
def test_oracle_align_malformed_trace_exits_two(tmp_path, capsys, lines, bad_at, message):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    trace = tmp_path / "trace.gt.jsonl"
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    log = tmp_path / "log.jsonl"
    log.write_text(LOG_HEADER + "\n")
    code, out, err = run_cli(capsys, "oracle", "align", "--model", os.path.join(fdir, "m0.json"),
                             "--trace", str(trace), "--log", str(log),
                             "--out", str(tmp_path / "gt.jsonl"))
    assert code == 2 and not out
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ParseError"
    assert diag["message"] == f"{message} at {trace}:{bad_at}"
    assert not os.path.exists(tmp_path / "gt.jsonl")


GOOD_EVENT = '{"event_id":"r-000000","timestamp":"2024-03-04T08:00:00Z","activity":"a"}'
BAD_EVENT = "malformed observed_log line: "


def with_event_field(field):
    return GOOD_EVENT[:-1] + "," + field + "}"


@pytest.mark.parametrize("lines,bad_at,message", [
    ([LOG_HEADER, GOOD_EVENT, '{"timestamp":"2024-03-04T08:00:00Z","activity":"a"}'], 3,
     BAD_EVENT + """ConfigInvalid("missing field 'event_id'")"""),
    ([LOG_HEADER, GOOD_EVENT, GOOD_EVENT.replace('"activity":"a"', '"activity":7')], 3,
     BAD_EVENT + """ConfigInvalid("field 'activity' is not str: 7")"""),
    ([LOG_HEADER, '"r-000000"'], 2, "line is not a JSON object"),
    (['[' + LOG_HEADER + ']'], 1, "line is not a JSON object"),
    ([LOG_HEADER, with_event_field('"objects":"abc"')], 2,
     BAD_EVENT + """ValueError("'objects' must be a list of strings, got 'abc'")"""),
    ([LOG_HEADER, with_event_field('"objects":[1]')], 2,
     BAD_EVENT + """ValueError("'objects' must be a list of strings, got [1]")"""),
    ([LOG_HEADER, with_event_field('"run_id":5')], 2,
     BAD_EVENT + """ConfigInvalid("field 'run_id' is not str: 5")"""),
], ids=["no-event-id", "number-activity", "string-event", "list-header", "text-objects",
        "number-object", "number-run-id"])
def test_oracle_align_malformed_log_exits_two(tmp_path, capsys, lines, bad_at, message):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    trace = tmp_path / "trace.gt.jsonl"
    trace.write_text(TRACE_HEADER + "\n")
    log = tmp_path / "log.jsonl"
    log.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, "oracle", "align", "--model", os.path.join(fdir, "m0.json"),
                             "--trace", str(trace), "--log", str(log),
                             "--out", str(tmp_path / "gt.jsonl"))
    assert code == 2 and not out
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ParseError"
    assert diag["message"] == f"{message} at {log}:{bad_at}"
    assert not os.path.exists(tmp_path / "gt.jsonl")


@pytest.mark.parametrize("delay", [
    {"kind": "gamma", "a": 1.0},
    {"kind": "exponential", "a": 0.0},
    {"kind": "constant", "a": float("nan")},
    {"kind": "uniform", "a": 0.0, "b": float("inf")},
    {"a": 5.0},
    "fast",
], ids=["unknown-kind", "zero-rate", "nan-constant", "inf-bound", "no-kind", "not-object"])
def test_simulate_bad_delay_is_one_diagnostic(tmp_path, capsys, delay):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    config = logio.read_json(os.path.join(fdir, "grid.json"))["sim_configs"][0]
    config["schema_version"] = "1"
    config["delays"] = {"ring": delay}
    cpath = os.path.join(fdir, "config.json")
    open(cpath, "w").write(json.dumps(config))
    out = str(tmp_path / "sim")
    code, _, err = run_cli(capsys, "simulate", "--model", os.path.join(fdir, "m0.json"),
                           "--config", cpath, "--out", out)
    assert code == 1
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ConfigInvalid"
    assert not os.path.exists(out)


def test_transform_reads_bare_list_mentioning_schema_version(tmp_path, capsys):
    # the application id contains the text "schema_version"; the file is
    # still a bare list and must not be taken for a versioned document
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    apps = [{"application_id": "note_schema_version", "code": "BI_3",
             "mapping": {"t": "ring"}, "params": {"weight": 2.0}}]
    apps_path = os.path.join(fdir, "apps.json")
    open(apps_path, "w").write(json.dumps(apps))
    out = os.path.join(fdir, "ml.json")
    code, _, err = run_cli(capsys, "transform", "--model", os.path.join(fdir, "m0.json"),
                           "--apply", apps_path, "--out", out)
    assert code == 0, err
    assert any(t.id.endswith("#note_schema_version") for t in logio.read_model(out).transitions)


@pytest.mark.parametrize("doc,code", [
    ({"schema_version": "1", "applications": []}, 0),
    ({"applications": []}, 2),
    ({"schema_version": "1"}, 2),
    ("BI_3", 2),
], ids=["versioned", "unversioned-object", "no-applications", "string"])
def test_transform_application_file_shapes(tmp_path, capsys, doc, code):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    apps_path = os.path.join(fdir, "apps.json")
    open(apps_path, "w").write(json.dumps(doc))
    got, _, err = run_cli(capsys, "transform", "--model", os.path.join(fdir, "m0.json"),
                          "--apply", apps_path, "--out", os.path.join(fdir, "ml.json"))
    assert got == code, err


def write_package_config(tmp_path, capsys, edit):
    """The package fixture's sim config with `edit` applied, as a config file."""
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    config = logio.read_json(os.path.join(fdir, "grid.json"))["sim_configs"][0]
    config["schema_version"] = "1"
    edit(config)
    cpath = os.path.join(fdir, "config.json")
    open(cpath, "w").write(json.dumps(config))
    return os.path.join(fdir, "m0.json"), cpath


@pytest.mark.parametrize("edit", [
    lambda c: c.update(weights={"ring": [[0, "x"]]}),
    lambda c: c.update(weights={"ring": [[0]]}),
    lambda c: c.update(arc_delays={"ring": {"kind": "constant", "a": 1.0}}),
    lambda c: c.update(firing_limt=5),
    lambda c: c.update(prng="mt19937"),
    lambda c: c.update(firing_limit="100"),
    lambda c: c.update(time_horizon=float("nan")),
    lambda c: c["arrivals"][0].pop("count"),
    lambda c: c["delays"].update(ring={"kind": "normal", "mu": 300, "sigma": 60}),
    lambda c: c["delays"].update(ring={"kind": "constant", "c": 60}),
    lambda c: c["arrivals"][0].update(frist_at=500),
    lambda c: c["arrivals"][0].update(count=2.7),
    lambda c: c.update(schedules=[{"place": "p_van_pool", "token": "abc", "start": 0.0,
                                   "stop": 600.0}]),
    lambda c: c.update(seed="7"),
    lambda c: c.update(seed=7.9),
    lambda c: c.update(seed=-1),
    lambda c: c.update(run_id=5),
    lambda c: c.update(timestamp_epoch=5),
    lambda c: c.update(timestamp_epoch="yesterday"),
    lambda c: c.update(weights={"ring": [["0", "1.5"]]}),
    lambda c: c["arrivals"][0].update(first_at="500"),
    lambda c: c["delays"].update(ring={"kind": "constant", "a": True}),
    lambda c: c.update(schedules=[{"place": "p_van_pool", "token": ["v_9"], "start": "0",
                                   "stop": 600.0}]),
    lambda c: c.update(schedules=[{"place": "p_van_pool", "token": ["v;9"], "start": 0.0,
                                   "stop": 600.0}]),
    lambda c: c["arrivals"][0].update(object_type="pack;age"),
], ids=["non-numeric-weight", "short-piece", "arc-key-without-arrow", "unknown-key",
        "foreign-prng", "string-firing-limit", "nan-horizon", "arrival-without-count",
        "delay-key-mu", "delay-key-c", "arrival-key-frist-at", "fractional-count",
        "string-token", "string-seed", "fractional-seed", "negative-seed", "numeric-run-id",
        "numeric-epoch", "unparsable-epoch", "string-weight-piece", "string-first-at",
        "boolean-delay", "string-start", "separator-in-token", "separator-in-arrival-type"])
def test_simulate_bad_config_is_one_diagnostic(tmp_path, capsys, edit):
    model, cpath = write_package_config(tmp_path, capsys, edit)
    out = str(tmp_path / "sim")
    code, _, err = run_cli(capsys, "simulate", "--model", model, "--config", cpath, "--out", out)
    assert code == 1
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ConfigInvalid"
    assert not os.path.exists(out)


def test_simulate_accepts_every_key_to_dict_writes(tmp_path, capsys):
    def edit(c):
        c["arc_delays"] = {"ring->p_rung": {"kind": "constant", "a": 5.0, "b": 0.0}}
        c["schedules"] = [{"place": "p_van_pool", "token": ["v_9"], "start": 0.0, "stop": 600.0}]
        c["run_id"] = "every-key"
    model, cpath = write_package_config(tmp_path, capsys, edit)
    config = json.load(open(cpath))
    assert set(config) == set(SimConfig().to_dict()) | {"schema_version"}
    out = str(tmp_path / "sim")
    code, _, err = run_cli(capsys, "simulate", "--model", model, "--config", cpath, "--out", out)
    assert code == 0, err
    assert logio.read_trace(os.path.join(out, "trace.gt.jsonl")).run_id == "every-key"
    del config["schema_version"]
    assert SimConfig.from_dict(config).to_dict() == config


@pytest.mark.parametrize("app,field", [
    ({"code": "BI_3", "mapping": {"t": "ring"}}, "application_id"),
    ({"application_id": "a1", "mapping": {"t": "ring"}}, "code"),
    ({"application_id": 7, "code": "BI_3", "mapping": {"t": "ring"}}, "application_id"),
    ("BI_3", "object"),
], ids=["no-application-id", "no-code", "numeric-id", "not-object"])
def test_transform_incomplete_application_exits_two(tmp_path, capsys, app, field):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    apps_path = os.path.join(fdir, "apps.json")
    open(apps_path, "w").write(json.dumps([app]))
    code, _, err = run_cli(capsys, "transform", "--model", os.path.join(fdir, "m0.json"),
                           "--apply", apps_path, "--out", os.path.join(fdir, "ml.json"))
    assert code == 2
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ParseError"
    assert field in diag["message"]


@pytest.mark.parametrize("app,field", [
    ({"mapping": "ring"}, "mapping"),
    ({"mapping": 5}, "mapping"),
    ({"params": "x"}, "params"),
    ({"params": None}, "params"),
    ({"competitors": "ab"}, "competitors"),
    ({"competitors": [1]}, "competitors"),
], ids=["string-mapping", "number-mapping", "string-params", "null-params",
        "string-competitors", "number-competitor"])
def test_transform_mistyped_application_exits_two(tmp_path, capsys, app, field):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    apps_path = os.path.join(fdir, "apps.json")
    base = {"application_id": "a1", "code": "BI_3", "mapping": {"t": "ring"}}
    open(apps_path, "w").write(json.dumps([{**base, **app}]))
    code, _, err = run_cli(capsys, "transform", "--model", os.path.join(fdir, "m0.json"),
                           "--apply", apps_path, "--out", os.path.join(fdir, "ml.json"))
    assert code == 2
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ParseError"
    assert field in diag["message"]


@pytest.mark.parametrize("piece", [[0, "x"], [0, "1.5"], [0], "0"], ids=[
    "string-weight", "numeric-string-weight", "short-piece", "string-piece"])
def test_validate_mistyped_model_weight_exits_two(tmp_path, capsys, piece):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    model = os.path.join(fdir, "m0.json")
    doc = json.load(open(model))
    doc["annotations"]["weights"] = [["ring", [[0, 1.0], piece]]]
    open(model, "w").write(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", "--model", model)
    assert code == 2
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ParseError"
    assert "malformed model" in diag["message"]


@pytest.mark.parametrize("key,entry", [
    ("report_rules", 1),
    ("report_rules", {"transition": 5}),
    ("report_rules", {"transition": "ring", "affected": "ab"}),
    ("probes", {"application_id": 1, "pattern_code": "BI_3", "deviation": ["ring"]}),
    ("probes", {"application_id": "a1", "pattern_code": "BI_3", "deviation": "ab"}),
    ("probes", ["a1"]),
    ("overrides", {"kind": "coarsen", "transitions": "ring", "window_s": "x"}),
    ("overrides", {"kind": "coarsen", "transitions": ["ring"], "window_s": "x"}),
    ("overrides", {"kind": "slower", "transitions": ["ring"]}),
], ids=["number-rule", "number-rule-transition", "text-affected", "number-probe-id",
        "text-deviation", "list-probe", "text-override-transitions", "text-window",
        "unknown-override-kind"])
def test_validate_mistyped_model_annotation_exits_two(tmp_path, capsys, key, entry):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    model = os.path.join(fdir, "m0.json")
    doc = json.load(open(model))
    doc["annotations"][key] = [entry]
    open(model, "w").write(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", "--model", model)
    assert code == 2
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ParseError"
    assert "malformed model" in diag["message"]


@pytest.mark.parametrize("app", [
    {"code": "BI_10", "mapping": {"t": "depart"}, "params": {"drop": ["a"]}},
    {"code": "BI_10", "mapping": {"t": "depart"}, "params": {}},
    {"code": "BI_6", "mapping": {"p_c": "p_c"}, "params": {"variant": "sideways"}},
    {"code": "BI_3", "mapping": {"t": "ring"}, "params": {"weight": "heavy"}},
    {"code": "BI_3", "mapping": {"t": "ring"}, "params": {"weight_period": "x"}},
    {"code": "BI_3", "mapping": {"t": "ring"}, "params": {"weight_period": -3600.0}},
    {"code": "BI_3", "mapping": {"t": "ring"}, "params": {"weight_horizon": float("inf")}},
    {"code": "BI_5", "mapping": {"p_q1": "p_q1", "p_q2": "p_q2"}, "params": {"budget": "two"}},
    {"code": "BI_7", "mapping": {"p_r1": "p_c", "p_r2": "p_we"}, "params": {"pace_s": "slow"}},
    {"code": "BI_7", "mapping": {"p_r1": "p_c", "p_r2": "p_we"}, "params": {"undo_weight": -1}},
    {"code": "BI_11", "mapping": {"t": "ring"}, "params": {"probability": 2}},
    {"code": "BI_11", "mapping": {"t": "ring"}, "params": {"delay": 5}},
    {"code": "RI_in^o", "mapping": {"t": "ring", "p_w": "p_c"}, "params": {"var": ["cr"]}},
    {"code": "RI_mi^o", "mapping": {"t": "load", "O": ["van"]}, "params": {"vars": "vn"}},
    {"code": "RI_mi^p", "mapping": {"T": ["collect"]}, "params": {"window_s": "1h"}},
    {"code": "BI_3", "mapping": {"t": "ring"}, "params": {"weight_period": 0.001}},
    {"code": "BI_3", "mapping": {"t": "ring"}, "params": {"weight_period": 1.0}},
], ids=["non-integer-drop", "no-drop", "unknown-variant", "string-weight",
        "string-weight-period", "negative-weight-period", "infinite-horizon", "string-budget",
        "string-pace", "negative-undo-weight", "probability-above-one", "number-delay",
        "list-var", "string-vars", "string-window", "tiny-weight-period",
        "second-weight-period"])
def test_transform_bad_pattern_param_is_one_requirement_failure(tmp_path, capsys, app):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    apps_path = os.path.join(fdir, "apps.json")
    open(apps_path, "w").write(json.dumps([{"application_id": "a1", **app}]))
    out = os.path.join(fdir, "ml.json")
    code, _, err = run_cli(capsys, "transform", "--model", os.path.join(fdir, "m0.json"),
                           "--apply", apps_path, "--out", out)
    assert code == 1
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "RequirementFailed" and diag["message"].startswith(app["code"])
    assert not os.path.exists(out)


@pytest.mark.parametrize("edit", [
    lambda g: g.update(paried=True),
    lambda g: g.update(master_sed=5),
    lambda g: g.update(paired="false"),
    lambda g: g.update(master_seed="7"),
    lambda g: g.update(recording_sets=[]),
    lambda g: g["recording_sets"].pop(),
    lambda g: g.update(behavioral_sets="abc"),
], ids=["unknown-key-paired", "unknown-key-seed", "string-paired", "string-seed",
        "empty-axis", "unequal-pairs", "string-axis"])
def test_dataset_bad_grid_is_one_diagnostic(tmp_path, capsys, edit):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    gpath = os.path.join(fdir, "grid.json")
    grid = logio.read_json(gpath)
    edit(grid)
    open(gpath, "w").write(json.dumps(grid))
    out = str(tmp_path / "ds")
    code, _, err = run_cli(capsys, "dataset", "--model", os.path.join(fdir, "m0.json"),
                           "--grid", gpath, "--out", out)
    assert code == 1
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ConfigInvalid"
    assert not os.path.exists(out)


def _unbind_an_output(model):
    tids = {t["id"] for t in model["transitions"]}
    arc = next(a for a in model["arcs"] if a["source"] in tids)
    arc["inscription"][0] = {"name": "unbound", "object_type": arc["inscription"][0]["object_type"]}


BAD_MODELS = {
    "unknown-place": (lambda m: m["arcs"][0].update(source="p_nowhere"), "UnresolvedElement"),
    "string-token": (lambda m: m["initial_marking"]["p_we"].__setitem__(0, "we_1"),
                     "MarkingArityMismatch"),
    "unbound-output": (_unbind_an_output, "UnboundOutputVariable"),
}


@pytest.mark.parametrize("defect", sorted(BAD_MODELS))
@pytest.mark.parametrize("command", ["simulate", "dataset", "transform", "oracle-align"])
def test_commands_reject_an_invalid_model(tmp_path, capsys, command, defect):
    m0, cpath = write_package_config(tmp_path, capsys, lambda c: None)
    fdir = os.path.dirname(m0)
    edit, diag_code = BAD_MODELS[defect]
    model = logio.read_json(m0)
    edit(model)
    bad = os.path.join(fdir, "bad.json")
    open(bad, "w").write(json.dumps(model))
    out = str(tmp_path / "out")
    if command == "simulate":
        argv = ["simulate", "--model", bad, "--config", cpath, "--out", out]
    elif command == "dataset":
        argv = ["dataset", "--model", bad, "--grid", os.path.join(fdir, "grid.json"),
                "--out", out]
    elif command == "transform":
        apps = os.path.join(fdir, "apps.json")
        open(apps, "w").write("[]")
        argv = ["transform", "--model", bad, "--apply", apps, "--out", out]
    else:
        sim = str(tmp_path / "sim")
        run_cli(capsys, "simulate", "--model", m0, "--config", cpath, "--out", sim)
        argv = ["oracle", "align", "--model", bad, "--trace", os.path.join(sim, "trace.gt.jsonl"),
                "--log", os.path.join(sim, "log.jsonl"), "--out", out]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == diag_code
    assert not os.path.exists(out)
