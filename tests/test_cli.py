import json
import os

import pytest

from logforge import fixtures, logio
from logforge.cli import main
from logforge.serialize import net_digest
from logforge.simulate import SimConfig
from logforge.timing import ConfigInvalid

import mini_nets


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


def test_a_model_tag_the_trace_reader_refuses_stops_at_validate(tmp_path, capsys):
    # such a model used to validate and simulate, and its trace was then
    # refused by `oracle align` and `oracle report`
    model = str(tmp_path / "m.json")
    logio.write_model(mini_nets.mini_chain(), model)
    doc = json.load(open(model))
    [alpha] = [t for t in doc["transitions"] if t["id"] == "alpha"]
    alpha["provenance"] = {"origin": "behavioral", "pattern_code": "BOGUS",
                           "application_id": "a1"}
    open(model, "w").write(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", "--model", model)
    assert code == 1
    [diag] = stderr_diagnostics(err)
    assert diag == {"code": "ProvenanceInvalid", "element": "alpha",
                    "message": "pattern_code 'BOGUS' names no catalog pattern"}
    out = str(tmp_path / "sim")
    code, _, err = run_cli(capsys, "simulate", "--model", model, "--out", out)
    assert code == 1 and stderr_diagnostics(err) == [diag]
    assert not os.path.exists(out)


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


def test_transform_unread_key_exits_one(tmp_path, capsys):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    apps = [{"application_id": "a1", "code": "BI_3", "mapping": {"t": "ring", "tt": "dock"},
             "params": {"wieght": 9.0}}]
    apps_path = os.path.join(fdir, "apps.json")
    open(apps_path, "w").write(json.dumps(apps))
    out = os.path.join(fdir, "ml.json")
    code, _, err = run_cli(capsys, "transform", "--model", os.path.join(fdir, "m0.json"),
                           "--apply", apps_path, "--out", out)
    assert code == 1
    [diag] = stderr_diagnostics(err)
    assert (diag["code"], diag["element"]) == ("UnknownKey", "a1")
    assert diag["message"] == "BI_3 reads no mapping key(s) ['tt'] and no params key(s) ['wieght']"
    assert not os.path.exists(out)


def test_transform_application_without_an_id_exits_one(tmp_path, capsys):
    # its model would carry provenance that `validate` refuses
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    apps = [{"application_id": "", "code": "BI_3", "mapping": {"t": "ring"}, "params": {}}]
    apps_path = os.path.join(fdir, "apps.json")
    open(apps_path, "w").write(json.dumps(apps))
    out = os.path.join(fdir, "ml.json")
    code, _, err = run_cli(capsys, "transform", "--model", os.path.join(fdir, "m0.json"),
                           "--apply", apps_path, "--out", out)
    assert code == 1
    [diag] = stderr_diagnostics(err)
    assert (diag["code"], diag["element"]) == ("ProvenanceInvalid", "BI_3")
    assert not os.path.exists(out)


def test_transform_misspelt_competitor_exits_one(tmp_path, capsys):
    # its model's frequency probe would name no transition, so a run of it
    # would count no choice points
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    apps = [{"application_id": "a", "code": "BI_3", "mapping": {"t": "ring"},
             "params": {"weight": 0.05}, "competitors": ["rnig"]}]
    apps_path = os.path.join(fdir, "apps.json")
    open(apps_path, "w").write(json.dumps(apps))
    out = os.path.join(fdir, "ml.json")
    code, _, err = run_cli(capsys, "transform", "--model", os.path.join(fdir, "m0.json"),
                           "--apply", apps_path, "--out", out)
    assert code == 1
    assert stderr_diagnostics(err) == [{
        "code": "UnresolvedElement", "element": "annotations.probes",
        "message": "BI_3: probes names 'rnig', which is no transition of the net"}]
    assert not os.path.exists(out)


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


def test_oracle_align_names_the_line_of_an_unknown_transition(tmp_path, capsys):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    ddir = str(tmp_path / "ds")
    run_cli(capsys, "dataset", "--model", os.path.join(fdir, "m0.json"),
            "--grid", os.path.join(fdir, "grid.json"), "--out", ddir)
    entry = logio.read_json(os.path.join(ddir, "manifest.json"))["cells"][0]
    lines = open(os.path.join(ddir, entry["paths"]["trace"])).read().splitlines()
    record = json.loads(lines[2])
    record["transition"] = "gamma"
    # two blank lines after the header put the second record on line 5
    trace = str(tmp_path / "t.jsonl")
    open(trace, "w").write("\n".join([lines[0], "", "", lines[1], json.dumps(record),
                                      *lines[3:]]) + "\n")
    code, _, err = run_cli(capsys, "oracle", "align",
                           "--model", os.path.join(ddir, "m0.json"),
                           "--net", os.path.join(ddir, entry["paths"]["model"]),
                           "--trace", trace,
                           "--log", os.path.join(ddir, entry["paths"]["log_jsonl"]),
                           "--out", str(tmp_path / "gt.jsonl"))
    assert code == 2
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ParseError" and "'gamma'" in diag["message"]
    assert diag["message"].endswith(f"{trace}:5")


@pytest.fixture(scope="module")
def package_dataset(tmp_path_factory):
    """The package fixture's dataset directory and its manifest's cells."""
    root = tmp_path_factory.mktemp("package")
    fdir, ddir = str(root / "fx"), str(root / "ds")
    assert main(["fixture", "--name", "package_delivery", "--out", fdir]) == 0
    assert main(["dataset", "--model", os.path.join(fdir, "m0.json"),
                 "--grid", os.path.join(fdir, "grid.json"), "--out", ddir]) == 0
    return ddir, logio.read_json(os.path.join(ddir, "manifest.json"))["cells"]


def align_cell(capsys, ddir, entry, out, model=None, net=None):
    """`oracle align` of a dataset cell, against the dataset's m0 and the
    cell's model unless others are given."""
    return run_cli(capsys, "oracle", "align",
                   "--model", model or os.path.join(ddir, "m0.json"),
                   "--net", net or os.path.join(ddir, entry["paths"]["model"]),
                   "--trace", os.path.join(ddir, entry["paths"]["trace"]),
                   "--log", os.path.join(ddir, entry["paths"]["log_jsonl"]), "--out", out)


def assert_digest_mismatch(err, trace_path, role, recorded, given):
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ModelDigestMismatch"
    assert diag["message"] == (f"{trace_path}: the trace was played from {role} digest "
                               f"{recorded!r}, but the {role} model given has digest {given!r}")


def test_oracle_align_refuses_another_rows_model(tmp_path, capsys, package_dataset):
    ddir, cells = package_dataset
    entry, other = cells[0], cells[1]
    assert entry["digests"]["ml"] != other["digests"]["ml"]
    out = str(tmp_path / "gt.jsonl")
    code, _, err = align_cell(capsys, ddir, entry, out,
                              net=os.path.join(ddir, other["paths"]["model"]))
    assert code == 1 and not os.path.exists(out)
    assert_digest_mismatch(err, os.path.join(ddir, entry["paths"]["trace"]), "ml",
                           entry["digests"]["ml"], other["digests"]["ml"])


def test_oracle_align_refuses_a_model_with_an_edited_weight(tmp_path, capsys,
                                                            package_dataset):
    ddir, cells = package_dataset
    entry = cells[0]
    model = logio.read_json(os.path.join(ddir, entry["paths"]["model"]))
    [[transition, pieces]] = model["annotations"]["weights"]
    pieces[0][1] += 1.0
    edited = tmp_path / "model.json"
    edited.write_text(json.dumps(model))
    given = net_digest(logio.read_model(str(edited)))
    out = str(tmp_path / "gt.jsonl")
    code, _, err = align_cell(capsys, ddir, entry, out, net=str(edited))
    assert code == 1 and not os.path.exists(out)
    assert_digest_mismatch(err, os.path.join(ddir, entry["paths"]["trace"]), "ml",
                           entry["digests"]["ml"], given)


def test_oracle_align_refuses_another_base_model(tmp_path, capsys, package_dataset):
    ddir, cells = package_dataset
    entry = cells[0]
    energy = tmp_path / "energy.json"
    logio.write_model(fixtures.fixture("energy_contract")[0], str(energy))
    out = str(tmp_path / "gt.jsonl")
    code, _, err = align_cell(capsys, ddir, entry, out, model=str(energy))
    assert code == 1 and not os.path.exists(out)
    assert_digest_mismatch(err, os.path.join(ddir, entry["paths"]["trace"]), "m0",
                           entry["digests"]["m0"], net_digest(logio.read_model(str(energy))))


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
    # JSON whitespace is space, tab, CR and LF; other Unicode spaces are not blank
    ('\u00a0', "Expecting value"),
    (GOOD_MOVE + '\u0085', "Extra data"),
    ('{"object":"o_1","seq":1,"kind":"log",'
     '"cause":{"pattern_code":"BI_3","application_id":"a","origin":5}}',
     "malformed alignment move: 'cause' must hold a string 'origin' if any"),
    ('{"object":"o_1","seq":1,"kind":"log","cause":0}', BAD_CAUSE),
    ('{"object":"o_1","seq":1,"kind":"log","discrepancy":[]}',
     "malformed alignment move: 'discrepancy' must be an object or null"),
    # with two defects, the first defect in field order is reported
    ('{"object":"o_1","seq":1,"kind":"log","activity":["a"],"objects":[["o_1"]]}',
     "malformed alignment move: 'activity' must be a string or null"),
], ids=["no-object", "no-kind", "array", "string", "text-seq", "nested-objects",
        "list-activity", "text-cause", "incomplete-cause", "bom", "trailing-data",
        "nbsp-line", "next-line-after-move", "number-cause-origin", "zero-cause", "list-discrepancy",
        "list-activity-and-nested-objects"])
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


def test_oracle_score_reads_an_alignment_line_with_an_extra_key(tmp_path, capsys):
    # candidate alignments come from external checkers, which may add fields
    good = tmp_path / "gt.jsonl"
    good.write_text(GOOD_MOVE + "\n")
    candidate = tmp_path / "cand.jsonl"
    candidate.write_text(GOOD_MOVE[:-1] + ',"cost":0.5}\n')
    code, out, err = run_cli(capsys, "oracle", "score", "--candidate", str(candidate),
                             "--gt", str(good))
    assert code == 0, err
    assert out == "0.000000\n"


ALIGNMENT_HEADER = '{"kind":"alignment","schema_version":"2"}'
GOOD_SYSTEMIC_MOVE = '{"at":[["o_1",0]],"kind":"synchronous","activity":"a","objects":["o_1"]}'
NO_PLACES = "alignment line needs 'at', a non-empty list of [string object, integer seq] places"


@pytest.mark.parametrize("bad_line,message", [
    ('{"kind":"log","activity":"a","objects":["o_1"]}', NO_PLACES),
    ('{"at":[],"kind":"log"}', NO_PLACES),
    ('{"at":["o_1",1],"kind":"log"}', NO_PLACES),
    ('{"at":{"o_1":1},"kind":"log"}', NO_PLACES),
    ('{"at":[["o_1",1],["o_2"]],"kind":"log"}', NO_PLACES),
    ('{"at":[["o_1",1,2]],"kind":"log"}', NO_PLACES),
    ('{"at":[["o_1","1"]],"kind":"log"}', NO_PLACES),
    ('{"at":[["o_1",1.0]],"kind":"log"}', NO_PLACES),
    ('{"at":[["o_1",true]],"kind":"log"}', NO_PLACES),
    ('{"at":[[1,1]],"kind":"log"}', NO_PLACES),
    ('{"at":[["o_1",1]],"activity":"a"}', "malformed alignment move: 'kind' must be a string"),
    ('{"at":[["o_1",1]],"kind":"log","objects":"o_1"}',
     "malformed alignment move: 'objects' must be a list of strings"),
], ids=["no-at", "empty-at", "flat-at", "object-at", "short-place", "long-place", "text-seq",
        "float-seq", "bool-seq", "number-object", "no-kind", "text-objects"])
def test_oracle_score_malformed_systemic_alignment_exits_two(tmp_path, capsys, bad_line,
                                                              message):
    good = tmp_path / "gt.jsonl"
    good.write_text(ALIGNMENT_HEADER + "\n" + GOOD_SYSTEMIC_MOVE + "\n")
    bad = tmp_path / "cand.jsonl"
    bad.write_text(ALIGNMENT_HEADER + "\n" + GOOD_SYSTEMIC_MOVE + "\n" + bad_line + "\n")
    code, out, err = run_cli(capsys, "oracle", "score", "--candidate", str(bad),
                             "--gt", str(good))
    assert code == 2 and not out
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ParseError"
    assert diag["message"] == f"{message} at {bad}:3"


@pytest.mark.parametrize("header,version", [
    ('{"kind":"alignment","schema_version":"3"}', "'3'"),
    ('{"kind":"alignment","schema_version":2}', "2"),
    ('{"kind":"alignment"}', "None"),
], ids=["schema-3", "number-version", "no-version"])
def test_oracle_score_refuses_an_alignment_header_of_another_schema(tmp_path, capsys, header,
                                                                     version):
    good = tmp_path / "gt.jsonl"
    good.write_text(ALIGNMENT_HEADER + "\n" + GOOD_SYSTEMIC_MOVE + "\n")
    bad = tmp_path / "cand.jsonl"
    bad.write_text(header + "\n" + GOOD_SYSTEMIC_MOVE + "\n")
    code, out, err = run_cli(capsys, "oracle", "score", "--candidate", str(bad),
                             "--gt", str(good))
    assert code == 2 and not out
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "SchemaVersionMismatch"
    assert diag["message"] == f"{bad}: alignment schema_version {version}, expected '2'"


def test_oracle_score_reads_a_systemic_alignment_line_with_an_extra_key(tmp_path, capsys):
    good = tmp_path / "gt.jsonl"
    good.write_text(GOOD_MOVE + "\n")
    candidate = tmp_path / "cand.jsonl"
    candidate.write_text(ALIGNMENT_HEADER + "\n" + GOOD_SYSTEMIC_MOVE[:-1] + ',"cost":0.5}\n')
    code, out, err = run_cli(capsys, "oracle", "score", "--candidate", str(candidate),
                             "--gt", str(good))
    assert code == 0, err
    assert out == "0.000000\n"


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


def unknown_key(what, key, known):
    """The ConfigInvalid message of one unknown `key` of a `what`."""
    return f"unknown {what} key(s) [{key!r}]; known keys are {known}"


RECORD_KEYS = ["activity", "coarsen_window", "consumed", "fresh", "produced", "provenance",
               "recorded_objects", "seq_no", "time", "timing_causes", "transition", "values"]
TRACE_HEADER_KEYS = ["config_digest", "epoch", "final_time", "injected", "kind", "model_digests",
                     "object_types", "pattern_stats", "report_rules", "run_id", "schema_version",
                     "seed", "termination"]
PROVENANCE_KEYS = ["application_id", "origin", "pattern_code", "shadow_of"]


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
    # JSON whitespace is space, tab, CR and LF; other Unicode spaces are not blank
    "nbsp-line": ([TRACE_HEADER, GOOD_RECORD, '\u00a0'], 3, "Expecting value"),
    "line-separator-after-record": ([TRACE_HEADER, GOOD_RECORD + '\u2028'], 2, "Extra data"),
    "list-provenance": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"provenance":[]')], 3,
        BAD_RECORD + """ConfigInvalid("'provenance' must be an object, got []")"""),
    "number-provenance-origin": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"provenance":{"origin":5}')], 3,
        BAD_RECORD + """ConfigInvalid("'provenance' must hold a string 'origin' and strings or """
        """nulls, got {'origin': 5}")"""),
    "empty-provenance": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"provenance":{}')], 3,
        BAD_RECORD + """ConfigInvalid("'provenance' must hold a string 'origin' and strings or """
        """nulls, got {}")"""),
    "provenance-without-origin": (
        [TRACE_HEADER, GOOD_RECORD,
         with_record_field('"provenance":{"application_id":"x","pattern_code":"BI_3"}')], 3,
        BAD_RECORD + """ConfigInvalid("'provenance' must hold a string 'origin' and strings or """
        """nulls, got {'application_id': 'x', 'pattern_code': 'BI_3'}")"""),
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
    "number-object-type": (
        [with_header_field('"object_types":{"c_1":5}'), GOOD_RECORD], 1,
        BAD_RECORD + """ValueError("'object_types' must be an object of strings, """
        """got {'c_1': 5}")"""),
    "text-model-digests": (
        [with_header_field('"model_digests":"abc"'), GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid("field 'model_digests' is not dict: 'abc'")"""),
    "list-pattern-stats": (
        [with_header_field('"pattern_stats":[]'), GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid("field 'pattern_stats' is not dict: []")"""),
    "number-activity": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"activity":5')], 3,
        BAD_RECORD + """ConfigInvalid("field 'activity' is not str: 5")"""),
    "text-coarsen-window": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"coarsen_window":"x"')], 3,
        BAD_RECORD + """ConfigInvalid("field 'coarsen_window' is not int/float: 'x'")"""),
    "number-consumed-place": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"consumed":[[5,["a"]]]')], 3,
        BAD_RECORD + """ValueError("'consumed' place ids must be strings, got 5")"""),
    "number-produced-place": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"produced":[[5,["a"],1.0]]')], 3,
        BAD_RECORD + """ValueError("'produced' place ids must be strings, got 5")"""),
    "text-availability": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"produced":[["p",["a"],"x"]]')], 3,
        BAD_RECORD + """ValueError("'produced' availability times must be numbers, """
        """got 'x'")"""),
    "number-injected-place": (
        [with_header_field('"injected":[[5,["a"]]]'), GOOD_RECORD], 1,
        BAD_RECORD + """ValueError("'injected' place ids must be strings, got 5")"""),
    "unparsable-epoch": (
        [TRACE_HEADER.replace("2024-03-04T08:00:00Z", "yesterday"), GOOD_RECORD], 1,
        BAD_RECORD + """ValueError("'epoch' must be an ISO 8601 time, got 'yesterday'")"""),
    "number-config-digest": (
        [with_header_field('"config_digest":5'), GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid("field 'config_digest' is not str: 5")"""),
    "number-termination": (
        [with_header_field('"termination":5'), GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid("field 'termination' is not str: 5")"""),
    "text-final-time": (
        [with_header_field('"final_time":"x"'), GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid("field 'final_time' is not int/float: 'x'")"""),
    # with two defects, the first defect in field order is reported
    "number-value-and-short-token": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"values":[["x",5]],"consumed":[["p"]]')],
        3, BAD_RECORD + """ValueError("'values' must be a list of [variable, identifier] """
        """string pairs, got [['x', 5]]")"""),
    "number-provenance-origin-and-short-token": (
        [TRACE_HEADER, GOOD_RECORD,
         with_record_field('"provenance":{"origin":5},"produced":[["p",["a"]]]')],
        3, BAD_RECORD + """ConfigInvalid("'provenance' must hold a string 'origin' and strings """
        """or nulls, got {'origin': 5}")"""),
    "text-recorded-objects-and-number-timing-causes": (
        [TRACE_HEADER, GOOD_RECORD,
         with_record_field('"recorded_objects":"abc","timing_causes":5')],
        3, BAD_RECORD + """ValueError("'recorded_objects' must be a list of strings, """
        """got 'abc'")"""),
    "list-object-types-and-short-injected": (
        [with_header_field('"object_types":[1],"injected":[["p"]]'), GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid("field 'object_types' is not dict: [1]")"""),
    "text-injected-token-and-bad-rule": (
        [with_header_field('"injected":[["p","abc"]],"report_rules":[{}]'), GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid("missing field 'transition'")"""),
    "number-report-rule": (
        [with_header_field('"report_rules":[1]'), GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid('report rule must be an object, got 1')"""),
    "number-rule-transition": (
        [with_header_field('"report_rules":[{"transition":5}]'), GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid("field 'transition' is not str: 5")"""),
    "text-rule-responsible": (
        [with_header_field('"report_rules":[{"transition":"t","responsible":"ab"}]'),
         GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid("field 'responsible' is not list: 'ab'")"""),
    "object-report-rules": (
        [with_header_field('"report_rules":{"transition":"t"}'), GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid("field 'report_rules' is not list: {'transition': 't'}")"""),
    "number-rule-transition-and-text-injected-token": (
        [with_header_field('"report_rules":[{"transition":5}],"injected":[["p","abc"]]'),
         GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid("field 'transition' is not str: 5")"""),
    "number-rule-responsible-and-list-object-types": (
        [with_header_field('"report_rules":[{"transition":"t","responsible":5}],'
                           '"object_types":[1]'), GOOD_RECORD], 1,
        BAD_RECORD + """ConfigInvalid("field 'object_types' is not dict: [1]")"""),
    # an unknown key is a defect, reported before any field is read
    "misspelt-activity": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"activty":"a"')], 3,
        BAD_RECORD + repr(ConfigInvalid(unknown_key("trace record", "activty", RECORD_KEYS)))),
    "misspelt-seed": (
        [with_header_field('"sead":1'), GOOD_RECORD], 1,
        BAD_RECORD + repr(ConfigInvalid(unknown_key("trace header", "sead",
                                                    TRACE_HEADER_KEYS)))),
    "provenance-key": (
        [TRACE_HEADER, GOOD_RECORD,
         with_record_field('"provenance":{"origin":"base","code":"x"}')], 3,
        BAD_RECORD + repr(ConfigInvalid(unknown_key("'provenance'", "code", PROVENANCE_KEYS)))),
    "misspelt-activity-and-number-values": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"values":5,"activty":"a"')], 3,
        BAD_RECORD + repr(ConfigInvalid(unknown_key("trace record", "activty", RECORD_KEYS)))),
    # a record names each variable once, in increasing order, as the writer does
    "repeated-value-name": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"values":[["a","x"],["a","y"]]')], 3,
        BAD_RECORD + repr(ValueError("'values' must name each variable once, in increasing "
                                     "order, got [['a', 'x'], ['a', 'y']]"))),
    "unordered-fresh-names": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"fresh":[["b","x"],["a","y"]]')], 3,
        BAD_RECORD + repr(ValueError("'fresh' must name each variable once, in increasing "
                                     "order, got [['b', 'x'], ['a', 'y']]"))),
    "value-name-also-fresh": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"values":[["a","x"]],"fresh":[["a","y"]]')],
        3, BAD_RECORD + repr(ValueError("'values' and 'fresh' must name different variables, "
                                        "got [['a', 'x']] and [['a', 'y']]"))),
    # provenance values mean something
    "unknown-origin": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field('"provenance":{"origin":"deviation"}')], 3,
        BAD_RECORD + repr(ConfigInvalid("'provenance' origin 'deviation' is not one of "
                                        "['base', 'behavioral', 'recording']"))),
    "unknown-pattern-code": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field(
            '"provenance":{"origin":"behavioral","pattern_code":"BI_99","application_id":"a"}')],
        3, BAD_RECORD + repr(ConfigInvalid("'provenance' pattern_code 'BI_99' names no catalog "
                                           "pattern"))),
    "origin-unlike-pattern": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field(
            '"provenance":{"origin":"recording","pattern_code":"BI_3","application_id":"a"}')],
        3, BAD_RECORD + repr(ConfigInvalid("'provenance' origin 'recording' disagrees with "
                                           "pattern 'BI_3', whose origin is 'behavioral'"))),
    "base-with-pattern": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field(
            '"provenance":{"origin":"base","pattern_code":"RI_mi^e"}')],
        3, BAD_RECORD + repr(ConfigInvalid("'provenance' origin 'base' disagrees with "
                                           "pattern 'RI_mi^e', whose origin is 'recording'"))),
    "created-without-application": (
        [TRACE_HEADER, GOOD_RECORD, with_record_field(
            '"provenance":{"origin":"behavioral","pattern_code":"BI_3"}')],
        3, BAD_RECORD + repr(ConfigInvalid("'provenance' origin 'behavioral' needs an "
                                           "application_id"))),
    # records are numbered 0, 1, 2, ... in file order, as the writer numbers them
    "repeated-seq-no": (
        [TRACE_HEADER, GOOD_RECORD, GOOD_RECORD], 3,
        BAD_RECORD + repr(ValueError("'seq_no' must count the records 0, 1, 2, ... in file "
                                     "order: expected 1, got 0"))),
    "skipped-seq-no": (
        [TRACE_HEADER, GOOD_RECORD, GOOD_RECORD.replace('"seq_no":0', '"seq_no":2')], 3,
        BAD_RECORD + repr(ValueError("'seq_no' must count the records 0, 1, 2, ... in file "
                                     "order: expected 1, got 2"))),
    "first-seq-no-one": (
        [TRACE_HEADER, GOOD_RECORD.replace('"seq_no":0', '"seq_no":1')], 2,
        BAD_RECORD + repr(ValueError("'seq_no' must count the records 0, 1, 2, ... in file "
                                     "order: expected 0, got 1"))),
    "repeated-seq-no-and-number-activity": (
        [TRACE_HEADER, GOOD_RECORD, GOOD_RECORD.replace('"activity":"a"', '"activity":5')], 3,
        BAD_RECORD + repr(ValueError("'seq_no' must count the records 0, 1, 2, ... in file "
                                     "order: expected 1, got 0"))),
    "misspelt-seed-and-text-run-id": (
        [with_header_field('"sead":1').replace('"run_id":"r"', '"run_id":5'), GOOD_RECORD], 1,
        BAD_RECORD + repr(ConfigInvalid(unknown_key("trace header", "sead",
                                                    TRACE_HEADER_KEYS)))),
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
    # JSON whitespace is space, tab, CR and LF; other Unicode spaces are not blank
    ([LOG_HEADER, GOOD_EVENT, '\u00a0'], 3, "Expecting value"),
    ([LOG_HEADER, GOOD_EVENT + '\x1c'], 2, "Extra data"),
    (['[' + LOG_HEADER + ']'], 1, "line is not a JSON object"),
    ([LOG_HEADER, with_event_field('"objects":"abc"')], 2,
     BAD_EVENT + """ValueError("'objects' must be a list of strings, got 'abc'")"""),
    ([LOG_HEADER, with_event_field('"objects":[1]')], 2,
     BAD_EVENT + """ValueError("'objects' must be a list of strings, got [1]")"""),
    ([LOG_HEADER, with_event_field('"run_id":5')], 2,
     BAD_EVENT + """ConfigInvalid("field 'run_id' is not str: 5")"""),
    ([LOG_HEADER.replace('"objects":{}', '"objects":"abc"')], 1,
     BAD_EVENT + """ConfigInvalid("field 'objects' is not dict: 'abc'")"""),
    ([LOG_HEADER.replace('"objects":{}', '"objects":{"o_1":5}')], 1,
     BAD_EVENT + """ValueError("'objects' must be an object of strings, got {'o_1': 5}")"""),
    ([LOG_HEADER.replace('"run_id":"r"', '"run_id":5')], 1,
     BAD_EVENT + """ConfigInvalid("field 'run_id' is not str: 5")"""),
    # with two defects, the first defect in field order is reported
    ([LOG_HEADER, GOOD_EVENT.replace('"activity":"a"', '"activity":7,"objects":"abc"')], 2,
     BAD_EVENT + """ConfigInvalid("field 'activity' is not str: 7")"""),
    ([LOG_HEADER, with_event_field('"objects":"abc","run_id":5')], 2,
     BAD_EVENT + """ValueError("'objects' must be a list of strings, got 'abc'")"""),
    # an unknown key is a defect, reported before any field is read
    ([LOG_HEADER, with_event_field('"objcts":["o_1"]')], 2,
     BAD_EVENT + repr(ConfigInvalid(unknown_key(
         "log event", "objcts", ["activity", "event_id", "objects", "run_id", "timestamp"])))),
    ([LOG_HEADER[:-1] + ',"objcts":{}}'], 1,
     BAD_EVENT + repr(ConfigInvalid(unknown_key(
         "log header", "objcts", ["kind", "objects", "run_id", "schema_version"])))),
    ([LOG_HEADER, with_event_field('"objcts":["o_1"]').replace('"activity":"a"', '"activity":7')],
     2, BAD_EVENT + repr(ConfigInvalid(unknown_key(
         "log event", "objcts", ["activity", "event_id", "objects", "run_id", "timestamp"])))),
], ids=["no-event-id", "number-activity", "string-event", "nbsp-line",
        "file-separator-after-event", "list-header", "text-objects",
        "number-object", "number-run-id", "text-header-objects", "number-object-type",
        "number-header-run-id", "number-activity-and-text-objects",
        "text-objects-and-number-run-id", "misspelt-objects", "misspelt-header-objects",
        "misspelt-objects-and-number-activity"])
def test_oracle_align_malformed_log_exits_two(tmp_path, capsys, lines, bad_at, message):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    trace = tmp_path / "trace.gt.jsonl"
    trace.write_text(TRACE_HEADER + "\n")
    log = tmp_path / "log.jsonl"
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
    ({"schema_version": "1", "applications": [], "aplications": []}, 2),
], ids=["versioned", "unversioned-object", "no-applications", "string", "unknown-key"])
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
    lambda c: c.update(weights={"rign": [[0, 5]]}),
    lambda c: c["delays"].update(rign={"kind": "constant", "a": 1.0}),
    lambda c: c.update(arc_delays={"ring->p_nowhere": {"kind": "constant", "a": 1.0}}),
    lambda c: c["arrivals"][0].update(object_type="courier"),
    lambda c: c.update(schedules=[{"place": "p_van_pool", "token": ["v_9", "extra"],
                                   "start": 0.0, "stop": 600.0}]),
], ids=["non-numeric-weight", "short-piece", "arc-key-without-arrow", "unknown-key",
        "foreign-prng", "string-firing-limit", "nan-horizon", "arrival-without-count",
        "delay-key-mu", "delay-key-c", "arrival-key-frist-at", "fractional-count",
        "string-token", "string-seed", "fractional-seed", "negative-seed", "numeric-run-id",
        "numeric-epoch", "unparsable-epoch", "string-weight-piece", "string-first-at",
        "boolean-delay", "string-start", "separator-in-token", "separator-in-arrival-type",
        "weight-for-unknown-transition", "delay-for-unknown-transition",
        "arc-delay-for-unknown-arc", "arrival-of-another-type", "long-schedule-token"])
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
    assert diag["message"].startswith("applications[0]: ")
    assert diag["message"].endswith(f" at {apps_path}") and field in diag["message"]


@pytest.mark.parametrize("app,field", [
    ({"mapping": "ring"}, "mapping"),
    ({"mapping": 5}, "mapping"),
    ({"params": "x"}, "params"),
    ({"params": None}, "params"),
    ({"competitors": "ab"}, "competitors"),
    ({"competitors": [1]}, "competitors"),
    ({"parmas": {"weight": 9.0}}, "unknown pattern application key(s) ['parmas']"),
    ({"params": {"delay": {"__delay__": {"kind": "bogus"}}}}, "unknown delay kind 'bogus'"),
    ({"params": {"delay": {"__delay__": 5}}}, "delay must be an object, got 5"),
], ids=["string-mapping", "number-mapping", "string-params", "null-params",
        "string-competitors", "number-competitor", "unknown-key", "unknown-delay-kind",
        "number-delay"])
def test_transform_mistyped_application_exits_two(tmp_path, capsys, app, field):
    fdir = str(tmp_path / "fx")
    run_cli(capsys, "fixture", "--name", "package_delivery", "--out", fdir)
    apps_path = os.path.join(fdir, "apps.json")
    base = {"application_id": "a1", "code": "BI_3", "mapping": {"t": "ring"}}
    open(apps_path, "w").write(json.dumps([base, {**base, "application_id": "a2", **app}]))
    code, _, err = run_cli(capsys, "transform", "--model", os.path.join(fdir, "m0.json"),
                           "--apply", apps_path, "--out", os.path.join(fdir, "ml.json"))
    assert code == 2
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ParseError"
    assert diag["message"].startswith("applications[1]: ")
    assert diag["message"].endswith(f" at {apps_path}") and field in diag["message"]


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
    ("weights", ["ring"]),
    ("weights", "x"),
    ("weights", ["ring", [[0, 1]], 3]),
    ("weights", [5, [[0, 1]]]),
    ("overrides", {"kind": "slow_branch", "transitions": ["ring"], "probability": 0.5}),
    ("overrides", {"kind": "delay", "transitions": ["ring"]}),
    ("overrides", {"kind": "slow_branch", "transitions": ["ring"], "probability": 7,
                   "delay": {"kind": "constant", "a": 60.0}}),
    ("overrides", {"kind": "slow_branch", "transitions": ["ring"], "probability": -0.1,
                   "delay": {"kind": "constant", "a": 60.0}}),
    ("overrides", {"kind": "coarsen", "transitions": ["ring"], "window_s": -60}),
    ("overrides", {"kind": "coarsen", "transitions": ["ring"], "window_s": float("inf")}),
], ids=["number-rule", "number-rule-transition", "text-affected", "number-probe-id",
        "text-deviation", "list-probe", "text-override-transitions", "text-window",
        "unknown-override-kind", "weight-without-pieces", "text-weight-entry",
        "weight-entry-of-three", "number-weight-transition", "slow-branch-without-delay",
        "delay-without-delay", "slow-branch-probability-seven", "negative-probability",
        "negative-window", "infinite-window"])
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


def _output_arc(model):
    tids = {t["id"] for t in model["transitions"]}
    return next(a for a in model["arcs"] if a["source"] in tids)


MISREAD_MODELS = {
    "number-activity-label": (lambda m: m["transitions"][0].update(activity_label=5),
                              "field 'activity_label' is not str: 5"),
    "string-record-spec": (lambda m: m["transitions"][0].update(record_spec="xw"),
                           "field 'record_spec' is not list: 'xw'"),
    "string-fresh": (lambda m: _output_arc(m)["inscription"][0].update(fresh="no"),
                     "field 'fresh' is not bool: 'no'"),
    "misspelt-window": (lambda m: m["annotations"]["overrides"].append(
        {"kind": "coarsen", "transitions": ["ring"], "windows_s": 600}),
        "unknown timing override key(s) ['windows_s']"),
    "misspelt-weights": (lambda m: m["annotations"].update(weight=[]),
                         "unknown annotations key(s) ['weight']"),
    "misspelt-activity-label": (lambda m: m["transitions"][0].update(activty_label="x"),
                                "unknown transition key(s) ['activty_label']"),
    "model-key": (lambda m: m.update(final=None), "unknown model key(s) ['final']"),
    "object-type-key": (lambda m: m["object_types"][0].update(prefx="p"),
                        "unknown object type key(s) ['prefx']"),
    "place-key": (lambda m: m["places"][0].update(role="queue"), "unknown place key(s) ['role']"),
    "arc-key": (lambda m: m["arcs"][0].update(weight=2), "unknown arc key(s) ['weight']"),
    "variable-key": (lambda m: m["arcs"][0]["inscription"][0].update(type="van"),
                     "unknown variable key(s) ['type']"),
    "provenance-key": (lambda m: m["transitions"][0]["provenance"].update(code="BI_3"),
                       "unknown 'provenance' key(s) ['code']"),
    "probe-key": (lambda m: m["annotations"]["probes"].append(
        {"application_id": "a1", "pattern_code": "BI_3", "deviation": ["ring"],
         "competitor": ["dock"]}), "unknown frequency probe key(s) ['competitor']"),
    "report-rule-key": (lambda m: m["annotations"]["report_rules"].append(
        {"transition": "ring", "responsibles": ["x"]}),
        "unknown report rule key(s) ['responsibles']"),
}


@pytest.mark.parametrize("defect", sorted(MISREAD_MODELS))
def test_an_unknown_or_mistyped_model_field_exits_two(tmp_path, capsys, defect):
    # each of these used to be read some other way, or dropped, and pass
    model, cpath = write_package_config(tmp_path, capsys, lambda c: None)
    edit, message = MISREAD_MODELS[defect]
    doc = json.load(open(model))
    edit(doc)
    open(model, "w").write(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", "--model", model)
    assert code == 2
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ParseError" and message in diag["message"]
    out = str(tmp_path / "sim")
    code, _, err = run_cli(capsys, "simulate", "--model", model, "--config", cpath, "--out", out)
    assert code == 2 and stderr_diagnostics(err) == [diag]
    assert not os.path.exists(out)


@pytest.mark.parametrize("key,entry", [
    ("weights", ["alhpa", [[0, 2.0]]]),
    ("overrides", {"kind": "coarsen", "transitions": ["ring", "alhpa"], "window_s": 60}),
    ("probes", {"application_id": "a1", "pattern_code": "BI_3", "deviation": ["alhpa"],
                "competitors": ["ring"]}),
    ("report_rules", {"transition": "alhpa"}),
], ids=["weight", "override", "probe", "report-rule"])
def test_a_model_annotation_naming_no_transition_exits_one(tmp_path, capsys, key, entry):
    model, cpath = write_package_config(tmp_path, capsys, lambda c: None)
    doc = json.load(open(model))
    doc["annotations"][key] = [entry]
    open(model, "w").write(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", "--model", model)
    assert code == 1
    [diag] = stderr_diagnostics(err)
    assert diag == {"code": "UnresolvedElement", "element": f"annotations.{key}",
                    "message": f"{key} names 'alhpa', which is no transition of the net"}
    out = str(tmp_path / "sim")
    code, _, err = run_cli(capsys, "simulate", "--model", model, "--config", cpath, "--out", out)
    assert code == 1 and stderr_diagnostics(err) == [diag]
    assert not os.path.exists(out)


def test_a_negative_model_weight_fails_validate_and_simulate_alike(tmp_path, capsys):
    model, cpath = write_package_config(tmp_path, capsys, lambda c: None)
    doc = json.load(open(model))
    doc["annotations"]["weights"] = [["ring", [[0, 1.0], [600, -2.0]]]]
    open(model, "w").write(json.dumps(doc))
    code, _, err = run_cli(capsys, "validate", "--model", model)
    assert code == 2
    [diag] = stderr_diagnostics(err)
    assert diag["code"] == "ParseError" and "finite and >= 0, got -2.0" in diag["message"]
    code, _, err = run_cli(capsys, "simulate", "--model", model, "--config", cpath,
                           "--out", str(tmp_path / "sim"))
    assert code == 2 and stderr_diagnostics(err) == [diag]


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
    {"code": "BI_3", "mapping": {"t": "ring"},
     "params": {"weight_period": 100.0, "weight_until": 0}},
    {"code": "BI_3", "mapping": {"t": "ring"},
     "params": {"weight": 0.05, "weight_period": 100.0, "weight_horizon": 0.0}},
    {"code": "BI_3", "mapping": {"t": "ring"},
     "params": {"weight_period": 100.0, "weight_offset": 500.0, "weight_horizon": 400.0}},
], ids=["non-integer-drop", "no-drop", "unknown-variant", "string-weight",
        "string-weight-period", "negative-weight-period", "infinite-horizon", "string-budget",
        "string-pace", "negative-undo-weight", "probability-above-one", "number-delay",
        "list-var", "string-vars", "string-window", "tiny-weight-period",
        "second-weight-period", "weight-until-zero", "duty-cycle-ending-at-its-start",
        "duty-cycle-ending-before-its-offset"])
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


@pytest.mark.parametrize("edit,message", [
    (lambda g: g["behavioral_sets"][0][0].update(application_id=5),
     "behavioral_sets[0][0]: field 'application_id' is not str: 5"),
    (lambda g: g["recording_sets"][6][0].update(paried=True),
     "recording_sets[6][0]: unknown pattern application key(s) ['paried']; known keys are "
     "['application_id', 'code', 'competitors', 'mapping', 'params']"),
    (lambda g: g["behavioral_sets"][2][0]["params"].update(
        delay={"__delay__": {"kind": "bogus"}}),
     "behavioral_sets[2][0]: unknown delay kind 'bogus', expected one of "
     "('constant', 'normal', 'exponential', 'uniform')"),
    (lambda g: g["recording_sets"][7].append("BI_3"),
     "recording_sets[7][1]: pattern application must be an object, got 'BI_3'"),
], ids=["number-application-id", "unknown-application-key", "unknown-delay-kind",
        "string-application"])
def test_dataset_bad_grid_application_is_one_config_invalid(tmp_path, capsys, edit, message):
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
    assert stderr_diagnostics(err) == [
        {"code": "ConfigInvalid", "element": "", "message": message}]
    assert not os.path.exists(out)


def _unbind_an_output(model):
    arc = _output_arc(model)
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
