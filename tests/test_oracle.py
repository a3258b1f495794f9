import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logforge import fixtures
from logforge.logio import project_observed
from logforge.oracle import (Cause, CoverageMismatch, GtAlignment, LogTraceMismatch,
                             Move, _levenshtein, deviation_report, gt_alignment,
                             move_distance, read_alignment, write_alignment)
from logforge.serialize import canonical_json
from logforge.simulate import SimConfig, run, trace_replays
from logforge.transform import apply_sequence

import mini_nets


def dp_levenshtein(a: list, b: list) -> int:
    """Reference edit distance: the textbook O(n*m) dynamic programme."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, xa in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, xb in enumerate(b, start=1):
            cost = 0 if xa == xb else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[len(b)]


@pytest.fixture(scope="module")
def m0():
    net, _ = fixtures.fixture("package_delivery")
    return net


@pytest.fixture(scope="module")
def clean_run(m0):
    _, grid = fixtures.fixture("package_delivery")
    trace = run(m0, replace(grid.sim_configs[0], seed=99, run_id="clean"))
    return trace, project_observed(trace)


def test_clean_cell_is_all_synchronous(m0, clean_run):
    trace, log = clean_run
    al = gt_alignment(m0, trace, log)
    assert {m.kind for m in al.system} == {"synchronous"}
    assert all(m.cause is None for m in al.system)
    assert al.covered_event_ids() == {e.event_id for e in log.events}
    assert move_distance(al, al) == 0.0
    assert deviation_report(trace).entries == {}


# per catalog code, the kinds of the ground-truth moves whose cause names it,
# as the module docstring of `oracle` states them; timing-only codes surface
# in none
CAUSE_MOVE_KINDS = {
    "RI_mi^e": {"model"},
    "RI_in^e": {"log", "model"},
    "RI_in^a": {"log", "model"},
    "RI_mi^o": {"silent_model", "synchronous"},
    "RI_in^o": {"synchronous"},
    "RI_in^p": {"synchronous"},
    "RI_mi^p": set(),
    "BI_1": {"silent_model"},
    "BI_2": {"silent_model"},
    "BI_3": {"model"},
    "BI_5": {"silent_model"},
    "BI_6": {"silent_model"},
    "BI_7": {"silent_model"},
    "BI_9": {"silent_model"},
    "BI_10": {"silent_model"},
    "BI_11": set(),
}


@pytest.mark.parametrize("case", mini_nets.additivity_cases(), ids=lambda c: c[0])
def test_every_catalog_pattern_end_to_end(case):
    code, m0, app = case
    if code == "BI_11":
        params = {**app.params, "probability": 0.5}  # the heavy tail is drawn
    elif code == "RI_mi^p":
        params = app.params
    else:
        params = {**app.params, "weight": 5.0}  # the created transitions fire
    ml, ledger = apply_sequence(m0, [replace(app, params=params)])
    (entry,) = ledger.entries
    app_id, created = entry.application_id, set(entry.created_transitions)
    fired, kinds, timed, coarsened = set(), set(), False, False
    for seed in range(20):
        trace = run(ml, SimConfig(seed=seed, firing_limit=40, run_id=f"s{seed}"))
        log = project_observed(trace)
        assert trace_replays(ml, trace)
        assert len(log.events) == len(trace.labeled_records())

        # the records a created transition fired are the ones tagged with
        # the application, and the report names the objects they bound
        caused = []
        for r in trace.records:
            assert (r.transition in created) == (r.provenance.application_id == app_id)
            if r.transition in created or app_id in r.timing_causes:
                caused.append(r)
            timed |= app_id in r.timing_causes
            coarsened |= r.coarsen_window is not None
        fired |= {r.transition for r in caused} & created
        entries = deviation_report(trace).entries
        assert list(entries) == [app_id] and entries[app_id]["code"] == entry.code == code
        report = entries[app_id]
        bound = {v for r in caused for _, v in r.values}
        assert report["responsible"] | report["affected"] <= bound
        assert not report["responsible"] & report["affected"]
        assert bool(report["responsible"]) == bool(caused)

        for m in gt_alignment(m0, trace, log).system:
            if m.cause is not None:
                assert (m.cause.pattern_code, m.cause.application_id) == (code, app_id)
                kinds.add(m.kind)
    assert fired == created
    assert kinds == CAUSE_MOVE_KINDS[code]
    assert (timed, coarsened) == {"BI_11": (True, False),
                                  "RI_mi^p": (True, True)}.get(code, (False, False))


def test_every_observed_event_covered_exactly_once(m0, package_cells):
    for item in package_cells:
        al = gt_alignment(m0, item["trace"], item["log"])
        consuming = [m for m in al.system if m.kind in ("synchronous", "log")]
        ids = [m.event_id for m in consuming]
        assert sorted(ids) == sorted(e.event_id for e in item["log"].events)
        assert len(set(ids)) == len(ids)


def test_incorrect_event_yields_log_model_pair(m0, cell_by_pattern):
    # the depot-order recording error: a log move for the recorded label and
    # a model move for the intended order, on the package object
    item = cell_by_pattern("rie1")
    al = gt_alignment(m0, item["trace"], item["log"])
    caused = [m for m in al.system if m.cause and m.cause.pattern_code == "RI_in^e"]
    assert caused
    logs = [m for m in caused if m.kind == "log"]
    models = [m for m in caused if m.kind == "model"]
    assert len(logs) == len(models) >= 1
    assert all(m.activity == "order depot" for m in logs)
    assert all(m.activity == "order home" for m in models)
    pkg = logs[0].objects[0]
    kinds = [(m.kind, m.activity) for m in al.per_object[pkg][:2]]
    assert kinds == [("log", "order depot"), ("model", "order home")]


def test_skip_yields_model_move_with_behavioral_cause(m0, cell_by_pattern):
    item = cell_by_pattern("bi3")
    al = gt_alignment(m0, item["trace"], item["log"])
    models = [m for m in al.system if m.kind == "model"]
    assert models and all(m.activity == "ring" for m in models)
    assert all(m.cause.pattern_code == "BI_3" and m.cause.origin == "behavioral"
               for m in models)


def test_missing_event_cause_is_recording(m0, cell_by_pattern):
    item = cell_by_pattern("rime")
    al = gt_alignment(m0, item["trace"], item["log"])
    models = [m for m in al.system if m.kind == "model"]
    assert models and all(m.activity == "load" for m in models)
    assert all(m.cause.origin == "recording" for m in models)


def test_object_error_stays_synchronous_with_discrepancy(m0, cell_by_pattern):
    item = cell_by_pattern("rino")
    al = gt_alignment(m0, item["trace"], item["log"])
    flagged = [m for m in al.system
               if m.cause and m.cause.pattern_code == "RI_in^o" and m.kind == "synchronous"]
    assert flagged
    for m in flagged:
        assert m.discrepancy and m.discrepancy["unrecorded"] and m.discrepancy["substituted"]

    item = cell_by_pattern("rimo")
    al = gt_alignment(m0, item["trace"], item["log"])
    flagged = [m for m in al.system
               if m.cause and m.cause.pattern_code == "RI_mi^o" and m.kind == "synchronous"]
    assert flagged
    assert all(m.discrepancy and m.discrepancy["missing_types"] == ["van"] for m in flagged)


def test_behavioral_silents_become_cause_tagged_silent_model_moves(m0, cell_by_pattern):
    for app, code in [("bi5", "BI_5"), ("bi7", "BI_7"), ("bi2", "BI_2"),
                      ("bi9", "BI_9"), ("bi10", "BI_10")]:
        item = cell_by_pattern(app)
        al = gt_alignment(m0, item["trace"], item["log"])
        silents = [m for m in al.system if m.kind == "silent_model"]
        assert silents, app
        assert all(m.cause and m.cause.pattern_code == code for m in silents)


def test_timing_only_patterns_do_not_surface_in_alignments(m0, cell_by_pattern):
    item = cell_by_pattern("rimp")
    al = gt_alignment(m0, item["trace"], item["log"])
    assert {m.kind for m in al.system} == {"synchronous"}
    assert all(m.cause is None for m in al.system)
    report = deviation_report(item["trace"])
    assert report.entries["rimp"]["count"] >= 1


def test_cause_soundness_against_ledger(m0, package_cells):
    for item in package_cells:
        ledger_ids = {e.application_id for e in item["ledger"]}
        al = gt_alignment(m0, item["trace"], item["log"])
        for m in al.system:
            if m.cause:
                assert m.cause.application_id in ledger_ids
                is_bi = m.cause.pattern_code.startswith("BI")
                assert m.cause.origin == ("behavioral" if is_bi else "recording")


def test_log_trace_mismatch(m0, package_cells):
    a, b = package_cells[0], package_cells[1]
    with pytest.raises(LogTraceMismatch):
        gt_alignment(m0, a["trace"], b["log"])


def test_deviation_report_switch_responsible(cell_by_pattern):
    item = cell_by_pattern("bi7")
    trace = item["trace"]
    report = deviation_report(trace)
    entry = report.entries["bi7"]
    couriers = {i for i, t in trace.object_types.items() if t == "courier"}
    assert entry["count"] >= 1
    assert entry["responsible"] and entry["responsible"] <= couriers
    assert entry["affected"] == set()


def test_deviation_report_missing_object(cell_by_pattern):
    item = cell_by_pattern("rimo")
    trace = item["trace"]
    entry = deviation_report(trace).entries["rimo"]
    types = {o: t for o, t in trace.object_types.items()}
    assert any(types[o] == "van" for o in entry["responsible"])
    affected_types = {types[o] for o in entry["affected"]}
    assert {"package", "warehouse_employee"} <= affected_types


def test_deviation_report_counts_match_manifest_stats(package_cells):
    for item in package_cells:
        report = deviation_report(item["trace"])
        for app, stats in item["trace"].pattern_stats.items():
            assert report.entries[app]["count"] == stats["fired"]


def test_move_distance_identity_and_pair_replacement():
    sync = [Move("synchronous", a, ("o_1",), event_id=f"e{i}", transition=a)
            for i, a in enumerate(["one", "two", "three"])]
    gt = GtAlignment(system=tuple(sync), per_object={"o_1": tuple(sync)})
    assert move_distance(gt, gt) == 0.0
    # replace one synchronous move by a log + model pair: edit distance 2
    replaced = [sync[0],
                Move("log", "two", ("o_1",), event_id="e1"),
                Move("model", "two", ("o_1",), transition="two"),
                sync[2]]
    cand = GtAlignment(system=tuple(replaced), per_object={"o_1": tuple(replaced)})
    assert move_distance(cand, gt) == pytest.approx(2 / 4)


def test_move_distance_all_log_strawman_is_one(m0, clean_run):
    trace, log = clean_run
    gt = gt_alignment(m0, trace, log)
    strawman_obj = {
        obj: tuple(Move("log", m.activity, m.objects, event_id=m.event_id)
                   for m in moves)
        for obj, moves in gt.per_object.items()
    }
    strawman = GtAlignment(
        system=tuple(m for ms in strawman_obj.values() for m in ms),
        per_object=strawman_obj)
    assert move_distance(strawman, gt) == 1.0


def test_move_distance_coverage_mismatch(m0, clean_run):
    trace, log = clean_run
    gt = gt_alignment(m0, trace, log)
    truncated = GtAlignment(
        system=gt.system[:-1],
        per_object={k: tuple(m for m in v if m.event_id != gt.system[-1].event_id)
                    for k, v in gt.per_object.items()})
    with pytest.raises(CoverageMismatch):
        move_distance(truncated, gt)


def test_alignment_interchange_round_trip(tmp_path, m0, package_cells):
    item = package_cells[6]
    al = gt_alignment(m0, item["trace"], item["log"])
    path = str(tmp_path / "align.jsonl")
    write_alignment(al, path)
    back = read_alignment(path)
    assert back.per_object.keys() == al.per_object.keys()
    for obj in al.per_object:
        assert back.per_object[obj] == al.per_object[obj]
    assert move_distance(back, al) == 0.0
    # one line per systemic move, in system order
    assert back.system == al.system
    with open(path, encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 1 + len(al.system)


def test_alignment_lines_follow_the_system_order_or_first_appearance(tmp_path):
    a = Move("synchronous", "a", ("o1", "o2"), "e1")
    b = Move("log", "b", ("o2",), "e2")
    c = Move("model", "c", ("o1",))
    per_object = {"o2": (b, a), "o1": (a, c)}
    path = str(tmp_path / "align.jsonl")

    def lines(system):
        write_alignment(GtAlignment(system=system, per_object=per_object), path)
        back = read_alignment(path)
        assert back.per_object == per_object and list(back.per_object) == sorted(per_object)
        return [m.activity for m in back.system]

    assert lines((c, b, a)) == ["c", "b", "a"]
    # a move of `system` that sits on no object has no line
    assert lines((Move("silent_model", None, ()), b, c, a)) == ["b", "c", "a"]
    # otherwise, first appearance over the sorted objects
    assert lines(None) == ["a", "c", "b"]
    assert lines((a, c, b, a)) == ["a", "c", "b"]
    assert lines((a, c)) == ["a", "c", "b"]
    # equal moves that are distinct objects stay distinct lines
    twin = Move("model", "c", ("o1",))
    per_object = {"o1": (c, twin)}
    assert lines((c, twin)) == ["c", "c"]


def test_alignment_places_need_not_be_a_projection_of_objects(tmp_path):
    # a move read back is filed at its places, not under its `objects`
    lines = [{"kind": "alignment", "schema_version": "2"},
             {"at": [["o3", 0], ["o1", 1]], "kind": "synchronous", "activity": "a",
              "objects": ["o1", "o2"]},
             {"at": [["o1", 0]], "kind": "log", "activity": "b", "objects": ["o1"]},
             {"at": [["o1", 1]], "kind": "log", "activity": "c", "objects": ["o1"],
              "cost": 0.5}]
    path = tmp_path / "align.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in lines))
    back = read_alignment(str(path))
    assert [m.activity for m in back.system] == ["a", "b", "c"]
    # ties in seq keep file order, as in a schema "1" file
    assert {obj: [m.activity for m in moves] for obj, moves in back.per_object.items()} == \
        {"o1": ["b", "a", "c"], "o3": ["a"]}
    assert back.per_object["o3"][0] is back.system[0]


def test_alignment_file_holds_labels_as_utf8(tmp_path):
    move = Move("synchronous", "prüfen", ("o1",), "e1", "t_check")
    path = tmp_path / "align.jsonl"
    write_alignment(GtAlignment(system=(move,), per_object={"o1": (move,)}), str(path))
    assert "prüfen".encode("utf-8") in path.read_bytes()
    assert read_alignment(str(path)).per_object == {"o1": (move,)}


def test_alignment_lines_are_canonical_json(tmp_path, m0, package_cells):
    # each line, a discrepancy's nested objects included, is canonical JSON:
    # check it against a re-encoding
    cause = Cause("RI_in^o", "rino", "recording")
    odd = Move("synchronous", "prüfen", ("o2", "o1"), "e1", None, cause,
               {"unrecorded": ["o3"], "b": {"z": 1, "a": [{"y": 2, "x": None}]}})
    alignments = [GtAlignment(system=(odd,), per_object={"o1": (odd,), "o2": (odd,)})]
    alignments += [gt_alignment(m0, item["trace"], item["log"]) for item in package_cells]
    discrepancies = 0
    for i, al in enumerate(alignments):
        path = tmp_path / f"align{i}.jsonl"
        write_alignment(al, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == [canonical_json(json.loads(line)) for line in lines]
        discrepancies += sum('"discrepancy"' in line for line in lines)
    assert discrepancies > 1


# responsible/affected object types per package cell, frozen from the pinned
# seed: the bypassed/overtaking/switching object is responsible, correlated
# bystanders are affected
REPORT_TYPES = {
    "bi5": (["package"], ["package"]),
    "bi7": (["courier"], []),
    "bi10": (["queue", "van"], []),
    "bi3": (["courier", "package"], []),
    "bi9": (["courier", "package"], ["depot"]),
    "bi2": (["courier"], ["package"]),
    "rie1": (["package"], []),
    "rie2": (["package"], []),
    "rime": (["package", "queue", "van", "warehouse_employee"], []),
    "rimo": (["van"], ["package", "queue", "warehouse_employee"]),
    "rino": (["courier"], ["package"]),
    "rimp": (["courier", "depot", "package"], []),
}


def test_deviation_report_types_across_all_cells(package_cells):
    for item in package_cells:
        trace = item["trace"]
        report = deviation_report(trace)
        for app in item["apps"]:
            entry = report.entries[app]
            responsible = sorted({trace.object_types[o] for o in entry["responsible"]})
            affected = sorted({trace.object_types[o] for o in entry["affected"]})
            assert (responsible, affected) == tuple(map(list, REPORT_TYPES[app])), app


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(st.integers(0, k - 1), max_size=150),
    st.lists(st.integers(0, k - 1), max_size=150))))
def test_bit_parallel_distance_matches_dp(pair):
    a, b = pair
    assert _levenshtein(a, b) == dp_levenshtein(a, b)
    assert _levenshtein(b, a) == dp_levenshtein(a, b)


def test_bit_parallel_distance_across_word_boundaries():
    # `a` starts and ends with a symbol `b` never holds: nothing is trimmed,
    # so the bit vectors are exactly as wide as the longer sequence
    rng = random.Random(7)
    lengths = (0, 1, 63, 64, 65, 1300)
    for n in lengths:
        a = [rng.randrange(3) for _ in range(n)]
        if a:
            a[0] = a[-1] = 0
        for m in lengths:
            b = [rng.randrange(1, 4) for _ in range(m)]
            if n * m <= 1300 * 65:
                assert _levenshtein(a, b) == dp_levenshtein(a, b), (n, m)
                assert _levenshtein(b, a) == dp_levenshtein(a, b), (m, n)
    # one full-width pair: the 1300-symbol `a` against a perturbed copy
    b = list(a)
    for i in range(0, 1300, 50):
        b[i] = 3
    del b[777:790]
    b[1000:1000] = [3, 3, 3]
    assert _levenshtein(a, b) == dp_levenshtein(a, b)


@pytest.fixture(scope="module")
def energy_gt():
    """The ground-truth alignment of one 500-contract energy cell."""
    net, grid = fixtures.energy_contract_fixture(500)
    ms, _ = apply_sequence(net, grid.behavioral_sets[0])
    ml, _ = apply_sequence(ms, grid.recording_sets[0])
    trace = run(ml, replace(grid.sim_configs[0], run_id="energy-500"))
    return gt_alignment(net, trace, project_observed(trace))


def test_move_distance_on_a_large_energy_cell(energy_gt):
    gt = energy_gt
    assert move_distance(gt, gt) == 0.0
    agent = max(gt.per_object, key=lambda o: len(gt.per_object[o]))
    moves = list(gt.per_object[agent])
    assert len(moves) > 500
    i = len(moves) // 2
    # a kind swap keeps the covered events and changes the move key
    swap = {"synchronous": "log", "log": "synchronous",
            "model": "silent_model", "silent_model": "model"}
    moves[i] = replace(moves[i], kind=swap[moves[i].kind])
    edited = GtAlignment(system=gt.system,
                         per_object={**gt.per_object, agent: tuple(moves)})
    expected = (1 / len(moves)) / len(gt.per_object)
    assert move_distance(edited, gt) == expected
    assert move_distance(gt, edited) == expected
