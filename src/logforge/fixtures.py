"""Bundled base models and their pattern/grid setups.

Three processes ship with the package: a package delivery process (queueing,
batching, resource correlation; twelve isolated single-pattern logs), an
energy contract process (duplicate labels, deferred work, batch approval;
one combined log over many contracts), and a seven-stage assembly process
(capacities, role switching, multitasking).

Concrete counts that the process sketches leave open (queue length 3, 2 vans,
2 depots, van batch size 2, 3 agents / 1 manager, arrival rates, delays) are
pinned in this module, together with master seeds under which every grid cell
exhibits its designated pattern.
"""
from __future__ import annotations

from .dataset import GridSpec
from .nets import Arc, Marking, Net, ObjectType, Place, Transition, Variable
from .patterns import PatternApplication, duty_cycle
from .simulate import Arrival, SimConfig
from .timing import Delay


class UnknownFixture(Exception):
    pass


FIXTURES = ("package_delivery", "energy_contract", "assembly")

# master seeds pinned so that every grid cell exhibits its designated pattern
PACKAGE_MASTER_SEED = 5
ENERGY_MASTER_SEED = 20240302
ASSEMBLY_MASTER_SEED = 25


def _v(name: str, otype: str, fresh: bool = False) -> Variable:
    return Variable(name, otype, fresh)


def _arcs(spec) -> list[Arc]:
    out = []
    for src, dst, inscription in spec:
        out.append(Arc(src, dst, tuple(inscription)))
    return out


# ---------------------------------------------------------------------------
# package delivery

def package_delivery_net() -> Net:
    pkg, q, we, van, cour, dep = ("package", "queue", "warehouse_employee",
                                  "van", "courier", "depot")
    types = (
        ObjectType(pkg, "pkg"), ObjectType(q, "q"), ObjectType(we, "we"),
        ObjectType(van, "v"), ObjectType(cour, "c"), ObjectType(dep, "d"),
    )
    places = (
        Place("p_new", (pkg,)),
        Place("p_queue_in", (pkg,)),
        Place("p_q3", (pkg, q), "queue"),
        Place("p_q2", (pkg, q), "queue"),
        Place("p_q1", (pkg, q), "queue"),
        Place("p_q3_free", (q,)),
        Place("p_q2_free", (q,)),
        Place("p_q1_free", (q,)),
        Place("p_we", (we,), "resource_idle"),
        Place("p_picked", (pkg, we), "correlation"),
        Place("p_van_pool", (van,)),
        Place("p_dock", (van,)),
        Place("p_dock_free", (q,)),
        Place("p_dock_ticket", (q,)),
        Place("p_loadslot", (q,)),
        Place("p_filled", (q,)),
        Place("p_in_van", (pkg,)),
        Place("p_arrived", (van,)),
        Place("p_c", (cour,), "resource_idle"),
        Place("p_carrying", (pkg, cour), "correlation"),
        Place("p_home", (pkg,)),
        Place("p_dmode", (pkg,)),
        Place("p_rung", (pkg, cour), "correlation"),
        Place("p_d", (dep,), "resource_idle"),
        Place("p_reg", (pkg, cour, dep), "correlation"),
        Place("p_at_depot", (pkg, dep)),
        Place("p_done", (pkg,)),
    )
    transitions = (
        Transition("order_home", "order home"),
        Transition("order_depot", "order depot"),
        Transition("enqueue"),
        Transition("advance_32"),
        Transition("advance_21"),
        Transition("pick", "pick", record_spec=("x", "w")),
        Transition("dock"),
        Transition("load", "load", record_spec=("x", "w", "vn")),
        Transition("depart"),
        Transition("take"),
        Transition("ring", "ring"),
        Transition("deliver_home", "deliver home"),
        Transition("register_home", "register"),
        Transition("register_depot", "register"),
        Transition("deliver_depot", "deliver depot"),
        Transition("collect", "collect", record_spec=("x", "dp")),
    )
    x, w, vn, cr, dp = _v("x", pkg), _v("w", we), _v("vn", van), _v("cr", cour), _v("dp", dep)
    s, s2 = _v("s", q), _v("s2", q)
    b = _v("b", q)
    arcs = _arcs([
        ("p_new", "order_home", (x,)),
        ("order_home", "p_queue_in", (x,)),
        ("order_home", "p_home", (x,)),
        ("p_new", "order_depot", (x,)),
        ("order_depot", "p_queue_in", (x,)),
        ("order_depot", "p_dmode", (x,)),
        ("p_queue_in", "enqueue", (x,)),
        ("p_q3_free", "enqueue", (s,)),
        ("enqueue", "p_q3", (x, s)),
        ("p_q3", "advance_32", (x, s)),
        ("p_q2_free", "advance_32", (s2,)),
        ("advance_32", "p_q2", (x, s2)),
        ("advance_32", "p_q3_free", (s,)),
        ("p_q2", "advance_21", (x, s)),
        ("p_q1_free", "advance_21", (s2,)),
        ("advance_21", "p_q1", (x, s2)),
        ("advance_21", "p_q2_free", (s,)),
        ("p_q1", "pick", (x, s)),
        ("p_we", "pick", (w,)),
        ("pick", "p_picked", (x, w)),
        ("pick", "p_q1_free", (s,)),
        ("p_van_pool", "dock", (vn,)),
        ("p_dock_free", "dock", (b,)),
        ("dock", "p_dock", (vn,)),
        ("dock", "p_dock_ticket", (b,)),
        ("p_picked", "load", (x, w)),
        ("p_dock", "load", (vn,)),
        ("p_loadslot", "load", (s,)),
        ("load", "p_in_van", (x,)),
        ("load", "p_dock", (vn,)),
        ("load", "p_filled", (s,)),
        ("load", "p_we", (w,)),
        ("p_dock", "depart", (vn,)),
        ("p_dock_ticket", "depart", (b,)),
        ("p_filled", "depart", (s,)),
        ("p_filled", "depart", (s2,)),
        ("depart", "p_arrived", (vn,)),
        ("depart", "p_dock_free", (b,)),
        ("depart", "p_loadslot", (s,)),
        ("depart", "p_loadslot", (s2,)),
        ("p_in_van", "take", (x,)),
        ("p_arrived", "take", (vn,)),
        ("p_c", "take", (cr,)),
        ("take", "p_carrying", (x, cr)),
        ("take", "p_arrived", (vn,)),
        ("p_carrying", "ring", (x, cr)),
        ("p_home", "ring", (x,)),
        ("ring", "p_rung", (x, cr)),
        ("p_rung", "deliver_home", (x, cr)),
        ("deliver_home", "p_done", (x,)),
        ("deliver_home", "p_c", (cr,)),
        ("p_rung", "register_home", (x, cr)),
        ("p_d", "register_home", (dp,)),
        ("register_home", "p_reg", (x, cr, dp)),
        ("register_home", "p_d", (dp,)),
        ("p_carrying", "register_depot", (x, cr)),
        ("p_dmode", "register_depot", (x,)),
        ("p_d", "register_depot", (dp,)),
        ("register_depot", "p_reg", (x, cr, dp)),
        ("register_depot", "p_d", (dp,)),
        ("p_reg", "deliver_depot", (x, cr, dp)),
        ("deliver_depot", "p_at_depot", (x, dp)),
        ("deliver_depot", "p_c", (cr,)),
        ("p_at_depot", "collect", (x, dp)),
        ("collect", "p_done", (x,)),
    ])
    initial = Marking.of({
        "p_q3_free": [["q_3"]],
        "p_q2_free": [["q_2"]],
        "p_q1_free": [["q_1"]],
        "p_dock_free": [["q_dock"]],
        "p_loadslot": [["q_slot1"], ["q_slot2"]],
        "p_we": [["we_1"], ["we_2"]],
        "p_c": [["c_1"], ["c_2"]],
        "p_d": [["d_1"], ["d_2"]],
        "p_van_pool": [["v_1"], ["v_2"]],
    })
    return Net(types, places, transitions, tuple(arcs), initial)


def _package_apps() -> tuple[list[PatternApplication], list[PatternApplication]]:
    hot = {"weight": 9.0, "weight_until": 10800.0}
    behavioral = [
        PatternApplication("bi5", "BI_5", {"p_q1": "p_q1", "p_q2": "p_q2"},
                           {**hot, "budget": 1}, competitors=("pick",)),
        PatternApplication("bi7", "BI_7", {"p_r1": "p_c", "p_r2": "p_we"},
                           {"weight": 2.0, "weight_until": 3600.0, "pace_s": 900.0},
                           competitors=("take",)),
        PatternApplication("bi10", "BI_10", {"t": "depart"}, {**hot, "drop": [3]},
                           competitors=("depart",)),
        PatternApplication("bi3", "BI_3", {"t": "ring"}, dict(hot), competitors=("ring",)),
        PatternApplication("bi9", "BI_9", {"p": "p_reg", "p_r": "p_d"}, dict(hot),
                           competitors=("deliver_depot",)),
        PatternApplication("bi2", "BI_2", {"p1": "p_carrying", "p2": "p_c"},
                           {**hot, "pace_s": 300.0}, competitors=("ring",)),
    ]
    recording = [
        PatternApplication("rie1", "RI_in^e", {"t": "order_home", "t_prime": "order depot"},
                           dict(hot), competitors=("order_home",)),
        PatternApplication("rie2", "RI_in^e", {"t": "order_depot", "t_prime": "order home"},
                           dict(hot), competitors=("order_depot",)),
        PatternApplication("rime", "RI_mi^e", {"t": "load"}, dict(hot), competitors=("load",)),
        PatternApplication("rimo", "RI_mi^o", {"t": "load", "O": ["van"]},
                           {**hot, "vars": ["vn"]}, competitors=("load",)),
        PatternApplication("rino", "RI_in^o", {"t": "ring", "p_w": "p_c"},
                           {**hot, "var": "cr"}, competitors=("ring",)),
        PatternApplication("rimp", "RI_mi^p", {"T": ["deliver_depot", "collect"]},
                           {"window_s": 3600.0}),
    ]
    return behavioral, recording


def _package_config() -> SimConfig:
    return SimConfig(
        weights={"pick": [(0.0, 0.0), (600.0, 1.0)]},  # employees on shift from t=600
        delays={
            "pick": Delay.normal(300.0, 60.0),
            "load": Delay.normal(120.0, 30.0),
            "dock": Delay.constant(60.0),
            "take": Delay.constant(240.0),
            "ring": Delay.constant(60.0),
            "deliver_home": Delay.normal(300.0, 60.0),
            "register_home": Delay.constant(120.0),
            "register_depot": Delay.constant(120.0),
            "deliver_depot": Delay.exponential(1.0 / 900.0),
            "collect": Delay.constant(2700.0),
        },
        arrivals=[Arrival("package", "p_new", Delay.exponential(1.0 / 120.0), 2)],
        firing_limit=3000,
        time_horizon=21600.0,
    )


def package_delivery_fixture() -> tuple[Net, GridSpec]:
    net = package_delivery_net()
    behavioral, recording = _package_apps()
    empty: list[PatternApplication] = []
    rows_b = [[app] for app in behavioral] + [empty] * len(recording)
    rows_r = [empty] * len(behavioral) + [[app] for app in recording]
    grid = GridSpec(
        behavioral_sets=rows_b,
        recording_sets=rows_r,
        sim_configs=[_package_config()],
        paired=True,
        master_seed=PACKAGE_MASTER_SEED,
    )
    return net, grid


# ---------------------------------------------------------------------------
# energy contract

def energy_contract_net() -> Net:
    app, ag, mgr = "application", "agent", "manager"
    types = (ObjectType(app, "app"), ObjectType(ag, "ag"), ObjectType(mgr, "mgr"))
    places = (
        Place("p_new", (app,)),
        Place("p_received", (app,)),
        Place("p_ag", (ag,), "resource_idle"),
        Place("p_tc", (app, ag), "correlation"),
        Place("p_tm", (app, ag), "correlation"),
        Place("p_tx", (app, ag), "correlation"),
        Place("p_tc_done", (app, ag), "correlation"),
        Place("p_tm_done", (app, ag), "correlation"),
        Place("p_tx_c", (app, ag), "correlation"),
        Place("p_tx_d", (app, ag), "correlation"),
        Place("p_later", (app, ag), "correlation"),
        Place("p_re", (app, ag), "correlation"),
        Place("p_re_done", (app, ag), "correlation"),
        Place("p_ready", (app,)),
        Place("p_mgr", (mgr,), "resource_idle"),
        Place("p_sign", (app, mgr), "correlation"),
        Place("p_sdone", (mgr,)),
        Place("p_busy_m", (mgr,), "resource_busy"),
        Place("p_approved", (app,)),
    )
    transitions = (
        Transition("receive", "receive application"),
        Transition("open_file", "open file"),
        Transition("add_customer", "add customer details"),
        Transition("add_meter", "add meter details"),
        Transition("cancel_now", "cancel contract"),
        Transition("defer"),
        Transition("close_file_now", "close file"),
        Transition("close_file_defer", "close file"),
        Transition("reopen_file", "open file"),
        Transition("cancel_late", "cancel contract"),
        Transition("close_file_late", "close file"),
        Transition("start_signing", "start signing"),
        Transition("approve", "approve contract"),
        Transition("finish_batch"),
    )
    a, g, m = _v("a", app), _v("g", ag), _v("m", mgr)
    a1, a2 = _v("a1", app), _v("a2", app)
    arcs = _arcs([
        ("p_new", "receive", (a,)),
        ("receive", "p_received", (a,)),
        ("p_received", "open_file", (a,)),
        ("p_ag", "open_file", (g,)),
        ("open_file", "p_tc", (a, g)),
        ("open_file", "p_tm", (a, g)),
        ("open_file", "p_tx", (a, g)),
        ("p_tc", "add_customer", (a, g)),
        ("add_customer", "p_tc_done", (a, g)),
        ("p_tm", "add_meter", (a, g)),
        ("add_meter", "p_tm_done", (a, g)),
        ("p_tx", "cancel_now", (a, g)),
        ("cancel_now", "p_tx_c", (a, g)),
        ("p_tx", "defer", (a, g)),
        ("defer", "p_tx_d", (a, g)),
        ("p_tc_done", "close_file_now", (a, g)),
        ("p_tm_done", "close_file_now", (a, g)),
        ("p_tx_c", "close_file_now", (a, g)),
        ("close_file_now", "p_ready", (a,)),
        ("close_file_now", "p_ag", (g,)),
        ("p_tc_done", "close_file_defer", (a, g)),
        ("p_tm_done", "close_file_defer", (a, g)),
        ("p_tx_d", "close_file_defer", (a, g)),
        ("close_file_defer", "p_later", (a, g)),
        ("close_file_defer", "p_ag", (g,)),
        ("p_later", "reopen_file", (a, g)),
        ("p_ag", "reopen_file", (g,)),  # the memorized agent reopens the file
        ("reopen_file", "p_re", (a, g)),
        ("p_re", "cancel_late", (a, g)),
        ("cancel_late", "p_re_done", (a, g)),
        ("p_re_done", "close_file_late", (a, g)),
        ("close_file_late", "p_ready", (a,)),
        ("close_file_late", "p_ag", (g,)),
        ("p_mgr", "start_signing", (m,)),
        ("p_ready", "start_signing", (a1,)),
        ("p_ready", "start_signing", (a2,)),
        ("start_signing", "p_sign", (a1, m)),
        ("start_signing", "p_sign", (a2, m)),
        ("start_signing", "p_busy_m", (m,)),
        ("p_sign", "approve", (a, m)),
        ("approve", "p_approved", (a,)),
        ("approve", "p_sdone", (m,)),
        ("p_busy_m", "finish_batch", (m,)),
        ("p_sdone", "finish_batch", (m,)),  # twice: both approvals by this manager
        ("p_sdone", "finish_batch", (m,)),
        ("finish_batch", "p_mgr", (m,)),
    ])
    initial = Marking.of({
        "p_ag": [["ag_1"], ["ag_2"], ["ag_3"]],
        "p_mgr": [["mgr_1"]],
    })
    return Net(types, places, transitions, tuple(arcs), initial)


EPS = 0.05


def _energy_apps() -> tuple[list[PatternApplication], list[PatternApplication]]:
    behavioral = [
        PatternApplication("e_bi7", "BI_7", {"p_r1": "p_ag", "p_r2": "p_mgr"},
                           {"weight": EPS, "pace_s": 600.0, "weight_period": 7200.0,
                            "weight_window": 1800.0, "weight_horizon": 900000.0},
                           competitors=("open_file",)),
        PatternApplication("e_bi9", "BI_9", {"p": "p_later", "p_r": "p_ag"},
                           {"weight": EPS, "pace_s": 600.0}, competitors=("reopen_file",)),
        PatternApplication("e_bi10", "BI_10", {"t": "finish_batch"},
                           {"weight": EPS, "drop": [2]}, competitors=("finish_batch",)),
        PatternApplication("e_bi2", "BI_2", {"p1": "p_re", "p2": "p_ag"},
                           {"weight": EPS, "pace_s": 300.0}, competitors=("cancel_late",)),
        PatternApplication("e_bi11", "BI_11", {"t": "add_meter"},
                           {"probability": EPS / (1.0 + EPS),
                            "delay": Delay.exponential(1.0 / 3600.0)}),
    ]
    recording = [
        PatternApplication("e_rime", "RI_mi^e", {"t": "add_customer"},
                           {"weight": EPS}, competitors=("add_customer",)),
        PatternApplication("e_rino1", "RI_in^o", {"t": "open_file", "p_w": "p_ag"},
                           {"weight": EPS, "var": "g"}, competitors=("open_file",)),
        PatternApplication("e_rino2", "RI_in^o", {"t": "cancel_now", "p_w": "p_ag"},
                           {"weight": EPS, "var": "g"}, competitors=("cancel_now",)),
        PatternApplication("e_rinp", "RI_in^p", {"t1": "start_signing", "t2": "approve"},
                           {"weight": EPS, "batch_delay": Delay.constant(600.0)},
                           competitors=("start_signing",)),
    ]
    return behavioral, recording


def _energy_config(contracts: int = 2000) -> SimConfig:
    return SimConfig(
        weights={"defer": [(0.0, 1.0)]},
        delays={
            "receive": Delay.exponential(1.0 / 60.0),
            "open_file": Delay.constant(60.0),
            "add_customer": Delay.exponential(1.0 / 180.0),
            "add_meter": Delay.normal(240.0, 60.0),
            "cancel_now": Delay.constant(120.0),
            "close_file_now": Delay.constant(30.0),
            "close_file_defer": Delay.constant(30.0),
            "reopen_file": Delay.constant(60.0),
            "cancel_late": Delay.constant(120.0),
            "close_file_late": Delay.constant(30.0),
            "start_signing": Delay.constant(120.0),
            "approve": Delay.exponential(1.0 / 30.0),
        },
        arrivals=[Arrival("application", "p_new", Delay.exponential(1.0 / 360.0), contracts)],
        firing_limit=40 * contracts,
        time_horizon=400.0 * contracts + 86400.0,
    )


def energy_contract_fixture(contracts: int = 2000) -> tuple[Net, GridSpec]:
    net = energy_contract_net()
    behavioral, recording = _energy_apps()
    grid = GridSpec(
        behavioral_sets=[behavioral],
        recording_sets=[recording],
        sim_configs=[_energy_config(contracts)],
        master_seed=ENERGY_MASTER_SEED,
    )
    return net, grid


# ---------------------------------------------------------------------------
# assembly

def assembly_net() -> Net:
    prod, st = "product", "station"
    op1, op2, op3 = "operator1", "operator2", "operator3"
    types = (ObjectType(prod, "prod"), ObjectType(st, "st"),
             ObjectType(op1, "op1"), ObjectType(op2, "op2"), ObjectType(op3, "op3"))
    stages = "abcdefg"
    operator_of = {"a": ("p_op1", op1), "b": ("p_op2", op2), "c": ("p_op3", op3),
                   "d": ("p_op3", op3), "e": ("p_op3", op3), "f": ("p_op2", op2),
                   "g": ("p_op1", op1)}
    places = [Place(f"p_ready_{s}", (prod,)) for s in stages]
    places += [Place("p_done", (prod,))]
    places += [Place(f"p_cap_{s}", (st,)) for s in stages]
    places += [Place("p_op1", (op1,), "resource_idle"),
               Place("p_op2", (op2,), "resource_idle"),
               Place("p_op3", (op3,), "resource_idle"),
               Place("p_busy_b", (prod, op2, st), "correlation")]
    x, k = _v("x", prod), _v("k", st)
    transitions: list[Transition] = []
    arcs: list[Arc] = []
    nexts = dict(zip(stages, list(stages[1:]) + ["done"]))
    for s in stages:
        pool, optype = operator_of[s]
        o = _v("o", optype)
        target = "p_done" if nexts[s] == "done" else f"p_ready_{nexts[s]}"
        if s == "b":
            transitions.append(Transition("start_b", "stage B", record_spec=("x", "o")))
            transitions.append(Transition("finish_b"))
            arcs += _arcs([
                ("p_ready_b", "start_b", (x,)),
                ("p_cap_b", "start_b", (k,)),
                (pool, "start_b", (o,)),
                ("start_b", "p_busy_b", (x, o, k)),
                ("p_busy_b", "finish_b", (x, o, k)),
                ("finish_b", "p_ready_c", (x,)),
                ("finish_b", pool, (o,)),
                ("finish_b", "p_cap_b", (k,)),
            ])
        else:
            tid = f"stage_{s}"
            transitions.append(Transition(tid, f"stage {s.upper()}", record_spec=("x", "o")))
            arcs += _arcs([
                (f"p_ready_{s}", tid, (x,)),
                (f"p_cap_{s}", tid, (k,)),
                (pool, tid, (o,)),
                (tid, target, (x,)),
                (tid, f"p_cap_{s}", (k,)),
                (tid, pool, (o,)),
            ])
    for s in stages[1:]:
        prev = stages[stages.index(s) - 1]
        tid = f"revert_{s}"
        transitions.append(Transition(tid, "revert"))
        arcs += _arcs([(f"p_ready_{s}", tid, (x,)), (tid, f"p_ready_{prev}", (x,))])
    initial = Marking.of({
        **{f"p_cap_{s}": [[f"st_{s}"]] for s in stages},
        "p_op1": [["op1_1"]],
        "p_op2": [["op2_1"]],
        "p_op3": [["op3_1"]],
    })
    return Net(tuple(types), tuple(places), tuple(transitions), tuple(arcs), initial)


def _assembly_apps() -> tuple[list[PatternApplication], list[PatternApplication]]:
    behavioral = [
        PatternApplication("a_bi6", "BI_6", {"p_c": "p_cap_e"},
                           {"weight": 0.5, "variant": "increase", "pace_s": 900.0,
                            "weight_period": 14400.0, "weight_window": 1800.0,
                            "weight_horizon": 43200.0}, competitors=("stage_e",)),
        PatternApplication("a_bi7", "BI_7", {"p_r1": "p_op2", "p_r2": "p_op3"},
                           {"weight": 0.5, "pace_s": 600.0, "undo_weight": 0.3,
                            "weight_period": 14400.0, "weight_window": 3600.0,
                            "weight_offset": 7200.0, "weight_horizon": 50400.0},
                           competitors=("start_b",)),
        PatternApplication("a_bi2", "BI_2", {"p1": "p_busy_b", "p2": "p_op2"},
                           {"weight": 1.0, "weight_until": 43200.0, "pace_s": 300.0},
                           competitors=("finish_b",)),
    ]
    recording = [
        # enabled only while a switched operator-2 works under an operator-3
        # alias, so the real operator 3 can be recorded in their place
        PatternApplication("a_rino", "RI_in^o", {"t": "stage_d", "p_w": "p_op3"},
                           {"weight": 3.0, "weight_until": 43200.0},
                           competitors=("stage_d",)),
        PatternApplication("a_rinp", "RI_in^p", {"t1": "stage_d", "t2": "stage_e"},
                           {"weight": 1.0, "weight_until": 43200.0,
                            "batch_delay": Delay.constant(1200.0)},
                           competitors=("stage_d",)),
    ]
    return behavioral, recording


def _assembly_config() -> SimConfig:
    # reverts stay an option, but only in short windows; otherwise a briefly
    # blocked product would revert with certainty the moment nothing else is
    # enabled (the categorical sampler renormalizes over whatever is left)
    revert_pieces = duty_cycle(0.05, period=14400.0, window=600.0, horizon=86400.0)
    weights = {f"revert_{s}": list(revert_pieces) for s in "bcdefg"}
    delays = {f"stage_{s}": Delay.normal(600.0, 120.0) for s in "acdefg"}
    delays["start_b"] = Delay.normal(600.0, 120.0)
    return SimConfig(
        weights=weights,
        delays=delays,
        arrivals=[Arrival("product", "p_ready_a", Delay.exponential(1.0 / 450.0), 10)],
        firing_limit=6000,
        time_horizon=86400.0,
    )


def assembly_fixture() -> tuple[Net, GridSpec]:
    net = assembly_net()
    behavioral, recording = _assembly_apps()
    grid = GridSpec(
        behavioral_sets=[behavioral],
        recording_sets=[recording],
        sim_configs=[_assembly_config()],
        master_seed=ASSEMBLY_MASTER_SEED,
    )
    return net, grid


def fixture(name: str) -> tuple[Net, GridSpec]:
    if name == "package_delivery":
        return package_delivery_fixture()
    if name == "energy_contract":
        return energy_contract_fixture()
    if name == "assembly":
        return assembly_fixture()
    raise UnknownFixture(name)
