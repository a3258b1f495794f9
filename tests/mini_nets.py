"""Small demonstration nets for the tests, one valid mapping per catalog
pattern, and an order-insensitive net digest to compare the nets that
patterns build.

Each net stays under six identifiers so brute-force language enumeration is
cheap; together the cases cover all sixteen codes.
"""
from logforge.nets import Arc, Marking, Net, ObjectType, Place, Transition, Variable
from logforge.patterns import PatternApplication
from logforge.serialize import canonical_json, digest_of, net_to_dict


def _arcs(spec) -> list[Arc]:
    return [Arc(src, dst, tuple(inscription)) for src, dst, inscription in spec]


def mini_chain() -> Net:
    types = (ObjectType("item", "i"),)
    places = (Place("p0", ("item",)), Place("p1", ("item",)), Place("p2", ("item",)))
    transitions = (Transition("alpha", "alpha"), Transition("beta", "beta"))
    x = Variable("x", "item")
    arcs = _arcs([("p0", "alpha", (x,)), ("alpha", "p1", (x,)),
                  ("p1", "beta", (x,)), ("beta", "p2", (x,))])
    return Net(types, places, transitions, tuple(arcs),
               Marking.of({"p0": [["i_1"]]}))


def mini_sideloop() -> Net:
    types = (ObjectType("item", "i"), ObjectType("gadget", "g"))
    places = (Place("p0", ("item",)), Place("p1", ("item",)),
              Place("p_g", ("gadget",)))
    transitions = (Transition("scan", "scan"),)
    x, d = Variable("x", "item"), Variable("d", "gadget")
    arcs = _arcs([("p0", "scan", (x,)), ("p_g", "scan", (d,)),
                  ("scan", "p1", (x,)), ("scan", "p_g", (d,))])
    return Net(types, places, transitions, tuple(arcs),
               Marking.of({"p0": [["i_1"]], "p_g": [["g_1"]]}))


def mini_pool() -> Net:
    types = (ObjectType("item", "i"), ObjectType("res", "r"))
    places = (Place("p0", ("item",)), Place("p1", ("item",)),
              Place("p_r", ("res",), "resource_idle"))
    transitions = (Transition("work", "work"),)
    x, rr = Variable("x", "item"), Variable("rr", "res")
    arcs = _arcs([("p0", "work", (x,)), ("p_r", "work", (rr,)),
                  ("work", "p1", (x,)), ("work", "p_r", (rr,))])
    return Net(types, places, transitions, tuple(arcs),
               Marking.of({"p0": [["i_1"]], "p_r": [["r_1"], ["r_2"]]}))


def mini_corr() -> Net:
    types = (ObjectType("item", "i"), ObjectType("res", "r"))
    places = (Place("p_b", ("item", "res"), "correlation"),
              Place("p_r", ("res",), "resource_idle"),
              Place("p_out", ("item",)))
    transitions = (Transition("finish", "finish"),)
    x, rr = Variable("x", "item"), Variable("rr", "res")
    arcs = _arcs([("p_b", "finish", (x, rr)), ("finish", "p_out", (x,)),
                  ("finish", "p_r", (rr,))])
    return Net(types, places, transitions, tuple(arcs),
               Marking.of({"p_b": [["i_1", "r_1"]], "p_r": [["r_2"]]}))


def mini_queue() -> Net:
    types = (ObjectType("item", "i"), ObjectType("pos", "s"))
    places = (Place("p_qa", ("item", "pos"), "queue"),
              Place("p_qb", ("item", "pos"), "queue"),
              Place("p_out", ("item",)), Place("p_free", ("pos",)))
    transitions = (Transition("serve", "serve"),)
    x, s = Variable("x", "item"), Variable("s", "pos")
    arcs = _arcs([("p_qa", "serve", (x, s)), ("serve", "p_out", (x,)),
                  ("serve", "p_free", (s,))])
    return Net(types, places, transitions, tuple(arcs),
               Marking.of({"p_qa": [["i_1", "s_1"]], "p_qb": [["i_2", "s_2"]]}))


def mini_cap() -> Net:
    types = (ObjectType("item", "i"), ObjectType("slot", "k"))
    places = (Place("p_in", ("item",)), Place("p_out", ("item",)),
              Place("p_cap", ("slot",)))
    transitions = (Transition("stage", "stage"),)
    x, kk = Variable("x", "item"), Variable("kk", "slot")
    arcs = _arcs([("p_in", "stage", (x,)), ("p_cap", "stage", (kk,)),
                  ("stage", "p_out", (x,)), ("stage", "p_cap", (kk,))])
    return Net(types, places, transitions, tuple(arcs),
               Marking.of({"p_in": [["i_1"]], "p_cap": [["k_1"]]}))


def mini_roles() -> Net:
    types = (ObjectType("item", "i"), ObjectType("res", "r"), ObjectType("helper", "h"))
    places = (Place("p_i", ("item",)), Place("p_o", ("item",)),
              Place("p_ra", ("res",), "resource_idle"),
              Place("p_rb", ("helper",), "resource_idle"))
    transitions = (Transition("use", "use"),)
    x, rr = Variable("x", "item"), Variable("rr", "res")
    arcs = _arcs([("p_i", "use", (x,)), ("p_ra", "use", (rr,)),
                  ("use", "p_o", (x,)), ("use", "p_ra", (rr,))])
    return Net(types, places, transitions, tuple(arcs),
               Marking.of({"p_i": [["i_1"]], "p_ra": [["r_1"]]}))


def mini_batch() -> Net:
    types = (ObjectType("pos", "s"),)
    places = (Place("p_f", ("pos",)), Place("p_g", ("pos",)))
    transitions = (Transition("release"),)
    u1, u2 = Variable("u1", "pos"), Variable("u2", "pos")
    arcs = _arcs([("p_f", "release", (u1,)), ("p_f", "release", (u2,)),
                  ("release", "p_g", (u1,))])
    return Net(types, places, transitions, tuple(arcs),
               Marking.of({"p_f": [["s_1"], ["s_2"]]}))


def additivity_cases() -> list[tuple[str, Net, PatternApplication]]:
    """One (net, application) per catalog code, on nets small enough for
    brute-force language comparison."""
    chain, corr = mini_chain(), mini_corr()
    return [
        ("RI_mi^e", chain, PatternApplication("c1", "RI_mi^e", {"t": "alpha"})),
        ("RI_in^e", chain, PatternApplication("c2", "RI_in^e", {"t": "alpha", "t_prime": "beta"})),
        ("RI_in^a", chain, PatternApplication("c3", "RI_in^a", {"t": "alpha", "t_prime": "gamma"})),
        ("RI_mi^o", mini_sideloop(), PatternApplication(
            "c4", "RI_mi^o", {"t": "scan", "O": ["gadget"]}, {"vars": ["d"]})),
        ("RI_in^o", mini_pool(), PatternApplication(
            "c5", "RI_in^o", {"t": "work", "p_w": "p_r"}, {"var": "rr"})),
        ("RI_in^p", chain, PatternApplication("c6", "RI_in^p", {"t1": "alpha", "t2": "beta"})),
        ("RI_mi^p", chain, PatternApplication("c7", "RI_mi^p", {"T": ["alpha", "beta"]})),
        ("BI_1", corr, PatternApplication("c8", "BI_1", {"p": "p_b", "p_r": "p_r"})),
        ("BI_2", corr, PatternApplication("c9", "BI_2", {"p1": "p_b", "p2": "p_r"})),
        ("BI_3", chain, PatternApplication("c10", "BI_3", {"t": "alpha"})),
        ("BI_5", mini_queue(), PatternApplication("c11", "BI_5", {"p_q1": "p_qa", "p_q2": "p_qb"})),
        ("BI_6", mini_cap(), PatternApplication("c12", "BI_6", {"p_c": "p_cap"})),
        ("BI_7", mini_roles(), PatternApplication("c13", "BI_7", {"p_r1": "p_ra", "p_r2": "p_rb"})),
        ("BI_9", corr, PatternApplication("c14", "BI_9", {"p": "p_b", "p_r": "p_r"})),
        ("BI_10", mini_batch(), PatternApplication("c15", "BI_10", {"t": "release"}, {"drop": [1]})),
        ("BI_11", chain, PatternApplication("c16", "BI_11", {"t": "alpha"})),
    ]


def net_canonical_digest(net: Net) -> str:
    """Digest insensitive to element order: nets built by applying the same
    transformations in a different order compare equal."""
    d = net_to_dict(net)
    d["object_types"].sort(key=canonical_json)
    d["places"].sort(key=canonical_json)
    d["transitions"].sort(key=canonical_json)
    d["arcs"].sort(key=canonical_json)
    for key in ("weights", "overrides", "probes", "report_rules"):
        d["annotations"][key].sort(key=canonical_json)
    return digest_of(d)
