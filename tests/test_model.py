"""Core model: validation, path enumeration, social cost, flow-vector checks."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scaleroute as sr
from scaleroute.model import AGGREGATION_TOL, social_cost_links

from conftest import make_braess, make_two_identical

BRAESS_RAW = {
    "nodes": ["1", "2", "3", "4"],
    "links": [
        {"id": "l12", "tail": "1", "head": "2", "a": 1.0, "h": 1.0, "b": 1.0},
        {"id": "l13", "tail": "1", "head": "3", "a": 1.0, "h": 1.0, "b": 1.0},
        {"id": "l23", "tail": "2", "head": "3", "a": 1.0, "h": 1.0, "b": 0.0},
        {"id": "l24", "tail": "2", "head": "4", "a": 1.0, "h": 1.0, "b": 1.0},
        {"id": "l34", "tail": "3", "head": "4", "a": 1.0, "h": 1.0, "b": 1.0},
    ],
    "od_pairs": [{"origin": "1", "destination": "4", "demand": 1.0, "alpha": 0.5}],
}


class TestValidateInstance:
    def test_braess_has_three_paths(self):
        instance = sr.validate_instance(BRAESS_RAW)
        assert instance.n_paths == 3
        node_seqs = [p.nodes for p in instance.paths.all_paths]
        assert node_seqs == [("1", "2", "3", "4"), ("1", "2", "4"), ("1", "3", "4")]

    def test_asymmetry_out_of_range(self):
        raw = {
            "nodes": ["1", "2"],
            "links": [{"id": "e", "tail": "1", "head": "2", "a": 1.2, "h": 1.0, "b": 0.0}],
            "od_pairs": [{"origin": "1", "destination": "2", "demand": 1.0, "alpha": 0.5}],
        }
        with pytest.raises(sr.ValidationError, match=r"a/h = 1.2 must lie in \(0, 1\]"):
            sr.validate_instance(raw)

    def test_parallel_links_ordered_by_id(self):
        raw = {
            "nodes": ["1", "2"],
            "links": [
                {"id": "z", "tail": "1", "head": "2", "a": 1.0, "h": 1.0, "b": 0.0},
                {"id": "a", "tail": "1", "head": "2", "a": 1.0, "h": 1.0, "b": 0.0},
            ],
            "od_pairs": [{"origin": "1", "destination": "2", "demand": 1.0, "alpha": 0.5}],
        }
        instance = sr.validate_instance(raw)
        assert instance.n_paths == 2
        assert [p.links for p in instance.paths.all_paths] == [("a",), ("z",)]

    @pytest.mark.parametrize(
        "patch, match",
        [
            ({"a": -1.0}, "a = -1.0 must be > 0"),
            ({"h": 0.0}, "h = 0.0 must be > 0"),
            ({"b": -0.1}, "b = -0.1 must be >= 0"),
            ({"a": float("nan")}, "a = nan must be finite"),
            ({"a": float("inf")}, "a = inf must be finite"),
            ({"h": float("nan")}, "h = nan must be finite"),
            ({"h": float("inf")}, "h = inf must be finite"),
            ({"a": float("inf"), "h": float("inf")}, "a = inf must be finite"),
            ({"b": float("nan")}, "b = nan must be finite"),
            ({"b": float("inf")}, "b = inf must be finite"),
        ],
        ids=["neg-a", "zero-h", "neg-b", "nan-a", "inf-a", "nan-h", "inf-h", "inf-a-h", "nan-b", "inf-b"],
    )
    def test_link_coefficient_errors(self, patch, match):
        link = {"id": "e", "tail": "1", "head": "2", "a": 1.0, "h": 1.0, "b": 0.0}
        link.update(patch)
        raw = {
            "nodes": ["1", "2"],
            "links": [link],
            "od_pairs": [{"origin": "1", "destination": "2", "demand": 1.0, "alpha": 0.5}],
        }
        with pytest.raises(sr.ValidationError, match=match):
            sr.validate_instance(raw)

    def test_demand_and_alpha_errors(self):
        raw = dict(BRAESS_RAW, od_pairs=[{"origin": "1", "destination": "4", "demand": 0.0, "alpha": 0.5}])
        with pytest.raises(sr.ValidationError, match="demand = 0.0 must be > 0"):
            sr.validate_instance(raw)
        raw = dict(BRAESS_RAW, od_pairs=[{"origin": "1", "destination": "4", "demand": 1.0, "alpha": 1.5}])
        with pytest.raises(sr.ValidationError, match=r"alpha = 1.5 must lie in \[0, 1\]"):
            sr.validate_instance(raw)

    @pytest.mark.parametrize("demand", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_demand_rejected(self, demand):
        raw = dict(BRAESS_RAW, od_pairs=[{"origin": "1", "destination": "4", "demand": demand, "alpha": 0.5}])
        with pytest.raises(sr.ValidationError, match="finite"):
            sr.validate_instance(raw)

    def test_no_path(self):
        raw = dict(BRAESS_RAW, od_pairs=[{"origin": "4", "destination": "1", "demand": 1.0, "alpha": 0.5}])
        with pytest.raises(sr.ValidationError, match="no path from '4' to '1'"):
            sr.validate_instance(raw)

    def test_unknown_fields_rejected(self):
        raw = dict(BRAESS_RAW, extra=1)
        with pytest.raises(sr.ValidationError, match=r"unknown top-level fields \['extra'\]"):
            sr.validate_instance(raw)
        bad_link = dict(BRAESS_RAW)
        bad_link = {**BRAESS_RAW, "links": [dict(BRAESS_RAW["links"][0], capacity=3.0)] + BRAESS_RAW["links"][1:]}
        with pytest.raises(sr.ValidationError, match=r"links\[0\]: unknown fields \['capacity'\]"):
            sr.validate_instance(bad_link)

    def test_empty_demand_rejected(self):
        # without an O/D pair an instance has no path to route on
        with pytest.raises(sr.ValidationError, match="no O/D pairs"):
            sr.validate_instance(dict(BRAESS_RAW, od_pairs=[]))
        with pytest.raises(sr.ValidationError, match="no O/D pairs"):
            sr.build_instance(("1", "2"), [sr.Link("e", "1", "2", 1.0, 1.0)], [])

    @pytest.mark.parametrize("path_cap", [True, 0, 2.0])
    def test_bad_path_cap_rejected(self, path_cap):
        with pytest.raises(sr.ValidationError, match="path_cap must be a positive integer"):
            sr.build_instance(
                ("1", "2"), [sr.Link("e", "1", "2", 1.0, 1.0)], [sr.ODPair("1", "2", 1.0, 0.5)], path_cap
            )

    def test_self_loop_rejected(self):
        raw = {
            "nodes": ["1", "2"],
            "links": [{"id": "e", "tail": "1", "head": "1", "a": 1.0, "h": 1.0, "b": 0.0}],
            "od_pairs": [{"origin": "1", "destination": "2", "demand": 1.0, "alpha": 0.5}],
        }
        with pytest.raises(sr.ValidationError):
            sr.validate_instance(raw)

    def test_undeclared_endpoint_rejected(self):
        raw = {
            "nodes": ["1", "2"],
            "links": [{"id": "e", "tail": "1", "head": "3", "a": 1.0, "h": 1.0, "b": 0.0}],
            "od_pairs": [{"origin": "1", "destination": "2", "demand": 1.0, "alpha": 0.5}],
        }
        with pytest.raises(sr.ValidationError, match="endpoint '3' is not a declared node"):
            sr.validate_instance(raw)


def _with_record(section, k, **fields):
    """BRAESS_RAW with record k of ``section`` updated by ``fields``."""
    records = list(BRAESS_RAW[section])
    records[k] = dict(records[k], **fields)
    return dict(BRAESS_RAW, **{section: records})


def _load_text(tmp_path, text):
    path = tmp_path / "instance.json"
    path.write_text(text, encoding="utf-8")
    return sr.load_instance(path)


def _load_bytes(tmp_path, data):
    path = tmp_path / "instance.json"
    path.write_bytes(data)
    return sr.load_instance(path)


class TestBoundaryChecks:
    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda _: sr.validate_instance(dict(BRAESS_RAW, nodes=["1", "2", "3", "4", "2"])),
             sr.ValidationError, "duplicate node identifiers"),
            (lambda _: sr.validate_instance(_with_record("links", 1, id="l12")),
             sr.ValidationError, "duplicate link id 'l12'"),
            (lambda _: sr.validate_instance(_with_record("od_pairs", 0, destination="9")),
             sr.ValidationError, r"O/D pair \('1', '9'\): '9' is not a declared node"),
            (lambda _: sr.validate_instance(_with_record("od_pairs", 0, destination="1")),
             sr.ValidationError, "origin equals destination"),
            (lambda _: sr.validate_instance(_with_record("links", 0, a="1")),
             sr.ValidationError, r"links\[0\]\.a: expected a number, got '1'"),
            (lambda _: sr.validate_instance(dict(BRAESS_RAW, links=[["l12", "1", "2"]])),
             sr.ValidationError, r"links\[0\]: expected an object, got list"),
            (lambda _: sr.validate_instance([BRAESS_RAW]),
             sr.ValidationError, "instance must be an object, got list"),
            (lambda _: sr.validate_instance(dict(BRAESS_RAW, nodes=[])),
             sr.ValidationError, "'nodes' must be non-empty"),
            (lambda tmp_path: _load_text(tmp_path, '{"nodes": ['),
             sr.ValidationError, r"instance\.json: invalid JSON"),
            (lambda tmp_path: _load_bytes(tmp_path, b'\xff\xfe{"nodes": []}'),
             sr.ValidationError, r"instance\.json: invalid JSON .*can't decode byte 0xff"),
            (lambda _: sr.wardrop_gap(make_braess(), np.zeros(5), np.zeros(4)),
             sr.DomainError, r"human path flows must have shape \(3,\)"),
        ],
        ids=[
            "duplicate-node", "duplicate-link", "od-undeclared", "od-self", "non-number",
            "non-object-link", "non-object-top", "empty-nodes", "invalid-json", "non-utf8",
            "gap-human-length",
        ],
    )
    def test_rejected(self, call, error, match, tmp_path):
        with pytest.raises(error, match=match):
            call(tmp_path)


class TestEnumeratePaths:
    def test_single_link(self):
        instance = sr.build_instance(
            ("o", "d"),
            [sr.Link("e", "o", "d", 1.0, 1.0, 0.0)],
            [sr.ODPair("o", "d", 1.0, 0.5)],
        )
        assert instance.n_paths == 1

    def test_braess_count(self, braess):
        assert braess.n_paths == 3

    def test_complete_digraph_explodes(self):
        nodes = tuple(f"n{i}" for i in range(8))
        links = [
            sr.Link(f"e{i}-{j}", nodes[i], nodes[j], 1.0, 1.0, 0.0)
            for i in range(8)
            for j in range(8)
            if i != j
        ]
        with pytest.raises(sr.ValidationError, match="more than 100 simple paths"):
            sr.build_instance(nodes, links, [sr.ODPair("n0", "n7", 1.0, 0.5)], path_cap=100)

    def test_enumeration_is_deterministic(self, braess):
        first = sr.enumerate_paths(braess.links, braess.od_pairs, braess.path_cap)
        second = sr.enumerate_paths(braess.links, braess.od_pairs, braess.path_cap)
        assert first.all_paths == second.all_paths
        assert first.od_slices == second.od_slices


class TestSocialCost:
    def test_zero_flow(self, pigou):
        flow = sr.ClassFlow.from_path_flows(pigou, np.zeros(2), np.zeros(2))
        assert sr.social_cost(pigou, flow) == 0.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_path_flow_rejected(self, pigou, value):
        with pytest.raises(sr.DomainError, match="finite and nonnegative"):
            sr.ClassFlow.from_path_flows(pigou, np.array([value, 0.5]), np.zeros(2))
        with pytest.raises(sr.DomainError, match="finite and nonnegative"):
            sr.ClassFlow.from_path_flows(pigou, np.zeros(2), np.array([0.5, value]))

    def test_single_link_value(self):
        instance = sr.build_instance(
            ("1", "2"),
            [sr.Link("e", "1", "2", 1.0, 1.0, 0.0)],
            [sr.ODPair("1", "2", 1.0, 0.5)],
        )
        flow = sr.ClassFlow.from_path_flows(instance, np.array([0.5]), np.array([0.5]))
        assert sr.social_cost(instance, flow) == pytest.approx(1.0)

    def test_pigou_optimum_near_three_quarters(self, pigou):
        result = sr.system_optimal(pigou)
        flow, cost = result.flow, result.potential_or_cost
        assert cost == pytest.approx(0.75, abs=1e-2)
        assert sr.social_cost(pigou, flow) == pytest.approx(cost, abs=1e-9)


class TestScalarSummaries:
    def test_min_asymmetry(self):
        instance = sr.build_instance(
            ("1", "2"),
            [
                sr.Link("a", "1", "2", 0.5, 1.0, 0.0),
                sr.Link("b", "1", "2", 0.8, 1.0, 0.0),
                sr.Link("c", "1", "2", 1.0, 1.0, 0.0),
            ],
            [sr.ODPair("1", "2", 1.0, 0.5)],
        )
        assert sr.min_asymmetry(instance) == pytest.approx(0.5)
        assert all(sr.min_asymmetry(instance) <= l.asymmetry for l in instance.links)

    def test_min_asymmetry_symmetric_and_third(self):
        sym = make_two_identical()
        assert sr.min_asymmetry(sym) == pytest.approx(1.0)
        instance = sr.build_instance(
            ("1", "2"),
            [sr.Link("e", "1", "2", 0.3, 0.9, 0.0)],
            [sr.ODPair("1", "2", 1.0, 0.5)],
        )
        assert sr.min_asymmetry(instance) == pytest.approx(1.0 / 3.0)

    def test_network_autonomy_fraction(self):
        uniform = make_braess(alpha=0.4)
        assert sr.network_autonomy_fraction(uniform) == pytest.approx(0.4)
        two = sr.build_instance(
            ("1", "2"),
            [sr.Link("e", "1", "2", 1.0, 1.0, 0.0), sr.Link("r", "2", "1", 1.0, 1.0, 0.0)],
            [sr.ODPair("1", "2", 1.0, 0.0), sr.ODPair("2", "1", 1.0, 1.0)],
        )
        assert sr.network_autonomy_fraction(two) == pytest.approx(0.5)
        weighted = sr.build_instance(
            ("1", "2"),
            [sr.Link("e", "1", "2", 1.0, 1.0, 0.0), sr.Link("r", "2", "1", 1.0, 1.0, 0.0)],
            [sr.ODPair("1", "2", 3.0, 1.0), sr.ODPair("2", "1", 1.0, 0.0)],
        )
        assert sr.network_autonomy_fraction(weighted) == pytest.approx(0.75)


class TestDemandVectors:
    def test_read_only_class_products(self):
        instance = sr.build_instance(
            ("1", "2"),
            [sr.Link("e", "1", "2", 1.0, 1.0, 0.0), sr.Link("r", "2", "1", 1.0, 1.0, 0.0)],
            [sr.ODPair("1", "2", 1.3, 0.3), sr.ODPair("2", "1", 2.7, 0.7)],
        )
        vectors = (instance.demands, instance.alphas, instance.auto_demands, instance.human_demands)
        assert not any(v.flags.writeable for v in vectors)
        for w, od in enumerate(instance.od_pairs):
            assert instance.demands[w] == od.demand
            assert instance.alphas[w] == od.alpha
            assert instance.auto_demands[w] == od.alpha * od.demand
            assert instance.human_demands[w] == (1.0 - od.alpha) * od.demand


class TestStackelbergChecks:
    @pytest.mark.parametrize(
        "flows, match",
        [
            ([float("nan"), 0.5], "finite and nonnegative"),
            ([float("inf"), 0.5], "finite and nonnegative"),
            ([-1.0, 0.5], "finite and nonnegative"),
            ([0.25, 0.25, 0.0], "must have shape"),
        ],
        ids=["nan", "inf", "negative", "wrong-length"],
    )
    def test_bad_flow_vector_rejected(self, pigou, flows, match):
        # every public entry point that takes a flow vector, at each vector argument
        # (pigou has two links and two paths)
        zeros = np.zeros(2)
        entry_points = {
            "link_flows": lambda f: pigou.link_flows(f),
            "from_path_flows[fa]": lambda f: sr.ClassFlow.from_path_flows(pigou, f, zeros),
            "from_path_flows[fh]": lambda f: sr.ClassFlow.from_path_flows(pigou, zeros, f),
            "social_cost_links[fa]": lambda f: social_cost_links(pigou, f, zeros),
            "social_cost_links[fh]": lambda f: social_cost_links(pigou, zeros, f),
            "follower_equilibrium": lambda f: sr.follower_equilibrium(pigou, f),
            "wardrop_gap": lambda f: sr.wardrop_gap(pigou, f, np.array([0.5, 0.0])),
            "oracle_nash": lambda f: sr.oracle_nash(pigou, f),
        }
        accepted = []
        for name, call in entry_points.items():
            try:
                call(np.array(flows))
            except sr.DomainError as exc:
                assert match in str(exc), name
            else:
                accepted.append(name)
        assert accepted == []


@settings(max_examples=60, deadline=None)
@given(
    flows=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=6, max_size=6),
)
def test_link_aggregation_matches_incidence_product(flows):
    braess = make_braess()
    fa = np.array(flows[:3])
    fh = np.array(flows[3:])
    flow = sr.ClassFlow.from_path_flows(braess, fa, fh)
    # recompute link flows from the definition: sum over paths containing the link
    manual_a = np.zeros(braess.n_links)
    manual_h = np.zeros(braess.n_links)
    for j, path in enumerate(braess.paths.all_paths):
        for lid in path.links:
            manual_a[braess.link_index[lid]] += fa[j]
            manual_h[braess.link_index[lid]] += fh[j]
    assert np.max(np.abs(flow.link_flows_a - manual_a)) <= AGGREGATION_TOL * max(1.0, fa.max())
    assert np.max(np.abs(flow.link_flows_h - manual_h)) <= AGGREGATION_TOL * max(1.0, fh.max())


@settings(max_examples=60, deadline=None)
@given(
    flows=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=6, max_size=6),
    k=st.floats(min_value=1.0, max_value=25.0),
)
def test_social_cost_monotone_under_uniform_scaling(flows, k):
    braess = make_braess()
    fa = np.array(flows[:3])
    fh = np.array(flows[3:])
    base = sr.social_cost(braess, sr.ClassFlow.from_path_flows(braess, fa, fh))
    scaled = sr.social_cost(braess, sr.ClassFlow.from_path_flows(braess, k * fa, k * fh))
    assert scaled >= base - 1e-12 * max(1.0, base)


_LINK_KEYS = ("id", "tail", "head", "a", "h", "b")
_OD_KEYS = ("origin", "destination", "demand", "alpha")


@st.composite
def raw_instances(draw):
    """Valid raw descriptions: a chain through every node, so each O/D pair
    (i, j), i < j, has a path, plus a few more links."""
    ident = st.text(min_size=1, max_size=4)
    nodes = draw(st.lists(ident, min_size=2, max_size=5, unique=True))
    n = len(nodes)
    ends = [(i, i + 1) for i in range(n - 1)]
    index = st.integers(0, n - 1)
    ends += draw(st.lists(st.tuples(index, index).filter(lambda e: e[0] != e[1]), max_size=4))
    ids = draw(st.lists(ident, min_size=len(ends), max_size=len(ends), unique=True))
    links = []
    for lid, (i, j) in zip(ids, ends):
        h = draw(st.floats(1e-3, 1e3))
        a = draw(st.floats(1e-3, 1.0)) * h  # a <= h
        b = draw(st.just(0.0) | st.floats(0.0, 1e3))
        links.append(dict(zip(_LINK_KEYS, (lid, nodes[i], nodes[j], a, h, b))))
    forward = st.tuples(index, index).filter(lambda e: e[0] < e[1])
    pairs = draw(st.lists(forward, min_size=1, max_size=2, unique=True))
    od_pairs = []
    for i, j in pairs:
        demand, alpha = draw(st.floats(1e-3, 1e3)), draw(st.floats(0.0, 1.0))
        od_pairs.append(dict(zip(_OD_KEYS, (nodes[i], nodes[j], demand, alpha))))
    return {"nodes": nodes, "links": links, "od_pairs": od_pairs}


def _through_json(raw):
    # the file format is JSON, whose parser accepts NaN and Infinity
    return json.loads(json.dumps(raw))


class TestLoaderProperties:
    @settings(max_examples=80, deadline=None)
    @given(raw=raw_instances())
    def test_valid_descriptions_round_trip(self, raw):
        instance = sr.validate_instance(_through_json(raw))
        assert instance.nodes == tuple(raw["nodes"])
        assert [tuple(getattr(l, k) for k in _LINK_KEYS) for l in instance.links] == [
            tuple(rec[k] for k in _LINK_KEYS) for rec in raw["links"]
        ]
        assert [tuple(getattr(od, k) for k in _OD_KEYS) for od in instance.od_pairs] == [
            tuple(rec[k] for k in _OD_KEYS) for rec in raw["od_pairs"]
        ]
        assert instance.a.tolist() == [rec["a"] for rec in raw["links"]]

    @settings(max_examples=150, deadline=None)
    @given(raw=raw_instances(), data=st.data())
    def test_mutations_rejected(self, raw, data):
        kind = data.draw(st.sampled_from(["coefficient", "missing", "identifier", "container"]))
        if kind == "coefficient":
            section, keys = data.draw(
                st.sampled_from([("links", ("a", "h", "b")), ("od_pairs", ("demand", "alpha"))])
            )
            rec = data.draw(st.sampled_from(raw[section]))
            bad = st.sampled_from([float("nan"), float("inf"), float("-inf")]) | st.floats(
                max_value=0.0, exclude_max=True, allow_infinity=False
            )
            rec[data.draw(st.sampled_from(keys))] = data.draw(bad)
        elif kind == "missing":
            where = data.draw(st.sampled_from([raw, *raw["links"], *raw["od_pairs"]]))
            del where[data.draw(st.sampled_from(sorted(where)))]
        elif kind == "container":  # a top-level list replaced by a non-list
            site = data.draw(st.sampled_from(["nodes", "links", "od_pairs"]))
            raw[site] = data.draw(st.sampled_from([5, None, "n1", 1.5, True, {"id": "e"}]))
        else:
            bad = data.draw(st.sampled_from(["", 0, None, 1.5, True, ["n"]]))
            site = data.draw(st.sampled_from(["nodes", "links", "od_pairs"]))
            if site == "nodes":
                raw["nodes"][data.draw(st.integers(0, len(raw["nodes"]) - 1))] = bad
            else:
                rec = data.draw(st.sampled_from(raw[site]))
                keys = ("id", "tail", "head") if site == "links" else ("origin", "destination")
                rec[data.draw(st.sampled_from(keys))] = bad
        with pytest.raises(sr.ValidationError):
            sr.validate_instance(_through_json(raw))
