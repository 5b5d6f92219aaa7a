"""Immutable model of a mixed-autonomy routing game instance.

A network is a directed graph whose links carry affine two-class latency
functions e_l(fa, fh) = a*fa + h*fh + b, with a strictly positive slope per
vehicle class and a nonnegative free-flow term. Demand is given per
origin/destination pair together with an autonomy fraction, and routing is
path-based: every simple path of every O/D pair is enumerated once, ordered
deterministically, and indexed globally. All types are frozen after
validation and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, ValidationError

DEFAULT_PATH_CAP = 10_000

#: absolute tolerance for path-to-link aggregation identities
AGGREGATION_TOL = 1e-12


def check_flows(values: np.ndarray, size: int, what: str) -> np.ndarray:
    """``values`` as a float flow vector, checked: DomainError unless its shape
    is ``(size,)`` and no entry is NaN, infinite or below ``-AGGREGATION_TOL``;
    ``what`` names it in the messages. The one check of every flow vector
    argument except the human flows of ``wardrop_gap`` (NaN in, NaN out)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (size,):
        raise DomainError(f"{what} must have shape ({size},), got shape {values.shape}")
    bad = values[~(np.isfinite(values) & (values >= -AGGREGATION_TOL))]
    if bad.size:
        raise DomainError(f"{what} must be finite and nonnegative: {bad[0]}")
    return values


@dataclass(frozen=True)
class Link:
    """Directed link with affine two-class latency a*fa + h*fh + b.

    Attributes:
        id: opaque string identifier, unique within an instance.
        tail: origin node of the link.
        head: target node of the link.
        a: latency slope per unit autonomous flow (finite, > 0).
        h: latency slope per unit human flow (finite, > 0).
        b: free-flow latency (finite, >= 0).
    """

    id: str
    tail: str
    head: str
    a: float
    h: float
    b: float = 0.0

    def __post_init__(self):
        if self.tail == self.head:
            raise ValidationError(f"link {self.id!r}: self-loop at node {self.tail!r}")
        for name in ("a", "h", "b"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"link {self.id!r}: {name} = {value} must be finite")
        if not self.a > 0:
            raise ValidationError(f"link {self.id!r}: a = {self.a} must be > 0")
        if not self.h > 0:
            raise ValidationError(f"link {self.id!r}: h = {self.h} must be > 0")
        if self.b < 0:
            raise ValidationError(f"link {self.id!r}: b = {self.b} must be >= 0")
        if self.a / self.h > 1.0:
            raise ValidationError(
                f"link {self.id!r}: a/h = {self.a / self.h} must lie in (0, 1]"
            )

    @property
    def asymmetry(self) -> float:
        """Degree of asymmetry a/h, in (0, 1]."""
        return self.a / self.h


@dataclass(frozen=True)
class ODPair:
    """Origin/destination pair with total demand and autonomy fraction.

    ``demand`` is the total flow (both classes) to route, finite and > 0;
    ``alpha`` is the fraction of that demand that is autonomous.
    """

    origin: str
    destination: str
    demand: float
    alpha: float

    def __post_init__(self):
        if self.origin == self.destination:
            raise ValidationError(
                f"O/D pair ({self.origin!r}, {self.destination!r}): origin equals destination"
            )
        if not math.isfinite(self.demand):
            raise ValidationError(
                f"O/D pair ({self.origin!r}, {self.destination!r}): "
                f"demand = {self.demand} must be finite"
            )
        if not self.demand > 0:
            raise ValidationError(
                f"O/D pair ({self.origin!r}, {self.destination!r}): "
                f"demand = {self.demand} must be > 0"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(
                f"O/D pair ({self.origin!r}, {self.destination!r}): "
                f"alpha = {self.alpha} must lie in [0, 1]"
            )


@dataclass(frozen=True)
class Path:
    """Simple directed path, stored as node sequence plus link-id sequence.

    The link sequence disambiguates parallel links sharing a node sequence.
    """

    nodes: tuple[str, ...]
    links: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class PathSet:
    """All simple paths of an instance, globally indexed.

    Paths of each O/D pair are sorted lexicographically by node sequence
    (link ids break ties between parallel links), and the global order
    concatenates the per-pair blocks in O/D declaration order; pair w owns
    ``all_paths[start:end]`` for ``(start, end) = od_slices[w]``. Two
    enumerations of the same instance always produce identical orderings.
    """

    all_paths: tuple[Path, ...]
    od_slices: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.all_paths)


@dataclass(frozen=True, eq=False)
class GameInstance:
    """Validated mixed-autonomy routing game instance.

    Carries the network, the demand structure, the enumerated PathSet, and
    derived numpy views used by the solvers: the slope/intercept vectors,
    the link-path incidence, and the per-O/D demand vectors (``demands``,
    ``alphas``, and the class demands ``auto_demands = alphas * demands``
    and ``human_demands = (1 - alphas) * demands``). Immutable; construct
    via ``validate_instance`` or ``build_instance``.
    """

    nodes: tuple[str, ...]
    links: tuple[Link, ...]
    od_pairs: tuple[ODPair, ...]
    paths: PathSet
    path_cap: int
    # derived, read-only numpy views
    a: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    incidence: np.ndarray = field(repr=False)
    demands: np.ndarray = field(repr=False)
    alphas: np.ndarray = field(repr=False)
    auto_demands: np.ndarray = field(repr=False)
    human_demands: np.ndarray = field(repr=False)
    link_index: Mapping[str, int] = field(repr=False)

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    def link_flows(self, path_flows: np.ndarray) -> np.ndarray:
        """Aggregate path flows onto links via the incidence matrix; the flows
        are checked by ``check_flows``."""
        return self.incidence @ check_flows(path_flows, self.n_paths, "path flows")

    def link_latencies(self, fa: np.ndarray, fh: np.ndarray) -> np.ndarray:
        """Vector of link latencies e_l = a*fa + h*fh + b."""
        return self.a * fa + self.h * fh + self.b


@dataclass(frozen=True, eq=False)
class ClassFlow:
    """Per-class path flows with their link aggregations.

    Path flows are indexed by the instance's global path order; link flows
    are derived through the incidence matrix and kept consistent by
    construction.
    """

    path_flows_a: np.ndarray
    path_flows_h: np.ndarray
    link_flows_a: np.ndarray
    link_flows_h: np.ndarray

    @classmethod
    def from_path_flows(
        cls, instance: GameInstance, fa: np.ndarray, fh: np.ndarray
    ) -> "ClassFlow":
        fa = np.maximum(check_flows(fa, instance.n_paths, "autonomous path flows"), 0.0)
        fh = np.maximum(check_flows(fh, instance.n_paths, "human path flows"), 0.0)
        flow = cls(
            path_flows_a=fa,
            path_flows_h=fh,
            link_flows_a=instance.incidence @ fa,
            link_flows_h=instance.incidence @ fh,
        )
        for arr in (flow.path_flows_a, flow.path_flows_h, flow.link_flows_a, flow.link_flows_h):
            arr.setflags(write=False)
        return flow

    @property
    def total_link_flows(self) -> np.ndarray:
        return self.link_flows_a + self.link_flows_h


# --- path enumeration ---------------------------------------------------------


def _adjacency(links: Sequence[Link]) -> dict[str, list[Link]]:
    adj: dict[str, list[Link]] = {}
    for link in links:
        adj.setdefault(link.tail, []).append(link)
    for out in adj.values():
        out.sort(key=lambda l: (l.head, l.id))
    return adj


def _simple_paths(
    adj: Mapping[str, list[Link]], origin: str, destination: str, counter: list[int], cap: int
) -> list[Path]:
    """Depth-first enumeration of simple (no repeated node) link paths."""
    found: list[Path] = []
    node_seq: list[str] = [origin]
    link_seq: list[str] = []
    visited = {origin}

    def visit(node: str) -> None:
        for link in adj.get(node, ()):  # sorted adjacency keeps runs reproducible
            if link.head in visited:
                continue
            node_seq.append(link.head)
            link_seq.append(link.id)
            if link.head == destination:
                counter[0] += 1
                if counter[0] > cap:
                    raise ValidationError(
                        f"more than {cap} simple paths; raise path_cap to enumerate"
                    )
                found.append(Path(nodes=tuple(node_seq), links=tuple(link_seq)))
            else:
                visited.add(link.head)
                visit(link.head)
                visited.remove(link.head)
            node_seq.pop()
            link_seq.pop()

    visit(origin)
    return found


def enumerate_paths(
    links: Sequence[Link], od_pairs: Sequence[ODPair], path_cap: int = DEFAULT_PATH_CAP
) -> PathSet:
    """Enumerate every simple path of every O/D pair, deterministically ordered.

    Raises ValidationError once the total path count over all pairs exceeds
    ``path_cap``, or if some O/D pair is unreachable.
    """
    adj = _adjacency(links)
    counter = [0]
    all_paths: list[Path] = []
    od_slices: list[tuple[int, int]] = []
    for od in od_pairs:
        paths = _simple_paths(adj, od.origin, od.destination, counter, path_cap)
        if not paths:
            raise ValidationError(f"no path from {od.origin!r} to {od.destination!r}")
        paths.sort(key=lambda p: (p.nodes, p.links))
        od_slices.append((len(all_paths), len(all_paths) + len(paths)))
        all_paths.extend(paths)
    return PathSet(all_paths=tuple(all_paths), od_slices=tuple(od_slices))


# --- instance construction ------------------------------------------------------


def build_instance(
    nodes: Iterable[str],
    links: Sequence[Link],
    od_pairs: Sequence[ODPair],
    path_cap: int = DEFAULT_PATH_CAP,
) -> GameInstance:
    """Assemble and validate a GameInstance from already-typed parts.

    Raises ValidationError without an O/D pair, so every instance has a path
    and a link.
    """
    nodes = tuple(nodes)
    links = tuple(links)
    od_pairs = tuple(od_pairs)
    if not od_pairs:
        raise ValidationError("instance has no O/D pairs")
    node_set = set(nodes)
    if len(node_set) != len(nodes):
        raise ValidationError("duplicate node identifiers")
    seen_links: set[str] = set()
    for link in links:
        if link.id in seen_links:
            raise ValidationError(f"duplicate link id {link.id!r}")
        seen_links.add(link.id)
        for endpoint in (link.tail, link.head):
            if endpoint not in node_set:
                raise ValidationError(
                    f"link {link.id!r}: endpoint {endpoint!r} is not a declared node"
                )
    for od in od_pairs:
        for endpoint in (od.origin, od.destination):
            if endpoint not in node_set:
                raise ValidationError(
                    f"O/D pair ({od.origin!r}, {od.destination!r}): "
                    f"{endpoint!r} is not a declared node"
                )
    if isinstance(path_cap, bool) or not isinstance(path_cap, int) or path_cap < 1:
        raise ValidationError(f"path_cap must be a positive integer, got {path_cap!r}")

    paths = enumerate_paths(links, od_pairs, path_cap)
    n_links = len(links)
    link_index = {link.id: i for i, link in enumerate(links)}
    incidence = np.zeros((n_links, len(paths)), dtype=float)
    for j, path in enumerate(paths.all_paths):
        for lid in path.links:
            incidence[link_index[lid], j] = 1.0
    a = np.array([l.a for l in links])
    h = np.array([l.h for l in links])
    b = np.array([l.b for l in links])
    demands = np.array([od.demand for od in od_pairs])
    alphas = np.array([od.alpha for od in od_pairs])
    auto_demands = alphas * demands
    human_demands = (1.0 - alphas) * demands
    for arr in (a, h, b, incidence, demands, alphas, auto_demands, human_demands):
        arr.setflags(write=False)
    return GameInstance(
        nodes=nodes,
        links=links,
        od_pairs=od_pairs,
        paths=paths,
        path_cap=path_cap,
        a=a,
        h=h,
        b=b,
        incidence=incidence,
        demands=demands,
        alphas=alphas,
        auto_demands=auto_demands,
        human_demands=human_demands,
        link_index=link_index,
    )


_LINK_FIELDS = {"id", "tail", "head", "a", "h", "b"}
_OD_FIELDS = {"origin", "destination", "demand", "alpha"}
_TOP_FIELDS = {"nodes", "links", "od_pairs", "path_cap"}


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_identifier(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{where}: expected a non-empty string, got {value!r}")
    return value


def _check_fields(record: Mapping, required: set[str], where: str) -> None:
    if not isinstance(record, Mapping):
        raise ValidationError(f"{where}: expected an object, got {type(record).__name__}")
    unknown = set(record) - required
    if unknown:
        raise ValidationError(f"{where}: unknown fields {sorted(unknown)}")
    missing = required - set(record)
    if missing:
        raise ValidationError(f"{where}: missing fields {sorted(missing)}")


def validate_instance(raw: Mapping) -> GameInstance:
    """Validate a raw instance description (parsed JSON) into a GameInstance.

    The description must carry exactly the documented fields: ``nodes`` (list
    of strings), ``links`` (records with id/tail/head/a/h/b), ``od_pairs``
    (records with origin/destination/demand/alpha) and optionally
    ``path_cap``. Unknown fields are rejected.
    """
    if not isinstance(raw, Mapping):
        raise ValidationError(f"instance must be an object, got {type(raw).__name__}")
    unknown = set(raw) - _TOP_FIELDS
    if unknown:
        raise ValidationError(f"unknown top-level fields {sorted(unknown)}")
    for required in ("nodes", "links", "od_pairs"):
        if required not in raw:
            raise ValidationError(f"missing top-level field {required!r}")

    for name in ("nodes", "links", "od_pairs"):
        if not isinstance(raw[name], Sequence) or isinstance(raw[name], (str, bytes)):
            raise ValidationError(f"{name!r} must be a list, got {raw[name]!r}")
    nodes = tuple(_as_identifier(n, "nodes") for n in raw["nodes"])
    if not nodes:
        raise ValidationError("'nodes' must be non-empty")

    links = []
    for k, rec in enumerate(raw["links"]):
        where = f"links[{k}]"
        _check_fields(rec, _LINK_FIELDS, where)
        links.append(
            Link(
                id=_as_identifier(rec["id"], f"{where}.id"),
                tail=_as_identifier(rec["tail"], f"{where}.tail"),
                head=_as_identifier(rec["head"], f"{where}.head"),
                a=_as_number(rec["a"], f"{where}.a"),
                h=_as_number(rec["h"], f"{where}.h"),
                b=_as_number(rec["b"], f"{where}.b"),
            )
        )

    od_pairs = []
    for k, rec in enumerate(raw["od_pairs"]):
        where = f"od_pairs[{k}]"
        _check_fields(rec, _OD_FIELDS, where)
        od_pairs.append(
            ODPair(
                origin=_as_identifier(rec["origin"], f"{where}.origin"),
                destination=_as_identifier(rec["destination"], f"{where}.destination"),
                demand=_as_number(rec["demand"], f"{where}.demand"),
                alpha=_as_number(rec["alpha"], f"{where}.alpha"),
            )
        )

    return build_instance(nodes, links, od_pairs, raw.get("path_cap", DEFAULT_PATH_CAP))


def load_instance(path) -> GameInstance:
    """Read and validate an instance file (JSON)."""
    import json  # here, not at the top: it costs every import of the package

    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    return validate_instance(raw)


# --- elementary quantities -------------------------------------------------------


def _social_cost(instance: GameInstance, fa: np.ndarray, fh: np.ndarray) -> float:
    """Total travel time sum_l (fa_l + fh_l) * e_l(fa_l, fh_l) at unchecked link flows."""
    return float(np.dot(fa + fh, instance.link_latencies(fa, fh)))


def social_cost(instance: GameInstance, flow: ClassFlow) -> float:
    """Total travel time of a flow; its link flows were checked when it was built."""
    return _social_cost(instance, flow.link_flows_a, flow.link_flows_h)


def social_cost_links(instance: GameInstance, fa: np.ndarray, fh: np.ndarray) -> float:
    """Social cost evaluated directly on per-link class flows, which are checked
    by ``check_flows``."""
    fa = check_flows(fa, instance.n_links, "autonomous link flows")
    fh = check_flows(fh, instance.n_links, "human link flows")
    return _social_cost(instance, fa, fh)


def min_asymmetry(instance: GameInstance) -> float:
    """Minimum degree of asymmetry min_l a_l/h_l over the network."""
    return float(np.min(instance.a / instance.h))


def network_autonomy_fraction(instance: GameInstance) -> float:
    """Demand-weighted autonomy fraction sum_w alpha_w r_w / sum_w r_w."""
    demands = instance.demands
    return float(np.dot(instance.alphas, demands) / demands.sum())


def check_leader_flows(instance: GameInstance, s: np.ndarray) -> np.ndarray:
    """``s`` as a vector of leader link flows, checked by ``check_flows``."""
    return check_flows(s, instance.n_links, "leader link flows")
