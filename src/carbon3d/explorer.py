"""Design-space exploration: sweeps, 2D switching points, gamma trade-offs.

A sweep is the cartesian product of one or more axes, each axis being a
parameter path plus an ordered value list.  Every row is a full-pipeline
evaluation of its own scenario; rows that share a prefix of axis values
share the scenario built for that prefix, which is applied once.  Rows are
yielded one at a time, in fixed axis order (that of ``itertools.product``),
so results are deterministic and memory does not grow with the row count,
except that an inner axis which earlier axes repeat keeps one patch per
value (about 0.5 KB each; see below).

A row reuses the previous row's geometry and yields while its design and
process profiles are the same objects, and its embodied carbon while the
fab environment is the same object too; the usage is the scenario's, not
the design's, so a ``usage`` axis leaves the design as it is.  The
baseline's merged die is built once per distinct dies, and only its
embodied carbon is computed.  Its node, wiring and gate total are those of
every comparison design (``gamma_pareto``'s variants too), from one rule
that reads no die order; see ``mono2d_equivalent``.
Operational carbon, the total and the metrics are computed on every row.
So axes on ``usage``, ``environment`` or ``gamma`` are cheapest as the
inner (last) axes.  Each path patches exactly one ``Scenario`` field, and
``_route`` names it: ``design``, ``usage``, ``environment``, ``gamma``, or
``profiles`` for ``bonding``/``packaging``.  An axis after the first whose
field no earlier axis patches applies each value once per sweep, and each
later prefix takes the field patched at that position.
A reused stage or patch gives the floats a fresh one would, but does not
raise its warnings again.  ``gamma_pareto`` builds each scheme's variant on that
rule and reuses a design's embodied chain across its gammas in the same way.

Supported parameter paths (the ``design.`` prefix is optional):

  gamma                          embodied/operational weighting
  technology                     node name, applied to every die (or dies[i]);
                                 resolved as the loader's dies are, through the
                                 scenario's registry and technology_overrides;
                                 wiring still resets to the fixture wiring
  dies[*].gate_count             any DieSpec field, broadcast or dies[i]
  dies[*].wiring.rent_p          per-die wiring overrides
  signal_count_f2f
  usage.t_app_hours              any UsageProfile field
  environment.ci_fab             any FabEnvironment field
  bonding.bond_yield             any BondingProfile field
  packaging.cpa_packaging        any PackagingProfile field

Two axes may not set one parameter (``technology`` is ``dies[*].technology``);
overlapping paths, such as ``dies[*].gate_count`` then ``dies[0].gate_count``,
apply in order.  ``switching_point`` resolves its node as a technology axis does.

The drivers check each input before they build anything.  ``build_design`` and ``switching_point``
refuse a die count that is not an integer the scheme admits in [1, MAX_DIES] on ``n_dies`` (a one-die
scheme takes any count in it as 1); ``gamma_pareto`` checks it through each variant's build, so with no
variants it checks nothing.  ``switching_point`` refuses ``mono_2d``, its own baseline, on ``integration``;
it and ``find_crossing`` (no tolerance option) refuse a range not finite with 0 < lo < hi on ``range``.
"""

from __future__ import annotations

import dataclasses
import math
import re
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .carbon import CarbonBreakdown, _EmbodiedChain, evaluate
from .errors import CapExceeded, CarbonModelWarning, InvalidCombination, OutOfRange, UnresolvablePath, UnsupportedConfiguration
from .geometry import _die_gate_count, area_2d
from .params import (
    DesignSpec,
    DieSpec,
    Integration,
    MAX_DIES,
    Scenario,
    Stacking,
    TechnologyProfile,
    WiringParameters,
    _FIELDS,
    _check,
    _enum,
    _int,
    _profile,
    check_die_count,
    left_sum,
    resolve_node,
    validate_design,
    validate_gamma,
    validate_profile,
)

PRESCAN_POINTS = 17
REL_TOL = 1e-3      # find_crossing's bisection stops when its bracket is this share of its midpoint
ROW_CAP = 1_000_000


@dataclass(frozen=True)
class SweepAxis:
    """One sweep axis: a parameter path and its ordered values."""

    parameter_path: str
    values: tuple

    def __init__(self, parameter_path: str, values: Sequence):
        if isinstance(values, str):  # not a sequence of its characters
            raise UnresolvablePath(f"axis {parameter_path!r}: values must be a sequence, not the string {values!r}")
        object.__setattr__(self, "parameter_path", parameter_path)
        object.__setattr__(self, "values", tuple(values))
        if not self.values:
            raise UnresolvablePath(f"axis {parameter_path!r} has no values")


@dataclass(frozen=True)
class SweepRow:
    """One sweep row: its axis values, scenario, breakdown and optional mono-2D baseline."""

    values: tuple
    scenario: Scenario
    breakdown: CarbonBreakdown
    baseline: float | None = None     # the mono-2D equivalent's c_embodied_overall, with baseline=True


# ---------------------------------------------------------------------------
# Parameter-path application
# ---------------------------------------------------------------------------

_DIE_PATH = re.compile(r"^dies\[(\*|\d+)\]\.(\w+)(?:\.(\w+))?$")


def _patched(profile, key: str, value, path: str, axis: str):
    """The profile with one field set by the loader's profile builder."""
    if key not in _FIELDS[type(profile)]:
        raise UnresolvablePath(f"cannot resolve parameter path {axis!r}")
    return _profile(type(profile), profile, {key: value}, path)


def _normalized(path: str) -> str:
    """The path without its optional ``design.`` prefix; ``technology`` is ``dies[*].technology``."""
    p = path.strip().removeprefix("design.")
    return "dies[*].technology" if p == "technology" else p


def _names_node(path: str) -> bool:
    """Whether a parameter path sets dies' technology, so that its values are node names."""
    m = _DIE_PATH.match(_normalized(path))
    return m is not None and m[2] == "technology" and m[3] is None


def _dies_patched(scenario: Scenario, index: str, field_name: str, sub: str | None, value, path: str) -> DesignSpec:
    """The scenario's design with ``dies[index].field_name[.sub]`` set to value."""
    dies = list(scenario.design.dies)
    for i in range(len(dies)) if index == "*" else [int(index)]:
        if not 0 <= i < len(dies):
            raise UnresolvablePath(f"{path}: die index {i} out of range (have {len(dies)})")
        die = dies[i]
        if field_name == "technology" and sub is None:
            tech, wiring = resolve_node(str(value), scenario.technology_overrides, scenario.registry, path)
            dies[i] = dataclasses.replace(die, technology=tech, wiring=wiring)
        elif field_name == "wiring" and sub is not None:
            wiring = _patched(die.wiring, sub, value, f"design.dies[{i}].wiring", path)
            dies[i] = dataclasses.replace(die, wiring=wiring)
        elif sub is None:
            dies[i] = _patched(die, field_name, value, f"dies[{index}]", path)
        else:
            raise UnresolvablePath(f"cannot resolve parameter path {path!r}")
    return dataclasses.replace(scenario.design, dies=tuple(dies))


def _route(path: str) -> tuple[str, Callable[[Scenario, object], object]]:
    """The one ``Scenario`` field a parameter path patches, and ``patch(scenario, value)``,
    which builds that field's new object; an unknown section is refused here."""
    p = _normalized(path)
    if p == "gamma":
        return p, lambda scenario, value: validate_gamma(value, p)
    if m := _DIE_PATH.match(p):
        return "design", lambda scenario, value: _dies_patched(scenario, *m.groups(), value, path)
    section, _, key = p.rpartition(".")
    if section in ("bonding", "packaging"):
        return "profiles", lambda scenario, value: dataclasses.replace(
            scenario.profiles, **{section: _patched(getattr(scenario.profiles, section), key, value, section, path)})
    if section in ("", "usage", "environment"):
        field = section or "design"
        return field, lambda scenario, value: _patched(getattr(scenario, field), key, value, field, path)
    raise UnresolvablePath(f"cannot resolve parameter path {path!r}")


def apply_parameter(scenario: Scenario, path: str, value) -> Scenario:
    """Return a copy of the scenario with one parameter path set to value.

    The patched profile is parsed and validated by the loader's builder,
    on the axis path (a wiring patch on ``design.dies[i].wiring`` of each
    die it touches); the design's cross-field rules are left to
    ``validate_design``.  A node resolves through ``scenario.registry``.
    """
    field, patch = _route(path)
    return dataclasses.replace(scenario, **{field: patch(scenario, value)})


def _basis(design: DesignSpec) -> tuple[TechnologyProfile, WiringParameters, float]:
    # the node, wiring and total gate count of every design derived from ``design``; none reads the die order
    die = design.dies[0]
    if any(d.technology is not die.technology or d.wiring is not die.wiring for d in design.dies):
        # the most advanced node (smallest feature size, then name), then the smallest wiring by its values
        die = min(design.dies, key=lambda d: (d.technology.feature_size_cm, d.technology.node_name, d.wiring))
        if any(d.technology.node_name != die.technology.node_name for d in design.dies):
            warnings.warn(f"heterogeneous-node design; the 2D baseline and other comparison designs use its most "
                          f"advanced node, {die.technology.node_name}", CarbonModelWarning, stacklevel=3)
    # a die given by its area counts the gates that area holds on its own node; summed in ascending order
    return die.technology, die.wiring, left_sum(sorted(_die_gate_count(d, d.explicit_area) for d in design.dies))


def mono2d_equivalent(design: DesignSpec) -> DesignSpec:
    """The single-die 2D design with the same total gate count, summed in ascending order.

    Every comparison design, ``gamma_pareto``'s variants too, takes its node, wiring and total.
    The node is the dies' most advanced (smallest ``feature_size_cm``, then name), so gates from
    another node count at its density; the wiring is the smallest by field values among that
    node's dies.  No choice reads the die order.  A heterogeneous-node design warns, naming the node."""
    technology, wiring, gates = _basis(design)
    return _equal_split(Integration.MONO_2D, technology, wiring, 1, gates, Stacking.NA)


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def _scenarios(template: Scenario, axes: tuple[SweepAxis, ...]):
    """Yield each row's values and scenario in ``itertools.product`` order, every axis
    routed first; each value of the first axis is applied once, to the prefix scenario
    that every combination of the later axes shares.  A later axis whose field no
    earlier axis patches, and which the earlier axes repeat, keeps the field it patched
    per position, and every later prefix takes it.  An axis that runs once keeps
    nothing: it could reuse nothing."""
    fields = [_route(a.parameter_path)[0] for a in axes]
    kept = [{} if f not in fields[:i] and math.prod(len(a.values) for a in axes[:i]) > 1 else None
            for i, f in enumerate(fields)]

    def walk(prefix: Scenario, depth: int, values: tuple):
        if depth == len(axes):
            yield values, prefix
            return
        axis, field, memo = axes[depth], fields[depth], kept[depth]
        for position, value in enumerate(axis.values):  # by position: 0.0 == -0.0
            # no earlier axis patches the field, so every prefix holds the template's object for it
            patched = memo.get(position) if memo is not None else None
            if patched is not None:
                scenario = dataclasses.replace(prefix, **{field: patched})
            else:
                scenario = apply_parameter(prefix, axis.parameter_path, value)
                if memo is not None:
                    memo[position] = getattr(scenario, field)
            yield from walk(scenario, depth + 1, values + (value,))

    return walk(template, 0, ())


def _rows(template: Scenario, axes: tuple[SweepAxis, ...], baseline: bool):
    """Evaluate each row and, with ``baseline``, its mono-2D equivalent's embodied carbon
    only, reusing the previous row's embodied chains and baseline design where their
    inputs are unchanged."""
    chain, base_chain = _EmbodiedChain(), _EmbodiedChain()
    merged_from = base_design = None
    for values, scenario in _scenarios(template, axes):
        design = scenario.design
        validate_design(design)
        breakdown = evaluate(scenario, _chain=chain)
        base = None
        if baseline:
            if design.dies is not merged_from:  # the mono-2D equivalent reads only the dies
                merged_from, base_design = design.dies, mono2d_equivalent(design)
            base = base_chain(base_design, scenario.profiles, scenario.environment)[1].c_embodied_overall
        yield SweepRow(values, scenario, breakdown, base)


def sweep(
    scenario: Scenario,
    axes: Sequence[SweepAxis],
    baseline: bool = False,
) -> Iterator[SweepRow]:
    """Evaluate the cartesian product of the axes over a template scenario, row by row.

    The axes (no two may set one parameter) and the row cap are checked at
    the call.  Each row is built and evaluated when the returned iterator
    reaches it, so a bad row raises there.  With ``baseline=True`` it carries
    its mono-2D equivalent's overall embodied carbon, from the embodied chain
    alone: the baseline's operational carbon and metrics are not computed.
    """
    axes = tuple(a if isinstance(a, SweepAxis) else SweepAxis(*a) for a in axes)
    paths = [_normalized(a.parameter_path) for a in axes]
    if repeated := sorted({p for p in paths if paths.count(p) > 1}):
        raise UnresolvablePath(f"more than one axis sets {', '.join(repeated)}")
    total = math.prod(len(a.values) for a in axes) if axes else 1
    if total > ROW_CAP:
        raise CapExceeded(f"sweep would evaluate {total} rows, cap is {ROW_CAP}")
    return _rows(scenario, axes, baseline)


def _above(gap: float) -> bool:
    """Whether a gap to the 2D baseline is above it: the one sign rule (an exact 0 is below)."""
    return gap > 0


def crossing(a: SweepRow, b: SweepRow) -> tuple[object, object, str] | None:
    """The sign change between adjacent rows of a one-axis sweep with a baseline, or None.

    ``find_crossing``'s rule (``_above``) on each row's embodied-carbon gap to ``row.baseline``; a change is
    the bracket ``(a's value, b's value, "down" | "up")``, "down" where the scheme turns cheaper than 2D.
    No arithmetic is done on the values, so node names bracket too; ``switching_point`` refines to a point.
    """
    if not all(r.baseline is not None and len(r.values) == 1 for r in (a, b)):
        return None
    above = _above(a.breakdown.c_embodied_overall - a.baseline)
    if above == _above(b.breakdown.c_embodied_overall - b.baseline):
        return None
    return a.values[0], b.values[0], "down" if above else "up"


# ---------------------------------------------------------------------------
# Switching-point search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossingResult:
    """Smallest sign change of f on [lo, hi].

    status is one of "crossing" (value = abscissa of the change),
    "always_below" (f <= 0 at every pre-scan point; value = 0, the Table-III "0" case)
    or "never_below" (f > 0 at every pre-scan point; value = inf).
    """

    status: str
    value: float
    evaluations: int = 0


def _check_range(lo: float, hi: float, path: str = "range"):
    # a gate-count search range is finite with 0 < lo < hi; another is an error on ``path``
    if not 0 < lo < hi < math.inf:
        raise OutOfRange(path, f"need finite 0 < lo < hi, got [{lo:g}, {hi:g}]")


def find_crossing(f: Callable[[float], float], lo: float, hi: float) -> CrossingResult:
    """Bracket-scan then bisect the smallest sign change of f on [lo, hi].

    A sign change is one between f > 0 and f <= 0 (``_above``, the rule ``crossing`` applies to sweep rows),
    so an exact 0 is below and ends no search; with none, the status is the side of f(lo).  The pre-scan
    uses a log-spaced grid of PRESCAN_POINTS points (the abscissa is a gate count), and bisection stops at
    a bracket of REL_TOL of its midpoint.  Multiple sign changes warn; the smallest is refined.  A range
    not finite with 0 < lo < hi is OutOfRange on ``range``.
    """
    _check_range(lo, hi)
    ratio = (hi / lo) ** (1.0 / (PRESCAN_POINTS - 1))
    grid = [lo * ratio**i for i in range(PRESCAN_POINTS - 1)] + [hi]
    sides = [_above(f(x)) for x in grid]
    evals = len(grid)

    brackets = [i for i in range(len(grid) - 1) if sides[i] != sides[i + 1]]
    if not brackets:
        if sides[0]:
            return CrossingResult(status="never_below", value=math.inf, evaluations=evals)
        return CrossingResult(status="always_below", value=0.0, evaluations=evals)
    if len(brackets) > 1:
        warnings.warn(
            f"{len(brackets)} sign changes detected on the search range; returning the smallest",
            CarbonModelWarning,
            stacklevel=2,
        )

    a, b, above = grid[brackets[0]], grid[brackets[0] + 1], sides[brackets[0]]
    for _ in range(200):  # ends a search stuck between adjacent floats, such as a range of subnormals
        mid = 0.5 * (a + b)
        if (b - a) <= REL_TOL * mid:
            break
        evals += 1
        if _above(f(mid)) == above:
            a = mid
        else:
            b = mid
    return CrossingResult(status="crossing", value=0.5 * (a + b), evaluations=evals)


def _die_count(integration: Integration, n_dies: int) -> int:
    """The die count ``build_design`` makes: a one-die scheme takes any count in [1, MAX_DIES] as 1."""
    return 1 if integration.rules.max_dies == 1 and 1 <= n_dies <= MAX_DIES else n_dies


def _equal_split(integration, technology, wiring, n_dies, gate_count_2d, stacking) -> DesignSpec:
    # build_design's design, before validation; its equal dies are one frozen object
    rules = integration.rules
    n_dies = _die_count(integration, n_dies)
    die = DieSpec(technology=technology, wiring=wiring, gate_count=gate_count_2d / n_dies)
    return DesignSpec(
        integration=integration,
        facing=rules.default_facing(n_dies),
        stacking=stacking if len(rules.stackings) > 1 else rules.default_stacking,
        dies=(die,) * n_dies,
    )


def build_design(
    integration: Integration,
    technology: TechnologyProfile,
    wiring: WiringParameters,
    n_dies: int,
    gate_count_2d: float,
    stacking: Stacking = Stacking.D2W,
) -> DesignSpec:
    """Equal-split parametric design used by the DSE drivers.

    Facing is the scheme's default (2-die stacked 3D F2F, deeper stacks F2B);
    ``stacking`` applies where the scheme offers a choice.  Mono-2D collapses any
    n_dies in [1, MAX_DIES] to a single die.  A count that is not an integer the scheme
    admits in [1, MAX_DIES] is an error on ``n_dies``, raised before any die is made.
    """
    n = _die_count(integration, _int(n_dies, "n_dies"))
    check_die_count(integration, n, "n_dies")
    design = _equal_split(integration, technology, wiring, n, gate_count_2d, stacking)
    validate_design(design)
    validate_profile(design.dies[0], "design.dies[0]")  # the dies are equal
    return design


@dataclass(frozen=True)
class SwitchingPoint:
    """Where a scheme's embodied carbon falls to the 2D baseline's, over gate count."""

    integration: str
    node: str
    n_dies: int
    status: str             # crossing | always_below | never_below
    gate_count: float       # 0, the crossing, or inf
    area_cm2: float         # 2D-equivalent area of the crossing


def switching_point(
    base: Scenario,
    integration: Integration,
    node: str,
    n_dies: int,
    gate_lo: float,
    gate_hi: float,
    stacking: Stacking = Stacking.D2W,
) -> SwitchingPoint:
    """2D-vs-integration embodied-carbon switching point over gate count.

    Bisects f(g) = C_embodied(integration, g) - C_embodied(2D, g) to a relative tolerance of ``REL_TOL``;
    reports 0 when the integration is never dearer than 2D at a pre-scan point and inf when it is dearer
    at every one.  ``mono_2d``, which cannot cross itself, is an error on ``integration``, and the range
    (an error on ``range``), the node and the scheme's design at ``gate_lo`` (a bad ``n_dies`` is an error
    on it) are checked before anything is evaluated.  Each point runs the embodied chain only: operational
    carbon, which f does not read, is not computed.  The node resolves as the base document's dies do: its
    ``technology_overrides`` entry if any, else ``base.registry``'s.
    """
    if integration is Integration.MONO_2D:
        raise InvalidCombination("integration", "mono_2d is the 2D baseline that the search compares with")
    _check_range(gate_lo, gate_hi)
    tech, wiring = resolve_node(node, base.technology_overrides, base.registry, "node")
    # only the gate count changes with g, and every g is >= gate_lo > 0: this validates every point.
    # The mono-2D leg, one die of g gates with facing and stacking na, passes every check then too.
    n = len(build_design(integration, tech, wiring, n_dies, gate_lo, stacking=stacking).dies)

    def embodied(integ: Integration, g: float) -> float:
        design = _equal_split(integ, tech, wiring, n, g, stacking)
        return _EmbodiedChain()(design, base.profiles, base.environment)[1].c_embodied_overall

    def f(g: float) -> float:
        return embodied(integration, g) - embodied(Integration.MONO_2D, g)

    result = find_crossing(f, gate_lo, gate_hi)
    return SwitchingPoint(
        integration=integration.value,
        node=node,
        n_dies=n,
        status=result.status,
        gate_count=result.value,
        area_cm2=area_2d(result.value, tech),
    )


# ---------------------------------------------------------------------------
# Gamma sweep (Pareto/tCDP curves)
# ---------------------------------------------------------------------------

def _distinct(schemes: list[Integration], path: str) -> list[Integration]:
    # the schemes if each is named once (two would be one series), else an error on ``path``
    repeated = sorted({s.value for s in schemes if schemes.count(s) > 1})
    _check(not repeated, path, f"names {', '.join(repeated)} more than once")
    return schemes


def gamma_pareto(
    base: Scenario,
    integrations: Sequence[Integration | str],
    n_dies: int,
    gammas: Sequence[float],
) -> tuple[float, dict[str, tuple[float, ...]]]:
    """The reference tCDP (the base design's at gamma = 1) and each design's tCDP over the gammas, divided by it.

    The series are keyed ``"reference"`` (the base design), then each scheme's value in the given order.  A
    variant is ``build_design`` at ``n_dies`` (D2W where the scheme offers a choice) on the node, wiring and
    gate total of ``mono2d_equivalent``.  Every input is checked (a repeated scheme is an error on
    ``integrations``) and every variant built before anything is evaluated."""
    gammas = tuple(validate_gamma(g, f"gammas[{i}]") for i, g in enumerate(gammas))
    _check(bool(gammas), "gammas", "needs at least one value")
    schemes = _distinct([_enum(v, Integration, f"integrations[{k}]") for k, v in enumerate(integrations)],
                        "integrations")
    tech, wiring, gates = _basis(base.design)
    designs = dict(reference=base.design, **{s.value: build_design(s, tech, wiring, n_dies, gates) for s in schemes})
    chain = _EmbodiedChain()     # one design's gammas share its embodied chain
    ref_tcdp = evaluate(dataclasses.replace(base, gamma=1.0), _chain=chain).tcdp
    if ref_tcdp == 0:
        raise UnsupportedConfiguration("the reference design's tCDP at gamma=1 is 0; cannot normalize")
    return ref_tcdp, {name: tuple(evaluate(dataclasses.replace(base, design=d, gamma=g), _chain=chain).tcdp / ref_tcdp
                                  for g in gammas) for name, d in designs.items()}
