"""Design/technology/environment configuration: types, fixtures, loading.

Canonical units everywhere: cm for length, cm^2 for area, kWh for energy,
kg CO2e for mass, hours for durations.  Config documents are UTF-8 JSON
with top-level keys ``design``, ``technology_overrides``, ``environment``
and ``usage``; the die list under ``design.dies`` is ordered top-of-stack
first (die 1 = farthest from the package substrate).

Bundled per-node fixtures live under ``fixtures/nodes/`` (one JSON file
per node) next to ``bonding.json``, ``packaging.json`` and
``environment.json``.  Their values are illustrative survey midpoints and
are meant to be user-replaceable, either via the ``CARBON3D_FIXTURES``
environment variable or per-document ``technology_overrides``.

All profile/spec types are immutable after construction and safe to share
across concurrent evaluators.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import operator
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Container, Literal, Mapping

from .errors import (
    CarbonModelWarning,
    InvalidCombination,
    MissingField,
    OutOfRange,
    UnknownNode,
    ValidationError,
)

HOURS_PER_YEAR = 8766.0
MAX_DIES = 1000     # the die count a document or a CLI option may ask for


def left_sum(values):
    """``sum`` as a plain left-to-right fold.  From Python 3.12 on, ``sum``
    compensates float rounding, so its last bit differs between versions;
    the model adds with this instead, so a result is the same on each."""
    return functools.reduce(operator.add, values, 0)

# Survey bounds used for soft (warning-level) range checks.  Bundled
# fixtures must sit inside these; user overrides merely get a warning.
SURVEYED = {
    "epa_feol": (0.24, 0.56),
    "epa_mol": (0.08, 0.23),
    "epa_beol_layer": (0.6, 1.81),
    "gpa": (0.1, 0.5),
    "epa_bonding": (0.9, 2.75),
    "carbon_intensity": (0.030, 0.700),
    "tsv_pitch_cm": (4e-4, 20e-4),
    "t_exe_years": (1.0, 10.0),
}


class Integration(enum.Enum):
    MONO_2D = "mono_2d"
    MICRO_3D = "micro_3d"
    HYBRID_3D = "hybrid_3d"
    M3D = "m3d"
    MCM = "mcm"
    INFO_CHIP_FIRST = "info_chip_first"
    INFO_CHIP_LAST = "info_chip_last"
    SI_INTERPOSER = "si_interposer"

    rules: SchemeRules      # the member's SCHEME_RULES row, set below the table


class Facing(enum.Enum):
    F2F = "f2f"
    F2B = "f2b"
    NA = "na"


class Stacking(enum.Enum):
    D2W = "d2w"
    W2W = "w2w"
    NA = "na"


@dataclass(frozen=True)
class SchemeRules:
    """Structural facts one integration scheme fixes; see SCHEME_RULES."""

    min_dies: int
    max_dies: int | None                            # None: no upper bound
    io_strip: bool                                  # IO driver strip for inter-die / chiplet links
    tsvs: bool                                      # TSVs through the stacked dies
    bonds: Literal["0", "n-1", "n"]                 # bond interfaces in an assembly of n dies
    substrate: Literal["none", "rdl", "interposer"]
    package: Literal["max", "sum"]                  # package area scales max() or sum() of die areas
    facings: tuple[Facing, ...]                     # legal values
    stackings: tuple[Stacking, ...]                 # legal values, the default first

    def admits(self, n_dies: int) -> bool:
        return self.min_dies <= n_dies <= (self.max_dies or n_dies)

    def bond_count(self, n_dies: int) -> int:
        return {"0": 0, "n-1": n_dies - 1, "n": n_dies}[self.bonds]

    def default_facing(self, n_dies: int) -> Facing:
        if Facing.F2F in self.facings:  # F2F bonds exactly one die pair
            return Facing.F2F if n_dies == 2 else Facing.F2B
        return self.facings[0]

    @property
    def default_stacking(self) -> Stacking:
        return self.stackings[0]


_F, _S = (Facing.F2F, Facing.F2B), (Stacking.D2W, Stacking.W2W)
_NO_F, _NO_S = (Facing.NA,), (Stacking.NA,)

# One row per scheme; a new scheme is one row here plus its formulas.
SCHEME_RULES = {
    #                                        min  max   io     tsvs   bonds  substrate     pkg    facings        stackings
    Integration.MONO_2D:         SchemeRules(1, 1,    False, False, "0",   "none",       "sum", _NO_F,         _NO_S),
    Integration.MICRO_3D:        SchemeRules(2, None, True,  True,  "n-1", "none",       "max", _F,            _S),
    Integration.HYBRID_3D:       SchemeRules(2, None, False, True,  "n-1", "none",       "max", _F,            _S),
    Integration.M3D:             SchemeRules(2, 2,    False, False, "0",   "none",       "max", (Facing.F2B,), _NO_S),
    Integration.MCM:             SchemeRules(2, None, True,  False, "0",   "none",       "sum", _NO_F,         _NO_S),
    Integration.INFO_CHIP_FIRST: SchemeRules(2, None, True,  False, "0",   "rdl",        "sum", _NO_F,         _NO_S),
    Integration.INFO_CHIP_LAST:  SchemeRules(2, None, True,  False, "n",   "rdl",        "sum", _NO_F,         _NO_S),
    Integration.SI_INTERPOSER:   SchemeRules(2, None, True,  False, "n",   "interposer", "sum", _NO_F,         _NO_S),
}
# a plain attribute, so that reading it costs no hash and lookup
for _member in Integration:
    _member.rules = SCHEME_RULES[_member]


def _ranged(rule: str, surveyed: str | None = None, **field: Any) -> Any:
    """A dataclass field whose value must satisfy ``rule`` (``"> 0"``, ``">= 1"``, ``"(0, 1]"``; for a
    list, each entry) and warns outside the survey range ``SURVEYED[surveyed]``.  Its ``bounds`` are
    closed: an open end becomes the nearest float inside it, so that ``low <= v <= high`` checks any rule."""
    interval = rule[0] in "(["
    low, high = (float(x) for x in (rule[1:-1].split(",") if interval else (rule.split()[1], "inf")))
    if rule[0] == "(" or rule[:2] == "> ":
        low = math.nextafter(low, math.inf)
    if rule[-1] == ")":
        high = math.nextafter(high, -math.inf)
    message = f"must be in {rule}" if interval else f"must be {rule}"
    bounds = (low, high, message, surveyed and SURVEYED[surveyed])
    return dataclasses.field(metadata={"range": rule, "surveyed": surveyed, "bounds": bounds}, **field)


@dataclass(frozen=True)
class TechnologyProfile:
    """Per-node fab parameters (canonical units, see module docstring)."""

    node_name: str
    feature_size_cm: float = _ranged("> 0")                     # lambda
    gate_area_scaling: float = _ranged("> 0")                   # beta; beta * lambda^2 = average area per gate
    epa_feol: float = _ranged(">= 0", "epa_feol")               # kWh/cm^2
    epa_mol: float = _ranged(">= 0", "epa_mol")                 # kWh/cm^2
    epa_beol_per_layer: tuple[float, ...] = _ranged(">= 0", "epa_beol_layer")  # kWh/cm^2, index 0 = metal 1
    max_beol_layers: int = _ranged(">= 1")
    gpa: float = _ranged(">= 0", "gpa")                         # kg CO2/cm^2 direct fab gases
    mpa: float = _ranged(">= 0")                                # kg CO2/cm^2 material procurement
    defect_density_d0: float = _ranged(">= 0")                  # defects/cm^2
    cluster_alpha: float = _ranged("> 0")                       # negative-binomial clustering
    tsv_pitch_cm: float = _ranged("> 0", "tsv_pitch_cm")        # via dimension
    io_overhead_ratio: float = _ranged("[0, 1]", default=0.1)   # gamma_IO


@dataclass(frozen=True)
class FabEnvironment:
    """Fab and use-phase carbon intensities and the wafer size."""

    ci_fab: float = _ranged(">= 0", "carbon_intensity")         # kg CO2/kWh
    ci_use: float = _ranged(">= 0", "carbon_intensity")
    ci_bonding: float = _ranged(">= 0", "carbon_intensity")
    wafer_diameter_cm: float = _ranged("> 0")

    @property
    def wafer_area(self) -> float:
        return math.pi * (self.wafer_diameter_cm / 2.0) ** 2


@dataclass(frozen=True, order=True)   # ordered by field values: the 2D baseline picks a wiring by value, not position
class WiringParameters:
    """Rent's-rule and routing parameters used for TSV and BEOL estimation."""

    rent_k: float = _ranged("> 0")                              # terminals per gate coefficient
    rent_p: float = _ranged("(0, 1)")                           # Rent exponent
    fanout: float = _ranged("> 0")                              # average fanout (f.o.)
    wire_pitch_cm: float = _ranged("> 0")                       # omega
    utilization: float = _ranged("(0, 1]")                      # eta
    rent_alpha: float = _ranged("> 0", default=1.0)             # terminal-to-connection factor


@dataclass(frozen=True)
class BondingProfile:
    """Bonding energies and carbon per area, and the bond, RDL and interposer yields."""

    epa_d2w: float = _ranged(">= 0", "epa_bonding")             # kWh/cm^2 per bonding wafer pass
    epa_w2w: float = _ranged(">= 0", "epa_bonding")
    cpa_bonding: float = _ranged(">= 0")                        # kg CO2/cm^2, chip-last InFO bonding
    cpa_rdl: float = _ranged(">= 0")                            # kg CO2/cm^2, RDL substrate build-up
    bond_yield: float = _ranged("(0, 1]")                       # standalone per-interface yield
    rdl_yield: float = _ranged("(0, 1]")
    interposer_yield: float | None = _ranged("(0, 1]", default=None)  # None: derived from interposer area


@dataclass(frozen=True)
class PackagingProfile:
    """Package carbon per area and the package and substrate area scale factors."""

    cpa_packaging: float = _ranged(">= 0")                      # kg CO2/cm^2 (package technology specific)
    s_package_3d: float = _ranged(">= 1")                       # times max stacked die area
    s_package_25d: float = _ranged(">= 1")                      # times total die area
    s_substrate_25d: float = _ranged(">= 1")                    # times total die area (RDL / interposer)


@dataclass(frozen=True)
class UsageProfile:
    """Application and lifetime hours, power or energy, and the per-task delay."""

    t_app_hours: float = _ranged("> 0")                         # application run-time
    t_exe_hours: float                                          # overall execution lifetime
    power_density: float | None = _ranged(">= 0", default=None)         # W/cm^2 over active logic area
    energy_override_kwh: float | None = _ranged(">= 0", default=None)
    delay_s: float = _ranged("> 0", default=1.0)                # per-task delay for CDP/tCDP metrics


@dataclass(frozen=True)
class DieSpec:
    """One die: its node and wiring, and a gate count or an explicit area."""

    technology: TechnologyProfile
    wiring: WiringParameters
    gate_count: float | None = _ranged("> 0", default=None)
    explicit_area: float | None = _ranged("> 0", default=None)  # cm^2, overrides computed gate area
    explicit_beol: int | None = None        # bypasses BEOL estimation


@dataclass(frozen=True)
class DesignSpec:
    """An integration scheme with its facing, stacking and dies (top first)."""

    integration: Integration
    facing: Facing
    stacking: Stacking
    dies: tuple[DieSpec, ...]
    signal_count_f2f: int = _ranged(">= 0", default=0)          # X_signal, package-bound signals for F2F


@dataclass(frozen=True)
class ProcessProfiles:
    """Bonding/packaging characterization plus the 2.5D interposer process."""

    bonding: BondingProfile
    packaging: PackagingProfile
    interposer_technology: TechnologyProfile
    interposer_beol_layers: int


@dataclass(frozen=True)
class Scenario:
    """Everything one full-pipeline evaluation needs; the usage is the scenario's, as in the document.

    ``registry`` holds the fixtures the scenario was loaded from (bundled
    for one built in code), ``technology_overrides`` the document's resolved
    override of each node it names (read-only; empty for one built in code),
    so that a node chosen later, by a sweep or a switching-point search,
    resolves as the document's dies do (see ``resolve_node``).
    """

    design: DesignSpec
    profiles: ProcessProfiles
    environment: FabEnvironment
    usage: UsageProfile
    gamma: float = 1.0
    technology_overrides: Mapping[str, TechnologyProfile] = dataclasses.field(
        default_factory=lambda: MappingProxyType({}), hash=False)
    registry: FixtureRegistry = dataclasses.field(
        default_factory=lambda: FixtureRegistry.bundled(), compare=False, repr=False)


# ---------------------------------------------------------------------------
# Fixture registry
# ---------------------------------------------------------------------------

FIXTURES_ENV_VAR = "CARBON3D_FIXTURES"
_BUNDLED_DIR = Path(__file__).resolve().parent / "fixtures"


# fixture file (relative to the root) -> (its bytes, what was built from them, the warnings building it raised).
# Process-wide, one entry per file: it holds parsed inputs, never model results.
_BUILT: dict[str, tuple[bytes, Any, tuple]] = {}


def _built(root: str, file: str, path: str, build: Callable[[dict], Any]) -> Any:
    """What ``build`` makes from the JSON object in fixture ``file`` under ``root``, which is read on
    every call but parsed and validated again only when its bytes differ from the last build's; the
    build's warnings are raised on every call.  An unreadable or malformed file raises on ``path``."""
    try:
        with open(os.path.join(root, file), "rb") as f:
            data = f.read()
    except OSError as exc:
        raise ValidationError(path, f"cannot read the fixture file: {exc.strerror or exc}") from exc
    entry = _BUILT.get(file)
    if entry is None or entry[0] != data:
        try:
            doc = json.loads(data.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValidationError(path, f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise MissingField(path, "expected an object")
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                built = build(doc)
        except Exception:
            _warn_again(caught)  # the warnings a failed build raised come before its error
            raise
        entry = _BUILT[file] = (data, built, tuple(caught))
    _warn_again(entry[2])
    return entry[1]


def _warn_again(caught) -> None:
    # the validators' warnings point (stacklevel) at frames of this module
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, module=__name__)


class FixtureRegistry:
    """Filesystem-backed registry of per-node and shared fixture profiles.

    A registry reads each fixture file, and lists the ``nodes`` directory,
    at most once and pins them for its lifetime; later calls return the
    same frozen object.  A node file's technology and ``wiring`` are one
    fixture, built and validated together.  A node name must name a file in
    that listing before any path is built from it.  Edits to the fixture
    files take effect with the next registry (in the CLI, the next command).
    Failures are not cached.  A file is parsed and validated only when its
    bytes differ from those it was last built from in this process; its
    warnings are raised again.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self._dir = str(self.root)     # the read path joins strings, not Paths
        if not os.path.isdir(os.path.join(self._dir, "nodes")):
            raise FileNotFoundError(f"no 'nodes' directory under {self.root}")
        self._cache: dict[str, Any] = {}   # fixture file -> what was built from it; a failure leaves no entry
        self._node_files: frozenset[str] | None = None

    @classmethod
    def bundled(cls) -> "FixtureRegistry":
        """Bundled fixtures, or the directory named by $CARBON3D_FIXTURES."""
        override = os.environ.get(FIXTURES_ENV_VAR)
        return cls(override) if override else cls(_BUNDLED_DIR)

    def _listing(self) -> frozenset[str]:
        # the names of the node files, listed once per registry
        if self._node_files is None:
            self._node_files = frozenset(n for n in os.listdir(os.path.join(self._dir, "nodes")) if n.endswith(".json"))
        return self._node_files

    def node_names(self) -> list[str]:
        """The node names, sorted numerically where possible: 3nm before 28nm."""
        def key(n: str):
            digits = "".join(ch for ch in n if ch.isdigit())
            return (int(digits) if digits else 1 << 30, n)
        return sorted((file[:-5] for file in self._listing()), key=key)

    def _node(self, node_name: str, path: str) -> tuple[TechnologyProfile, WiringParameters]:
        file = f"nodes/{node_name}.json"
        node = self._cache.get(file)
        if node is None:
            if f"{node_name}.json" not in self._listing():  # no path from an unchecked name
                raise UnknownNode(path, node_name, self.node_names())
            where = f"fixtures/nodes/{node_name}"
            node = self._cache[file] = _built(self._dir, file, where, lambda doc: (
                _profile(TechnologyProfile, None, {k: v for k, v in doc.items() if k != "wiring"}, where, node_name=node_name),
                _profile(WiringParameters, None, doc.get("wiring", {}), f"{where}.wiring")))
        return node

    def technology(self, node_name: str, path: str = "technology") -> TechnologyProfile:
        """The node's fixture profile; an unknown node is an error on ``path``."""
        return self._node(node_name, path)[0]

    def default_wiring(self, node_name: str) -> WiringParameters:
        return self._node(node_name, "technology")[1]

    def _shared(self, cls: type, stem: str) -> Any:
        file = f"{stem}.json"
        profile = self._cache.get(file)
        if profile is None:
            if not os.path.isfile(os.path.join(self._dir, file)):
                raise MissingField(f"fixtures/{file}", "fixture file not found")
            where = f"fixtures/{stem}"
            profile = self._cache[file] = _built(self._dir, file, where, lambda doc: _profile(cls, None, doc, where))
        return profile

    def bonding(self) -> BondingProfile:
        return self._shared(BondingProfile, "bonding")

    def packaging(self) -> PackagingProfile:
        return self._shared(PackagingProfile, "packaging")

    def environment(self) -> FabEnvironment:
        return self._shared(FabEnvironment, "environment")


# ---------------------------------------------------------------------------
# Document parsing helpers
# ---------------------------------------------------------------------------

def _require(doc: dict, key: str, path: str) -> Any:
    if key not in doc or doc[key] is None:
        raise MissingField(f"{path}.{key}" if path else key, "required field missing")
    return doc[key]


def _section(doc: dict, key: str, path: str) -> dict:
    """An optional object under ``key``; absent or null reads as empty."""
    value = doc.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise OutOfRange(path, "expected an object")
    return value


def _known_keys(doc: dict, known: Container[str], path: str):
    """Reject a key of ``doc`` that is not in ``known``; keys starting with ``_`` are comments."""
    for key in doc:
        if key not in known and not str(key).startswith("_"):
            raise OutOfRange(f"{path}.{key}" if path else str(key), "unknown field")


def _num(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise OutOfRange(path, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int too large for a float
        raise OutOfRange(path, f"must be finite, got {value!r}")
    return float(value)


def _int(value: Any, path: str) -> int:
    """A finite integer; an integral float (``5.0``, ``1e3``) counts as one."""
    if not _num(value, path).is_integer():
        raise OutOfRange(path, f"expected an integer, got {value!r}")
    return int(value)


def _floats(value: Any, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise OutOfRange(path, "expected a list of numbers")
    return tuple(_num(v, f"{path}[{i}]") for i, v in enumerate(value))


def _optional(parse: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    def parse_optional(value: Any, path: str) -> Any:
        return None if value is None else parse(value, path)
    return parse_optional


def _enum(value: Any, enum_cls, path: str):
    try:
        return enum_cls(value)
    except ValueError:
        allowed = ", ".join(m.value for m in enum_cls)
        raise OutOfRange(path, f"{value!r} is not one of: {allowed}") from None


# ---------------------------------------------------------------------------
# Validation (hard invariants raise; surveyed ranges warn)
# ---------------------------------------------------------------------------

def _check(cond: bool, path: str, message: str):
    if not cond:
        raise OutOfRange(path, message)


def _warn_surveyed(value: float, bounds: tuple[float, float], path: str):
    warnings.warn(
        f"{path}={value:g} is outside the surveyed range [{bounds[0]:g}, {bounds[1]:g}]",
        CarbonModelWarning,
        stacklevel=3,
    )


def validate_gamma(gamma: float, path: str = "gamma") -> float:
    """The embodied-vs-operational weight as a float; must be finite and >= 0."""
    value = _num(gamma, path)
    _check(value >= 0, path, "must be >= 0")
    return value


def check_die_count(integration: Integration, n: int, path: str):
    """A die count in [1, MAX_DIES] that the scheme's SCHEME_RULES row admits; any other
    is an error on ``path``.  Callers that split a design check it before the split."""
    if not 1 <= n <= MAX_DIES:  # a split makes one die object each
        raise OutOfRange(path, f"must be in [1, {MAX_DIES}]")
    rules = integration.rules
    if not rules.admits(n):
        lo, hi = rules.min_dies, rules.max_dies
        count = f"exactly {lo}" if hi == lo else f">= {lo}" if hi is None else f"{lo} to {hi}"
        raise InvalidCombination(path, f"{integration.value} requires {count} dies, got {n}")


def validate_design(design: DesignSpec):
    """Enforce the rules of a design that span its fields and dies.

    These are the integration/facing/stacking/die-count compatibility
    rules, the M3D node, and each die's size and BEOL count against its
    node.  Each profile's and spec's own fields are checked once where it is
    made (``validate_profile``: the registry, the loader,
    ``explorer.apply_parameter``, ``explorer.build_design``), not again here.
    """
    n = len(design.dies)
    integ = design.integration
    rules = integ.rules
    check_die_count(integ, n, "design.dies")
    if design.facing not in rules.facings:
        raise InvalidCombination("design.facing", f"{integ.value} does not allow facing {design.facing.value}")
    if design.stacking not in rules.stackings:
        raise InvalidCombination("design.stacking", f"{integ.value} does not allow stacking {design.stacking.value}")
    if design.facing is Facing.F2F and n != 2:
        raise InvalidCombination("design.facing", f"f2f stacking supports exactly 2 dies, got {n}")
    if integ is Integration.M3D and len({d.technology.node_name for d in design.dies}) != 1:
        raise InvalidCombination("design.dies", "m3d tiers share one wafer and must use one node")
    for i, die in enumerate(design.dies):
        if die.gate_count is None and die.explicit_area is None:
            raise MissingField(f"design.dies[{i}].gate_count", "need gate_count or explicit_area")
        if die.explicit_beol is not None:
            t = die.technology
            _check_beol_count(die.explicit_beol, t, t.node_name, f"design.dies[{i}].explicit_beol")


def _check_beol_count(layers: int, tech: TechnologyProfile, node: str, path: str):
    _check(1 <= layers <= tech.max_beol_layers, path, f"must be in [1, {tech.max_beol_layers}] for {node}")


def _technology_rules(tech: TechnologyProfile, path: str):
    _check(len(tech.epa_beol_per_layer) >= tech.max_beol_layers, f"{path}.epa_beol_per_layer",
           f"needs at least max_beol_layers={tech.max_beol_layers} entries")


def _usage_rules(usage: UsageProfile, path: str):
    if not usage.t_exe_hours >= usage.t_app_hours:
        raise OutOfRange(f"{path}.t_exe_hours", "must be >= t_app_hours")
    if usage.power_density is None and usage.energy_override_kwh is None:
        raise MissingField(f"{path}.power_density", "one of power_density / energy_override_kwh is required")
    if usage.power_density is not None and usage.energy_override_kwh is not None:
        raise InvalidCombination(path, "give exactly one of power_density / energy_override_kwh")
    years, surveyed = usage.t_exe_hours / HOURS_PER_YEAR, SURVEYED["t_exe_years"]
    if not surveyed[0] <= years <= surveyed[1]:
        _warn_surveyed(years, surveyed, f"{path}.t_exe_hours (years)")


# ---------------------------------------------------------------------------
# Profile builder: one parser per declared field type
# ---------------------------------------------------------------------------

# Annotations are strings here (``from __future__ import annotations``).
# Fields of any other type are not read from documents.
_FIELD_PARSERS = {
    "float": _num,
    "float | None": _optional(_num),
    "int": _int,
    "int | None": _optional(_int),
    "tuple[float, ...]": _floats,
}

# class -> {document-settable field: (parser, required)}
_FIELDS = {
    cls: {
        f.name: (_FIELD_PARSERS[f.type], f.default is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
        if f.type in _FIELD_PARSERS
    }
    for cls in (TechnologyProfile, WiringParameters, BondingProfile, PackagingProfile,
                FabEnvironment, UsageProfile, DieSpec, DesignSpec)
}

# class -> (field, low, high, message, surveyed range or None) for each ranged field, in field order
_RANGES = {cls: tuple((f.name, *f.metadata["bounds"]) for f in dataclasses.fields(cls) if f.metadata) for cls in _FIELDS}

# the rules that span fields, checked after the fields' own ranges
_CROSS_FIELD_RULES = {TechnologyProfile: _technology_rules, UsageProfile: _usage_rules}


def validate_profile(profile: Any, path: str):
    """Check a profile or spec against the ranges its fields declare (``_ranged``), in
    field order: a value outside raises OutOfRange on ``<path>.<field>``, and one outside
    its surveyed range warns.  Then the class's rules that span fields, if it has any."""
    for name, low, high, message, surveyed in _RANGES[type(profile)]:
        value = getattr(profile, name)
        if value is None:
            continue
        if type(value) is tuple:  # a list's range and survey hold for each entry
            if not all(low <= v <= high for v in value):
                raise OutOfRange(f"{path}.{name}", f"entries {message}")
            for i, v in enumerate(value if surveyed else ()):
                if not surveyed[0] <= v <= surveyed[1]:
                    _warn_surveyed(v, surveyed, f"{path}.{name}[{i}]")
        elif not low <= value <= high:
            raise OutOfRange(f"{path}.{name}", message)
        elif surveyed and not surveyed[0] <= value <= surveyed[1]:
            _warn_surveyed(value, surveyed, f"{path}.{name}")
    rules = _CROSS_FIELD_RULES.get(type(profile))
    if rules is not None:
        rules(profile, path)


def _profile(cls: type, base: Any, patch: Any, path: str, **fixed: Any) -> Any:
    """Build a ``cls`` profile from a document object, or patch ``base`` with it.

    Each key is parsed by the declared type of its field and named
    ``<path>.<key>`` in errors; a key ``cls`` has no field for is an error,
    and keys starting with ``_`` are comments.  With a ``base``, only the
    given keys are replaced (a null or empty patch returns ``base``);
    without one, absent required fields raise MissingField.  ``fixed``
    supplies fields that do not come from the document.  The result is
    validated once, on ``path``.
    """
    if patch is None and base is not None:
        return base
    if not isinstance(patch, dict):
        raise OutOfRange(path, "expected an object")
    fields = _FIELDS[cls]
    _known_keys(patch, fields, path)
    values = fixed
    for key, value in patch.items():
        if key in fields:  # the other keys are comments
            where = f"{path}.{key}"
            parse, required = fields[key]
            if value is None and required:
                raise MissingField(where, "required field missing")
            values[key] = parse(value, where)
    if base is not None:
        if not values:
            return base
        profile = dataclasses.replace(base, **values)
    else:
        for name, (_, required) in fields.items():
            if required and name not in values:
                raise MissingField(f"{path}.{name}", "required field missing")
        profile = cls(**values)
    validate_profile(profile, path)
    return profile


# ---------------------------------------------------------------------------
# Document loading
# ---------------------------------------------------------------------------

def resolve_node(
    node: str, overrides: Mapping[str, TechnologyProfile], registry: FixtureRegistry, path: str
) -> tuple[TechnologyProfile, WiringParameters]:
    """``node``'s technology under a document (its resolved override if it has one, else its
    fixture's) and its fixture's wiring.  An unknown node is an error on ``path``."""
    fixture = registry.technology(node, path)  # also refuses a node the registry lacks, on ``path``
    return overrides.get(node, fixture), registry.default_wiring(node)


_EARLY_DESIGN_KEYS = ("gate_count_2d", "n_dies", "technology", "area_ratios")


def _expand_dies(design_doc: dict, integration: Integration, path: str) -> list[dict]:
    """Normalize the two input styles to a per-die list of raw objects.

    Style A: explicit ``dies`` list.  Style B (early design): a total
    ``gate_count_2d`` with ``n_dies`` and one ``technology``, split evenly
    or by ``area_ratios``; its total and its die count are errors on those keys.
    The two styles exclude each other.
    """
    if "dies" in design_doc:
        if mixed := [key for key in _EARLY_DESIGN_KEYS if key in design_doc]:
            raise InvalidCombination(f"{path}.{mixed[0]}", "not allowed with dies: the two die styles exclude each other")
        dies = design_doc["dies"]
        if not isinstance(dies, list) or not dies:
            raise MissingField(f"{path}.dies", "expected a non-empty list of die objects")
        return [d if isinstance(d, dict) else _bad_die(i, path) for i, d in enumerate(dies)]

    total = _num(_require(design_doc, "gate_count_2d", path), f"{path}.gate_count_2d")
    _check(total > 0, f"{path}.gate_count_2d", "must be > 0")
    n = _int(_require(design_doc, "n_dies", path), f"{path}.n_dies")
    check_die_count(integration, n, f"{path}.n_dies")
    node = _require(design_doc, "technology", path)
    ratios = design_doc.get("area_ratios")
    weights = [1.0] * n if ratios is None else _floats(ratios, f"{path}.area_ratios")
    if len(weights) != n:
        raise OutOfRange(f"{path}.area_ratios", f"expected {n} entries, got {len(weights)}")
    if any(w <= 0 for w in weights):
        raise OutOfRange(f"{path}.area_ratios", "ratios must be > 0")
    total_w = left_sum(weights)
    return [{"technology": node, "gate_count": total * w / total_w} for w in weights]


def _bad_die(i: int, path: str):
    raise OutOfRange(f"{path}.dies[{i}]", "expected an object")


_DESIGN_KEYS = ("integration", "facing", "stacking", "signal_count_f2f", "dies", *_EARLY_DESIGN_KEYS,
                "bonding", "packaging", "interposer")


def _design(design_doc: dict, overrides: Mapping, registry: FixtureRegistry) -> DesignSpec:
    """The validated DesignSpec, with defaults applied (facing/stacking, X_signal=0, fixture wiring)."""
    integration = _enum(_require(design_doc, "integration", "design"), Integration, "design.integration")
    dies: list[DieSpec] = []
    for i, raw in enumerate(_expand_dies(design_doc, integration, "design")):
        dpath = f"design.dies[{i}]"
        node = str(_require(raw, "technology", dpath))
        # an early-design split takes its one node from design.technology
        node_path = f"{dpath}.technology" if "dies" in design_doc else "design.technology"
        tech, wiring = resolve_node(node, overrides, registry, node_path)
        wiring = _profile(WiringParameters, wiring, raw.get("wiring"), f"{dpath}.wiring")
        # the die object also holds its technology and wiring, read above
        sizes = {k: v for k, v in raw.items() if k not in ("technology", "wiring")}
        dies.append(_profile(DieSpec, None, sizes, dpath, technology=tech, wiring=wiring))

    rules, facing, stacking = integration.rules, design_doc.get("facing"), design_doc.get("stacking")
    design = _profile(
        DesignSpec, None, {"signal_count_f2f": design_doc.get("signal_count_f2f", 0)}, "design",
        integration=integration,
        facing=rules.default_facing(len(dies)) if facing is None else _enum(facing, Facing, "design.facing"),
        stacking=rules.default_stacking if stacking is None else _enum(stacking, Stacking, "design.stacking"),
        dies=tuple(dies),
    )
    validate_design(design)
    return design


def _process_profiles(design_doc: dict, overrides: Mapping, registry: FixtureRegistry) -> ProcessProfiles:
    bonding = _profile(BondingProfile, registry.bonding(), design_doc.get("bonding"), "design.bonding")
    packaging = _profile(PackagingProfile, registry.packaging(), design_doc.get("packaging"), "design.packaging")

    # always resolve an interposer process so DSE variants can switch to
    # si_interposer even when the base design uses another integration
    interposer_doc = _section(design_doc, "interposer", "design.interposer")
    _known_keys(interposer_doc, ("technology", "beol_layers"), "design.interposer")
    node = str(interposer_doc.get("technology", "28nm"))
    interposer_tech, _ = resolve_node(node, overrides, registry, "design.interposer.technology")
    interposer_layers = _int(interposer_doc.get("beol_layers", 4), "design.interposer.beol_layers")
    _check_beol_count(interposer_layers, interposer_tech, node, "design.interposer.beol_layers")
    return ProcessProfiles(bonding, packaging, interposer_technology=interposer_tech,
                           interposer_beol_layers=interposer_layers)


def load_scenario(
    source: dict | str | Path,
    registry: FixtureRegistry | None = None,
    gamma: float = 1.0,
) -> Scenario:
    """Load and validate a full evaluation scenario from a dict or a JSON file path.

    ``technology_overrides`` is read here, once: each entry is resolved over
    its node's fixture and validated (also for a node nothing uses), and the
    scenario keeps them.  Any violation raises MissingField /
    InvalidCombination / OutOfRange naming the offending document path.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as f:
                document = json.load(f)
        except OSError as exc:
            raise ValidationError(str(source), f"cannot read the config file: {exc.strerror or exc}") from exc
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValidationError(str(source), f"not valid JSON: {exc}") from exc
    else:
        document = source
    if not isinstance(document, dict):
        raise MissingField("<root>", "config document must be a JSON object")
    _known_keys(document, ("design", "technology_overrides", "environment", "usage"), "")
    registry = registry or FixtureRegistry.bundled()
    design_doc = _require(document, "design", "")
    if not isinstance(design_doc, dict):
        raise MissingField("design", "expected an object")
    _known_keys(design_doc, _DESIGN_KEYS, "design")
    overrides = {}
    for node, patch in _section(document, "technology_overrides", "technology_overrides").items():
        path = f"technology_overrides.{node}"
        overrides[node] = _profile(TechnologyProfile, registry.technology(node, path), patch, path)
    return Scenario(
        design=_design(design_doc, overrides, registry),
        profiles=_process_profiles(design_doc, overrides, registry),
        environment=_profile(FabEnvironment, registry.environment(), document.get("environment"), "environment"),
        usage=_profile(UsageProfile, None, _require(document, "usage", ""), "usage"),
        gamma=validate_gamma(gamma),
        technology_overrides=MappingProxyType(overrides),
        registry=registry,
    )


def design_to_document(scenario: Scenario) -> dict:
    """Serialize a resolved scenario back into the config-document schema.

    Emits fully-resolved values (every die, interposer and override profile
    inlined as technology_overrides) so that reloading reproduces a
    structurally identical scenario even if the fixture files change
    underneath.  The scenario's gamma is not part of the schema.
    """
    design, profiles = scenario.design, scenario.profiles
    overrides: dict[str, dict] = {}
    for tech in (*scenario.technology_overrides.values(), *(d.technology for d in design.dies),
                 profiles.interposer_technology):
        fields = _fields_of(tech)
        del fields["node_name"]
        fields["epa_beol_per_layer"] = list(tech.epa_beol_per_layer)
        overrides[tech.node_name] = fields
    dies = []
    for die in design.dies:
        entry = {"technology": die.technology.node_name, "wiring": _fields_of(die.wiring)}
        for key in ("gate_count", "explicit_area", "explicit_beol"):  # the sizes the die sets
            if getattr(die, key) is not None:
                entry[key] = getattr(die, key)
        dies.append(entry)

    design_doc: dict[str, Any] = {
        "integration": design.integration.value,
        "facing": design.facing.value,
        "stacking": design.stacking.value,
        "signal_count_f2f": design.signal_count_f2f,
        "dies": dies,
        "bonding": _fields_of(profiles.bonding),
        "packaging": _fields_of(profiles.packaging),
        "interposer": {
            "technology": profiles.interposer_technology.node_name,
            "beol_layers": profiles.interposer_beol_layers,
        },
    }
    usage = {k: v for k, v in _fields_of(scenario.usage).items() if v is not None}
    return {
        "design": design_doc,
        "technology_overrides": overrides,
        "environment": _fields_of(scenario.environment),
        "usage": usage,
    }


def _fields_of(profile) -> dict:
    """A flat profile's fields by name, in declaration order (``dataclasses.asdict`` without its deep copy)."""
    return {name: getattr(profile, name) for name in profile.__dataclass_fields__}
