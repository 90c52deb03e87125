"""Command-line front end: point estimates, sweeps, switching points, Pareto.

Exit codes: 0 success (possibly with warnings), 1 when standard output is
closed before the report is written, 2 validation failure with a
path-qualified message, 3 when --require-crossing is set and no crossing
exists.  Machine output is kg CO2e; human tables print grams.
Every command writes its output to a temp file and, only if it succeeds,
renames it onto --out (atomically) or copies it to stdout or to an --out
that is not a regular file (a FIFO or a device), which keeps its type.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import operator
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

from . import explorer
from .carbon import CarbonBreakdown, evaluate
from .errors import CarbonModelError, NoCrossing, OutOfRange, ValidationError
from .params import (
    MAX_DIES,
    FixtureRegistry,
    Integration,
    Scenario,
    Stacking,
    _check,
    _enum,
    check_die_count,
    design_to_document,
    load_scenario,
    resolve_node,
    validate_gamma,
)

SCHEMA_VERSION = "1"

# pareto's variants when --integrations is not given
PARETO_INTEGRATIONS = (Integration.MONO_2D, Integration.MICRO_3D, Integration.HYBRID_3D, Integration.M3D)

# every number a breakdown reports, in report order, with its unit: the CSV
# columns and rows, and the JSON report's "breakdown" (kg) and "metrics" sections
BREAKDOWN_UNITS = {
    "c_die": "kg", "c_bonding": "kg", "c_packaging": "kg", "c_substrate": "kg",
    "c_embodied_overall": "kg", "c_operational": "kg", "c_embodied_amortized": "kg", "c_total": "kg",
    "cdp": "kg*s", "cep": "kg*kWh", "tcdp": "kg*s",
}
_breakdown_values = operator.attrgetter(*BREAKDOWN_UNITS)
UNITS = {"gate_count": "gates", "area": "cm^2", "gamma": "1"}  # the other CSV columns that have a unit


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".9g")
    return str(x)


def _grams(kg: float) -> str:
    return f"{kg * 1000.0:,.1f}"


def _inputs_digest(scenario: Scenario) -> str:
    doc = design_to_document(scenario)
    doc["gamma"] = scenario.gamma
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return "sha256:" + hashlib.sha256(blob).hexdigest()


@contextlib.contextmanager
def _writing(path: str | None):
    """An OSError in the block becomes a ValidationError on --out naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise ValidationError("--out", f"cannot write {path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _output(path: str | None):
    """A temp file for a command's output that is renamed onto ``path`` (atomically), or copied to
    stdout or to a ``path`` that is not a regular file (a FIFO), only if the block succeeds, and
    otherwise removed.  A target that cannot be written is an error on --out; a directory is refused."""
    target = Path(path) if path else None
    with _writing(path):
        if target is not None:
            _check(not target.is_dir(), "--out", f"cannot write {path}: it is a directory")
            target.parent.mkdir(parents=True, exist_ok=True)
        rename = target is not None and (target.is_file() or not target.exists())  # both follow links
        fd, tmp = tempfile.mkstemp(suffix=".tmp", prefix=target.name if target else "carbon3d",
                                   dir=target.parent if rename else None)
    try:
        with os.fdopen(fd, "w+", encoding="utf-8", newline="") as f:
            yield f
            if not rename:
                f.seek(0)
                if target is None:
                    shutil.copyfileobj(f, sys.stdout)
                else:
                    with _writing(path), open(target, "w", encoding="utf-8", newline="") as dest:
                        shutil.copyfileobj(f, dest)
        if rename:
            with _writing(path):
                os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _csv_header(digest: str, columns: list[str], extra_meta: list[str] | None = None) -> str:
    lines = [f"# schema_version={SCHEMA_VERSION}", f"# inputs_digest={digest}"]
    unit_of = {**BREAKDOWN_UNITS, **UNITS}
    units = " ".join(f"{c}={unit_of[c]}" for c in columns if c in unit_of)
    if units:
        lines.append(f"# units: {units}")
    lines.extend(extra_meta or [])
    lines.append(",".join(columns))
    return "\n".join(lines) + "\n"


def _report_document(scenario: Scenario, breakdown: CarbonBreakdown, warning_list: list[str]) -> dict:
    values = dict(zip(BREAKDOWN_UNITS, _breakdown_values(breakdown)))
    metrics = {name: values.pop(name) for name, unit in BREAKDOWN_UNITS.items() if unit != "kg"}
    carbon = {"c_die_per_die": list(breakdown.c_die_per_die), **values,
              "operational_energy_kwh": breakdown.operational_energy_kwh}
    unit_of = {"c_die_per_die": "kg", "operational_energy_kwh": "kWh", **BREAKDOWN_UNITS}
    return {
        "schema_version": SCHEMA_VERSION,
        "inputs_digest": _inputs_digest(scenario),
        "gamma": scenario.gamma,
        "breakdown": carbon,
        "metrics": metrics,
        "units": {name: unit_of[name] for name in (*carbon, *metrics)},
        "warnings": warning_list,
    }


def _estimate_table(scenario: Scenario, breakdown: CarbonBreakdown, breakdown_per_die: bool) -> str:
    design = scenario.design
    lines = [
        f"Carbon estimate  [{design.integration.value}, {len(design.dies)} die(s), gamma={scenario.gamma:g}]",
        f"{'component':<28}{'g CO2e':>16}",
    ]
    if breakdown_per_die:
        for i, (die, c) in enumerate(zip(design.dies, breakdown.c_die_per_die)):
            lines.append(f"{f'die {i + 1} ({die.technology.node_name})':<28}{_grams(c):>16}")
    lines += [
        f"{'die total':<28}{_grams(breakdown.c_die):>16}",
        f"{'bonding':<28}{_grams(breakdown.c_bonding):>16}",
        f"{'packaging':<28}{_grams(breakdown.c_packaging):>16}",
        f"{'substrate':<28}{_grams(breakdown.c_substrate):>16}",
        f"{'embodied (overall)':<28}{_grams(breakdown.c_embodied_overall):>16}",
        f"{'embodied (amortized)':<28}{_grams(breakdown.c_embodied_amortized):>16}",
        f"{'operational':<28}{_grams(breakdown.c_operational):>16}",
        f"{'total':<28}{_grams(breakdown.c_total):>16}",
        "",
        f"metrics: CDP={breakdown.cdp:.6g} kg*s   CEP={breakdown.cep:.6g} kg*kWh   tCDP={breakdown.tcdp:.6g} kg*s",
    ]
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def _recorded_warnings():
    """Each distinct warning text raised in the block, once, in first-seen order (dict keys)."""
    texts: dict[str, None] = {}
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = lambda message, *_: texts.setdefault(str(message))
        yield texts


def _report_warnings(texts) -> list[str]:
    for text in texts:
        print(f"warning: {text}", file=sys.stderr)
    return list(texts)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_estimate(args) -> int:
    with _recorded_warnings() as rec:
        scenario = load_scenario(args.config, gamma=validate_gamma(args.gamma, "--gamma"))
        breakdown = evaluate(scenario)
    warning_list = _report_warnings(rec)

    with _output(args.out) as out:
        if args.format == "table":
            out.write(_estimate_table(scenario, breakdown, args.breakdown))
        elif args.format == "json":
            out.write(json.dumps(_report_document(scenario, breakdown, warning_list), indent=2) + "\n")
        else:
            rows = list(zip(BREAKDOWN_UNITS, _breakdown_values(breakdown), BREAKDOWN_UNITS.values()))
            if args.breakdown:
                rows = [(f"c_die[{i}]", c, "kg") for i, c in enumerate(breakdown.c_die_per_die)] + rows
            out.write(_csv_header(_inputs_digest(scenario), ["component", "value", "unit"]))
            out.writelines(f"{name},{_fmt(value)},{unit}\n" for name, value, unit in rows)
    return 0


def _parse_axis(text: str) -> explorer.SweepAxis:
    path, sep, raw = text.partition("=")
    if not sep or not raw:
        raise ValidationError("--axis", f"expected <path>=<v1,v2,...>, got {text!r}")
    path = path.strip()
    tokens = [token.strip() for token in raw.split(",")]
    if explorer._names_node(path):  # node names such as "7" stay as typed
        return explorer.SweepAxis(path, tokens)
    values = []
    for token in tokens:
        try:
            values.append(float(token))
        except ValueError:
            values.append(token)
    return explorer.SweepAxis(path, values)


def cmd_sweep(args) -> int:
    with _recorded_warnings() as rec:
        scenario = load_scenario(args.config, gamma=validate_gamma(args.gamma, "--gamma"))
        axes = [_parse_axis(a) for a in args.axis or []]
        rows = explorer.sweep(scenario, axes, baseline=args.baseline)
        columns = [a.parameter_path for a in axes] + list(BREAKDOWN_UNITS) + ["baseline_c_embodied_overall"] * args.baseline
        # one template per sweep: axis values through _fmt, every number as .9g; without
        # --baseline it has no baseline cell, and format ignores the extra None
        template = ",".join(["{}"] * len(axes) + ["{:.9g}"] * (len(columns) - len(axes))) + "\n"
        # each row is written as it arrives; the output appears only if every row succeeds
        with _output(args.out) as out:
            out.write(_csv_header(_inputs_digest(scenario), columns))
            brackets, previous = [], None
            for row in rows:
                out.write(template.format(*map(_fmt, row.values), *_breakdown_values(row.breakdown), row.baseline))
                if previous is not None and (bracket := explorer.crossing(previous, row)):
                    brackets.append(bracket)
                previous = row
            out.writelines(f"# sign_change between={_fmt(a)}:{_fmt(b)} direction={direction} "  # no axis sets the scheme
                           f"integration={scenario.design.integration.value}\n" for a, b, direction in brackets)
            _report_warnings(rec)
    return 0


def cmd_switch(args) -> int:
    integration = Integration(args.integration)
    check_die_count(integration, args.dies, "--dies")
    lo, hi = args.range
    explorer._check_range(lo, hi, "--range")
    with _recorded_warnings() as rec:
        scenario = load_scenario(args.config)
        # an unknown node is an error on the option, not on the library's parameter name
        resolve_node(args.node, scenario.technology_overrides, scenario.registry, "--node")
        point = explorer.switching_point(
            scenario, integration, args.node, args.dies, lo, hi, stacking=Stacking(args.stacking)
        )
    _report_warnings(rec)

    with _output(args.out) as out:
        out.write(_csv_header(_inputs_digest(scenario), ["integration", "node", "n_dies", "status", "gate_count", "area"]))
        out.write(",".join([
            point.integration, point.node, str(point.n_dies), point.status,
            _fmt(point.gate_count), _fmt(point.area_cm2),
        ]) + "\n")
        out.write(f"# switching_point value={_fmt(point.gate_count)} integration={point.integration}\n")

    if args.require_crossing and point.status != "crossing":
        raise NoCrossing(f"no crossing on [{lo:g}, {hi:g}] ({point.status})")
    return 0


def cmd_pareto(args) -> int:
    _check(1 <= args.dies <= MAX_DIES, "--dies", f"must be in [1, {MAX_DIES}]")
    with _recorded_warnings() as rec:
        scenario = load_scenario(args.config)
        texts = [g for g in args.gammas.split(",") if g.strip()]
        gammas = [validate_gamma(_number(g, "--gammas"), f"--gammas[{i}]") for i, g in enumerate(texts)]
        _check(bool(gammas), "--gammas", "needs at least one value")
        if args.integrations is None:  # the default variants that admit --dies
            variants = [i for i in PARETO_INTEGRATIONS if i.rules.admits(explorer._die_count(i, args.dies))]
        else:
            variants = [_enum(n.strip(), Integration, "--integrations") for n in args.integrations.split(",")]
        for integ in explorer._distinct(variants, "--integrations"):
            check_die_count(integ, explorer._die_count(integ, args.dies), "--dies")
        reference_tcdp, series = explorer.gamma_pareto(scenario, variants, args.dies, gammas)
    _report_warnings(rec)

    columns = ["gamma"] + [f"tcdp_norm_{name}" for name in series]
    meta = [f"# reference_tcdp={_fmt(reference_tcdp)} (kg*s at gamma=1)"]
    with _output(args.out) as out:
        out.write(_csv_header(_inputs_digest(scenario), columns, extra_meta=meta))
        out.writelines(",".join(map(_fmt, row)) + "\n" for row in zip(gammas, *series.values()))
    return 0


def cmd_fixtures(args) -> int:
    registry = FixtureRegistry.bundled()  # "list" is the one action
    print(f"{'node':<8}{'lambda(cm)':>12}{'beta':>8}{'EPA_FEOL':>10}{'maxBEOL':>9}{'D0':>7}{'alpha':>7}")
    for name in registry.node_names():
        t = registry.technology(name)
        print(
            f"{t.node_name:<8}{t.feature_size_cm:>12.2e}{t.gate_area_scaling:>8g}"
            f"{t.epa_feol:>10g}{t.max_beol_layers:>9d}{t.defect_density_d0:>7g}{t.cluster_alpha:>7g}"
        )
    print(f"\nfixture root: {registry.root}")
    return 0


def _number(text: str, path: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise OutOfRange(path, f"expected a number, got {text.strip()!r}") from None


def _range_pair(text: str) -> tuple[float, float]:
    try:
        lo, hi = map(float, text.split(":"))
    except ValueError:  # a part that is not a number, or not exactly two parts
        raise argparse.ArgumentTypeError(f"expected <lo>:<hi>, got {text!r}") from None
    return lo, hi


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    # no abbreviated options: removing or renaming an option must not rebind its prefix to
    # another one, as pareto's removed --gamma would have been read as --gammas
    parser = argparse.ArgumentParser(
        prog="carbon3d",
        description="Life-cycle carbon estimation and design-space exploration for 2D/2.5D/3D ICs.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def common(p, gamma=False):  # --gamma only for the commands whose results read it
        p.add_argument("-c", "--config", required=True, help="JSON design document")
        if gamma:
            p.add_argument("--gamma", type=float, default=1.0, help="embodied-vs-operational weight (default 1)")
        p.add_argument("--out", help="write the report here (atomic); default stdout")

    p = add_parser("estimate", help="full carbon breakdown for one design")
    common(p, gamma=True)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--breakdown", action="store_true", help="include per-die rows")
    p.set_defaults(func=cmd_estimate)

    p = add_parser("sweep", help="evaluate a cartesian parameter sweep")
    common(p, gamma=True)
    p.add_argument("--axis", action="append", metavar="PATH=V1,V2,...",
                   help="sweep axis; repeatable")
    p.add_argument("--baseline", action="store_true",
                   help="also evaluate the mono-2D equivalent per row")
    p.set_defaults(func=cmd_sweep)

    p = add_parser("switch", help="embodied-carbon switching point vs the 2D baseline")
    common(p)
    p.add_argument("--integration", required=True,
                   choices=[i.value for i in Integration if i is not Integration.MONO_2D])
    p.add_argument("--node", required=True)
    p.add_argument("--dies", type=int, default=2)
    p.add_argument("--stacking", choices=("d2w", "w2w"), default="d2w",
                   help="used where the scheme offers a choice (default d2w)")
    p.add_argument("--range", type=_range_pair, default=(1e6, 1e11),
                   help="gate-count search range <lo>:<hi> (default 1e6:1e11)")
    p.add_argument("--require-crossing", action="store_true",
                   help="exit 3 when the sign never changes on the range")
    p.set_defaults(func=cmd_switch)

    p = add_parser("pareto", help="normalized tCDP curves over a gamma grid")
    common(p)
    p.add_argument("--gammas", default="0,0.25,0.5,1,2,4")
    p.add_argument("--integrations", help="comma-separated variants to compare against the config design "
                   f"(default: those of {','.join(i.value for i in PARETO_INTEGRATIONS)} that --dies admits)")
    p.add_argument("--dies", type=int, default=2, help="die count for the built variants")
    p.set_defaults(func=cmd_pareto)

    p = add_parser("fixtures", help="inspect the bundled fixture registry")
    p.add_argument("fixtures_action", choices=("list",))
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NoCrossing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CarbonModelError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away: stdout goes to devnull so that its flush at exit raises
        # nothing (the recipe of the signal module's documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
