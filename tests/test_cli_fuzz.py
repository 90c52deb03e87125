"""CLI fuzzing: drawn command lines for ``sweep`` and ``switch``.

Each example builds an argv from valid and invalid pieces (axis paths,
axis tokens, repeated axes, ``--range`` pairs, ``--dies``, ``--node`` and
``--stacking``) and runs it through ``carbon3d.cli.main``.  The command
must exit 0 or 2 (3 too with ``--require-crossing``), or argparse must
reject the line with ``SystemExit(2)``; an exit of 2 leaves stdout empty.
A Python traceback fails the example.
"""

import contextlib
import io
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from carbon3d.cli import main
from carbon3d.params import Integration

CONFIGS = sorted(str(p) for p in (Path(__file__).resolve().parent.parent / "configs").glob("*.json"))

NODES = ["3nm", "5nm", "7nm", "14nm", "28nm", "7", "99nm", "../bonding", "", "7NM"]
NUMBERS = [
    "0", "-1", "1", "0.5", "0.9999", "1.5", "2", "1e-300", "5e-324", "1e6", "5e8", "1e9", "2.6e11", "1e12",
    "1e300", "1.7976931348623157e308", "1e400", "-1e400", "nan", "-nan", "inf", "-inf", "9" * 40, "0x10", "1_0",
]
TOKENS = st.sampled_from(NUMBERS + NODES + [" ", "f2f", "d2w", "true"]) | st.floats().map(repr) | st.text(max_size=4)

# each valid axis path with values it accepts, most of them inside the surveyed ranges
GOOD_AXES = {
    "gamma": ["0", "1", "2.5"], "technology": ["5nm", "7nm", "14nm"], "dies[*].technology": ["7nm", "28nm"],
    "dies[0].technology": ["3nm", "7nm"], "dies[1].technology": ["5nm"],
    "dies[*].gate_count": ["1e8", "5e8", "2e9", "2.6e11"], "dies[0].gate_count": ["1e9", "3e9"],
    "dies[1].gate_count": ["2e8"], "dies[*].explicit_area": ["0.5", "2"], "dies[*].explicit_beol": ["4", "8"],
    "dies[*].wiring.rent_p": ["0.55", "0.7"], "dies[0].wiring.utilization": ["0.6", "0.9"],
    "signal_count_f2f": ["0", "100"], "bonding.bond_yield": ["0.95", "0.99"], "bonding.epa_d2w": ["1.5"],
    "packaging.cpa_packaging": ["0.1", "0.2"], "environment.ci_fab": ["0.1", "0.5"],
    "environment.wafer_diameter_cm": ["20", "30"], "usage.power_density": ["5", "25"],
    "usage.t_exe_hours": ["26298", "50000"],
}
BAD_PATHS = [
    "", "dies", "dies[9].gate_count", "dies[-1].gate_count", "dies[x].gate_count", "dies[*].bogus",
    "usage", "usage.bogus", "technology_overrides.7nm.gpa", "integration", "facing", "gamma.x", "design.",
]


def _mostly(good, bad):
    """``good`` four times in five, else ``bad``: most lines get past the parser and run."""
    return st.integers(0, 4).flatmap(lambda i: good if i else bad)


@st.composite
def _axis(draw) -> str:
    path = draw(_mostly(st.sampled_from(sorted(GOOD_AXES)), st.sampled_from(BAD_PATHS) | st.text(max_size=6)))
    values = _mostly(st.sampled_from(GOOD_AXES.get(path, ["1"])), TOKENS)
    # the same parameter spelled another way: padded, or with the optional design. prefix
    spelled = draw(st.sampled_from([path, f" {path} ", f"design.{path}"]))
    return f"{spelled}={','.join(draw(_mostly(st.lists(values, min_size=1, max_size=3), st.just([]))))}"


@st.composite
def sweep_argv(draw) -> list[str]:
    argv = ["sweep", "-c", draw(st.sampled_from(CONFIGS))]
    axes = draw(st.lists(_axis(), max_size=3))
    if axes and draw(st.booleans()):  # repeat an axis, maybe as another spelling of its path
        axes.append(draw(st.sampled_from(axes)).replace("dies[*].technology", "technology", 1))
    for axis in axes:
        argv += ["--axis", axis]
    if draw(st.booleans()):
        argv.append("--baseline")
    if draw(st.booleans()):
        argv += ["--gamma", draw(_mostly(st.sampled_from(["0", "1", "3"]), TOKENS))]
    return argv


@st.composite
def switch_argv(draw) -> list[str]:
    integrations = st.sampled_from([i.value for i in Integration if i is not Integration.MONO_2D])
    nodes = st.sampled_from(["5nm", "7nm", "14nm"])
    argv = ["switch", "-c", draw(st.sampled_from(CONFIGS)),
            "--integration", draw(_mostly(integrations, st.sampled_from(["mono_2d", "hybrid", "bogus"]))),
            "--node", draw(_mostly(nodes, st.sampled_from(NODES)))]
    if draw(st.booleans()):
        dies = _mostly(st.sampled_from(["1", "2", "3", "4"]), st.sampled_from(["0", "-1", "1001", "9" * 30, "2.0", "x"]))
        argv += ["--dies", draw(dies)]
    if draw(st.booleans()):
        argv += ["--stacking", draw(_mostly(st.sampled_from(["d2w", "w2w"]), st.sampled_from(["f2f", ""])))]
    if draw(st.booleans()):
        # past 1e11 gates the larger dies leave the wafer, and the die count per wafer is clipped to 1
        bounds = st.sampled_from(["1e6", "1e7", "1e9", "1e11", "1e13"])
        sep = draw(_mostly(st.just(":"), st.sampled_from([",", ";"])))
        pair = _mostly(st.lists(bounds, min_size=2, max_size=2), st.lists(bounds | TOKENS, min_size=1, max_size=3))
        argv += ["--range", sep.join(draw(pair))]
    if draw(st.booleans()):
        argv.append("--require-crossing")
    return argv


def _run(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the line
            code = exc.code
    return code, stdout.getvalue()


FUZZ = settings(max_examples=400, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(argv=sweep_argv())
def test_sweep_exits_0_or_2(argv):
    code, out = _run(argv)
    assert code in (0, 2)
    assert code == 0 or out == ""


@FUZZ
@given(argv=switch_argv())
def test_switch_exits_0_2_or_3(argv):
    code, out = _run(argv)
    assert code in ((0, 2, 3) if "--require-crossing" in argv else (0, 2))
    assert code != 2 or out == ""
