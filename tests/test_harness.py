import json
import tempfile
import time
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tbrevival import (
    ConfigError, NoMirrorCloneError, RevivalFraction, autocorrelation, estimate_budget,
    evolve_exact, fractional_fidelity, inner_product, mirror_fidelity, parse_config, reflect,
    reproduce, resolve_center, revival_clock, run_scenario, run_sweep, trace,
)
from tbrevival.cli import build_parser, main as cli_main
from tbrevival.harness import (
    DenominatorGrid, PRESET_FIGURES, Scenario, SweepSpec, parse_sweep, revival_fraction,
)

GOOD_CONFIG = """\
[chain]
sites = 120
hopping = 1.0
[initial]
kind = gaussian
center = 20
half_width = 12
[time]
start = 0.0
stop = 0.5
points = 21
[metrics]
profiles_at = 0.25
[output]
prefix = demo
"""


def test_resolve_center_expressions():
    assert resolve_center("N/3", 500) == pytest.approx(167.0)
    assert resolve_center("N/3", 500, "literal") == pytest.approx(500 / 3)
    assert resolve_center("2N/3", 500) == pytest.approx(334.0)
    assert resolve_center("(N+1)/3", 500, "literal") == pytest.approx(167.0)
    assert resolve_center("125.25", 500) == pytest.approx(125.25)
    with pytest.raises(ValueError):
        resolve_center("banana", 500)
    with pytest.raises(ValueError, match="not finite"):
        resolve_center("inf", 500)
    with pytest.raises(ValueError, match="not finite"):  # a N / m past the float range
        resolve_center("1" + "0" * 400 + "N/3", 500)


@pytest.mark.parametrize(
    "build, fragment",
    [
        pytest.param(lambda: Scenario(sites=500, half_width=24.0).initial_state(),
                     r"needs one center, got center_exprs \(\)", id="no-center"),
        pytest.param(lambda: Scenario(sites=500, half_width=24.0, kind="bogus",
                                      center_exprs=("N/3", "2N/3")).initial_state(),
                     "kind 'bogus'", id="bogus-kind"),
        pytest.param(lambda: resolve_center("N/3", 500, "bogus"),
                     "convention 'bogus'", id="bogus-convention"),
        pytest.param(lambda: Scenario(sites=500, half_width=24.0, center_exprs=("N/3",),
                                      convention="bogus").initial_state(),
                     "convention 'bogus'", id="bogus-scenario-convention"),
    ],
)
def test_direct_scenario_input_fails_cleanly(build, fragment):
    with pytest.raises(ValueError, match=fragment):
        build()


_DIRECT = dict(sites=500, center_exprs=("50",), half_width=24.0)


@pytest.mark.parametrize(
    "fields, fragment",
    [
        pytest.param(dict(center_exprs=("50", "N/2")), "gaussian initial needs one center",
                     id="two-gaussian-centers"),
        pytest.param(dict(kind="superposition", center_exprs=()), "centers is empty",
                     id="superposition-without-centers"),
        pytest.param(dict(alpha=5.0), "exactly one of half_width or alpha", id="both-widths"),
        pytest.param(dict(half_width=None), "exactly one of half_width or alpha", id="no-width"),
        pytest.param(dict(weights=(1.0, 2.0, 3.0)), "weights must match", id="gaussian-weights"),
        pytest.param(dict(kind="superposition", center_exprs=("N/3", "2N/3"), weights=(1.0,)),
                     "weights must match", id="superposition-weights"),
        pytest.param(dict(time_start=0.0), "needs both start and stop", id="start-without-stop"),
        pytest.param(dict(time_stop=1.0, time_points=3), "needs both start and stop",
                     id="stop-without-start"),
        pytest.param(dict(time_start=0.5, time_stop=0.5, time_points=3),
                     r"stop 0\.5 is not after start 0\.5", id="stop-at-start"),
        pytest.param(dict(time_start=0.5, time_stop=0.2, time_denominator=10),
                     r"stop 0\.2 is not after start 0\.5", id="stop-before-start"),
        pytest.param(dict(time_start=0.0, time_stop=float("nan"), time_points=3),
                     "stop nan is not after start", id="stop-nan"),
        pytest.param(dict(time_start=0.0, time_stop=1.0), "needs points or denominator",
                     id="no-grid-size"),
        pytest.param(dict(time_points=3, time_denominator=10), "not both",
                     id="points-and-denominator"),
        pytest.param(dict(time_start=0.0, time_stop=1.0, time_points=0),
                     "points 0 is not a positive integer", id="zero-points"),
        pytest.param(dict(time_start=0.0, time_stop=1.0, time_points=-3),
                     "points -3 is not a positive integer", id="negative-points"),
        pytest.param(dict(time_points=0), "points 0 is not a positive integer",
                     id="zero-points-without-grid"),
        pytest.param(dict(time_start=0.0, time_stop=1.0, time_denominator=0),
                     "denominator 0 is not a positive integer", id="zero-denominator"),
        pytest.param(dict(time_start=0.0, time_stop=1.0, time_denominator=-3),
                     "denominator -3 is not a positive integer", id="negative-denominator"),
        # each value on its own, refused by name at construction
        pytest.param(dict(sites=0), "sites 0 is not an integer >= 2", id="zero-sites"),
        pytest.param(dict(half_width=-1.0), r"half_width -1\.0 is not positive",
                     id="negative-half-width"),
        pytest.param(dict(half_width=1e-320), "half_width must be .* give a finite alpha",
                     id="half-width-without-finite-alpha"),
        pytest.param(dict(hopping=0.0), r"hopping 0\.0 is not positive", id="zero-hopping"),
        pytest.param(dict(hopping=float("nan")), "hopping nan is not finite", id="nan-hopping"),
        pytest.param(dict(half_width=None, alpha=0.0), r"alpha 0\.0 is not positive",
                     id="zero-alpha"),
        pytest.param(dict(convention="bogus"), "convention 'bogus' is not one of plus-one, literal",
                     id="bogus-convention"),
        pytest.param(dict(center_exprs=("N/0",)), "center 'N/0' divides by zero",
                     id="center-divides-by-zero"),
        pytest.param(dict(fraction_cap=0), "fraction_cap 0 is not a positive integer",
                     id="zero-fraction-cap"),
        pytest.param(dict(profiles_at=(0.25, float("inf"))), "profiles_at inf is not finite",
                     id="infinite-profile"),
        # Python ints past the float range
        pytest.param(dict(hopping=10**400), "hopping 10{400} is not finite", id="int-hopping"),
        pytest.param(dict(half_width=10**400), "half_width 10{400} is not finite",
                     id="int-half-width"),
        pytest.param(dict(profiles_at=(0.5, 10**400)), "profiles_at 10{400} is not finite",
                     id="int-profile"),
        pytest.param(dict(kind="superposition", center_exprs=("10", "20"),
                          weights=(1.0, float("nan"))), "weights nan is not finite",
                     id="nan-weight"),
        pytest.param(dict(time_start=-float("inf"), time_stop=1.0, time_points=3),
                     "start -inf is not finite", id="infinite-start"),
        pytest.param(dict(time_start=0.0, time_stop=float("inf"), time_points=3),
                     "stop inf is not finite", id="infinite-stop"),
    ],
)
def test_direct_scenario_keeps_the_field_rules(fields, fragment):
    with pytest.raises(ValueError, match=fragment) as err:
        Scenario(**{**_DIRECT, **fields})
    assert not isinstance(err.value, ConfigError)  # no config is involved
    with pytest.raises(ValueError, match=fragment) as err:  # replace() builds anew
        replace(Scenario(**_DIRECT), **fields)
    assert not isinstance(err.value, ConfigError)


def test_gaussian_spec_of_a_superposition_is_a_plain_value_error():
    scenario = Scenario(sites=40, kind="superposition", center_exprs=("10", "20"), half_width=6.0)
    with pytest.raises(ValueError, match="needs a single-packet .* not a superposition") as err:
        scenario.gaussian_spec()
    assert not isinstance(err.value, ConfigError)  # no config is involved


def test_parse_config_happy_path():
    scenario = parse_config(GOOD_CONFIG)
    assert scenario.sites == 120
    assert scenario.kind == "gaussian"
    assert scenario.center_exprs == ("20",)
    assert scenario.half_width == 12.0
    assert scenario.time_points == 21
    assert scenario.profiles_at == (0.25,)
    assert scenario.prefix == "demo"


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("bogus = 1", "unknown key"),
        ("[weird]", "unknown section"),
        ("hopping = fast", "bad value"),
        ("hopping", "expected key = value"),
    ],
)
def test_parse_config_line_numbered_errors(mutation, fragment):
    text = GOOD_CONFIG.replace("hopping = 1.0", mutation)
    with pytest.raises(ConfigError, match=fragment) as err:
        parse_config(text)
    assert err.value.line == 3


@pytest.mark.parametrize(
    "line, replacement",
    [
        ("hopping = 1.0", "hopping = nan"),
        ("center = 20", "center = nan"),
        ("half_width = 12", "half_width = inf"),
        ("stop = 0.5", "stop = nan"),
        ("profiles_at = 0.25", "profiles_at = 0.25, inf"),
    ],
)
def test_non_finite_numbers_are_line_numbered_config_errors(tmp_path, line, replacement):
    text = GOOD_CONFIG.replace(line, replacement)
    with pytest.raises(ConfigError, match="not finite") as err:
        parse_config(text)
    assert err.value.line == GOOD_CONFIG.splitlines().index(line) + 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert cli_main(["trace", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "line, replacement, fragment",
    [
        ("center = 20", "center = N/0", "divides by zero"),
        ("points = 21", "denominator = 0", "not a positive integer"),
        ("points = 21", "points = -3", "not a positive integer"),
        ("points = 21", "points = 0", "not a positive integer"),
        ("profiles_at = 0.25", "fraction_cap = 0", "not a positive integer"),
        ("sites = 120", "sites = 1", "not an integer >= 2"),
        pytest.param("sites = 120", f"sites = {10**400}", "too large", id="sites-10**400"),
        # over the size bounds; rejected before anything is allocated
        ("sites = 120", "sites = 1000000000", "too large"),
        pytest.param("sites = 120", f"sites = {10**20}", "too large", id="sites-10**20"),
        ("sites = 120", f"sites = {2**22 + 1}", "too large"),
        ("points = 21", "points = 1000000000000", "time grid has over"),
        ("points = 21", f"points = {2**20 + 1}", "time grid has over"),
        pytest.param("points = 21", f"denominator = {10**400}", "time grid has over",
                     id="denominator-10**400"),
    ],
)
def test_out_of_range_integers_are_line_numbered_config_errors(
    tmp_path, line, replacement, fragment
):
    text = GOOD_CONFIG.replace(line, replacement)
    with pytest.raises(ConfigError, match=fragment) as err:
        parse_config(text)
    assert err.value.line == GOOD_CONFIG.splitlines().index(line) + 1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert cli_main(["trace", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "old, new, line, fragment",
    [
        ("hopping = 1.0", "hopping = 0", 3, "not positive"),
        ("hopping = 1.0", "hopping = 5e-324", 3, "not positive"),
        ("half_width = 12", "half_width = -2", 7, "not positive"),
        ("half_width = 12", "alpha = 0", 7, "not positive"),
        ("start = 0.0\nstop = 0.5", "start = 0.2\nstop = 0.1", 10, "not after start"),
        ("stop = 0.5\npoints = 21", "stop = -0.1\ndenominator = 40", 10, "not after start"),
        ("half_width = 12", "# comment\n\nhalf_width = -2", 9, "not positive"),
        ("[chain]", "hopping = 2.0\n[chain]", 1, "outside any"),
        ("stop = 0.5\n", "", 0, "needs both start and stop"),
        ("points = 21\n", "", 0, "needs points or denominator"),
        ("points = 21", "points = 21\ndenominator = 40", 0, "not both"),
        ("start = 0.0\nstop = 0.5\npoints = 21", "start = 1e300\nstop = 2e300\ndenominator = 840",
         11, "time grid has over"),
        ("start = 0.0\nstop = 0.5\npoints = 21",
         "start = 1e16\nstop = 1.0000000000000002e16\ndenominator = 1", 11, r"2\*\*53"),
        ("start = 0.0\nstop = 0.5\npoints = 21", "start = 1e19\nstop = 2e19\npoints = 3", 11,
         r"2\*\*53"),
        ("start = 0.0\nstop = 0.5", "start = -1e307\nstop = 0.0", 11, r"2\*\*53"),
        ("start = 0.0\nstop = 0.5", f"start = 0.0\nstop = {float(2**53)!r}", 11, r"2\*\*53"),
    ],
)
def test_out_of_range_floats_are_line_numbered_config_errors(tmp_path, old, new, line, fragment):
    text = GOOD_CONFIG.replace(old, new)
    with pytest.raises(ConfigError, match=fragment) as err:
        parse_config(text)
    assert err.value.line == line
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert cli_main(["trace", "--config", str(cfg), "--out", str(tmp_path)]) == 2


SWEEP_CONFIG = GOOD_CONFIG + "[sweep]\nvariable = half_width\nvalues = 8, 12\nfraction = 1/2\n"


@pytest.mark.parametrize(
    "old, new, line, fragment",
    [
        ("variable = half_width\nvalues = 8, 12", "variable = sites\nvalues = 1, 20", 18,
         "not an integer >= 2"),
        ("variable = half_width\nvalues = 8, 12", "variable = sites\nvalues = 20.5", 18,
         "invalid literal"),
        ("values = 8, 12", "values = -1, 8", 18, "not positive"),
        ("variable = half_width\nvalues = 8, 12", "variable = center\nvalues = 30, nan", 18,
         "not finite"),
        ("variable = half_width", "variable = bogus", 17, "not one of"),
        ("fraction = 1/2", "metric = bogus", 19, "not one of"),
        ("fraction = 1/2", "fraction = -1/2", 19, "numerator >= 0"),
        ("fraction = 1/2", "fraction = 1/0", 19, "not a fraction"),
        ("fraction = 1/2", "fraction = 1e-400", 19, "Gauss table"),
        ("fraction = 1/2", "fraction = 1e300", 19, r"2\*\*53 t_rev"),
        ("fraction = 1/2", "fraction = 1e-1000000", 19, "Gauss table"),
        ("[sweep]\nvariable = half_width\nvalues = 8, 12\nfraction = 1/2\n", "", 0,
         r"missing \[sweep\]"),
    ],
)
def test_sweep_config_errors_are_line_numbered(tmp_path, old, new, line, fragment):
    text = SWEEP_CONFIG.replace(old, new)
    with pytest.raises(ConfigError, match=fragment) as err:
        parse_sweep(text)
    assert err.value.line == line
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2


# A fuzzed config starts valid and then gets up to two values replaced by
# text at and beyond the range edges, non-finite or not a number at all.
# Half of them add a [sweep] section, run through the sweep command, with
# up to one of its values replaced too.
_ODD_TEXT = st.sampled_from(
    ["0", "-0.0", "1", "-2", "2.5", "1e-300", "nan", "inf", "-inf", "x", ""]
)
_WILD = st.one_of(st.floats().map(repr), st.integers(-10**6, 10**6).map(str), _ODD_TEXT)
# Chain size, grid size and grid ends stay moderate even when replaced (up
# to 2048 sites and ~2*10**4 grid points): runs are bounded (2**22 sites,
# 2**20 grid points), but a run near a bound allocates hundreds of MB.  The
# examples below go past the bounds.
_SIZE_KEYS = {"sites", "start", "stop", "points", "denominator"}
_WILD_SMALL = st.one_of(st.floats(-16, 16).map(repr), st.integers(-3, 2048).map(str), _ODD_TEXT)
_GOOD_CENTER = st.one_of(
    st.sampled_from(["N/3", "2N/3", "(N+1)/4"]), st.floats(-10, 80).map(repr)
)
_CENTER = st.one_of(_GOOD_CENTER, st.just("N/0"))


@st.composite
def fuzzed_configs(draw):
    n_centers = draw(st.integers(1, 3))
    start = draw(st.floats(-4, 4))
    values = {
        "sites": str(draw(st.integers(2, 2048))),
        "hopping": repr(draw(st.floats(1e-3, 1e3))),
        "kind": draw(st.sampled_from(["gaussian", "superposition"])),
        "center": draw(_CENTER),
        "centers": ", ".join(draw(st.lists(_CENTER, min_size=n_centers, max_size=n_centers))),
        "weights": ", ".join(repr(draw(st.floats(-5, 5))) for _ in range(n_centers)),
        "half_width": repr(draw(st.floats(0.5, 100))),
        "alpha": repr(draw(st.floats(0.01, 5))),
        "start": repr(start),
        "stop": repr(start + draw(st.floats(1e-3, 4))),
        "points": str(draw(st.integers(1, 2048))),
        "denominator": str(draw(st.integers(1, 512))),
        "fraction_cap": str(draw(st.integers(1, 2000))),
        "profiles_at": ", ".join(repr(t) for t in draw(st.lists(st.floats(-10, 10), max_size=2))),
    }
    for key in draw(st.sets(st.sampled_from(sorted(values)), max_size=2)):
        values[key] = draw(_WILD_SMALL if key in _SIZE_KEYS else _WILD)
    initial = ["center"] if values["kind"] == "gaussian" else ["centers", "weights"]
    layout = {
        "chain": ["sites", "hopping"],
        "initial": ["kind", *initial, draw(st.sampled_from(["half_width", "alpha"]))],
        "time": ["start", "stop", draw(st.sampled_from(["points", "denominator"]))],
        "metrics": ["fraction_cap", "profiles_at"],
    }
    lines = []
    for section, keys in layout.items():
        lines += [f"[{section}]"] + [f"{key} = {values[key]}" for key in keys]
    lines += ["[output]", "prefix = fuzz"]
    if draw(st.booleans()):
        values = draw(st.lists(st.integers(2, 1024).map(str), min_size=1, max_size=3))
        sweep = {
            "variable": draw(st.sampled_from(["sites", "half_width", "center"])),
            "values": ", ".join(values),
            "metric": draw(st.sampled_from(
                ["fractional_fidelity", "mirror_fidelity", "autocorrelation"]
            )),
            "fraction": draw(st.sampled_from(["1/2", "1/3", "2/3", "0", "5/4"])),
        }
        for key in draw(st.sets(st.sampled_from(sorted(sweep)), max_size=1)):
            sweep[key] = draw(st.one_of(_WILD_SMALL, st.sampled_from(["bogus", "1/0", "-1/2"])))
        lines += ["[sweep]"] + [f"{key} = {value}" for key, value in sweep.items()]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(fuzzed_configs())
@example(GOOD_CONFIG.replace("half_width = 12", "alpha = 1e200"))
@example(GOOD_CONFIG.replace("center = 20", "center = 1e308"))
@example(GOOD_CONFIG.replace("hopping = 1.0", "hopping = 5e-324"))
@example(GOOD_CONFIG.replace("hopping = 1.0", "hopping = 1e308"))
@example(GOOD_CONFIG.replace("start = 0.0\nstop = 0.5\npoints = 21",
                             "start = 1e300\nstop = 2e300\ndenominator = 840"))
@example(GOOD_CONFIG.replace("points = 21", "points = 1000000000000"))
@example(GOOD_CONFIG.replace("sites = 120", "sites = 1000000000"))
@example(GOOD_CONFIG.replace("sites = 120", f"sites = {10**20}"))
def test_fuzzed_config_fails_only_cleanly(text):
    sweep = "[sweep]" in text
    try:
        parsed = (parse_sweep if sweep else parse_config)(text)
    except ConfigError:
        parsed = None
    with tempfile.TemporaryDirectory() as out:
        cfg = Path(out) / "fuzz.cfg"
        cfg.write_text(text)
        code = cli_main(["sweep" if sweep else "trace", "--config", str(cfg), "--out", out])
    if parsed is None:
        assert code == 2
    elif sweep and parsed.metric != "autocorrelation" and parsed.base.kind != "gaussian":
        assert code == 2  # the two fidelity metrics need a single (gaussian) packet
    else:
        assert code in (0, 1)


# The differential test draws Scenario and SweepSpec fields that a config can
# give and writes them as a config.  Most keep every rule; some break a rule
# of their own key (a bad value) and some one that ties fields together.  All
# of them are text that converts, so parsing must refuse exactly what building
# them directly refuses, with the same message.
_KEYS = {  # field: (section, config key); center_exprs's key depends on kind
    "sites": ("chain", "sites"), "hopping": ("chain", "hopping"), "kind": ("initial", "kind"),
    "weights": ("initial", "weights"), "half_width": ("initial", "half_width"),
    "alpha": ("initial", "alpha"), "convention": ("initial", "convention"),
    "time_start": ("time", "start"), "time_stop": ("time", "stop"),
    "time_points": ("time", "points"), "time_denominator": ("time", "denominator"),
    "fraction_cap": ("metrics", "fraction_cap"), "profiles_at": ("metrics", "profiles_at"),
    "variable": ("sweep", "variable"), "values": ("sweep", "values"),
    "metric": ("sweep", "metric"), "fraction": ("sweep", "fraction"),
}
_FAR_END = st.sampled_from([1e300, -1e307, 2.0**53, 1e16])
_NOT_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])
_NOT_POSITIVE = st.sampled_from([0.0, -1.0, -float("inf")])


def _or_bad(good, *bad):
    """``good`` values, and now and then (about one in 16) one that its own key refuses."""
    return st.integers(0, 15).flatmap(lambda i: st.one_of(*bad) if i == 15 else good)


@st.composite
def field_sets(draw):
    # mostly fields that keep the rules, so that parses are compared too
    kind = draw(st.sampled_from(["gaussian", "superposition"]))
    n_centers = draw(st.sampled_from([1, 1, 1, 0] if kind == "gaussian" else [1, 2, 2, 3, 0]))
    center = _or_bad(_GOOD_CENTER, st.sampled_from(["N/0", "banana", "nan", "inf"]))
    fields = {
        "sites": draw(_or_bad(st.integers(2, 64), st.sampled_from([0, 1, -3, 2**22 + 1]))),
        "kind": kind,
        "center_exprs": tuple(draw(st.lists(center, min_size=n_centers, max_size=n_centers))),
    }
    optional = {
        "hopping": _or_bad(st.floats(0.1, 10), _NOT_FINITE, _NOT_POSITIVE, st.just(5e-324)),
        "convention": _or_bad(st.sampled_from(["plus-one", "literal"]), st.just("bogus")),
        "fraction_cap": _or_bad(st.integers(1, 2000), st.sampled_from([0, -3])),
        "profiles_at": st.lists(_or_bad(st.floats(-10, 10), _NOT_FINITE), max_size=2).map(tuple),
    }
    for field in draw(st.sets(st.sampled_from(sorted(optional)))):
        fields[field] = draw(optional[field])
    if draw(st.booleans()):
        count = draw(st.sampled_from([n_centers, n_centers, n_centers + 1, 0]))
        fields["weights"] = tuple(draw(st.lists(_or_bad(st.floats(-5, 5), _NOT_FINITE),
                                                min_size=count, max_size=count)))
    for width in draw(st.sampled_from([["half_width"], ["alpha"], [], ["half_width", "alpha"]])):
        good = st.floats(0.5, 100) if width == "half_width" else st.floats(0.01, 5)
        fields[width] = draw(_or_bad(good, _NOT_FINITE, _NOT_POSITIVE, st.just(1e-320)))
    start = draw(_or_bad(st.floats(-4, 4), _FAR_END, _NOT_FINITE))
    time = {
        "time_start": st.just(start),
        "time_stop": (st.floats(1e-3, 4).map(lambda d: start + d) | st.floats(-4, 4) | _FAR_END
                      | _NOT_FINITE),
        "time_points": st.integers(1, 64) | st.sampled_from([2**20 + 1, 0, -3]),
        "time_denominator": st.integers(1, 64) | st.sampled_from([10**17, 0, -3]),
    }
    keys = sorted(draw(st.sampled_from([(), ("time_start", "time_stop"), ("time_points",)])
                       | st.sets(st.sampled_from(sorted(time)))))
    if keys == ["time_start", "time_stop"]:  # mostly a grid with its size
        keys += draw(st.sampled_from([["time_points"], ["time_denominator"], []]))
    for field in keys:
        fields[field] = draw(time[field])
    if not draw(st.booleans()):
        return fields, None
    variable = draw(st.sampled_from(["half_width", "sites", "center"]))
    value = {"half_width": _or_bad(st.floats(0.5, 100), _NOT_POSITIVE, _NOT_FINITE),
             "sites": _or_bad(st.integers(2, 64), st.sampled_from([0, 1])),
             "center": _or_bad(st.floats(-10, 80), _NOT_FINITE)}[variable]
    return fields, {
        "variable": variable,
        "values": tuple(draw(st.lists(value, max_size=3))),
        "metric": draw(st.sampled_from(["fractional_fidelity", "mirror_fidelity",
                                        "autocorrelation"])),
        "fraction": Fraction(draw(st.sampled_from(
            ["1/2", "1/3", "2/3", "0", "5/4", "1/1048576", "-1/2", "1e300"]))),
    }


def _config_text(fields: dict, sweep: dict | None) -> str:
    keys = dict(_KEYS, center_exprs=(
        "initial", "center" if fields["kind"] == "gaussian" else "centers"))
    sections: dict[str, list[str]] = {}
    for field, value in [*fields.items(), *(sweep or {}).items()]:
        if field == "center_exprs" and keys[field][1] == "center" and not value:
            continue  # a gaussian without its center key
        if isinstance(value, tuple):
            value = ", ".join(v if isinstance(v, str) else repr(v) for v in value)
        section, key = keys[field]
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
                   for name, lines in sections.items())


@settings(max_examples=120, deadline=None)
@given(field_sets())
def test_parsing_refuses_exactly_what_direct_construction_refuses(drawn):
    fields, sweep = drawn
    try:
        direct = Scenario(**fields)
        direct = direct if sweep is None else SweepSpec(base=direct, **sweep)
    except ValueError as exc:
        direct, refusal = None, str(exc)
    try:
        parsed = (parse_config if sweep is None else parse_sweep)(_config_text(fields, sweep))
    except ConfigError as exc:
        assert direct is None
        assert str(exc).endswith(refusal)
    else:
        assert parsed == direct


def test_parse_config_duplicate_key():
    text = GOOD_CONFIG.replace("hopping = 1.0", "sites = 7")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(text)


def test_parse_config_missing_required():
    with pytest.raises(ConfigError, match="sites"):
        parse_config("[initial]\nkind = gaussian\ncenter = 5\nhalf_width = 4\n")
    with pytest.raises(ConfigError, match="half_width or alpha"):
        parse_config("[chain]\nsites = 50\n[initial]\nkind = gaussian\ncenter = 5\n")
    with pytest.raises(ConfigError, match="line 5: centers is empty"):
        parse_config("[chain]\nsites = 50\n[initial]\nkind = superposition\n"
                     "centers =\nhalf_width = 4\n")


def test_parse_config_weights_length():
    text = (
        "[chain]\nsites = 200\n[initial]\nkind = superposition\n"
        "centers = N/3, 2N/3\nweights = 1\nhalf_width = 12\n"
    )
    with pytest.raises(ConfigError, match="weights"):
        parse_config(text)


def test_run_scenario_outputs(tmp_path):
    scenario = parse_config(GOOD_CONFIG)
    files = run_scenario(scenario, tmp_path)
    trace_path = tmp_path / "demo_trace.csv"
    assert trace_path in files
    lines = trace_path.read_bytes().split(b"\n")
    assert lines[0] == b"t_over_trev,abs_F_sq,abs_Ff_sq,abs_A_sq"
    assert len([ln for ln in lines if ln]) == 22  # header + 21 rows
    assert b"\r" not in trace_path.read_bytes()
    profile_path = tmp_path / "demo_profile_t0.25.csv"
    assert profile_path in files
    plines = profile_path.read_text().splitlines()
    assert plines[0] == "site,abs_amp"
    assert plines[1].startswith("1,")
    assert len(plines) == 121


def test_run_scenario_deterministic(tmp_path):
    scenario = parse_config(GOOD_CONFIG)
    first = run_scenario(scenario, tmp_path / "a")[0].read_bytes()
    second = run_scenario(scenario, tmp_path / "b")[0].read_bytes()
    assert first == second


def test_trace_values_use_twelve_significant_digits(tmp_path):
    scenario = parse_config(GOOD_CONFIG)
    path = run_scenario(scenario, tmp_path)[0]
    row = path.read_text().splitlines()[1].split(",")
    assert row[3] == "1"  # |A(0)|^2
    # fidelity at t=0 is a tiny tail overlap printed at 12 significant digits
    assert len(row[1].split("e")[0].replace(".", "").replace("-", "")) <= 12


SWEEP_BASE = Scenario(sites=200, center_exprs=("30",), half_width=12.0, prefix="s")
SWEPT = {  # variable: (values, the scenario of one value)
    "half_width": ((6.0, 12.0, 20.0), lambda v: replace(SWEEP_BASE, half_width=v)),
    "center": ((30.0, 45.5, 3.0), lambda v: replace(SWEEP_BASE, center_exprs=(repr(v),))),
    "sites": ((150, 200, 201), lambda v: replace(SWEEP_BASE, sites=v)),
}


@pytest.mark.filterwarnings("ignore:packet at 3.0")  # an edge packet keeps every mode
@pytest.mark.parametrize("metric", ["fractional_fidelity", "mirror_fidelity", "autocorrelation"])
@pytest.mark.parametrize("variable", sorted(SWEPT))
def test_run_sweep_single_value_matches_scenario(variable, metric):
    # each value of the stacked sweep equals the scalar diagnostic of its own scenario
    values, scenario_at = SWEPT[variable]
    result = run_sweep(SweepSpec(base=SWEEP_BASE, variable=variable, values=values, metric=metric))
    fraction = RevivalFraction(1, 2)
    for value, (row_value, row_metric) in zip(values, result.rows):
        scenario = scenario_at(value)
        chain = scenario.chain()
        t = fraction.time(chain)
        if metric == "fractional_fidelity":
            direct = fractional_fidelity(chain, scenario.gaussian_spec(), fraction) ** 2
        elif metric == "mirror_fidelity":
            direct = abs(mirror_fidelity(chain, scenario.gaussian_spec(), t)) ** 2
        else:
            direct = abs(autocorrelation(chain, scenario.initial_state(), t)) ** 2
        assert row_value == value
        assert row_metric == pytest.approx(direct, abs=1e-12)


SUPERPOSITION_BASE = Scenario(sites=200, kind="superposition", center_exprs=("N/3", "2N/3"),
                              half_width=12.0)


@pytest.mark.parametrize(
    "fields, fragment",
    [
        pytest.param(dict(fraction=Fraction(1, 2**20)), "Gauss table", id="gauss-table"),
        pytest.param(dict(fraction=Fraction(2**60)), r"2\*\*53 t_rev", id="far-fraction"),
        pytest.param(dict(fraction=Fraction(-1, 2)), "numerator >= 0", id="negative-fraction"),
        pytest.param(dict(base=SUPERPOSITION_BASE), "fractional_fidelity needs a single-packet",
                     id="superposition-fractional"),
        pytest.param(dict(base=SUPERPOSITION_BASE, metric="mirror_fidelity"),
                     "mirror_fidelity needs a single-packet", id="superposition-mirror"),
        # each value as its variable's own key reads it
        pytest.param(dict(values=(8.0, -1.0)), r"half_width -1\.0 is not positive",
                     id="negative-half-width"),
        pytest.param(dict(variable="sites", values=(1,)), "sites 1 is not an integer >= 2",
                     id="one-site"),
        pytest.param(dict(variable="sites", values=(20.5,)), r"sites 20\.5 is not an integer >= 2",
                     id="fractional-sites"),
        pytest.param(dict(variable="center", values=(30.0, float("nan"))),
                     "center 'nan' is not finite", id="nan-center"),
        pytest.param(dict(variable="bogus"), "variable 'bogus' is not one of", id="bogus-variable"),
    ],
)
def test_direct_sweep_keeps_the_field_rules(fields, fragment):
    good = dict(base=SWEEP_BASE, variable="half_width", values=(8.0,))
    with pytest.raises(ValueError, match=fragment) as err:
        SweepSpec(**{**good, **fields})
    assert not isinstance(err.value, ConfigError)  # no config is involved
    with pytest.raises(ValueError, match=fragment) as err:  # replace() builds anew
        replace(SweepSpec(**good), **fields)
    assert not isinstance(err.value, ConfigError)


def test_superposition_sweeps_its_autocorrelation():
    spec = SweepSpec(base=SUPERPOSITION_BASE, variable="half_width", values=(8.0, 12.0),
                     metric="autocorrelation")
    scenario = replace(SUPERPOSITION_BASE, half_width=12.0)
    chain = scenario.chain()
    direct = abs(autocorrelation(chain, scenario.initial_state(),
                                 RevivalFraction(1, 2).time(chain))) ** 2
    assert run_sweep(spec).rows[1] == (12.0, pytest.approx(direct, abs=1e-12))


SUPERPOSITION_SWEEP = """\
[chain]
sites = 200
[initial]
kind = superposition
centers = N/3, 2N/3
half_width = 12
[sweep]
variable = half_width
values = 8, 12
metric = mirror_fidelity
"""


@pytest.mark.parametrize(
    "old, new, line, fragment",
    [
        pytest.param("", "", 10, "mirror_fidelity needs a single-packet", id="metric-line"),
        pytest.param("metric = mirror_fidelity\n", "", 0,
                     "fractional_fidelity needs a single-packet", id="default-metric"),
        pytest.param("centers = N/3, 2N/3\n", "centers = N/3, 2N/3\nweights = 1\n", 6,
                     "weights must match", id="weights-line"),
        pytest.param("centers = N/3, 2N/3\n", "centers = N/3, 2N/3\nalpha = 1\n", 0,
                     "exactly one of", id="two-widths"),
    ],
)
def test_sweep_config_refusals_land_on_the_key_they_blame(tmp_path, old, new, line, fragment):
    text = SUPERPOSITION_SWEEP.replace(old, new)
    with pytest.raises(ConfigError, match=fragment) as err:
        parse_sweep(text)
    assert err.value.line == line
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_predict_refuses_a_superposition_on_its_kind_line(tmp_path, capsys):
    cfg, out = tmp_path / "sup.cfg", tmp_path / "out"
    cfg.write_text(SUPERPOSITION_SWEEP.split("[sweep]")[0])
    assert cli_main(["predict", "--config", str(cfg), "--fraction", "1/2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: line 4: this operation needs a single-packet (gaussian) "
                            "initial, not a superposition\n")
    assert not out.exists()


def test_sweep_keeps_the_fractional_rule():
    # commensurate centers pile folded clones onto the mirror site at 1/10
    base = Scenario(sites=500, center_exprs=("N/10",), half_width=24.0)
    values = (501 / 10, 501 / 5, 80.0)
    with warnings.catch_warnings(record=True) as direct:
        warnings.simplefilter("always")
        for value in values:
            scenario = replace(base, center_exprs=(repr(value),))
            fractional_fidelity(scenario.chain(), scenario.gaussian_spec(), RevivalFraction(1, 10))
    with warnings.catch_warnings(record=True) as swept:
        warnings.simplefilter("always")
        run_sweep(SweepSpec(base=base, variable="center", values=values, fraction=Fraction(1, 10)))
    overshoot = [[str(w.message) for w in ws if "exceeds 1" in str(w.message)]
                 for ws in (direct, swept)]
    assert overshoot[0] and overshoot[1] == overshoot[0]
    with pytest.raises(NoMirrorCloneError):
        run_sweep(SweepSpec(base=base, variable="center", values=values, fraction=Fraction(2, 3)))


@pytest.mark.parametrize("figure, ties", [("fig2a", 12), ("fig2b", 4)])
def test_denominator_grid_traces_like_its_fractions(monkeypatch, figure, ties):
    scenario = PRESET_FIGURES[figure]
    grid = scenario.grid()
    assert isinstance(grid, DenominatorGrid)
    fractions = [Fraction(k, scenario.time_denominator) for k in grid.numerators]
    assert list(grid) == fractions
    chain, state = scenario.chain(), scenario.initial_state()
    expected = trace(chain, state, fractions)

    exact = []  # entries read one by one: the near-tie points only
    getitem = DenominatorGrid.__getitem__
    monkeypatch.setattr(DenominatorGrid, "__getitem__",
                        lambda self, i: exact.append(i) or getitem(self, i))
    result = trace(chain, state, grid)
    assert len(exact) == ties
    for column in ("times", "abs_f_sq", "abs_ff_sq", "abs_a_sq"):
        np.testing.assert_array_equal(getattr(result, column), getattr(expected, column))
    assert np.asarray(grid, dtype=float).tobytes() == np.array(
        [float(f) for f in fractions]).tobytes()


@pytest.mark.parametrize("time", [
    dict(time_start=1e300, time_stop=2e300, time_denominator=840),
    dict(time_start=1e307, time_stop=2e307, time_denominator=840),
    dict(time_start=0.0, time_stop=1.0, time_points=2**20 + 1),
    dict(time_start=0.0, time_stop=2.0**53, time_points=3),
])
def test_scenario_grid_is_bounded_before_it_is_built(time):
    # the bounds are read from the grid's ends when the scenario is built
    with pytest.raises(ValueError, match="time grid has over"):
        Scenario(sites=40, center_exprs=("10",), half_width=6.0, **time)


def test_presets_match_recorded_rows(tmp_path):
    """All 19 preset CSVs against every 25th and the last row recorded at d326b34.

    Values agree within 1e-10, plus one unit in the 12th significant digit
    (rtol 1e-11), which is all a 12-digit CSV field resolves: above 10 (the
    |F_f|^2 = q |F|^2 column) that unit exceeds 1e-10.
    """
    reference = json.loads((Path(__file__).parent / "data" / "preset_reference.json").read_text())
    for figure in sorted(PRESET_FIGURES) + ["fig7"]:
        reproduce(figure, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(reference)
    for name, ref in reference.items():
        header, *rows = (tmp_path / name).read_text().splitlines()
        assert (header, len(rows)) == (ref["header"], ref["rows"]), name
        got = [rows[int(i)].split(",") for i in ref["sampled"]]
        want = [line.split(",") for line in ref["sampled"].values()]
        if name.endswith("_sweep.csv"):  # the first column names the swept variable
            assert [g[0] for g in got] == [w[0] for w in want], name
            got, want = [g[1:] for g in got], [w[1:] for w in want]
        got, want = np.array(got, dtype=float), np.array(want, dtype=float)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want), err_msg=name)
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-10, equal_nan=True,
                                   err_msg=name)


def test_run_sweep_width_is_monotone(tmp_path):
    base = Scenario(sites=300, center_exprs=("50",), half_width=24.0, prefix="w")
    spec = SweepSpec(base=base, variable="half_width", values=(8.0, 12.0, 16.0, 20.0, 24.0))
    result = run_sweep(spec, tmp_path)
    assert result.non_decreasing
    assert result.path.exists()
    lines = result.path.read_text().splitlines()
    assert lines[0] == "variable,value,metric"
    assert len(lines) == 6


def test_parse_sweep_section():
    text = GOOD_CONFIG + "[sweep]\nvariable = half_width\nvalues = 8, 12\nfraction = 1/2\n"
    spec = parse_sweep(text)
    assert spec.variable == "half_width"
    assert spec.values == (8.0, 12.0)
    assert spec.fraction == Fraction(1, 2)


def test_estimate_budget_quoted_values():
    report = estimate_budget(500, 10.0, decoherence_ms=1.0, n_revivals=1e4)
    assert report.revival_ms_quoted == pytest.approx(4.0e-6, rel=1e-12)
    assert report.max_sites_for_revivals == pytest.approx(2500.0, rel=1e-12)
    assert report.revival_ms_physical == pytest.approx(5.2589e-6, rel=1e-3)
    assert any("4e-06" in line for line in report.lines())


def test_estimate_budget_scalings():
    one = estimate_budget(500, 10.0, n_revivals=1.0, decoherence_ms=1.0)
    assert one.max_sites_for_revivals == pytest.approx(2.5e5, rel=1e-12)
    halved = estimate_budget(500, 20.0)
    assert halved.revival_ms_quoted == pytest.approx(2.0e-6, rel=1e-12)
    with pytest.raises(ValueError):
        estimate_budget(1, 10.0)


@pytest.mark.parametrize(
    "sites, hopping, decoherence, revivals, fragment",
    [
        (500, 10.0, None, 0.0, "revivals 0.0 is not finite and positive"),
        (500, float("inf"), 1.0, None, "hopping inf is not finite"),
        pytest.param(10**399, 10.0, None, None, "float range", id="sites-400-digits"),
        (500, float("nan"), None, None, "hopping nan is not finite"),
        (500, 10.0, -1.0, 1e4, "decoherence -1.0 is not finite and positive"),
        (500, 1e-320, None, None, "float range"),
        (500, 1e308, None, 1e-300, "float range"),
        (1, 10.0, None, None, "not an integer >= 2"),
    ],
)
def test_estimate_budget_rejects_bad_input(capsys, sites, hopping, decoherence, revivals,
                                           fragment):
    with pytest.raises(ValueError, match=fragment):
        estimate_budget(sites, hopping, decoherence, revivals)
    argv = ["budget", "--sites", str(sites), "--hopping-mev", repr(hopping)]
    argv += [] if decoherence is None else ["--decoherence-ms", repr(decoherence)]
    argv += [] if revivals is None else ["--revivals", repr(revivals)]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("figure", sorted(PRESET_FIGURES) + ["fig7"])
def test_reproduce_presets_emit_schema_valid_csv(tmp_path, figure):
    files = reproduce(figure, tmp_path)
    assert files
    for path in files:
        header = Path(path).read_text().splitlines()[0]
        assert header in (
            "t_over_trev,abs_F_sq,abs_Ff_sq,abs_A_sq",
            "site,abs_amp",
            "variable,value,metric",
        )


def test_reproduce_unknown_figure(tmp_path):
    with pytest.raises(ValueError, match="unknown figure"):
        reproduce("fig99", tmp_path)


def test_reproduce_deterministic(tmp_path):
    a = reproduce("fig4a", tmp_path / "a")[0].read_bytes()
    b = reproduce("fig4a", tmp_path / "b")[0].read_bytes()
    assert a == b


def test_cli_trace_and_errors(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(GOOD_CONFIG)
    assert cli_main(["trace", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "demo_trace.csv").exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("[chain]\nsites = 120\nbogus = 1\n")
    assert cli_main(["trace", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_cli_accepts_threads_and_seed(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(GOOD_CONFIG)
    code = cli_main(
        ["trace", "--config", str(cfg), "--out", str(tmp_path), "--threads", "4", "--seed", "7"]
    )
    assert code == 0


def test_cli_evolve_predict_budget(tmp_path, capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(GOOD_CONFIG)
    assert cli_main(["evolve", "--config", str(cfg), "--time", "0.5", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "demo_evolved_t0.5.csv").exists()
    scenario = parse_config(GOOD_CONFIG)
    chain, state = scenario.chain(), scenario.initial_state()
    evolved = evolve_exact(chain, state, 0.5 * revival_clock(chain).revival_time)
    f, a = inner_product(reflect(chain, state), evolved), inner_product(state, evolved)
    assert f"|F|^2 = {abs(f)**2:.6f}  |A|^2 = {abs(a)**2:.6f}" in capsys.readouterr().out
    assert cli_main(["predict", "--config", str(cfg), "--fraction", "1/3", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "demo_predicted_p1q3.csv").exists()
    assert cli_main(["predict", "--config", str(cfg), "--fraction", "2/4", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "demo_predicted_p1q2.csv").exists()
    out = capsys.readouterr().out
    assert "sub-packets" in out
    assert cli_main(["budget", "--sites", "500", "--hopping-mev", "10",
                     "--decoherence-ms", "1", "--revivals", "10000"]) == 0
    out = capsys.readouterr().out
    assert "4e-06" in out
    assert "2500" in out


def test_cli_far_instants_fail_cleanly(tmp_path, capsys):
    cfg, out = tmp_path / "far.cfg", tmp_path / "out"
    small = "[chain]\nsites = 40\n[initial]\ncenter = 10\nhalf_width = 6\n"
    # t_rev ~ 5.4e302: a g inside 2**53 whose time g * t_rev is not a finite float
    tiny = small.replace("sites = 40\n", "sites = 40\nhopping = 1e-300\n")
    for text, argv, bound in [
        (small, ["evolve", "--time", "1e305"], "2**53"),
        (small + "[metrics]\nprofiles_at = 1e305\n", ["trace"], "2**53"),
        # the trace and the first profile are good, and neither is written
        (small + "[time]\nstart = 0\nstop = 1\npoints = 11\n"
         "[metrics]\nprofiles_at = 0.5, 1e305\n", ["trace"], "2**53"),
        # finite instants whose time g * t_rev would overflow
        (small, ["evolve", "--time", "1e306"], "2**53"),
        (small + "[metrics]\nprofiles_at = 1e306\n", ["trace"], "2**53"),
        (tiny, ["evolve", "--time", "1e6"], "1e+06 t_rev is not a finite float at t_rev = 5.35"),
        (tiny + "[metrics]\nprofiles_at = 1e6\n", ["trace"],
         "1e+06 t_rev is not a finite float at t_rev = 5.35"),
    ]:
        cfg.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
        # a console run would print any RuntimeWarning on stderr
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and bound in err and err.count("\n") == 1
        assert not out.exists()


# 2**20 sites: 9 profiles pass the 2**23 site-profile bound, and a one-site-wide
# packet keeps every mode, so the 20001-point trace alone would take minutes
OVER_BOUND_PROFILES = """\
[chain]
sites = 1048576
[initial]
center = 100
half_width = 1
[time]
start = 0
stop = 1
points = 20001
[metrics]
profiles_at = 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9
"""


def test_profiles_are_refused_before_any_trace_work(tmp_path, monkeypatch):
    def no_trace(*args, **kwargs):
        raise AssertionError("the trace ran before the profiles were evaluated")

    monkeypatch.setattr("tbrevival.harness.trace", no_trace)
    with pytest.raises(ValueError, match="site-profiles"):
        run_scenario(parse_config(OVER_BOUND_PROFILES), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_cli_trace_over_the_work_bound_fails_cleanly(tmp_path, capsys):
    # 2**16 kept modes x (2**16 + 1) points is just over the 2**32 trace-work bound
    cfg, out = tmp_path / "big.cfg", tmp_path / "out"
    cfg.write_text("[chain]\nsites = 65536\n[initial]\ncenter = 100\nhalf_width = 1\n"
                   "[time]\nstart = 0\nstop = 1\npoints = 65537\n")
    assert cli_main(["trace", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "4294967296 point-modes" in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("fraction", ["1/0", "abc", "1/100000001", "1e300", "1e1000000"])
def test_cli_bad_fraction_is_an_argument_error(tmp_path, capsys, fraction):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(GOOD_CONFIG)
    with pytest.raises(SystemExit) as err:
        cli_main(["predict", "--config", str(cfg), "--fraction", fraction, "--out", str(tmp_path)])
    assert err.value.code == 2
    # refused before anything is predicted, printed or written
    assert capsys.readouterr().out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["ok.cfg"]


@pytest.mark.parametrize("text, fragment", [("1e-1000000", "Gauss table"),
                                            ("1e1000000", r"2\*\*53 t_rev"),
                                            ("-1e1000000", r"2\*\*53 t_rev")])
def test_a_far_decimal_exponent_is_refused_before_its_power_is_built(text, fragment):
    # Fraction(text) would build 10**1000000 first, which takes tenths of a second
    for read in (revival_fraction, lambda t: parse_sweep(SWEEP_CONFIG.replace("1/2", t))):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=fragment):
            read(text)
        assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("text", ["0e-1000000", "-0.0e+1000000"])
def test_a_zero_decimal_is_zero_whatever_its_exponent(text):
    start = time.perf_counter()
    assert revival_fraction(text) == RevivalFraction(0, 1)
    assert time.perf_counter() - start < 0.05


def test_a_long_number_without_an_exponent_is_read_in_linear_time():
    # a pattern that backtracks over both halves of the digits takes minutes here
    start = time.perf_counter()
    for text in ("1" * 100_000, "." + "1" * 100_000 + "x"):
        with pytest.raises(ValueError):
            revival_fraction(text)
    assert time.perf_counter() - start < 0.5


def test_cli_parses_each_call_on_its_own(tmp_path, capsys):
    assert build_parser() is build_parser()
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(GOOD_CONFIG + "[sweep]\nvariable = half_width\nvalues = 8, 12\n")
    calls = [
        (["evolve", "--config", str(cfg), "--time", "0.5", "--out", str(tmp_path / "e"),
          "--seed", "3"], {"config", "time", "out", "threads", "seed"}),
        (["reproduce", "fig5b", "--out", str(tmp_path / "r")],
         {"figure", "out", "threads", "seed"}),
        (["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")],
         {"config", "out", "threads", "seed"}),
    ]
    for argv, keys in calls:
        args = build_parser().parse_args(argv)
        assert set(vars(args)) == keys | {"command"}
        assert args.seed == (3 if "--seed" in argv else None)
        assert cli_main(argv) == 0
    assert [p.name for p in (tmp_path / "e").iterdir()] == ["demo_evolved_t0.5.csv"]
    assert [p.name for p in (tmp_path / "r").iterdir()] == ["fig5b_profile_t0.25.csv"]
    assert [p.name for p in (tmp_path / "s").iterdir()] == ["demo_sweep.csv"]


def test_cli_sweep(tmp_path, capsys):
    cfg = tmp_path / "sw.cfg"
    cfg.write_text(GOOD_CONFIG + "[sweep]\nvariable = half_width\nvalues = 8, 12\n")
    assert cli_main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "demo_sweep.csv").exists()
