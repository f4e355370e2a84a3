"""``parse_config``: the echo it records and the path each bad key is named by."""

import copy
import dataclasses
import math
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import hammerstein.config
from hammerstein.analysis import PROBE_SCALE, PROBE_TRIALS
from hammerstein.config import RunConfig, load_config, parse_config
from hammerstein.errors import ConfigError, FieldError
from hammerstein.kernels import BaseKernel, KernelSpec, ModulationSet
from hammerstein.nemytsky import NemytskySpec
from hammerstein.nonlinearity import NonlinearitySpec
from hammerstein.quadrature import HalfLineGrid

from conftest import readme_config

# the echo of each tree in ECHO_TREES: the `config` section of its report.yaml,
# so an edit here is a change to report bytes
GOLDEN = Path(__file__).with_name("config_echo.yaml")

G_VALUES = {
    "I": {"alpha": 0.3},
    "II": {"alpha_star": 0.6},
    "III": {"alpha_star": 0.8, "alpha_tilde": 0.2},
}
K_VALUES = {"A": {}, "B": {"delta": 0.4}, "C": {"epsilon": 0.6}}


def _defaults(kfam, gfam):
    return {"kernel": {"family": kfam}, "nonlinearity": {"family": gfam}, "grid": {}}


def _every_key(kfam, gfam):
    """Every optional key set, away from its default where it has room to:
    the keys that take one value (grid.rule, nemytsky.pointwise and
    nemytsky.integrand, six certificates keys) are set to it."""
    return {
        "kernel": {"family": kfam, "lambda_form": "rational-gap", "d_star": 1.0,
                   "l": 0.3, "base": {"variant": "gaussian"}, **K_VALUES[kfam]},
        "nonlinearity": {"family": gfam, **G_VALUES[gfam]},
        "grid": {"x_max": 30, "n_panels": 50, "rule": "gauss", "points_per_panel": 3},
        "solver": {"tol": 1.0e-9, "max_iter": 100},
        "nemytsky": {"pointwise": "saturating", "integrand": "reflected",
                     "xi": 0.3, "eps_star_fraction": 0.5, "damping_profile": "exp-decay"},
        "certificates": {"excess_integral": True, "tail_integral": True, "jensen": True,
                         "asymptote": True, "uniqueness_probe": False, "probe_trials": 5,
                         "probe_scale": 0.1, "seed": 0},
    }


def _echo_trees():
    trees = {}
    for kfam in "ABC":
        for gfam in ("I", "II", "III"):
            trees[f"defaults-{kfam}-{gfam}"] = _defaults(kfam, gfam)
            trees[f"every-key-{kfam}-{gfam}"] = _every_key(kfam, gfam)
    mixture = _defaults("A", "I")
    mixture["kernel"]["base"] = {"variant": "exp-mixture",
                                 "atoms": [[0.25, 1.0], [0.125, 0.5]]}
    trees["mixture"] = mixture
    trees["mixture-integer-atoms"] = copy.deepcopy(mixture)
    trees["mixture-integer-atoms"]["kernel"]["base"]["atoms"] = [[1, 2]]
    trees["nemytsky-empty"] = {**_defaults("C", "I"), "nemytsky": {}}
    trees["nemytsky-partial"] = {**_defaults("B", "II"), "nemytsky": {"xi": 0.1}}
    trees["empty-optional-sections"] = {**_defaults("A", "II"), "solver": {},
                                        "certificates": {}}
    return trees


ECHO_TREES = _echo_trees()


def _golden():
    return yaml.safe_load(GOLDEN.read_text())


def test_echo_golden_covers_every_tree():
    assert sorted(_golden()) == sorted(ECHO_TREES)


@pytest.mark.parametrize("name", sorted(ECHO_TREES))
def test_echo_matches_golden(name):
    # the echo is the normalised tree: every key read, defaults filled in
    tree = copy.deepcopy(ECHO_TREES[name])
    assert parse_config(tree).echo == _golden()[name]
    assert tree == ECHO_TREES[name]         # the input is not modified


@pytest.mark.parametrize("name", sorted(ECHO_TREES))
def test_echo_parses_to_itself(name):
    echo = parse_config(copy.deepcopy(ECHO_TREES[name])).echo
    assert parse_config(copy.deepcopy(echo)).echo == echo


# --- one error per config ---------------------------------------------------

BASE = {
    "kernel": {"family": "C", "epsilon": 0.5, "base": {"variant": "gaussian"}},
    "nonlinearity": {"family": "I", "alpha": 0.5},
    "grid": {"x_max": 40.0, "n_panels": 100, "rule": "gauss", "points_per_panel": 4},
    "solver": {"tol": 1.0e-10, "max_iter": 300},
    "nemytsky": {"xi": 0.25},
    "certificates": {"seed": 7},
}
DROP = object()
MIXTURE = {"kernel.base.variant": "exp-mixture",
           "kernel.base.atoms": [[0.25, 1.0], [0.125, 0.5]]}
FAMILY_B = {"kernel.family": "B", "kernel.epsilon": DROP}
FAMILY_II = {"nonlinearity.family": "II", "nonlinearity.alpha": DROP}
FAMILY_III = {"nonlinearity.family": "III", "nonlinearity.alpha": DROP,
              "nonlinearity.alpha_star": 0.75}

# (overrides of BASE by dotted path, the path the error names, the test id).
# Each id is written out, so deleting a row renames no other test.  The ids
# of these rows keep the names of the positional scheme they replaced; a new
# row names its overrides instead, e.g. "checks.tol=1e-09".
ERRORS = [
    # an unknown key in each section
    ({"bogus": 1}, "bogus", "bogus-0"),
    ({"kernel.bogus": 1}, "kernel.bogus", "kernel.bogus-1"),
    ({"kernel.base.bogus": 1}, "kernel.base.bogus", "kernel.base.bogus-2"),
    ({"nonlinearity.bogus": 1}, "nonlinearity.bogus", "nonlinearity.bogus-3"),
    ({"grid.bogus": 1}, "grid.bogus", "grid.bogus-4"),
    ({"solver.bogus": 1}, "solver.bogus", "solver.bogus-5"),
    # takes no settings: kernels.CHECK_TOL
    ({"checks": {"tol": 1.0e-9}}, "checks", "checks-6"),
    ({"nemytsky.bogus": 1}, "nemytsky.bogus", "nemytsky.bogus-7"),
    ({"certificates.bogus": 1}, "certificates.bogus", "certificates.bogus-8"),
    # sections missing or not mappings
    ({"kernel": DROP}, "kernel", "kernel-9"),
    ({"nonlinearity": DROP}, "nonlinearity", "nonlinearity-10"),
    ({"grid": DROP}, "grid", "grid-11"),
    ({"solver": 3}, "solver", "solver-12"),
    ({"kernel.base": "gaussian"}, "kernel.base", "kernel.base-13"),
    ({"nemytsky": None}, "nemytsky", "nemytsky-14"),
    ({"certificates": [1]}, "certificates", "certificates-15"),
    # family-specific keys on the wrong family
    ({"kernel.delta": 0.5}, "kernel.delta", "kernel.delta-16"),
    ({"kernel.family": "A"}, "kernel.epsilon", "kernel.epsilon-17"),
    ({**FAMILY_B, "kernel.epsilon": 0.5}, "kernel.epsilon", "kernel.epsilon-18"),
    ({"kernel.base.atoms": [[1, 2]]}, "kernel.base.atoms", "kernel.base.atoms-19"),
    ({"nonlinearity.alpha_star": 0.5}, "nonlinearity.alpha_star", "nonlinearity.alpha_star-20"),
    ({"nonlinearity.alpha_tilde": 0.25}, "nonlinearity.alpha_tilde",
     "nonlinearity.alpha_tilde-21"),
    ({"nonlinearity.family": "II"}, "nonlinearity.alpha", "nonlinearity.alpha-22"),
    ({**FAMILY_III, "nonlinearity.alpha": 0.5}, "nonlinearity.alpha", "nonlinearity.alpha-23"),
    ({**FAMILY_II, "nonlinearity.alpha_tilde": 0.25}, "nonlinearity.alpha_tilde",
     "nonlinearity.alpha_tilde-24"),
    ({**MIXTURE, "grid.rule": "trapezoid"}, "grid.rule", "grid.rule-25"),
    # mixture atoms
    ({"kernel.base.variant": "exp-mixture"}, "kernel.base.atoms", "kernel.base.atoms-26"),
    ({**MIXTURE, "kernel.base.atoms": []}, "kernel.base.atoms", "kernel.base.atoms-27"),
    ({**MIXTURE, "kernel.base.atoms": "1, 2"}, "kernel.base.atoms", "kernel.base.atoms-28"),
    ({**MIXTURE, "kernel.base.atoms": [[1]]}, "kernel.base.atoms", "kernel.base.atoms-29"),
    ({**MIXTURE, "kernel.base.atoms": [[0.25, 1.0]]}, "kernel.base", "kernel.base-30"),
    ({**MIXTURE, "kernel.base.atoms": [[-0.5, -1.0]]}, "kernel.base", "kernel.base-31"),
    # ranges
    ({"grid.x_max": 0.0}, "grid.x_max", "grid.x_max-32"),
    ({"grid.n_panels": 0}, "grid.n_panels", "grid.n_panels-33"),
    ({"grid.points_per_panel": 0}, "grid.points_per_panel", "grid.points_per_panel-34"),
    ({"kernel.d_star": 0.0}, "kernel.d_star", "kernel.d_star-35"),
    ({"kernel.d_star": 1.5}, "kernel.d_star", "kernel.d_star-36"),
    ({"kernel.l": 0.0}, "kernel.l", "kernel.l-37"),
    ({"kernel.l": 1.0}, "kernel.l", "kernel.l-38"),
    ({"kernel.epsilon": 1.0}, "kernel.epsilon", "kernel.epsilon-39"),
    ({**FAMILY_B, "kernel.delta": 0.0}, "kernel.delta", "kernel.delta-40"),
    ({"nonlinearity.alpha": 1.2}, "nonlinearity.alpha", "nonlinearity.alpha-41"),
    ({"nonlinearity.alpha": 0.0}, "nonlinearity.alpha", "nonlinearity.alpha-42"),
    ({**FAMILY_II, "nonlinearity.alpha_star": 1.0}, "nonlinearity.alpha_star",
     "nonlinearity.alpha_star-43"),
    ({**FAMILY_III, "nonlinearity.alpha_tilde": 0.0}, "nonlinearity.alpha_tilde",
     "nonlinearity.alpha_tilde-44"),
    ({**FAMILY_III, "nonlinearity.alpha_tilde": 0.75}, "nonlinearity.alpha_tilde",
     "nonlinearity.alpha_tilde-45"),
    ({"solver.tol": 0.0}, "solver.tol", "solver.tol-46"),
    ({"solver.max_iter": 0}, "solver.max_iter", "solver.max_iter-47"),
    ({"certificates.probe_trials": 0}, "certificates.probe_trials",
     "certificates.probe_trials-48"),
    ({"certificates.probe_scale": 0.0}, "certificates.probe_scale", "certificates.probe_scale-49"),
    ({"nemytsky.xi": 0.5}, "nemytsky.xi", "nemytsky.xi-50"),
    ({"nemytsky.xi": 0.0}, "nemytsky.xi", "nemytsky.xi-51"),
    ({"nemytsky.eps_star_fraction": 1.5}, "nemytsky.eps_star_fraction",
     "nemytsky.eps_star_fraction-52"),
    ({"nemytsky.eps_star_fraction": -0.1}, "nemytsky.eps_star_fraction",
     "nemytsky.eps_star_fraction-53"),
    ({"certificates.probe_trials": -1}, "certificates.probe_trials",
     "certificates.probe_trials-54"),
    ({"certificates.probe_scale": -0.1}, "certificates.probe_scale",
     "certificates.probe_scale-55"),
    ({"certificates.seed": -1}, "certificates.seed", "certificates.seed-56"),
    # wrong types: number, integer, boolean, choice
    ({"grid.x_max": "big"}, "grid.x_max", "grid.x_max-57"),
    ({"kernel.l": True}, "kernel.l", "kernel.l-58"),
    ({"grid.n_panels": 2.5}, "grid.n_panels", "grid.n_panels-59"),
    ({"certificates.seed": "7"}, "certificates.seed", "certificates.seed-60"),
    ({"certificates.jensen": "yes"}, "certificates.jensen", "certificates.jensen-61"),
    ({"certificates.uniqueness_probe": 1}, "certificates.uniqueness_probe",
     "certificates.uniqueness_probe-62"),
    ({"kernel.family": "D"}, "kernel.family", "kernel.family-63"),
    ({"nonlinearity.family": DROP}, "nonlinearity.family", "nonlinearity.family-64"),
    ({"grid.rule": "simpson"}, "grid.rule", "grid.rule-65"),
    ({"kernel.base.variant": "cauchy"}, "kernel.base.variant", "kernel.base.variant-66"),
    ({"kernel.lambda_form": "gap"}, "kernel.lambda_form", "kernel.lambda_form-67"),
    ({"nemytsky.pointwise": "linear"}, "nemytsky.pointwise", "nemytsky.pointwise-68"),
    ({"nemytsky.integrand": "plain"}, "nemytsky.integrand", "nemytsky.integrand-69"),
    ({"nemytsky.damping_profile": "two"}, "nemytsky.damping_profile",
     "nemytsky.damping_profile-70"),
    # non-finite numbers
    ({"grid.x_max": math.inf}, "grid.x_max", "grid.x_max-71"),
    ({"solver.tol": math.inf}, "solver.tol", "solver.tol-72"),
    ({"nemytsky.eps_star_fraction": math.inf}, "nemytsky.eps_star_fraction",
     "nemytsky.eps_star_fraction-73"),
    ({"certificates.probe_scale": math.nan}, "certificates.probe_scale",
     "certificates.probe_scale-74"),
    ({"certificates.probe_scale": math.inf}, "certificates.probe_scale",
     "certificates.probe_scale-75"),
    ({"kernel.d_star": math.nan}, "kernel.d_star", "kernel.d_star-76"),
    ({"nemytsky.xi": math.nan}, "nemytsky.xi", "nemytsky.xi-77"),
    ({**MIXTURE, "kernel.base.atoms": [[math.nan, 1.0]]}, "kernel.base.atoms",
     "kernel.base.atoms-78"),
    ({**MIXTURE, "kernel.base.atoms": [[0.5, 1.0], [1.0, math.inf]]}, "kernel.base.atoms",
     "kernel.base.atoms-79"),
    # 1e-10 has no dot, so YAML 1.1 reads it as a string
    ({"solver.tol": "1e-10"}, "solver.tol", "solver.tol=1e-10"),
    # every run computes the same certificates: each of these keys takes one
    # value, type included
    ({"certificates.excess_integral": False}, "certificates.excess_integral",
     "certificates.excess_integral=false"),
    ({"certificates.tail_integral": False}, "certificates.tail_integral",
     "certificates.tail_integral=false"),
    ({"certificates.jensen": False}, "certificates.jensen", "certificates.jensen=false"),
    ({"certificates.asymptote": 1}, "certificates.asymptote", "certificates.asymptote=1"),
    ({"certificates.probe_trials": 2}, "certificates.probe_trials",
     "certificates.probe_trials=2"),
    ({"certificates.probe_trials": 5.0}, "certificates.probe_trials",
     "certificates.probe_trials=5.0"),
    ({"certificates.probe_scale": 0.05}, "certificates.probe_scale",
     "certificates.probe_scale=0.05"),
    # grids build_grid refuses: a subnormal panel width, too many nodes
    ({"grid.x_max": 5e-324}, "grid", "grid.x_max=5e-324"),
    ({"grid.n_panels": 2 ** 62}, "grid", "grid.n_panels=2**62"),
    # a panel of more points than the ceiling on their cost
    ({"grid.points_per_panel": 10 ** 6}, "grid.points_per_panel",
     "grid.points_per_panel=10**6"),
    # each combined-equation term is one formula, whatever the key names
    ({"nemytsky.pointwise": "saturating-quadratic"}, "nemytsky.pointwise",
     "nemytsky.pointwise=saturating-quadratic"),
    ({"nemytsky.integrand": "scaled-reflected"}, "nemytsky.integrand",
     "nemytsky.integrand=scaled-reflected"),
    # an integer beyond float range is no finite number, like .inf
    ({"grid.x_max": 10 ** 400}, "grid.x_max", "grid.x_max=10**400"),
    ({"nemytsky.xi": 10 ** 400}, "nemytsky.xi", "nemytsky.xi=10**400"),
    ({**MIXTURE, "kernel.base.atoms": [[10 ** 400, 1.0]]}, "kernel.base.atoms",
     "kernel.base.atoms=[[10**400,1.0]]"),
]


def _override(tree, dotted, value):
    *parents, key = dotted.split(".")
    for name in parents:
        tree = tree[name]
    if value is DROP:
        del tree[key]
    else:
        tree[key] = value


@pytest.mark.parametrize("overrides,path",
                         [pytest.param(overrides, path, id=id_) for overrides, path, id_ in ERRORS])
def test_single_error_names_its_path(overrides, path):
    tree = copy.deepcopy(BASE)
    for dotted, value in overrides.items():
        _override(tree, dotted, value)
    with pytest.raises(ConfigError) as info:
        parse_config(tree)
    assert info.value.path == path


# each spec checks its own ranges; the config maps a refused field to its key
SPEC_REFUSALS = {
    "grid-x_max": (lambda: HalfLineGrid(-1.0, 3, 2), "x_max"),
    "grid-subnormal-h": (lambda: HalfLineGrid(5e-324, 1, 1), None),
    "grid-x_max-beyond-float": (lambda: HalfLineGrid(10 ** 400, 1, 1), "x_max"),
    "base-variant": (lambda: BaseKernel("cauchy"), "variant"),
    "base-gaussian-atoms": (lambda: BaseKernel("gaussian", ((0.5, 1.0),)), "atoms"),
    "base-mass": (lambda: BaseKernel("exp-mixture", ((0.25, 1.0),)), None),
    "base-atom-beyond-float": (lambda: BaseKernel("exp-mixture", ((10 ** 400, 1.0),)),
                               "atoms"),
    "modulation-l": (lambda: ModulationSet(l=1.0), "l"),
    "kernel-delta": (lambda: KernelSpec("B", BaseKernel(), ModulationSet()), "delta"),
    "G-family": (lambda: NonlinearitySpec("IV", alpha=0.5), "family"),
    "G-alpha_tilde": (lambda: NonlinearitySpec("III", alpha_star=0.5, alpha_tilde=0.5),
                      "alpha_tilde"),
    "nemytsky-damping": (lambda: NemytskySpec(NonlinearitySpec("I", alpha=0.5), 0.25,
                                              damping_profile="two"), "damping_profile"),
}


@pytest.mark.parametrize("case", SPEC_REFUSALS)
def test_spec_refusal_names_its_field(case):
    make, field = SPEC_REFUSALS[case]
    with pytest.raises(FieldError) as info:
        make()
    # still a ValueError, whose message starts with the field it names
    assert isinstance(info.value, ValueError) and info.value.field == field
    assert str(info.value) == (f"{field} {info.value.rule}" if field else info.value.rule)


README_TREE = yaml.safe_load(readme_config())
# every number key of the README tree, integers and floats alike
NUMBER_KEYS = sorted(f"{section}.{key}" for section, keys in README_TREE.items()
                     for key, value in keys.items()
                     if isinstance(value, (int, float)) and not isinstance(value, bool))
ODD_VALUES = st.one_of(
    st.sampled_from([10 ** 400, -10 ** 400, math.inf, -math.inf, math.nan, True, False,
                     0, 0.0, -1, -0.5, "0.5", "1e-10", "big", None, [0.5], {}]),
    st.integers(-3, 64),             # in and around the integer ranges, on grids kept small
    st.floats(-2.0, 2.0),            # in and around the unit intervals
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(overrides=st.dictionaries(st.sampled_from(NUMBER_KEYS), ODD_VALUES,
                                 min_size=1, max_size=3))
def test_parse_config_raises_only_config_errors(overrides):
    # whatever a number key holds, the config is read or refused with a
    # ConfigError: no spec's ValueError, no OverflowError, no RuntimeWarning
    tree = copy.deepcopy(README_TREE)
    for dotted, value in overrides.items():
        _override(tree, dotted, value)
    try:
        parse_config(tree)
    except ConfigError:
        pass


@pytest.mark.parametrize("text, spelling", [
    pytest.param("1e-10", "1.0e-10", id="no-dot"),
    pytest.param("1E5", "100000.0", id="capital-e"),
    pytest.param("1.0e10", "10000000000.0", id="unsigned-exponent"),
    pytest.param("'0.5'", "0.5", id="quoted"),
    pytest.param('"2"', "2.0", id="quoted-integer"),
    pytest.param("1e-300", "1.0e-300", id="tiny"),
])
def test_number_read_as_a_string_names_its_spelling(tmp_path, text, spelling):
    # the value is still rejected; the message names the cause and the fix,
    # and the fix reads back as the same float
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(BASE).replace("tol: 1.0e-10", f"tol: {text}"))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.path == "solver.tol"
    assert str(info.value) == (
        f"solver.tol: must be a finite number, got the string {yaml.safe_load(text)!r}; "
        f"YAML 1.1 reads a float only unquoted, with a dot and any exponent signed: "
        f"write {spelling}")
    assert yaml.safe_load(spelling) == float(yaml.safe_load(text))
    path.write_text(path.read_text().replace(f"tol: {text}", f"tol: {spelling}"))
    assert load_config(path).tol == float(yaml.safe_load(text))


@pytest.mark.parametrize("text", ["big", "inf", "nan", "1e999"])
def test_non_number_string_keeps_the_plain_message(text):
    tree = copy.deepcopy(BASE)
    tree["solver"]["tol"] = text
    with pytest.raises(ConfigError) as info:
        parse_config(tree)
    assert str(info.value) == f"solver.tol: must be a finite number, got {text!r}"


def test_grid_out_of_memory_is_a_config_error(monkeypatch):
    # a grid too large to allocate (n_panels: 100000000000 asks for 745 GiB)
    # fails while the config is parsed, as numpy fails an allocation
    def build_grid(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(hammerstein.config, "build_grid", build_grid)
    with pytest.raises(ConfigError) as info:
        parse_config(copy.deepcopy(BASE))
    assert info.value.path == "grid"
    assert str(info.value) == "grid: Unable to allocate 745. GiB for an array"


def test_fixed_certificate_keys_echo_their_one_value():
    # the probe's constants are the one source of the values the keys accept
    echo = parse_config(copy.deepcopy(BASE)).echo["certificates"]
    fixed = {"excess_integral": True, "tail_integral": True, "jensen": True,
             "asymptote": True, "probe_trials": PROBE_TRIALS, "probe_scale": PROBE_SCALE}
    assert {key: echo[key] for key in fixed} == fixed
    assert type(echo["probe_trials"]) is int and type(echo["probe_scale"]) is float
    tree = copy.deepcopy(BASE)
    tree["certificates"].update(fixed)
    assert parse_config(tree).echo["certificates"] == echo
    fixed_keys = {key for keys in hammerstein.config._FIXED.values() for key in keys}
    assert not fixed_keys & {field.name for field in dataclasses.fields(RunConfig)}


def test_base_tree_parses():
    assert parse_config(copy.deepcopy(BASE)).echo["kernel"]["epsilon"] == 0.5


def test_seed_override_is_read_like_the_key():
    tree = copy.deepcopy(BASE)
    config = parse_config(tree, seed=3)
    assert config.seed == 3 and config.echo["certificates"]["seed"] == 3
    assert tree["certificates"]["seed"] == 7          # the tree itself is untouched
    del tree["certificates"]
    assert parse_config(tree, seed=0).echo["certificates"]["seed"] == 0
    with pytest.raises(ConfigError) as info:
        parse_config(copy.deepcopy(BASE), seed=-5)
    assert info.value.path == "certificates.seed"


@pytest.mark.parametrize("tree", [None, [], "kernel"])
def test_root_must_be_a_mapping(tree):
    with pytest.raises(ConfigError) as info:
        parse_config(tree)
    assert info.value.path == "<root>"


def test_utf16_config_with_a_bom_reads_as_its_utf8_copy(tmp_path):
    # the YAML loader decodes the file's bytes, not the locale: UTF-16 after
    # its byte-order mark is the same config
    utf8, utf16 = tmp_path / "utf8.yaml", tmp_path / "utf16.yaml"
    utf8.write_bytes(readme_config().encode("utf-8"))
    utf16.write_bytes(readme_config().encode("utf-16"))
    assert utf16.read_bytes()[:2] in (b"\xff\xfe", b"\xfe\xff")
    assert load_config(utf16).echo == load_config(utf8).echo
