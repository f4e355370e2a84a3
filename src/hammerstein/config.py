"""Run configuration: a YAML key-value tree, validated with named paths.

The spec each section builds checks its parameters' admissible ranges; the
config checks each value's type and turns a refusal into a
:class:`~hammerstein.errors.ConfigError` carrying the dotted path of the
offending key (e.g. ``nonlinearity.alpha``).  The normalised
tree (defaults filled in) is echoed into reports so a run can be reproduced
from its own report: it is exactly the set of values the parser read.
The keys of ``_FIXED`` select nothing, so each is read and echoed at its
one value, type included.

The loader reads a plain scalar with an exponent as a float, as YAML 1.2's
core schema does (``1e-10``, ``1E5``, ``-.5e-3``); everything else follows
PyYAML's safe loader, so a quoted number is a string.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import yaml

from .analysis import PROBE_SCALE, PROBE_TRIALS
from .errors import ConfigError, FieldError
from .kernels import FAMILIES as KERNEL_FAMILIES, VARIANTS, BaseKernel, KernelSpec, ModulationSet
from .nemytsky import NemytskySpec
from .nonlinearity import FAMILIES as G_FAMILIES, NonlinearitySpec
from .quadrature import GAUSS, HalfLineGrid, build_grid


class SAFE_LOADER(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's C parser where PyYAML was built with it, the pure-python one otherwise."""


# a plain number with an exponent is a float, as in YAML 1.2: YAML 1.1 wants a
# dot and a signed exponent, so PyYAML alone reads 1e-10 as a string
SAFE_LOADER.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+$"), list("-+.0123456789"))
# the keys that select nothing, by section, each with the one value it takes
_FIXED = {"grid": {"rule": GAUSS},
          "nemytsky": {"pointwise": "saturating", "integrand": "reflected"},
          "certificates": {"excess_integral": True, "tail_integral": True, "jensen": True,
                           "asymptote": True, "probe_trials": PROBE_TRIALS,
                           "probe_scale": PROBE_SCALE}}


def _is_number(val) -> bool:
    try:
        return (isinstance(val, (int, float)) and not isinstance(val, bool)
                and math.isfinite(val))
    except OverflowError:       # an int beyond float range, which no float holds
        return False


def _is_atom(val) -> bool:
    return isinstance(val, (list, tuple)) and len(val) == 2 and all(map(_is_number, val))


class _Section:
    """One mapping of the tree, read key by key.

    Each read validates one key, fills its default and records the value it
    returns in ``echo``; :meth:`close` rejects every key that was never read.
    :meth:`section` reads the new section's keys of ``_FIXED`` as it opens it,
    and :meth:`build` builds a spec from the values read.
    """

    def __init__(self, raw: dict, path: str, echo: dict):
        self.raw, self.path, self.echo = raw, path, echo

    def _where(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def section(self, key: str, required: bool = False) -> _Section:
        if required and key not in self.raw:
            raise ConfigError(self._where(key), "section is missing")
        raw = self.raw.get(key)
        if raw is None and not required:    # an optional section left empty: its defaults
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(self._where(key), "must be a mapping")
        self.echo[key] = {}
        section = _Section(raw, self._where(key), self.echo[key])
        for name, value in _FIXED.get(section.path, {}).items():  # type included: 1 is not true
            section.read(name, value, (lambda v: type(v) is type(value) and v == value,
                                       f"takes only the value {value!r}, fixed in every run"))
        return section

    def read(self, key: str, default, *checks, cast=None):
        """The value of ``key``, ``default`` when absent.  Each check is a
        (test, rule) pair, applied in order; ``cast`` converts the value once
        every check has passed."""
        val = self.raw.get(key, default)
        for test, rule in checks:
            if not test(val):
                raise ConfigError(self._where(key), f"{rule}, got {val!r}")
        if cast is not None:
            val = cast(val)
        self.echo[key] = val
        return val

    def number(self, key: str, default: float, *checks) -> float:
        return self.read(key, default, (_is_number, "must be a finite number"), *checks,
                         cast=float)

    def integer(self, key: str, default: int, *checks) -> int:
        return self.read(key, default,
                         (lambda v: isinstance(v, int) and not isinstance(v, bool),
                          "must be an integer"), *checks)

    def choice(self, key: str, allowed, default=None) -> str:
        return self.read(key, default,
                         (lambda v: v in allowed, f"must be one of {sorted(allowed)}"))

    def close(self, **reasons: str) -> None:
        """Reject the first key never read, with its ``reasons`` entry if any."""
        for key in self.raw:
            if key not in self.echo:
                raise ConfigError(self._where(key), reasons.get(key, "unknown key"))

    def build(self, make, *args, **fields):
        """The spec ``make(*args, **fields)``.  A field it refuses is a ConfigError at
        that key; a rule on the fields together, or a MemoryError, one at this section."""
        try:
            return make(*args, **fields)
        except FieldError as exc:
            raise ConfigError(self._where(exc.field) if exc.field else self.path,
                              exc.rule) from exc
        except MemoryError as exc:
            raise ConfigError(self.path, str(exc) or "out of memory") from exc


@dataclass
class RunConfig:
    """Validated configuration with constructed domain objects and its echo tree."""

    kernel: KernelSpec
    nonlinearity: NonlinearitySpec
    grid: HalfLineGrid
    tol: float
    max_iter: int
    uniqueness_probe: bool
    seed: int
    nemytsky: NemytskySpec | None
    echo: dict


def parse_config(tree: dict, seed: int | None = None) -> RunConfig:
    """Validate a configuration tree and build the domain objects; ``seed``
    overrides ``certificates.seed`` and is checked like it."""
    if not isinstance(tree, dict):
        raise ConfigError("<root>", "configuration must be a mapping")
    root = _Section(tree, "", {})

    g = root.section("grid", required=True)
    x_max = g.number("x_max", 40.0)
    n_panels = g.integer("n_panels", 400)
    points = g.integer("points_per_panel", 4)
    g.close()
    grid = g.build(build_grid, x_max, n_panels, GAUSS, points)

    k = root.section("kernel", required=True)
    family = k.choice("family", KERNEL_FAMILIES)
    b = k.section("base")
    variant = b.choice("variant", VARIANTS, "gaussian")
    atoms = None
    if variant == "exp-mixture":
        atoms = b.read("atoms", None,
                       (lambda v: isinstance(v, list) and v and all(map(_is_atom, v)),
                        "must be a non-empty list of [c, s] pairs of finite numbers"),
                       cast=lambda v: [[float(c), float(s)] for c, s in v])
    b.close(atoms="only the exp-mixture variant takes atoms")
    base = b.build(BaseKernel, variant=variant, atoms=atoms)
    modulation = k.build(ModulationSet, lambda_form=k.read("lambda_form", "exp-gap"),
                         d_star=k.number("d_star", 0.5), l=k.number("l", 0.5))
    delta = k.number("delta", 0.5) if family == "B" else None
    epsilon = k.number("epsilon", 0.5) if family == "C" else None
    k.close(delta="only family B takes delta", epsilon="only family C takes epsilon")
    kernel = k.build(KernelSpec, family=family, base=base, modulation=modulation,
                     delta=delta, epsilon=epsilon)

    n = root.section("nonlinearity", required=True)
    gfam = n.choice("family", G_FAMILIES)
    alpha = alpha_star = alpha_tilde = None
    if gfam == "I":
        alpha = n.number("alpha", 0.5)
    else:
        alpha_star = n.number("alpha_star", 0.5 if gfam == "II" else 0.75)
    if gfam == "III":
        alpha_tilde = n.number("alpha_tilde", 0.25)
    n.close(alpha="only family I takes alpha",
            alpha_star="only families II and III take alpha_star",
            alpha_tilde="only family III takes alpha_tilde")
    nonlinearity = n.build(NonlinearitySpec, family=gfam, alpha=alpha, alpha_star=alpha_star,
                           alpha_tilde=alpha_tilde)

    s = root.section("solver")
    tol = s.number("tol", 1e-10, (lambda v: v > 0.0, "must be positive"))
    max_iter = s.integer("max_iter", 500, (lambda v: v >= 1, "must be at least 1"))
    s.close()

    nemytsky = None
    if "nemytsky" in tree:
        m = root.section("nemytsky", required=True)
        xi, fraction = m.number("xi", 0.25), m.number("eps_star_fraction", 0.0)
        profile = m.read("damping_profile", "one")
        m.close()
        nemytsky = m.build(NemytskySpec, base_G=nonlinearity, xi=xi,
                           eps_star_fraction=fraction, damping_profile=profile)

    c = root.section("certificates")
    if seed is not None:
        c.raw = {**c.raw, "seed": seed}
    probe = c.read("uniqueness_probe", True, (lambda v: isinstance(v, bool), "must be a boolean"))
    seed = c.integer("seed", 12345, (lambda v: v >= 0, "must be at least 0"))
    c.close()
    root.close(checks="the kernel checks take no settings (their tolerance is "
                      "kernels.CHECK_TOL, domination is proven); remove this section")

    return RunConfig(kernel=kernel, nonlinearity=nonlinearity, grid=grid, tol=tol,
                     max_iter=max_iter, uniqueness_probe=probe, seed=seed,
                     nemytsky=nemytsky, echo=root.echo)


def read_yaml(path):
    """The YAML tree of a file; one that cannot be read or parsed is a ConfigError.

    The loader decodes the bytes (UTF-8, or UTF-16 after its byte-order
    mark), not the locale, and bytes it cannot decode are a YAML error.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read: {exc.strerror or exc}") from exc
    try:
        return yaml.load(data, Loader=SAFE_LOADER)
    except yaml.YAMLError as exc:
        reason = " ".join(str(exc).split())     # a YAML error spans lines
        raise ConfigError(str(path), f"invalid YAML: {reason}") from exc


def load_config(path, seed: int | None = None) -> RunConfig:
    """Read and validate a YAML configuration file (see :func:`parse_config`)."""
    tree = read_yaml(path)
    if tree is None:
        raise ConfigError(str(path), "config file is empty")
    return parse_config(tree, seed)
