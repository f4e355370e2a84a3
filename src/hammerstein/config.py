"""Run configuration: a YAML key-value tree, validated with named paths.

Every parameter is checked against its admissible interval at parse time;
violations raise :class:`~hammerstein.errors.ConfigError` carrying the dotted
path of the offending key (e.g. ``nonlinearity.alpha``).  The normalised
tree (defaults filled in) is echoed into reports so a run can be reproduced
from its own report: it is exactly the set of values the parser read.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import yaml

from .errors import ConfigError
from .kernels import FAMILIES as KERNEL_FAMILIES, BaseKernel, KernelSpec, ModulationSet
from .nemytsky import (DAMPING_PROFILES, INTEGRAND_FAMILIES, POINTWISE_FAMILIES,
                       NemytskySpec)
from .nonlinearity import FAMILIES as G_FAMILIES, NonlinearitySpec
from .quadrature import GAUSS, HalfLineGrid, build_grid

# libyaml's C parser where PyYAML was built with it, the pure-python one otherwise
SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_CERT_SWITCHES = ("excess_integral", "tail_integral", "jensen", "asymptote",
                  "uniqueness_probe")


def _is_number(val) -> bool:
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and math.isfinite(val))


def _is_atom(val) -> bool:
    return isinstance(val, (list, tuple)) and len(val) == 2 and all(map(_is_number, val))


def _float_spelling(val) -> str | None:
    """A string float() reads as a finite number, spelt as YAML 1.1 reads a
    float (1e-10 as 1.0e-10; repr signs the exponent); None for anything else."""
    try:
        value = float(val) if isinstance(val, str) else math.nan
    except ValueError:
        return None
    return re.sub(r"^(-?\d+)(?=e|$)", r"\1.0", repr(value)) if math.isfinite(value) else None


_POSITIVE = (lambda v: v > 0.0, "must be positive")
_OPEN_UNIT = (lambda v: 0.0 < v < 1.0, "must lie in the open interval (0.0, 1.0)")


class _Section:
    """One mapping of the tree, read key by key.

    Each read validates one key, fills its default and records the value it
    returns in ``echo``; :meth:`close` rejects every key that was never read.
    """

    def __init__(self, raw: dict, path: str, echo: dict):
        self.raw, self.path, self.echo = raw, path, echo

    def _where(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def section(self, key: str, required: bool = False) -> _Section:
        raw = self.raw.get(key)
        if raw is None:
            if required:
                raise ConfigError(self._where(key), "section is missing")
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(self._where(key), "must be a mapping")
        self.echo[key] = {}
        return _Section(raw, self._where(key), self.echo[key])

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
        spelling = _float_spelling(self.raw.get(key))   # PyYAML reads 1e-10 as a string
        if spelling is not None:
            raise ConfigError(self._where(key), (
                f"must be a finite number, got the string {self.raw[key]!r}; YAML 1.1 reads "
                f"a float only unquoted, with a dot and any exponent signed: write {spelling}"))
        return self.read(key, default, (_is_number, "must be a finite number"), *checks,
                         cast=float)

    def integer(self, key: str, default: int, least: int) -> int:
        return self.read(key, default,
                         (lambda v: isinstance(v, int) and not isinstance(v, bool),
                          "must be an integer"),
                         (lambda v: v >= least, f"must be at least {least}"))

    def boolean(self, key: str, default: bool) -> bool:
        return self.read(key, default, (lambda v: isinstance(v, bool), "must be a boolean"))

    def choice(self, key: str, allowed, default=None) -> str:
        return self.read(key, default,
                         (lambda v: v in allowed, f"must be one of {sorted(allowed)}"))

    def close(self, **reasons: str) -> None:
        """Reject the first key never read, with its ``reasons`` entry if any."""
        for key in self.raw:
            if key not in self.echo:
                raise ConfigError(self._where(key), reasons.get(key, "unknown key"))


@dataclass
class CertificateSettings:
    excess_integral: bool
    tail_integral: bool
    jensen: bool
    asymptote: bool
    uniqueness_probe: bool
    probe_trials: int
    probe_scale: float
    seed: int


@dataclass
class RunConfig:
    """Validated configuration with constructed domain objects and its echo tree."""

    kernel: KernelSpec
    nonlinearity: NonlinearitySpec
    grid: HalfLineGrid
    tol: float
    max_iter: int
    nemytsky: NemytskySpec | None
    certificates: CertificateSettings
    echo: dict


def parse_config(tree: dict, seed: int | None = None) -> RunConfig:
    """Validate a configuration tree and build the domain objects; ``seed``
    overrides ``certificates.seed`` and is checked like it."""
    if not isinstance(tree, dict):
        raise ConfigError("<root>", "configuration must be a mapping")
    root = _Section(tree, "", {})

    g = root.section("grid", required=True)
    x_max = g.number("x_max", 40.0, _POSITIVE)
    n_panels = g.integer("n_panels", 400, least=1)
    rule = g.choice("rule", (GAUSS,), GAUSS)
    points = g.integer("points_per_panel", 4, least=1)
    g.close()
    grid = build_grid(x_max, n_panels, rule, points)

    k = root.section("kernel", required=True)
    family = k.choice("family", KERNEL_FAMILIES)
    b = k.section("base")
    variant = b.choice("variant", ("gaussian", "exp-mixture"), "gaussian")
    atoms = None
    if variant == "exp-mixture":
        atoms = b.read("atoms", None,
                       (lambda v: isinstance(v, list) and v and all(map(_is_atom, v)),
                        "must be a non-empty list of [c, s] pairs of finite numbers"),
                       cast=lambda v: [[float(c), float(s)] for c, s in v])
    b.close(atoms="only the exp-mixture variant takes atoms")
    try:
        base = BaseKernel(variant=variant, atoms=atoms)
    except ValueError as exc:
        raise ConfigError("kernel.base", str(exc)) from exc
    modulation = ModulationSet(
        lambda_form=k.choice("lambda_form", ("exp-gap", "rational-gap"), "exp-gap"),
        d_star=k.number("d_star", 0.5, (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")),
        l=k.number("l", 0.5, _OPEN_UNIT))
    delta = k.number("delta", 0.5, _OPEN_UNIT) if family == "B" else None
    epsilon = k.number("epsilon", 0.5, _OPEN_UNIT) if family == "C" else None
    k.close(delta="only family B takes delta", epsilon="only family C takes epsilon")
    kernel = KernelSpec(family=family, base=base, modulation=modulation,
                        delta=delta, epsilon=epsilon)

    n = root.section("nonlinearity", required=True)
    gfam = n.choice("family", G_FAMILIES)
    alpha = alpha_star = alpha_tilde = None
    if gfam == "I":
        alpha = n.number("alpha", 0.5, _OPEN_UNIT)
    else:
        alpha_star = n.number("alpha_star", 0.5 if gfam == "II" else 0.75, _OPEN_UNIT)
    if gfam == "III":
        alpha_tilde = n.number("alpha_tilde", 0.25, (
            lambda v: 0.0 < v < alpha_star,
            f"must lie in (0, alpha_star) = (0, {alpha_star})"))
    n.close(alpha="only family I takes alpha",
            alpha_star="only families II and III take alpha_star",
            alpha_tilde="only family III takes alpha_tilde")
    nonlinearity = NonlinearitySpec(family=gfam, alpha=alpha, alpha_star=alpha_star,
                                    alpha_tilde=alpha_tilde)

    s = root.section("solver")
    tol = s.number("tol", 1e-10, _POSITIVE)
    max_iter = s.integer("max_iter", 500, least=1)
    s.close()

    nemytsky = None
    if "nemytsky" in tree:
        m = root.section("nemytsky", required=True)
        half_eta = 0.5 * nonlinearity.eta
        nemytsky = NemytskySpec(
            base_G=nonlinearity,
            pointwise_family=m.choice("pointwise", POINTWISE_FAMILIES, "saturating"),
            integrand_family=m.choice("integrand", INTEGRAND_FAMILIES, "reflected"),
            xi=m.number("xi", 0.25, (lambda v: 0.0 < v < half_eta,
                                     f"must lie in (0, eta/2) = (0, {half_eta})")),
            eps_star_fraction=m.number("eps_star_fraction", 0.0,
                                       (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")),
            damping_profile=m.choice("damping_profile", DAMPING_PROFILES, "one"))
        m.close()

    c = root.section("certificates")
    if seed is not None:
        c.raw = {**c.raw, "seed": seed}
    certificates = CertificateSettings(
        **{name: c.boolean(name, True) for name in _CERT_SWITCHES},
        probe_trials=c.integer("probe_trials", 5, least=1),
        probe_scale=c.number("probe_scale", 0.1, _POSITIVE),
        seed=c.integer("seed", 12345, least=0))
    c.close()
    root.close(checks="the kernel checks take no settings (their tolerance is "
                      "kernels.CHECK_TOL, domination is proven); remove this section")

    return RunConfig(kernel=kernel, nonlinearity=nonlinearity, grid=grid,
                     tol=tol, max_iter=max_iter, nemytsky=nemytsky,
                     certificates=certificates, echo=root.echo)


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
