"""``profile.csv``: the one gamma in it, and its number formatting."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import yaml

from hammerstein.cli import _write_profile, main
from hammerstein.config import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_config() -> str:
    """The example configuration of the README, its one ``yaml`` block."""
    text = README.read_text()
    start = text.index("```yaml\n") + len("```yaml\n")
    return text[start:text.index("```", start)]


def test_readme_config_is_its_own_echo():
    # the example shows every key at its echoed value, defaults included
    tree = yaml.safe_load(readme_config())
    assert parse_config(tree).echo == tree


def test_readme_profile_has_one_gamma(tmp_path):
    # the gamma column and the combined solve's floor xi * gamma share their bits
    cfg = tmp_path / "readme.yaml"
    cfg.write_text(readme_config())
    out = tmp_path / "out"
    assert main(["solve-nemytsky", "--config", str(cfg), "--out-dir", str(out)]) == 0
    text = (out / "profile.csv").read_text()
    columns = text.splitlines()[0].split(",")
    data = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    gamma, lower = data[:, columns.index("gamma")], data[:, columns.index("lower_env")]
    assert data.shape == (1600, 7)
    assert np.array_equal(0.25 * gamma, lower)
    assert gamma.min() > 0.0


def _per_value_format(columns, data):
    """The former writer of profile.csv, one f-string per value: the oracle."""
    rows = [",".join(columns)]
    for i in range(data[0].size):
        rows.append(",".join(f"{col[i]:.17g}" for col in data))
    return "\n".join(rows) + "\n"


def test_profile_matches_per_value_formatting(tmp_path):
    rng = np.random.default_rng(11)
    n, eta = 1600, 1.0
    cols = rng.standard_normal((6, n)) * 10.0 ** rng.integers(-320, 300, (6, n))
    special = np.array([0.0, -0.0, 5e-324, -2.5e-310, np.finfo(float).tiny, 1.0 / 3.0])
    for k in range(6):
        cols[k, :special.size] = np.roll(special, k)
    grid = SimpleNamespace(nodes=cols[0], size=n)
    nem = SimpleNamespace(profile=cols[3], lower_env=cols[4], upper_env=cols[5])
    base = ["x", "f_star", "gamma", "eta_minus_fstar"]
    plain = [cols[0], cols[1], cols[2], eta - cols[1]]

    _write_profile(tmp_path / "a.csv", grid, cols[1], cols[2], eta)
    assert (tmp_path / "a.csv").read_text() == _per_value_format(base, plain)
    _write_profile(tmp_path / "b.csv", grid, cols[1], cols[2], eta, nem)
    assert (tmp_path / "b.csv").read_text() == _per_value_format(
        base + ["phi", "lower_env", "upper_env"], plain + [cols[3], cols[4], cols[5]])
