"""``profile.csv``: the one gamma in it, and its number formatting."""

from types import SimpleNamespace

import numpy as np

from hammerstein.cli import _write_profile, main

# the example configuration of the README
README_CONFIG = """\
kernel:
  family: C
  epsilon: 0.5
  d_star: 0.5
  l: 0.5
  lambda_form: exp-gap
  base:
    variant: gaussian
nonlinearity:
  family: I
  alpha: 0.5
grid:
  x_max: 40.0
  n_panels: 400
  rule: gauss
  points_per_panel: 4
solver:
  tol: 1.0e-10
  max_iter: 500
nemytsky:
  pointwise: saturating
  integrand: reflected
  xi: 0.25
  eps_star_fraction: 0.0
  damping_profile: one
certificates:
  excess_integral: true
  tail_integral: true
  jensen: true
  asymptote: true
  uniqueness_probe: true
  probe_trials: 5
  probe_scale: 0.1
  seed: 12345
"""


def test_readme_profile_has_one_gamma(tmp_path):
    # the gamma column and the combined solve's floor xi * gamma share their bits
    cfg = tmp_path / "readme.yaml"
    cfg.write_text(README_CONFIG)
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
