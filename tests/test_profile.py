"""``profile.csv``: the one gamma in it, and its number formatting."""

from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from conftest import readme_config
from hammerstein.cli import PROFILE_BLOCK_ROWS, _write_profile, main
from hammerstein.config import parse_config


def test_readme_config_is_its_own_echo():
    # the example shows every key at its echoed value, defaults included
    tree = yaml.safe_load(readme_config())
    assert parse_config(tree).echo == tree


def test_readme_profile_has_one_gamma(tmp_path):
    # the one gamma column gives the combined solve's floor xi * gamma, and
    # f_star its ceiling eta - f_star = 1 - f_star: the profile holds the
    # sandwich without writing either envelope
    cfg = tmp_path / "readme.yaml"
    cfg.write_text(readme_config())
    out = tmp_path / "out"
    assert main(["solve-nemytsky", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "profile.csv").read_text().splitlines()[0] == "x,f_star,gamma,phi"
    xi = yaml.safe_load((out / "report.yaml").read_text())["config"]["nemytsky"]["xi"]
    data = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    assert data.shape == (1600, 4)
    _, fstar, gamma, phi = data.T
    assert gamma.min() > 0.0
    assert float((xi * gamma - phi).max()) <= 1e-10
    assert float((phi - (1.0 - fstar)).max()) <= 1e-10


def _per_value_format(columns, data):
    """The former writer of profile.csv, one f-string per value: the oracle."""
    rows = [",".join(columns)]
    for i in range(data[0].size):
        rows.append(",".join(f"{col[i]:.17g}" for col in data))
    return "\n".join(rows) + "\n"


def test_profile_matches_per_value_formatting(tmp_path):
    rng = np.random.default_rng(11)
    n = 1600
    cols = rng.standard_normal((4, n)) * 10.0 ** rng.integers(-320, 300, (4, n))
    special = np.array([0.0, -0.0, 5e-324, -2.5e-310, np.finfo(float).tiny, 1.0 / 3.0])
    for k in range(4):
        cols[k, :special.size] = np.roll(special, k)
    grid = SimpleNamespace(nodes=cols[0], size=n)
    base = ["x", "f_star", "gamma"]

    _write_profile(tmp_path / "a.csv", grid, cols[1], cols[2])
    assert (tmp_path / "a.csv").read_text() == _per_value_format(base, list(cols[:3]))
    _write_profile(tmp_path / "b.csv", grid, cols[1], cols[2], cols[3])
    assert (tmp_path / "b.csv").read_text() == _per_value_format(base + ["phi"], list(cols))


@pytest.mark.parametrize("n", [1, PROFILE_BLOCK_ROWS - 1, PROFILE_BLOCK_ROWS,
                               PROFILE_BLOCK_ROWS + 1, 3 * PROFILE_BLOCK_ROWS + 17])
@pytest.mark.parametrize("combined", [False, True], ids=["4-columns", "7-columns"])
def test_profile_matches_savetxt(tmp_path, n, combined):
    # the block writer against the np.savetxt call it replaced, byte for byte;
    # the ids name the former layout, whose file with the derived columns
    # (eta_minus_fstar, lower_env, upper_env) cut out is the new file
    rng = np.random.default_rng(n)
    cols = rng.standard_normal((6, n)) * 10.0 ** rng.integers(-300, 300, (6, n))
    special = np.array([-0.0, 1e-300, 0.0, -1e-300, 5e-324, 1.0 / 3.0])
    for k in range(6):
        cols[k, :min(n, special.size)] = np.roll(special, k)[:n]
    grid = SimpleNamespace(nodes=cols[0], size=n)
    columns = ["x", "f_star", "gamma", "phi"][:3 + combined]
    data = list(cols[:3 + combined])
    _write_profile(tmp_path / "blocks.csv", grid, cols[1], cols[2],
                   cols[3] if combined else None)
    np.savetxt(tmp_path / "savetxt.csv", np.column_stack(data), fmt="%.17g",
               delimiter=",", header=",".join(columns), comments="")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "savetxt.csv").read_bytes()

    former = [cols[0], cols[1], cols[2], 1.0 - cols[1]]
    former_columns = ["x", "f_star", "gamma", "eta_minus_fstar"]
    if combined:
        former += [cols[3], cols[4], cols[5]]
        former_columns += ["phi", "lower_env", "upper_env"]
    np.savetxt(tmp_path / "former.csv", np.column_stack(former), fmt="%.17g",
               delimiter=",", header=",".join(former_columns), comments="")
    kept = [0, 1, 2, 4][:3 + combined]
    cut = "".join(",".join(line.split(",")[k] for k in kept) + "\n"
                  for line in (tmp_path / "former.csv").read_text().splitlines())
    assert (tmp_path / "blocks.csv").read_text() == cut
