"""Large-cell smokes: `python -m thetadim.cli` on cells whose answers are
known in closed form, each in a fresh process under a wall-clock timeout."""

import json
import subprocess
import sys

import pytest

from test_cli import _env_with_src
from thetadim.cli import EXIT_CERTIFICATION, EXIT_OK


def _cli(argv, timeout):
    """(exit code, stdout) of `python -m thetadim.cli` with `argv`."""
    proc = subprocess.run(
        [sys.executable, "-m", "thetadim.cli", *argv],
        capture_output=True, text=True, env=_env_with_src(), timeout=timeout,
    )
    assert "Traceback" not in proc.stderr
    return proc.returncode, proc.stdout


@pytest.mark.parametrize(
    "g,n,k,timeout,value",
    [
        # 92,378 subsets grouped into 2,377 pair-offset profiles
        (2, 10, 10, 60, 32849636921916053280),
        # rank 2 at level 2000 is 1,001 one-factor terms, C(2003, 3)
        (2, 2, 2000, 5, 1337337001),
        # the level-one law s(3, 0, 1) = 3^90 at the 128-bit rung that the
        # proved 4-unit sine width gives
        (90, 3, 1, 5, 3**90),
        # genus 1 is the closed form C(h+k-1, k) past the subset bound
        (1, 12, 12, 5, 1352078),
        # the level-one law s(4, 0, 1) = 4^g at genus 2000, a 4001-bit value
        # certified with 4,096-bit sines
        (2000, 4, 1, 5, 4**2000),
    ],
    ids=["2-10-10", "2-2-2000", "90-3-1", "1-12-12", "2000-4-1"],
)
def test_large_cell_prints_its_value(g, n, k, timeout, value):
    argv = ["dim", "sl", "-g", str(g), "-n", str(n), "-d", "0", "-k", str(k)]
    assert _cli(argv, timeout) == (EXIT_OK, f"{value}\n")


def test_sweep_past_the_cap_names_its_uncertified_inputs():
    # a theorem1 sweep past the 64-bit cap reports its uncertified instances
    # and exits 3, and its JSON names all 141 of them by (g, n, d, k)
    argv = ["check", "theorem1", "--max-precision-bits", "64", "--genus-range", "2..40"]
    code, out = _cli(argv, 10)
    assert code == EXIT_CERTIFICATION
    assert out.startswith("check theorem1:") and "uncertified" in out
    code, out = _cli([*argv, "--format", "json"], 10)
    assert code == EXIT_CERTIFICATION
    inputs = json.loads(out)["uncertified"]
    assert len(inputs) == 141
    assert all(len(i) == 4 and 2 <= i[0] <= 40 for i in inputs), inputs
