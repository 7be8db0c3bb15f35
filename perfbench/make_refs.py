"""Regenerate the committed references in perfbench/refs/.

    PYTHONPATH=src python3 perfbench/make_refs.py

Lookup references are computed without thetadim: an mpmath brute force
over all n-subsets of {1..n+k} (the method of tests/trig_oracle.py), at a
working precision well above the value's size, and accepted only when the
sum lies within 1e-20 of an integer.  GL values follow from the transfer
v = s * (k/h)^g with h = gcd(n, d) = n, checked to divide exactly.

CLI goldens are the stdout bytes and exit code of each catalogue argv.
Every exit code is checked against the contract in cli.py's docstring, and
the value printed by every `dim` and `table` operation is checked against
the independent values (brute force, genus-1 binomial, rank one).  The
known-defect slot records the documented contract (exit 64, no output),
not what the program does today.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from itertools import combinations

import mpmath as mp

import workloads as W


def subset_products(n: int, k: int) -> list:
    """prod_{s in S, t not in S} |2 sin(pi (s - t)/(n + k))| for every n-subset S."""
    modulus = n + k
    two_sin = [abs(2 * mp.sin(mp.pi * j / modulus)) for j in range(modulus)]
    products = []
    for subset in combinations(range(1, modulus + 1), n):
        inside = set(subset)
        p = mp.mpf(1)
        for s in subset:
            for t in range(1, modulus + 1):
                if t not in inside:
                    p *= two_sin[abs(s - t)]
        products.append(p)
    return products


def brute_force(g: int, n: int, k: int, products: list) -> int:
    value = (mp.mpf(n) / (n + k)) ** g * mp.fsum(p ** (g - 1) for p in products)
    nearest = int(mp.nint(value))
    if abs(value - nearest) >= mp.mpf(10) ** -20:
        raise SystemExit(f"({g}, {n}, {k}) is not within 1e-20 of an integer: {value}")
    return nearest


def sl_values(cells) -> dict:
    """{(g, n, k): s} by brute force, products shared across genera."""
    values = {}
    cache = {}
    for g, n, k in cells:
        if (n, k) not in cache:
            cache[(n, k)] = subset_products(n, k)
        values[(g, n, k)] = brute_force(g, n, k, cache[(n, k)])
    return values


def transfer(s: int, g: int, k: int, h: int) -> int:
    v, remainder = divmod(s * k**g, h**g)
    if remainder:
        raise SystemExit(f"h^g does not divide s*k^g for g={g}, k={k}, h={h}")
    return v


def lookup_refs() -> dict:
    out = {}
    with mp.workdps(150):
        for name, cells in (("lookup-wide", W.wide_candidates()),
                            ("lookup-deep", W.deep_candidates())):
            rows = []
            for (g, n, k), s in sl_values(cells).items():
                if name == "lookup-deep" and not W.DEEP_BITS[0] <= s.bit_length() <= W.DEEP_BITS[1]:
                    continue
                rows.append([g, n, k, str(s), str(transfer(s, g, k, n))])
            out[name] = rows
    return out


EXPECTED_EXIT = {
    "dim-unsupported": 2,
    "usage": 64,
    "check-negative": 1,
    W.KNOWN_DEFECT_SLOT: 64,
}


def independent_dim(argv: list[str], trig: dict) -> int:
    kind, g, n, d, k = argv[1], int(argv[3]), int(argv[5]), int(argv[7]), int(argv[9])
    h = math.gcd(n, d)
    if n == 1:
        s = 1
    elif d % n == 0:
        s = trig[(g, n, k)]
    else:  # genus 1, twisted: symmetric power C(h + k - 1, k)
        s = math.comb(h + k - 1, k)
    return s if kind == "sl" else transfer(s, g, k, h)


def run_in_process(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def table_values(stdout: str, fmt: str) -> list[list[int]]:
    if fmt == "json":
        return [[int(v) for v in row["values"]] for row in json.loads(stdout)["rows"]]
    lines = stdout.splitlines()
    if fmt == "md":
        return [[int(c) for c in line.strip("| ").split(" | ")[1:]] for line in lines[2:]]
    return [[int(c) for c in line.split(",")[1:]] for line in lines[1:]]


def cli_golden() -> dict:
    from thetadim.cli import main

    with mp.workdps(60):
        trig = sl_values([(g, n, k) for g in range(1, 9) for n in (1, 2, 3) for k in (1, 2, 3)])
    golden = {}
    for slot, pool in W.cli_pools().items():
        for argv in pool:
            key = W.argv_key(argv)
            if slot == W.KNOWN_DEFECT_SLOT:
                golden[key] = {"exit": 64, "stdout": ""}
                continue
            code, stdout = run_in_process(main, argv)
            expected = EXPECTED_EXIT.get(slot, 0)
            if code != expected:
                raise SystemExit(f"{key}: exit {code}, contract says {expected}")
            if slot.startswith("dim-") and code == 0:
                text = json.loads(stdout)["value"] if "json" in argv else stdout.strip()
                if int(text) != independent_dim(argv, trig):
                    raise SystemExit(f"{key}: printed {text}, reference {independent_dim(argv, trig)}")
            if slot == "table":
                g, rank, level, fmt = int(argv[2]), int(argv[4]), int(argv[6]), argv[8]
                want = [[trig[(g, n, k)] for k in range(1, level + 1)] for n in range(1, rank + 1)]
                if table_values(stdout, fmt) != want:
                    raise SystemExit(f"{key}: table differs from the reference values")
            golden[key] = {"exit": code, "stdout": stdout}
    return golden


def main() -> None:
    W.REFS.mkdir(exist_ok=True)
    refs = lookup_refs()
    W.LOOKUP_REFS.write_text(json.dumps(refs, indent=0) + "\n")
    print({name: len(rows) for name, rows in refs.items()}, file=sys.stderr)
    golden = cli_golden()
    W.CLI_GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"{len(golden)} CLI goldens", file=sys.stderr)


if __name__ == "__main__":
    main()
