"""CLI tests: output formats, exit codes, JSON round-trips."""

import ast
import contextlib
import io
import itertools
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thetadim
from thetadim import cli, verlinde
from thetadim.checks import CHECK_NAMES
from thetadim.cli import (
    EXIT_CERTIFICATION,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    main,
)
from thetadim.verlinde import UnsupportedQuery, VerlindeQuery, gl_dim, sl_dim
from mutants import first_profile_is_the_second, multiplicity_plus_one

ROOT = Path(__file__).resolve().parents[1]
# stdout bytes and exit code of every argv of the benchmark's CLI catalogue
GOLDEN = ROOT / "perfbench" / "refs" / "cli_golden.json"


def _env_with_src():
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDim:
    def test_sl_text(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "sl", "--genus", "2", "--rank", "2",
                               "--degree", "0", "--level", "1")
        assert code == EXIT_OK
        assert out == "4\n"

    def test_gl_text(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "gl", "--genus", "3", "--rank", "1",
                               "--degree", "5", "--level", "2")
        assert code == EXIT_OK
        assert out == "8\n"

    def test_unsupported(self, capsys):
        code, _, err = run_cli(capsys, "dim", "sl", "--genus", "5", "--rank", "3",
                               "--degree", "7", "--level", "2")
        assert code == EXIT_UNSUPPORTED
        assert "unsupported: degree not ≡ 0 mod rank at genus ≥ 2" in err

    def test_certification_failure(self, capsys):
        code, _, err = run_cli(capsys, "dim", "sl", "--genus", "3", "--rank", "5",
                               "--degree", "0", "--level", "5",
                               "--max-precision-bits", "8")
        assert code == EXIT_CERTIFICATION
        assert "certification failed" in err

    def test_certification_failure_beyond_float_range(self, capsys):
        # a 4001-bit value at a 64-bit cap: the estimate asks for more than
        # twice the cap, so it fails before the sum is evaluated, and the
        # estimated width exceeds any float
        code, _, err = run_cli(capsys, "dim", "sl", "--genus", "2000", "--rank", "4",
                               "--degree", "0", "--level", "1",
                               "--max-precision-bits", "64")
        assert code == EXIT_CERTIFICATION
        assert re.fullmatch(r"certification failed: estimated width 2\*\*\d+\.\d exceeds "
                            r"target 1/4 at the precision cap \(64 bits\)\n", err), err

    def test_certification_failure_before_any_genus_sized_integer(self, capsys):
        # genus 10**7: the kernel gets the genus-free scale 2 * 3 and shift 2,
        # so the estimate fails before the 26-megabit 6**(g - 1) could exist
        code, _, err = run_cli(capsys, "dim", "sl", "-g", "10000000", "-n", "2",
                               "-d", "0", "-k", "1")
        assert code == EXIT_CERTIFICATION
        assert err.startswith("certification failed: estimated width 2**"), err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no int-to-str digit limit")
    @pytest.mark.parametrize("argv, code", [
        (["dim", "gl", "-g", "2000", "-n", "1", "-d", "0", "-k", "1000"], EXIT_OK),
        (["dim", "sl", "-g", "2000", "-n", "4", "-d", "0", "-k", "1",
          "--max-precision-bits", "64"], EXIT_CERTIFICATION),
        (["dim", "sl", "--genus"], EXIT_USAGE),
    ], ids=["ok", "certification", "usage"])
    def test_main_restores_the_int_string_limit(self, capsys, argv, code):
        # main lifts the limit to print 1000**2000 in full, and hands the
        # caller's limit back however it returns
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert run_cli(capsys, *argv)[0] == code
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(previous)

    def test_certification_failure_reports_the_evaluated_width(self, capsys):
        # the same value at a 2048-bit cap: the estimate lies between the cap
        # and twice the cap, so the sum is evaluated at the cap and its
        # width, again beyond float range, is reported
        code, _, err = run_cli(capsys, "dim", "sl", "--genus", "2000", "--rank", "4",
                               "--degree", "0", "--level", "1",
                               "--max-precision-bits", "2048")
        assert code == EXIT_CERTIFICATION
        assert re.fullmatch(r"certification failed: width 2\*\*\d+\.\d exceeds "
                            r"target 1/4 at the precision cap \(2048 bits\)\n", err), err

    def test_broken_proof_is_reported_without_traceback(self, capsys, monkeypatch):
        # a table whose first multiplicity is one too many: s(2, 0, 1) = 6,
        # so the transfer leaves a remainder; with its first profile in place
        # of its second, the (2, 3) sum certifies no integer
        monkeypatch.setattr(verlinde, "reduced_sum_terms", multiplicity_plus_one)
        verlinde.beauville_sum.cache_clear()
        try:
            code, out, err = run_cli(capsys, "dim", "gl", "-g", "2", "-n", "2", "-d", "0",
                                     "-k", "1")
            assert (code, out) == (EXIT_CHECK_FAILED, "")
            assert err.startswith("proof failed: h^g = 4 does not divide s*k^g = 6"), err
            monkeypatch.setattr(verlinde, "reduced_sum_terms", first_profile_is_the_second)
            verlinde.beauville_sum.cache_clear()
            code, out, err = run_cli(capsys, "dim", "sl", "-g", "2", "-n", "2", "-d", "0",
                                     "-k", "3")
            assert (code, out) == (EXIT_CHECK_FAILED, "")
            assert err.startswith("proof failed: no integer in "), err
        finally:
            verlinde.beauville_sum.cache_clear()

    def test_negative_degree_flag(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "gl", "--genus", "2", "--rank", "2",
                               "--degree", "-6", "--level", "2")
        assert code == EXIT_OK
        assert out == "10\n"

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "sl", "--genus", "2", "--rank", "2",
                               "--degree", "0", "--level", "1", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload == {
            "query": {"genus": 2, "rank": 2, "degree": 0, "level": 1, "kind": "sl"},
            "value": "4",
            "method": "trig-sum",
            "certified": True,
        }

    def test_json_round_trip_over_grid(self, capsys):
        queries = [
            ("sl", 2, 2, 0, 1), ("sl", 1, 4, 2, 3), ("sl", 3, 1, 11, 9),
            ("gl", 2, 2, 2, 1), ("gl", 3, 1, 5, 2), ("gl", 2, 2, 0, 3),
        ]
        for kind, g, n, d, k in queries:
            code, out, _ = run_cli(capsys, "dim", kind, "--genus", str(g),
                                   "--rank", str(n), "--degree", str(d),
                                   "--level", str(k), "--format", "json")
            assert code == EXIT_OK
            payload = json.loads(out)
            compute = sl_dim if kind == "sl" else gl_dim
            result = compute(VerlindeQuery(g, n, d, k))
            assert payload == {
                "query": {"genus": g, "rank": n, "degree": d, "level": k, "kind": kind},
                "value": str(result.value),
                "method": result.method,
                "certified": result.certified,
            }
            assert int(payload["value"]) == result.value

    def test_json_bytes_and_key_order(self, capsys):
        code, out, _ = run_cli(capsys, "dim", "sl", "-g", "2", "-n", "2", "-d", "0", "-k", "1",
                               "--format", "json")
        assert code == EXIT_OK
        assert out == (
            '{"query": {"genus": 2, "rank": 2, "degree": 0, "level": 1, "kind": "sl"}, '
            '"value": "4", "method": "trig-sum", "certified": true}\n'
        )

    def test_dimension_beyond_int_string_limit(self, capsys):
        # 1000**2000 has 6001 digits, past the default 4300-digit conversion limit
        expected = "1" + "000" * 2000
        argv = ["dim", "gl", "-g", "2000", "-n", "1", "-d", "0", "-k", "1000"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out == expected + "\n"
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["value"] == expected

    def test_genus_zero_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "dim", "sl", "--genus", "0", "--rank", "2",
                               "--degree", "0", "--level", "1")
        assert code == EXIT_USAGE
        assert "genus" in err


class TestCheck:
    def test_involution_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check", "involution", "--max-rank", "4",
                               "--max-level", "4", "--genus-range", "1..3",
                               "--max-abs-degree", "4")
        assert code == EXIT_OK
        assert "PASS" in out

    def test_bott_szenes_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check", "bott-szenes", "--max-rank", "3",
                               "--max-level", "3", "--genus-range", "2..2")
        assert code == EXIT_OK
        assert "0 failures" in out

    def test_theorem1_rank_one(self, capsys):
        code, _, _ = run_cli(capsys, "check", "theorem1", "--max-rank", "1",
                             "--max-level", "5", "--genus-range", "2..4",
                             "--max-abs-degree", "3")
        assert code == EXIT_OK

    def test_json_report_schema(self, capsys):
        code, out, _ = run_cli(capsys, "check", "theorem1", "--max-rank", "2",
                               "--max-level", "2", "--genus-range", "2..2",
                               "--max-abs-degree", "1", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["check"] == "theorem1"
        assert payload["instances_run"] == 8
        assert payload["skipped_unsupported"] == 4
        assert payload["failures"] == []

    def test_negative_control_failure_line_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "involution", "--negative-control",
                               "--max-rank", "1", "--max-level", "1", "--genus-range", "1..1",
                               "--max-abs-degree", "0")
        assert code == EXIT_CHECK_FAILED
        assert out.splitlines()[1] == (
            "  (g=1, n=1, d=0, k=1): "
            "lhs=InvolutionTriple(rank=1, degree=0, level=1, genus=1) "
            "rhs=InvolutionTriple(rank=1, degree=1, level=1, genus=1)"
        )

    def test_negative_control_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "check", "elliptic", "--max-rank", "2",
                               "--max-level", "2", "--negative-control")
        assert code == EXIT_CHECK_FAILED
        assert "FAIL" in out

    @pytest.mark.parametrize("name, genera", [("theorem1", "3..1"), ("bott-szenes", "1..1")])
    def test_empty_sweep_is_not_a_pass(self, capsys, name, genera):
        code, out, _ = run_cli(capsys, "check", name, "--genus-range", genera)
        assert code == EXIT_UNSUPPORTED
        assert out.startswith(f"check {name}: 0 instances")
        assert out.endswith("EMPTY\n")

    @pytest.mark.parametrize("name", ["theorem1", "bott-szenes"])
    def test_sweep_past_the_cap_reports_uncertified(self, capsys, name):
        # 64 bits cannot certify the higher genera; the sweep goes on past
        # them and exits 3 with its report, not with a bare stderr line
        argv = ("check", name, "--max-precision-bits", "64", "--genus-range", "2..40")
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CERTIFICATION and err == ""
        assert out.startswith(f"check {name}: ")
        assert re.search(r"skipped \(unsupported\), [1-9]\d* uncertified, 0 failures: "
                         r"UNCERTIFIED$", out.splitlines()[0])
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        payload = json.loads(out)
        assert code == EXIT_CERTIFICATION
        assert payload["uncertified"] > 0 and payload["failures"] == []
        assert list(payload) == ["check", "instances_run", "skipped_unsupported",
                                 "uncertified", "failures"]

    def test_failure_outranks_uncertified(self, capsys):
        code, out, _ = run_cli(capsys, "check", "bott-szenes", "--max-precision-bits", "64",
                               "--genus-range", "2..40", "--negative-control")
        assert code == EXIT_CHECK_FAILED
        assert " uncertified, " in out and out.splitlines()[0].endswith("FAIL")

    def test_bad_genus_range(self, capsys):
        code, _, _ = run_cli(capsys, "check", "involution", "--genus-range", "nope")
        assert code == EXIT_USAGE

    def test_unknown_check(self, capsys):
        code, out, err = run_cli(capsys, "check", "wrong-name")
        assert code == EXIT_USAGE
        assert out == ""
        assert "'wrong-name'" in err
        assert all(f"'{name}'" in err for name in CHECK_NAMES)


class TestTable:
    def test_csv_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--genus", "2", "--max-rank", "2",
                               "--max-level", "3")
        assert code == EXIT_OK
        assert out.splitlines() == ["n\\k,1,2,3", "1,1,1,1", "2,4,10,20"]

    def test_genus_one_rows_are_binomials(self, capsys):
        import math
        code, out, _ = run_cli(capsys, "table", "--genus", "1", "--max-rank", "4",
                               "--max-level", "4")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for row in rows:
            n = int(row[0])
            for k, cell in enumerate(row[1:], start=1):
                assert int(cell) == math.comb(n + k - 1, k)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--genus", "2", "--max-rank", "2",
                               "--max-level", "3", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["genus"] == 2
        assert payload["rows"][1] == {"rank": 2, "values": ["4", "10", "20"]}

    def test_md_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--genus", "2", "--max-rank", "2",
                               "--max-level", "2", "--format", "md")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "| n\\k | 1 | 2 |"
        assert lines[2] == "| 1 | 1 | 1 |"
        assert lines[3] == "| 2 | 4 | 10 |"

    def test_bad_genus(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--genus", "0")
        assert code == EXIT_USAGE


class TestPrecisionFlag:
    @pytest.mark.parametrize("bits", ["0", "-5"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["dim", "sl", "--genus", "2", "--rank", "2", "--degree", "0", "--level", "1"],
            ["check", "elliptic", "--max-rank", "2", "--max-level", "2"],
            ["table", "--genus", "2"],
        ],
        ids=["dim", "check", "table"],
    )
    def test_nonpositive_cap_is_usage_error(self, capsys, argv, bits):
        code, out, err = run_cli(capsys, *argv, "--max-precision-bits", bits)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--max-precision-bits" in err


class TestWorkBound:
    def test_oversized_sum_fails_fast(self):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "thetadim.cli", "dim", "sl", "-g", "2", "-n", "40",
             "-d", "0", "-k", "40"],
            capture_output=True, text=True, env=_env_with_src(), timeout=30,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == EXIT_UNSUPPORTED
        assert proc.stdout == ""
        assert "terms" in proc.stderr and "Traceback" not in proc.stderr
        assert elapsed < 1.0, f"took {elapsed:.3f}s"

    def test_cubic_pair_work_fails_fast(self):
        # C(100000, 99999) = 100000 subsets pass the subset bound, but each
        # would update C(100000, 2) pairs
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "thetadim.cli", "dim", "sl", "-g", "2", "-n", "100000",
             "-d", "0", "-k", "1"],
            capture_output=True, text=True, env=_env_with_src(), timeout=30,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == EXIT_UNSUPPORTED
        assert proc.stdout == ""
        assert "pair updates" in proc.stderr and "Traceback" not in proc.stderr
        assert elapsed < 1.0, f"took {elapsed:.3f}s"

    def test_rank_two_profile_copies_fail_fast(self):
        # 100,000 subsets of one pair each pass both the subset bound and a
        # pair count, but the work bound also counts a 50,001-entry profile
        # per subset.  The address-space limit turns a regression into a
        # MemoryError in the child instead of an unbounded walk.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "thetadim.cli", "dim", "sl", "-g", "2", "-n", "2",
             "-d", "0", "-k", "99999"],
            capture_output=True, text=True, env=_env_with_src(), timeout=30,
            preexec_fn=limit_memory,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == EXIT_UNSUPPORTED
        assert proc.stdout == ""
        assert "profile entries" in proc.stderr and "Traceback" not in proc.stderr
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


class TestClosedStdout:
    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
    def test_reader_closing_early_ends_the_process_by_sigpipe(self):
        # 2**300000 has 90,309 digits, more than a pipe buffer holds, so the
        # write is still pending when the reader closes after one byte
        proc = subprocess.Popen(
            [sys.executable, "-m", "thetadim.cli", "dim", "gl", "-g", "300000", "-n", "1",
             "-d", "0", "-k", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env_with_src(),
        )
        try:
            assert proc.stdout.read(1) == b"9"
            proc.stdout.close()
            code = proc.wait(timeout=30)
            stderr = proc.stderr.read().decode()
        finally:
            proc.kill()
            proc.stderr.close()
        assert "Traceback" not in stderr
        assert code == -signal.SIGPIPE


def _in_fresh_interpreter(code):
    """Run `code` in a new interpreter; its stdout and stderr."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env_with_src(), timeout=30)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


def _modules_loaded_by(code):
    """The modules a fresh interpreter has loaded after running `code`."""
    _, err = _in_fresh_interpreter(
        f"import sys\n{code}\nprint(' '.join(sorted(sys.modules)), file=sys.stderr)"
    )
    return set(err.splitlines()[-1].split())


class TestImportSurface:
    def test_cli_import_loads_no_heavy_module(self):
        # a stray top-level import of any of these would undo the cheap start-up
        out, _ = _in_fresh_interpreter(
            "import sys; bare = set(sys.modules); import thetadim.cli; "
            "print(' '.join(sorted(set(sys.modules) - bare)))"
        )
        loaded = set(out.split())
        assert "thetadim.cli" in loaded
        assert not loaded & {"dataclasses", "inspect", "json", "csv", "typing", "argparse"}

    def test_package_import_loads_only_the_engine(self):
        loaded = _modules_loaded_by("import thetadim")
        assert {name for name in loaded if name.startswith("thetadim")} == {
            "thetadim", "thetadim.intervals", "thetadim.verlinde"}

    def test_package_import_loads_neither_fractions_nor_decimal(self):
        # the kernel decides on dyadic integers, so the engine needs no
        # rational arithmetic; `checks` may still load decimal for its reports
        out, _ = _in_fresh_interpreter(
            "import sys; import thetadim; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
        )
        assert out == "[]\n"

    @pytest.mark.parametrize(
        "argv, code, wanted",
        [
            (["check", "theorem1"], 0, []),
            (["check", "theorem1", "--format", "json"], 0, []),
            (["check", "theorem1", "--negative-control"], 1, ["decimal"]),
        ],
        ids=["text", "json", "failing"],
    )
    def test_passing_check_loads_neither_fractions_nor_decimal(self, argv, code, wanted):
        # `checks` writes a side through Decimal only to report a failure,
        # so only the failing run loads it
        out, _ = _in_fresh_interpreter(
            "import contextlib, io, sys\nfrom thetadim.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, sorted({'fractions', 'decimal'} & set(sys.modules)))"
        )
        assert out == f"{code} {wanted}\n"

    @pytest.mark.parametrize(
        "argv, wanted",
        [
            (["dim", "sl", "-g", "2", "-n", "2", "-d", "0", "-k", "3"], set()),
            (["table", "-g", "2"], set()),
            (["frobnicate"], {"argparse"}),
            (["factor", "rescale", "--rkF", "2", "--rkF0", "1"], {"thetadim.theta"}),
            (["check", "elliptic"], {"thetadim.checks", "thetadim.theta"}),
        ],
        ids=["dim", "table", "usage-error", "factor", "check"],
    )
    def test_each_subcommand_loads_only_what_it_uses(self, argv, wanted):
        # well-formed argv is read from the command table; argparse, and the
        # gettext and locale it imports, load only to print a usage error;
        # a csv table is joined by hand, never through the csv module
        loaded = _modules_loaded_by(
            f"import contextlib, io\nfrom thetadim.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()), "
            f"contextlib.redirect_stderr(io.StringIO()):\n    main({argv!r})"
        )
        assert loaded & {"thetadim.checks", "thetadim.theta", "argparse", "csv"} == wanted
        if "argparse" not in wanted:
            assert not loaded & {"gettext", "locale"}

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("sl_dim", ["dim", "sl", "-g", "2", "-n", "2", "-d", "0", "-k", "3"]),
            ("grid_sweep", ["check", "elliptic", "--max-rank", "2", "--max-level", "2"]),
            ("theta_rescale", ["factor", "rescale", "--rkF", "2", "--rkF0", "1"]),
            ("gl_dim", ["dim", "gl", "-g", "2", "-n", "3", "-d", "3", "-k", "2"]),
            ("pullback_split", ["factor", "pullback", "--n1", "2", "--d1", "0",
                                "--n2", "3", "--rkF", "1"]),
            ("jacobian_pullback", ["factor", "jacobian", "-g", "2", "-n", "2", "-d", "0"]),
            ("complementary_invariants", ["factor", "jacobian", "-g", "2", "-n", "2", "-d", "0"]),
        ],
    )
    def test_handlers_call_what_the_module_holds(self, monkeypatch, capsys, name, argv):
        # an outside-in tracer replaces these attributes after import
        calls = []
        original = getattr(cli, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
        code, _, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert calls == [name]


class TestLazyPackage:
    """`thetadim` resolves its `checks` and `theta` names on first use (PEP 562)."""

    def test_every_public_name_is_its_defining_modules_object(self):
        # in a fresh interpreter, so each lazy name is resolved here first
        probe = (
            "import sys, thetadim\n"
            "values = {name: getattr(thetadim, name) for name in thetadim.__all__}\n"
            "from thetadim import checks, intervals, theta, verlinde\n"
            "for name, value in values.items():\n"
            "    home = getattr(value, '__module__', None) or next(\n"
            "        m.__name__ for m in (intervals, verlinde, checks, theta) if name in vars(m))\n"
            "    assert vars(sys.modules[home])[name] is value, name\n"
            "    assert vars(thetadim)[name] is value, name\n"
            "print(len(values))"
        )
        out, _ = _in_fresh_interpreter(probe)
        assert int(out) == len(thetadim.__all__)

    def test_star_import_binds_every_public_name(self):
        out, _ = _in_fresh_interpreter(
            "import thetadim\nfrom thetadim import *\n"
            "print(all(name in globals() for name in thetadim.__all__))"
        )
        assert out == "True\n"

    def test_dir_lists_every_public_name_before_it_is_loaded(self):
        out, _ = _in_fresh_interpreter(
            "import thetadim\nprint(set(thetadim.__all__) <= set(dir(thetadim)))"
        )
        assert out == "True\n"

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            thetadim.no_such_name
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name


class TestPublicSurface:
    def test_every_public_name_has_a_caller_in_the_package(self):
        # names loaded in code, so a mention in a docstring is not a caller
        package = Path(thetadim.__file__).parent
        used = set()
        for path in package.glob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used.add(node.attr)
        assert sorted(set(thetadim.__all__) - used) == []

    def test_every_public_member_of_an_exported_class_has_a_caller(self):
        # a method or property is called where an attribute of its name is
        # loaded in the package outside the body of the class defining it
        package = Path(thetadim.__file__).parent
        trees = [ast.parse(path.read_text()) for path in package.glob("*.py")]
        orphans = []
        for tree in trees:
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef) or cls.name not in thetadim.__all__:
                    continue
                inside = {id(node) for node in ast.walk(cls)}
                loaded = {
                    node.attr
                    for other in trees
                    for node in ast.walk(other)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and id(node) not in inside
                }
                orphans += [
                    f"{cls.name}.{member.name}"
                    for member in cls.body
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                    and member.name not in loaded
                ]
        assert orphans == []


class TestGolden:
    def test_every_golden_argv_replays_byte_identical(self, capsys):
        golden = json.loads(GOLDEN.read_text())
        mismatched = []
        for key, want in golden.items():
            code, out, _ = run_cli(capsys, *key.split(" "))
            if (code, out) != (want["exit"], want["stdout"]):
                mismatched.append(key)
        assert len(golden) > 2000
        assert not mismatched, mismatched[:5]


class TestFactor:
    def test_pullback_exact_output(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "pullback", "--n1", "2", "--d1", "0",
                               "--n2", "3", "--rkF", "1")
        assert code == EXIT_OK
        assert out == "theta^3 [x] theta{rank=2, det=L1^1.detF^2}\n"

    def test_jacobian_exact_output(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "jacobian", "--genus", "2",
                               "--rank", "2", "--degree", "0")
        assert code == EXIT_OK
        assert out == "exponent 2, constraint N^2 = L.detF^2, degree check 2 = 2\n"

    def test_rescale_exact_output(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "rescale", "--rkF", "2", "--rkF0", "1")
        assert code == EXIT_OK
        assert out == "a=2, twist=detF^1.detF0^-2\n"

    def test_precondition_violation_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "factor", "pullback", "--n1", "4", "--d1", "1",
                               "--n2", "3", "--rkF", "1")
        assert code == EXIT_UNSUPPORTED
        assert "precondition violated" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pullback", "--n1", "0", "--d1", "0", "--n2", "3", "--rkF", "1"],
            ["rescale", "--rkF", "0", "--rkF0", "1"],
        ],
        ids=["pullback", "rescale"],
    )
    def test_rank_below_one_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "factor", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"thetadim factor {argv[0]}: error: ")

    @pytest.mark.parametrize(
        "subject, needed",
        [
            ("pullback", ("n1", "d1", "n2", "rkF")),
            ("rescale", ("rkF", "rkF0")),
            ("jacobian", ("genus", "rank", "degree")),
        ],
        ids=["pullback", "rescale", "jacobian"],
    )
    def test_missing_flags_usage_error(self, capsys, subject, needed):
        # every subset of the flags a subject needs, each missing one named
        # in the declared order
        values = {"n1": "2", "d1": "0", "n2": "3", "rkF": "1", "rkF0": "1",
                  "genus": "2", "rank": "2", "degree": "0"}
        for omitted in range(len(needed) + 1):
            for missing in itertools.combinations(needed, omitted):
                argv = [token for flag in needed if flag not in missing
                        for token in (f"--{flag}", values[flag])]
                code, out, err = run_cli(capsys, "factor", subject, *argv)
                if not missing:
                    assert code == EXIT_OK and err == ""
                    continue
                assert (code, out) == (EXIT_USAGE, "")
                named = " ".join(f"--{flag}" for flag in missing)
                assert err == f"thetadim factor {subject}: error: missing {named}\n"

    def test_flag_table_names_only_factor_options(self):
        _, _, arguments = cli._COMMANDS["factor"]
        options = {flag for flags, _ in arguments for flag in flags}
        needed = {flag for flags in cli._FACTOR_FLAGS.values() for flag in flags}
        assert {f"--{flag}" for flag in needed} <= options
        assert arguments[0] == (("subject",), {"choices": tuple(cli._FACTOR_FLAGS)})


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "dim", "sl", "--genus", "2")[0] == EXIT_USAGE

    def test_bad_format_choice(self, capsys):
        code, _, _ = run_cli(capsys, "dim", "sl", "--genus", "2", "--rank", "2",
                             "--degree", "0", "--level", "1", "--format", "yaml")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, usage",
        [(["--help"], "usage: thetadim [-h]"), (["dim", "--help"], "usage: thetadim dim [-h]")],
        ids=["top", "dim"],
    )
    def test_help_prints_usage_and_exits_zero(self, capsys, argv, usage):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert out.startswith(usage)
        assert err == ""

    @pytest.mark.parametrize(
        "argv, fast",
        [
            (["dim", "sl", "-g", "2", "-n", "2", "-d", "0", "-k", "3", "--max-prec", "128"], False),
            (["dim", "sl", "--genus=2", "-n", "2", "-d", "0", "-k", "3"], False),
            (["dim", "-g", "2", "sl", "-n", "2", "-d", "0", "-k", "3"], True),
        ],
        ids=["abbreviation", "equals", "option-first"],
    )
    def test_argparse_forms_give_the_same_result(self, capsys, argv, fast):
        # the first two are left to argparse, the third is read from the table
        assert (cli._parse(argv) is not None) == fast
        assert run_cli(capsys, *argv) == (EXIT_OK, "20\n", "")

    # argparse's wording, as printed at the commit before the command table;
    # compared with whitespace collapsed, since the usage wraps differently
    # across Python versions
    @pytest.mark.parametrize(
        "argv, want",
        [
            (["dim", "sl"],
             "usage: thetadim dim [-h] [--max-precision-bits MAX_PRECISION_BITS] --genus "
             "GENUS --rank RANK --degree DEGREE --level LEVEL [--format {text,json}] {sl,gl} "
             "thetadim dim: error: the following arguments are required: --genus/-g, "
             "--rank/-n, --degree/-d, --level/-k"),
            (["check", "nosuch"],
             "usage: thetadim check [-h] [--max-precision-bits MAX_PRECISION_BITS] "
             "[--max-rank MAX_RANK] [--max-level MAX_LEVEL] [--genus-range A..B] "
             "[--max-abs-degree MAX_ABS_DEGREE] [--format {text,json}] [--negative-control] "
             "name thetadim check: error: argument name: invalid choice: 'nosuch' (choose "
             "from 'theorem1', 'involution', 'bott-szenes', 'duality', 'elliptic')"),
            (["frobnicate"],
             "usage: thetadim [-h] {dim,check,table,factor} ... thetadim: error: argument "
             "command: invalid choice: 'frobnicate' (choose from 'dim', 'check', 'table', "
             "'factor')"),
        ],
        ids=["missing-required", "unknown-check", "unknown-command"],
    )
    def test_usage_error_text(self, capsys, argv, want):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith("\n")
        assert " ".join(err.split()) == want

    def test_every_documented_exit_code_reachable(self, capsys):
        # 0: success
        assert run_cli(capsys, "dim", "sl", "--genus", "2", "--rank", "2",
                       "--degree", "0", "--level", "1")[0] == EXIT_OK
        # 1: check failure (negative control)
        assert run_cli(capsys, "check", "elliptic", "--max-rank", "1",
                       "--max-level", "1", "--negative-control")[0] == EXIT_CHECK_FAILED
        # 2: unsupported input
        assert run_cli(capsys, "dim", "sl", "--genus", "4", "--rank", "3",
                       "--degree", "2", "--level", "1")[0] == EXIT_UNSUPPORTED
        # 3: certification failure
        assert run_cli(capsys, "dim", "sl", "--genus", "3", "--rank", "5",
                       "--degree", "0", "--level", "5",
                       "--max-precision-bits", "8")[0] == EXIT_CERTIFICATION
        # 64: usage error
        assert run_cli(capsys, "dim", "sl")[0] == EXIT_USAGE


def _flag(name, values):
    return values.map(lambda v: [name, str(v)])


def _optional(name, values):
    return st.one_of(st.just([]), _flag(name, values))


def _argv(*parts):
    return st.tuples(*parts).map(lambda lists: [item for part in lists for item in part])


# Required flags are always drawn (missing ones have their own tests), so
# every example reaches a handler; factor gets every subject's flags.
_small = st.integers(-2, 4)
_degree = st.integers(-6, 6)
_bound = st.integers(-2, 3)
_bits = _optional("--max-precision-bits", st.integers(-1, 96))
_fuzz_argv = st.one_of(
    _argv(st.just(["dim"]), st.sampled_from([["sl"], ["gl"]]), _flag("--genus", _small),
          _flag("--rank", _small), _flag("--degree", _degree), _flag("--level", _small), _bits),
    _argv(st.just(["check"]), st.sampled_from([[name] for name in CHECK_NAMES]),
          _optional("--max-rank", _bound), _optional("--max-level", _bound),
          _optional("--max-abs-degree", _bound),
          _optional("--genus-range", st.tuples(_bound, _bound).map(lambda r: f"{r[0]}..{r[1]}")),
          st.sampled_from([[], ["--negative-control"]]), _bits),
    _argv(st.just(["table"]), _flag("--genus", _small), _optional("--max-rank", _small),
          _optional("--max-level", _small), _bits),
    _argv(st.just(["factor"]), st.sampled_from([["pullback"], ["rescale"], ["jacobian"]]),
          _flag("--n1", _small), _flag("--d1", _degree), _flag("--n2", _small),
          _flag("--rkF", _small), _flag("--rkF0", _small), _flag("--genus", _small),
          _flag("--rank", _small), _flag("--degree", _degree)),
)


def _units(argv):
    """argv after the subcommand, as positionals, flags and option-value pairs."""
    units, tokens = [], iter(argv[1:])
    for token in tokens:
        takes_value = token.startswith("-") and token != "--negative-control"
        units.append([token, next(tokens)] if takes_value else [token])
    return units


def _mutate(argv, mutation, rnd):
    """`argv` changed by one of the forms that argparse reads or rejects."""
    if mutation in ("unknown", "help"):
        # anywhere after the subcommand, even between an option and its value
        token = rnd.choice(["--nosuch", "-x", "-"] if mutation == "unknown" else ["-h", "--help"])
        at = rnd.randint(1, len(argv))
        return argv[:at] + [token] + argv[at:]
    units = _units(argv)
    pairs = [unit for unit in units if len(unit) == 2]
    if mutation == "shuffle":
        rnd.shuffle(units)
    elif mutation == "equals" and pairs:
        unit = rnd.choice(pairs)
        unit[:] = [f"{unit[0]}={unit[1]}"]
    elif mutation == "abbreviate":
        longs = [unit for unit in pairs if unit[0].startswith("--")]
        if longs:
            unit = rnd.choice(longs)
            unit[0] = unit[0][:rnd.randint(3, len(unit[0]) - 1)]
    elif mutation == "drop" and units:
        units.remove(rnd.choice(units))
    elif mutation == "negative" and pairs:
        # int() reads both, but argparse takes only the first as a value
        rnd.choice(pairs)[1] = rnd.choice(["-12", "-1_2"])
    elif mutation == "bad-value" and units:
        rnd.choice(units)[-1] = rnd.choice(["yaml", "x", "1..", ""])
    elif mutation == "repeat" and units:
        units.insert(rnd.randint(0, len(units)), list(rnd.choice(units)))
    return argv[:1] + [token for unit in units for token in unit]


_MUTATIONS = ("shuffle", "equals", "abbreviate", "drop", "unknown", "negative", "bad-value",
              "repeat", "help")


def _argparse_vars(argv):
    """vars() of argparse's namespace for `argv`, or None for help or a usage error."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def _fast_vars(argv):
    """vars() of the table parse of `argv`, or None; it must print nothing."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        args = cli._parse(argv)
    assert out.getvalue() == err.getvalue() == ""
    return None if args is None else vars(args)


class TestParseAgreement:
    @given(argv=_fuzz_argv)
    @settings(max_examples=300, deadline=None)
    def test_canonical_argv_is_read_exactly_as_argparse_reads_it(self, argv):
        # the table parse declines no canonical argv that argparse accepts
        assert _fast_vars(argv) == _argparse_vars(argv)

    @given(argv=_fuzz_argv, mutation=st.sampled_from(_MUTATIONS), rnd=st.randoms())
    @settings(max_examples=400, deadline=None)
    def test_any_argv_the_table_reads_argparse_reads_alike(self, argv, mutation, rnd):
        argv = _mutate(argv, mutation, rnd)
        fast = _fast_vars(argv)
        if fast is not None:
            assert fast == _argparse_vars(argv)


class TestFuzz:
    @given(argv=_fuzz_argv)
    @settings(max_examples=300, deadline=None)
    def test_every_argv_ends_in_a_documented_exit_code(self, argv):
        # capsys cannot be reset between hypothesis examples; argparse and the
        # handlers only print, so their output is simply discarded.
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = main(argv)
        assert code in {EXIT_OK, EXIT_CHECK_FAILED, EXIT_UNSUPPORTED, EXIT_CERTIFICATION,
                        EXIT_USAGE}
