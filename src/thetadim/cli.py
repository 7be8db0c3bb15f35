"""Command-line front end.

Four subcommands: `dim` (single dimension lookup), `check` (identity sweep
over a parameter grid), `table` (the s(n, 0, k) matrix at fixed genus) and
`factor` (symbolic theta-bundle factorizations).  Integer values are always
emitted as decimal strings, never floating point, so arbitrarily large
dimensions survive the trip through JSON.

Only the dimension engine (`intervals`, `verlinde`) is imported at start-up.
`check` imports `checks` (and through it `theta`) and `factor` imports
`theta`, each when it parses or runs, so `dim`, `table` and usage errors
compile neither.  The names taken from those two modules are module
attributes resolved on first use (PEP 562) through the package's lazy-name
table, and the handlers call whatever this module holds under each name at
call time.

Each subcommand's options are declared once, in the command table
`_COMMANDS`.  Well-formed argv is read from that table without argparse;
`argparse` is imported, and its parser built from the same table, only to
print help or a usage error, so both keep argparse's wording and exit
status.  The program leaves the bytecode cache alone: it never sets or
overrides `PYTHONDONTWRITEBYTECODE` or `sys.dont_write_bytecode`.

Exit codes: 0 success, 1 check failure or broken proof (a check reports
it at its instance; `dim` and `table` print "proof failed: <message>" to
stderr when a certified interval holds no integer or the transfer leaves
a remainder), 2 unsupported input (including a trigonometric sum over
more than `verlinde.MAX_SUM_TERMS` subsets or of more than
`verlinde.MAX_PAIR_UPDATES` pair updates and profile entries, both
rejected before any work, a check whose bounds leave no instance to run,
reported as EMPTY, and a `factor` precondition the theta layer rejects),
3 certification failure (stderr gives the width that missed the target
at the precision cap; a sum whose a priori estimate, from its genus-free
scale and shift, lies beyond twice the cap and 128 bits fails before it
is evaluated or any power of the scale is formed, and the message then
reads "estimated width"; one whose estimate lies between the cap and twice
the cap is evaluated at the cap before it fails, so `dim sl -g 2000 -n 5
-d 0 -k 5` exits 3 with "width 2**13850.2 exceeds target 1/4 at the
precision cap (16384 bits)"; a check sweep with no failure but an
instance that missed the target at the cap prints its report, which
names such instances as uncertified, and exits 3 with status
UNCERTIFIED), 64 usage error (including an unknown check name, a
`--max-precision-bits` below 1, and `factor` ranks or a `factor
jacobian` genus below 1).  The `thetadim` entry point (`run`) restores
the default SIGPIPE disposition where the platform has one, so a reader
that closes stdout early (`thetadim table ... | head`) ends the process
quietly by that signal, as it ends Unix filters, rather than with a
traceback and exit 1; `main` itself leaves signal handling to its
caller.
"""

import signal
import sys
from importlib import import_module
from types import SimpleNamespace

from . import _HOME, _LAZY
from .intervals import DEFAULT_MAX_PRECISION_BITS, CertificationError, NoIntegerInInterval
from .verlinde import IntegralityViolation, UnsupportedQuery, VerlindeQuery, gl_dim, sl_dim

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_UNSUPPORTED = 2
EXIT_CERTIFICATION = 3
EXIT_USAGE = 64

# A check report's status (`CheckReport.status`) decides its exit code.
_CHECK_EXITS = {
    "fail": EXIT_CHECK_FAILED,
    "uncertified": EXIT_CERTIFICATION,
    "pass": EXIT_OK,
    "empty": EXIT_UNSUPPORTED,
}


def _bind(home: str) -> None:
    """Put the package's lazy names from `home` into this module's globals,
    keeping any name already bound here, such as a wrapper set by a tracer."""
    module = import_module(f".{home}", __package__)
    for name in _LAZY[home]:
        globals().setdefault(name, getattr(module, name))


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(home)
    return globals()[name]


def _type_error(message: str) -> Exception:
    """The error a `type` function raises for a value it rejects; argparse is
    imported here, once a value has failed, and reports the message."""
    import argparse
    return argparse.ArgumentTypeError(message)


def _genus_range(text: str) -> tuple[int, int]:
    try:
        first, _, last = text.partition("..")
        lo, hi = int(first), int(last)
    except ValueError:
        raise _type_error(f"expected A..B, got {text!r}")
    if lo < 1:
        raise _type_error("genus range must start at 1 or above")
    return lo, hi


def _precision_bits(text: str) -> int:
    try:
        bits = int(text)
    except ValueError:
        raise _type_error(f"expected an integer, got {text!r}")
    if bits < 1:
        raise _type_error(f"must be at least 1, got {bits}")
    return bits


def _check_name(text: str) -> str:
    _bind("checks")
    if text not in CHECK_NAMES:
        choices = ", ".join(map(repr, CHECK_NAMES))
        raise _type_error(f"invalid choice: {text!r} (choose from {choices})")
    return text


def _cmd_dim(args) -> int:
    try:
        query = VerlindeQuery(args.genus, args.rank, args.degree, args.level)
    except ValueError as exc:
        print(f"thetadim dim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    compute = sl_dim if args.kind == "sl" else gl_dim
    result = compute(query, max_precision_bits=args.max_precision_bits)
    if args.format == "json":
        import json
        record = {
            "query": {**query._asdict(), "kind": args.kind},
            "value": str(result.value),
            "method": result.method,
            "certified": result.certified,
        }
        print(json.dumps(record))
    else:
        print(result.value)
    return EXIT_OK


def _render_report_text(report) -> str:
    lines = [
        f"check {report.check_name}: {report.instances_run} instances, "
        f"{report.skipped_unsupported} skipped (unsupported), "
        + (f"{len(report.uncertified)} uncertified, " if report.uncertified else "")
        + f"{len(report.failures)} failures: {report.status.upper()}"
    ]
    for failure in report.failures:
        g, n, d, k = failure.inputs
        lines.append(f"  (g={g}, n={n}, d={d}, k={k}): lhs={failure.lhs} rhs={failure.rhs}")
    if report.note:
        lines.append(f"note: {report.note}")
    return "\n".join(lines)


def _cmd_check(args) -> int:
    _bind("checks")
    lo, hi = args.genus_range
    try:
        bounds = GridBounds(
            max_rank=args.max_rank,
            max_level=args.max_level,
            genus_min=lo,
            genus_max=hi,
            max_abs_degree=args.max_abs_degree,
        )
    except ValueError as exc:
        print(f"thetadim check: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = grid_sweep(
        args.name,
        bounds,
        max_precision_bits=args.max_precision_bits,
        negative_control=args.negative_control,
    )
    if args.format == "json":
        import json
        print(json.dumps(report.to_json_dict()))
    else:
        print(_render_report_text(report))
    return _CHECK_EXITS[report.status]


def _cmd_table(args) -> int:
    if args.genus < 1 or args.max_rank < 1 or args.max_level < 1:
        print("thetadim table: error: genus and bounds must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    rows = []
    for n in range(1, args.max_rank + 1):
        values = [
            str(
                sl_dim(
                    VerlindeQuery(args.genus, n, 0, k),
                    max_precision_bits=args.max_precision_bits,
                ).value
            )
            for k in range(1, args.max_level + 1)
        ]
        rows.append((n, values))

    header = ["n\\k"] + [str(k) for k in range(1, args.max_level + 1)]
    if args.format == "json":
        import json
        print(
            json.dumps(
                {
                    "genus": args.genus,
                    "max_rank": args.max_rank,
                    "max_level": args.max_level,
                    "rows": [{"rank": n, "values": values} for n, values in rows],
                }
            )
        )
    elif args.format == "md":
        print("| " + " | ".join(header) + " |")
        print("|" + "---|" * len(header))
        for n, values in rows:
            print("| " + " | ".join([str(n)] + values) + " |")
    else:
        # every field is a decimal integer or the header's n\k, so no csv
        # field ever needs quoting
        print(",".join(header))
        for n, values in rows:
            print(",".join([str(n)] + values))
    return EXIT_OK


def _cmd_factor(args) -> int:
    _bind("theta")
    missing = [f"--{flag}" for flag in _FACTOR_FLAGS[args.subject] if getattr(args, flag) is None]
    if missing:
        print(f"thetadim factor {args.subject}: error: missing", *missing, file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.subject == "pullback":
            F = ThetaDescriptor(args.rkF, FormalLineClass.symbol("detF"))
            L1 = FormalLineClass.symbol("L1", degree=args.d1)
            fact = pullback_split(args.n1, args.d1, args.n2, F, L1)
            det = fact.right_descriptor.det.format(explicit_exponents=True)
            print(f"theta^{fact.left_exponent} [x] "
                  f"theta{{rank={fact.right_descriptor.rank}, det={det}}}")
        elif args.subject == "rescale":
            F = ThetaDescriptor(args.rkF, FormalLineClass.symbol("detF"))
            F0 = ThetaDescriptor(args.rkF0, FormalLineClass.symbol("detF0"))
            a, twist = theta_rescale(F, F0)
            print(f"a={a}, twist={twist.format(explicit_exponents=True)}")
        else:  # jacobian
            g, n, d = args.genus, args.rank, args.degree
            _, d_F = complementary_invariants(g, n, d, 1)
            L = FormalLineClass.symbol("L", degree=d)
            detF = FormalLineClass.symbol("detF", degree=d_F)
            exponent, equation = jacobian_pullback(g, n, d, L, detF)
            print(f"exponent {exponent}, constraint {equation}, "
                  f"degree check {n * (g - 1)} = {equation.rhs.degree}")
    except ValueError as exc:
        # the theta layer's guards: a rank below 1 and, for the Jacobian,
        # complementary_invariants' "genus and rank must be >= 1"
        print(f"thetadim factor {args.subject}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NotAMultiple, NonIntegralExponent, DegreeMismatch) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    return EXIT_OK


# The options each `factor` subject needs, in the order a usage error names
# them; `_cmd_factor` reports every one that is missing.
_FACTOR_FLAGS = {
    "pullback": ("n1", "d1", "n2", "rkF"),
    "rescale": ("rkF", "rkF0"),
    "jacobian": ("genus", "rank", "degree"),
}

# Every subcommand's summary, handler and arguments, each argument as the
# flags and keywords of `ArgumentParser.add_argument`, long flag first.
# `build_parser` and `_parse` both read this table.  `--max-precision-bits`
# leads its lists so that usage and help show it right after `-h`.
_PRECISION = (
    ("--max-precision-bits",), {"type": _precision_bits, "default": DEFAULT_MAX_PRECISION_BITS}
)
_COMMANDS = {
    "dim": ("one dimension value", _cmd_dim, (
        _PRECISION,
        (("kind",), {"choices": ("sl", "gl")}),
        (("--genus", "-g"), {"type": int, "required": True}),
        (("--rank", "-n"), {"type": int, "required": True}),
        (("--degree", "-d"), {"type": int, "required": True}),
        (("--level", "-k"), {"type": int, "required": True}),
        (("--format",), {"choices": ("text", "json"), "default": "text"}),
    )),
    "check": ("sweep one identity over a grid", _cmd_check, (
        _PRECISION,
        (("name",), {"type": _check_name,
                     "help": "identity to check; an unknown name lists them"}),
        (("--max-rank",), {"type": int, "default": 3}),
        (("--max-level",), {"type": int, "default": 3}),
        (("--genus-range",), {
            "type": _genus_range, "default": (1, 3), "metavar": "A..B",
            "help": "elliptic always runs at genus 1; bott-szenes starts at genus 2"}),
        (("--max-abs-degree",), {"type": int, "default": 3}),
        (("--format",), {"choices": ("text", "json"), "default": "text"}),
        (("--negative-control",), {
            "action": "store_true",
            "help": "perturb one side of every comparison; failures are then expected"}),
    )),
    "table": ("matrix of s(n, 0, k) at fixed genus", _cmd_table, (
        _PRECISION,
        (("--genus", "-g"), {"type": int, "required": True}),
        (("--max-rank",), {"type": int, "default": 4}),
        (("--max-level",), {"type": int, "default": 4}),
        (("--format",), {"choices": ("csv", "json", "md"), "default": "csv"}),
    )),
    "factor": ("symbolic theta-bundle factorizations", _cmd_factor, (
        (("subject",), {"choices": tuple(_FACTOR_FLAGS)}),
        (("--n1",), {"type": int}),
        (("--d1",), {"type": int}),
        (("--n2",), {"type": int}),
        (("--rkF",), {"type": int}),
        (("--rkF0",), {"type": int}),
        (("--genus", "-g"), {"type": int}),
        (("--rank", "-n"), {"type": int}),
        (("--degree", "-d"), {"type": int}),
    )),
}


def build_parser():
    """The argparse parser of `_COMMANDS`, which prints help and usage errors."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse with the conventional 64 exit status for usage errors."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = Parser(prog="thetadim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flags, keywords in arguments:
            command.add_argument(*flags, **keywords)
        command.set_defaults(handler=handler)
    return parser


def _parse(argv):
    """The namespace that `build_parser().parse_args(argv)` returns, read from
    `_COMMANDS` without argparse, or None for argv outside the form read here.

    That form is the subcommand, then in any order positionals, exact option
    strings each followed by one value, and `store_true` flags.  Help, an
    abbreviation, `--opt=value`, an unknown token, a missing value, a failed
    type or choice and a missing required argument all give None, and print
    nothing: argparse then parses argv and prints the help or usage error.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    values = {"command": argv[0], "handler": handler}
    options, positionals = {}, []
    for flags, keywords in arguments:
        dest = flags[0].lstrip("-").replace("-", "_")
        if flags[0].startswith("-"):
            options.update(dict.fromkeys(flags, (dest, keywords)))
            flag = keywords.get("action") == "store_true"
            values[dest] = keywords.get("default", False if flag else None)
        else:
            positionals.append((dest, keywords))
    missing = {dest for dest, keywords in options.values() if keywords.get("required")}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in options:
            dest, keywords = options[token]
            if keywords.get("action") == "store_true":
                values[dest] = True
                continue
            text = next(tokens, None)
            # argparse takes a value starting with "-" only if it is a number
            if text is None or (text.startswith("-") and not text[1:].isdecimal()):
                return None
        elif positionals and not token.startswith("-"):
            (dest, keywords), text = positionals.pop(0), token
        else:
            return None
        try:
            value = keywords.get("type", str)(text)
        except Exception:
            # argparse converts the value again: it reports an ArgumentTypeError,
            # TypeError or ValueError as a usage error and lets any other propagate
            return None
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        missing.discard(dest)
    if positionals or missing:
        return None
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    # Dimensions are printed in full, however many digits they have; the
    # caller's int-to-str digit limit is back in place when main returns.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _parse(argv)
        if args is None:
            try:
                args = build_parser().parse_args(argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return args.handler(args)
    except UnsupportedQuery as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (NoIntegerInInterval, IntegralityViolation) as exc:
        print(f"proof failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def run() -> None:
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
