"""Command-line surface.

Subcommands:

    constants                     recompute and check the certified constants
    certify   --lhat v[,v...]     certify normalized lengths directly, or
              --shape re,im --slope p,q   (repeatable pairs) via cusp shapes, not
                                  both; each slope is reported primitive or generalized
    bounds    --lhat v            geometric bounds for one normalized length
    enumerate --shape re,im --cutoff v    short-slope enumeration
    weitz     --k1 v --eps v [--seed n --trials n]   exact minimum and random scan
    figure    --which 1|2|3 --samples n --out path   CSV figure data

Options are spelled in full and each takes one value, '--opt v' or '--opt=v'; a
value may begin with '-' (--slope -7,3).  A well-formed command line is read
directly; argparse answers every other one, so usage, help and error text are
argparse's own.  Every command prints a JSON report to stdout with fields
(command, status, payload, checks); checks entries are (name, computed,
expected, tolerance, pass).  Its bytes are those of json.dumps(report,
indent=2, allow_nan=False), then a newline, written by certificates._json,
that encoder and the one writer of dehnfill's JSON.  Exit code 0 on
success, 1 on a failed check or a mathematically uncertifiable input, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import chain

from . import certificates, envelope, packing, slope_lattice, weitzenboeck
from .errors import DomainError, UncertifiableError

__all__ = ["main", "run", "render_figure_csv"]


def _check(name: str, computed: float, expected: float, tolerance: float) -> dict:
    """One checks entry; it passes iff |computed - expected| <= tolerance."""
    entry = {"name": name, "computed": computed, "expected": expected, "tolerance": tolerance}
    return {**entry, "pass": abs(computed - expected) <= tolerance}


def _report(command: str, payload, checks: list[dict], failed: bool = False) -> tuple[int, str]:
    check_fail = any(not c["pass"] for c in checks)
    status = "error" if (failed or check_fail) else "ok"
    doc = {"command": command, "status": status, "payload": payload, "checks": checks}
    return (1 if status == "error" else 0), certificates._json(doc)


def _parse_shape(text: str) -> slope_lattice.CuspShape:
    try:
        re_s, im_s = text.split(",")
        re_v, im_v = float(re_s), float(im_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"shape must be 're,im', got {text!r}")
    try:
        return slope_lattice.CuspShape(re_v, im_v)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_slope(text: str) -> tuple[float, float]:
    """A generalized surgery coefficient (p, q): any finite reals."""
    try:
        p_s, q_s = text.split(",")
        p, q = float(p_s), float(q_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"slope must be 'p,q', got {text!r}")
    if not (math.isfinite(p) and math.isfinite(q)):
        raise argparse.ArgumentTypeError(f"slope must be finite, got {text!r}")
    return p, q


def _slope_kind(p: float, q: float) -> str:
    """'primitive' for coprime integers p, q; otherwise 'generalized'."""
    integral = p.is_integer() and q.is_integer()
    return "primitive" if integral and math.gcd(int(p), int(q)) == 1 else "generalized"


def _parse_lhat_list(text: str) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}")
    if any(not v > 0.0 for v in vals):
        raise argparse.ArgumentTypeError(f"normalized lengths must be positive: {text!r}")
    return vals


def cmd_constants(args) -> tuple[int, str]:
    lhat_sq = (2.0 * math.pi) ** 2 / envelope.f(certificates.Z0)
    payload = {"C": certificates.UNIVERSAL_C, "C_derived": math.sqrt(lhat_sq), "R0": packing.R0}
    try:
        env = certificates.envelope_bounds(certificates.UNIVERSAL_C)
    except UncertifiableError as exc:  # a failed report, without the checks that need env
        env, payload["error"] = None, str(exc)
    checks = [
        ("threshold_squared", lhat_sq, 57.5041, 5e-3),
        ("C", math.sqrt(lhat_sq), certificates.UNIVERSAL_C, 5e-4),
        env and ("volume_drop_hi", env.volume_drop[1], 0.197816, 5e-5),
        ("visual_area_ceiling", packing.h(packing.R0), 0.980254, 1e-5),
        env and ("visual_area_hi_at_threshold", env.visual_area[1], packing.h(packing.R0), 1e-4),
        env and ("core_length_hi", env.core_length_hi, 0.156012, 1e-5),
        ("inverse_S", 1.0 / packing.S_CONSTANT, 0.980257, 5e-6),
        ("h_coefficient", 2.0 * math.sqrt(3.0) * packing.AXIS_COEFFICIENT,
         packing.H_COEFFICIENT, 5e-4),
    ]
    return _report(args.command, payload, [_check(*c) for c in checks if c], failed=env is None)


def _lhats_from_args(args) -> list[float]:
    if args.lhat is not None:
        if args.shape or args.slope:
            raise argparse.ArgumentTypeError("--lhat cannot be combined with --shape/--slope")
        return args.lhat
    if not args.shape:
        raise argparse.ArgumentTypeError("certify requires --lhat or --shape/--slope pairs")
    if len(args.shape) != len(args.slope):
        raise argparse.ArgumentTypeError("--shape and --slope must be paired")
    return [
        slope_lattice.slope_normalized_length(shape, slope)
        for shape, slope in zip(args.shape, args.slope)
    ]


def cmd_certify(args) -> tuple[int, str]:
    cert = certificates.full_certificate(_lhats_from_args(args))
    payload = cert.as_dict()
    if args.lhat is None:
        payload["slopes"] = [{"p": p, "q": q, "kind": _slope_kind(p, q)} for p, q in args.slope]
    _, out = _report(args.command, payload, [])
    return (0 if cert.certified else 1), out


def cmd_bounds(args) -> tuple[int, str]:
    lhat = args.lhat
    if not 0.0 < lhat < math.inf:
        raise argparse.ArgumentTypeError(f"--lhat must be positive and finite, got {lhat}")
    try:
        env = certificates.envelope_bounds(lhat)
    except UncertifiableError as exc:
        return _report(args.command, {"lhat": lhat, "error": str(exc)}, [], failed=True)
    payload = {
        "lhat": lhat,
        "volume_drop": env.volume_drop,
        "visual_area": env.visual_area,
        "core_length_hi": env.core_length_hi,
    }
    return _report(args.command, payload, [])


def cmd_enumerate(args) -> tuple[int, str]:
    slopes = slope_lattice.enumerate_short_slopes(args.shape, args.cutoff)
    payload = {
        "shape": [args.shape.re, args.shape.im],
        "cutoff": args.cutoff,
        "count": len(slopes),
        "slopes": slopes,
    }
    return _report(args.command, payload, [])


def cmd_weitz(args) -> tuple[int, str]:
    k1 = args.k1
    if not k1 > 0.0:
        raise argparse.ArgumentTypeError(f"--k1 must be positive, got {k1}")
    if args.seed < 0:
        raise argparse.ArgumentTypeError(f"--seed must be non-negative, got {args.seed}")
    curv = weitzenboeck.BoundaryCurvature(k1, epsilon=args.eps)
    b_min = weitzenboeck.scan_min_b(curv, args.seed, args.trials)
    b_exact, mode = weitzenboeck.exact_min_b(curv)
    in_certified_range = curv.in_positivity_window()
    payload = {
        "k1": k1,
        "k2": curv.k2,
        "eps": args.eps,
        "trials": args.trials,
        "seed": args.seed,
        "min_b": b_min,
        "min_b_exact": b_exact,
        "min_mode": mode,
        "in_certified_range": in_certified_range,
    }
    checks = []
    if in_certified_range:
        checks.append(_check("min_b_nonnegative", min(b_min, 0.0), 0.0, 1e-9))
        checks.append(_check("min_b_exact_nonnegative", min(b_exact, 0.0), 0.0, 1e-9))
    return _report(args.command, payload, checks)


#: Rows formatted by one % call in render_figure_csv: the text of one block
#: at a time, so a large table's peak memory stays near that of its rows.
_CSV_BLOCK = 1024


def render_figure_csv(table: tuple[tuple[str, ...], list[tuple[float, ...]]], path: str):
    """Write figure data as CSV: header row, >= 12 significant digits, LF.
    Each block of up to _CSV_BLOCK rows is one % format and one write."""
    header, rows = table
    line = ",".join(["%.12e"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(rows), _CSV_BLOCK):
            block = rows[i:i + _CSV_BLOCK]
            fh.write((line * len(block)) % tuple(chain.from_iterable(block)))


def cmd_figure(args) -> tuple[int, str]:
    table = certificates.figure_data(args.which, args.samples)
    try:
        render_figure_csv(table, args.out)
    except OSError as exc:
        return _report(args.command, {"error": str(exc)}, [], failed=True)
    payload = {
        "which": args.which,
        "samples": args.samples,
        "out": args.out,
        "columns": table[0],
    }
    return _report(args.command, payload, [])


#: Each command, by name: its function, its help line, and each option's keyword
#: arguments to add_argument.  _build_parser makes argparse's parsers from it,
#: and _read reads a well-formed command line by it.  _read knows the keywords
#: type, choices, default, required, help and action="append" (each option
#: takes one value); teach it any other before a row uses it.
_TABLE = {
    "constants": (cmd_constants, "recompute and check the certified constants", {}),
    "certify": (cmd_certify, "certify surgery coefficients", {
        "--lhat": {"type": _parse_lhat_list, "help": "comma-separated normalized lengths"},
        "--shape": {"type": _parse_shape, "action": "append", "default": []},
        "--slope": {"type": _parse_slope, "action": "append", "default": []},
    }),
    "bounds": (cmd_bounds, "geometric bounds for one normalized length", {
        "--lhat": {"type": float, "required": True},
    }),
    "enumerate": (cmd_enumerate, "short-slope enumeration", {
        "--shape": {"type": _parse_shape, "required": True},
        "--cutoff": {"type": float, "required": True},
    }),
    "weitz": (cmd_weitz, "boundary-form positivity scan", {
        "--k1": {"type": float, "required": True},
        "--eps": {"type": float, "required": True},
        "--seed": {"type": int, "default": 0},
        "--trials": {"type": int, "default": 100},
    }),
    "figure": (cmd_figure, "export figure data as CSV", {
        "--which": {"type": int, "choices": tuple(certificates.FIGURE_HEADERS), "required": True},
        "--samples": {"type": int, "default": 100},
        "--out": {"required": True},
    }),
}


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """The top-level parser, and its command action, whose choices map each
    command's name to its parser."""
    parser = argparse.ArgumentParser(
        prog="dehnfill",
        description="Certified bounds for generalized hyperbolic Dehn filling.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, options) in _TABLE.items():
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        for opt, kwargs in options.items():
            p.add_argument(opt, **kwargs)
    return parser, sub


_PARSER, _COMMAND = _build_parser()


def _attach_signed_values(argv: list[str]) -> list[str]:
    """argv with '--opt -v' as '--opt=-v', for argparse, which would read '-v'
    as an option: every long option but --help takes one value, so a
    single-'-' token other than -h right after one is its value. A
    '--opt=--' is refused, as argparse would read that value as an empty
    list.  Only the argv that _read refuses come here."""
    out = []
    for prev, tok in zip([""] + argv, argv):
        takes_value = prev[:2] == "--" and prev not in ("--", "--help") and "=" not in prev
        if takes_value and tok[:1] == "-" and tok[1:2] != "-" and tok != "-h":
            out[-1] += "=" + tok
        elif tok[:2] == "--" and tok.partition("=")[2] == "--":
            _PARSER.error(f"argument {tok[:-3]}: '--' cannot be a value")
        else:
            out.append(tok)
    return out


def _read(argv: list[str]) -> argparse.Namespace | None:
    """The namespace _PARSER.parse_args(_attach_signed_values(argv)) gives a
    well-formed argv, read as typed, or None for any other.  Well formed: a
    command's name, then each of its options once, as '--opt v' or
    '--opt=v', every required one among them; each value is not empty, not
    '-h' and not '--'-led, and passes its option's type and choices.  The
    '-v' of '--opt -v' is read as argparse reads '--opt=-v', the form
    _attach_signed_values gives it.  Options not given take their defaults,
    an append option's as a fresh list.  _read prints nothing, so _PARSER
    can still answer an argv it refuses."""
    entry = _TABLE.get(argv[0]) if argv else None
    if entry is None:
        return None
    func, _, options = entry
    values = {}
    tokens = iter(argv[1:])
    for tok in tokens:
        opt, eq, text = tok.partition("=")
        kwargs = options.get(opt)
        if kwargs is None or opt in values:
            return None
        if not eq:
            text = next(tokens, "")
        if not text or text == "-h" or text[:2] == "--":
            return None
        try:
            value = kwargs.get("type", str)(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[opt] = [value] if kwargs.get("action") == "append" else value
    args = argparse.Namespace(command=argv[0], func=func)
    for opt, kwargs in options.items():
        if opt not in values and kwargs.get("required"):
            return None
        default = kwargs.get("default")
        if kwargs.get("action") == "append":  # a fresh list, as argparse appends to a copy
            value = [*(default or ()), *values.get(opt, ())]
        else:
            value = values.get(opt, default)
        # the field argparse names: '--shape-radius' is shape_radius
        setattr(args, opt.lstrip("-").replace("-", "_"), value)
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed as _PARSER.parse_args(_attach_signed_values(argv)) parses
    it.  _read builds the namespace of a well-formed argv, as typed; every
    other argv (empty, help, an unknown name or option, a bad value, a
    missing option) goes to _PARSER, which prints its own usage, help or
    error.  A leading '--' ends the options, so the token after it is the
    command name, an operand: the '--' is dropped, and a token that names no
    command is refused as argparse refuses an unknown name, '--help' and '-h'
    included; a lone '--' goes to _PARSER."""
    if (args := _read(argv)) is not None:
        return args
    argv = _attach_signed_values(argv)
    if argv[:1] == ["--"] and len(argv) > 1:
        argv = argv[1:]
        try:  # argparse's own check and message, as for a name without '--'
            _PARSER._check_value(_COMMAND, argv[0])
        except argparse.ArgumentError as exc:
            _PARSER.error(str(exc))
    return _PARSER.parse_args(argv)


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the exit code."""
    try:
        args = _parse(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        code, out = args.func(args)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(out)
    return code


def main() -> int:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early: devnull keeps the flush at exit from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("dehnfill: stdout was closed before the report was written", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
