"""Command-line surface.

Subcommands:

    constants                     recompute and check the certified constants
    certify   --lhat v[,v...]     certify normalized lengths directly, or
              --shape re,im --slope p,q   (repeatable pairs) via cusp shapes
    bounds    --lhat v            geometric bounds for one normalized length
    enumerate --shape re,im --cutoff v    short-slope enumeration
    weitz     --k1 v --eps v [--seed n --trials n]   exact minimum and random scan
    figure    --which 1|2|3 --samples n --out path   CSV figure data

Every command prints a JSON report to stdout with fields
(command, status, payload, checks); checks entries are
(name, computed, expected, tolerance, pass).  Exit code 0 on success, 1 on
a failed check or a mathematically uncertifiable input, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import certificates, envelope, packing, slope_lattice, weitzenboeck
from .errors import DomainError, UncertifiableError

__all__ = ["main", "run", "render_figure_csv"]


@dataclasses.dataclass
class Check:
    name: str
    computed: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.computed - self.expected) <= self.tolerance

    def as_dict(self) -> dict:
        return {**vars(self), "pass": self.passed}


def _report(command: str, payload, checks: list[Check], failed: bool = False) -> tuple[int, str]:
    check_fail = any(not c.passed for c in checks)
    status = "error" if (failed or check_fail) else "ok"
    doc = {
        "command": command,
        "status": status,
        "payload": payload,
        "checks": [c.as_dict() for c in checks],
    }
    return (1 if status == "error" else 0), json.dumps(doc, indent=2, allow_nan=False)


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
    try:
        p_s, q_s = text.split(",")
        return float(p_s), float(q_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"slope must be 'p,q', got {text!r}")


def _parse_lhat_list(text: str) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}")
    if any(not v > 0.0 for v in vals):
        raise argparse.ArgumentTypeError(f"normalized lengths must be positive: {text!r}")
    return vals


def _cert_payload(cert: certificates.FillingCertificate) -> dict:
    return json.loads(certificates.certificate_to_json(cert))


def cmd_constants(_args) -> tuple[int, str]:
    lhat_sq = (2.0 * math.pi) ** 2 / envelope.f(certificates.Z0)
    s = packing.PACKING.s_constant
    _, _, dv, area, core = certificates.envelope_bounds(certificates.UNIVERSAL_C)
    checks = [
        Check("threshold_squared", lhat_sq, 57.5041, 5e-3),
        Check("C", math.sqrt(lhat_sq), certificates.UNIVERSAL_C, 5e-4),
        Check("volume_drop_hi", dv[1], 0.197816, 5e-5),
        Check("visual_area_ceiling", packing.h(packing.R0), 0.980254, 1e-5),
        Check("visual_area_hi_at_threshold", area[1], packing.h(packing.R0), 1e-4),
        Check("core_length_hi", core, 0.156012, 1e-5),
        Check("inverse_S", 1.0 / s, 0.980257, 5e-6),
        Check("h_coefficient", 2.0 * math.sqrt(3.0) * packing.PACKING.axis_coefficient,
              packing.PACKING.h_coefficient, 5e-4),
    ]
    payload = {"C": certificates.UNIVERSAL_C, "C_derived": math.sqrt(lhat_sq), "R0": packing.R0}
    return _report("constants", payload, checks)


def _lhats_from_args(args) -> list[float]:
    if args.lhat is not None:
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
    lhats = _lhats_from_args(args)
    cert = certificates.full_certificate(lhats)
    _, out = _report("certify", _cert_payload(cert), [])
    return (0 if cert.certified else 1), out


def cmd_bounds(args) -> tuple[int, str]:
    lhat = args.lhat
    if not math.isfinite(lhat):
        raise argparse.ArgumentTypeError(f"--lhat must be finite, got {lhat}")
    try:
        _, _, dv, area, core = certificates.envelope_bounds(lhat)
    except UncertifiableError as exc:
        return _report("bounds", {"lhat": lhat, "error": str(exc)}, [], failed=True)
    payload = {
        "lhat": lhat,
        "volume_drop": list(dv),
        "visual_area": list(area),
        "core_length_hi": core,
    }
    return _report("bounds", payload, [])


def cmd_enumerate(args) -> tuple[int, str]:
    slopes = slope_lattice.enumerate_short_slopes(args.shape, args.cutoff)
    payload = {
        "shape": [args.shape.re, args.shape.im],
        "cutoff": args.cutoff,
        "count": len(slopes),
        "slopes": [[p, q, l] for p, q, l in slopes],
    }
    return _report("enumerate", payload, [])


def cmd_weitz(args) -> tuple[int, str]:
    k1 = args.k1
    if not k1 > 0.0:
        raise argparse.ArgumentTypeError(f"--k1 must be positive, got {k1}")
    curv = weitzenboeck.BoundaryCurvature(k1, 1.0 / k1, args.eps)
    b_min = weitzenboeck.scan_min_b(curv, np.random.default_rng(args.seed), args.trials)
    b_exact, mode = weitzenboeck.exact_min_b(curv)
    in_certified_range = curv.in_positivity_window()
    payload = {
        "k1": k1,
        "k2": 1.0 / k1,
        "eps": args.eps,
        "trials": args.trials,
        "seed": args.seed,
        "min_b": b_min,
        "min_b_exact": b_exact,
        "min_mode": list(mode),
        "in_certified_range": in_certified_range,
    }
    checks = []
    if in_certified_range:
        checks.append(Check("min_b_nonnegative", min(b_min, 0.0), 0.0, 1e-9))
        checks.append(Check("min_b_exact_nonnegative", min(b_exact, 0.0), 0.0, 1e-9))
    return _report("weitz", payload, checks)


def render_figure_csv(table: tuple[tuple[str, ...], np.ndarray], path: str):
    """Write figure data as CSV: header row, >= 12 significant digits, LF."""
    header, rows = table
    line = ",".join(["%.12e"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows.tolist())


def cmd_figure(args) -> tuple[int, str]:
    table = certificates.figure_data(args.which, args.samples)
    try:
        render_figure_csv(table, args.out)
    except OSError as exc:
        return _report("figure", {"error": str(exc)}, [], failed=True)
    payload = {
        "which": args.which,
        "samples": args.samples,
        "out": args.out,
        "columns": list(table[0]),
    }
    return _report("figure", payload, [])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dehnfill",
        description="Certified bounds for generalized hyperbolic Dehn filling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("constants", help="recompute and check the certified constants")

    p = sub.add_parser("certify", help="certify surgery coefficients")
    p.add_argument("--lhat", type=_parse_lhat_list, help="comma-separated normalized lengths")
    p.add_argument("--shape", type=_parse_shape, action="append", default=[])
    p.add_argument("--slope", type=_parse_slope, action="append", default=[])

    p = sub.add_parser("bounds", help="geometric bounds for one normalized length")
    p.add_argument("--lhat", type=float, required=True)

    p = sub.add_parser("enumerate", help="short-slope enumeration")
    p.add_argument("--shape", type=_parse_shape, required=True)
    p.add_argument("--cutoff", type=float, required=True)

    p = sub.add_parser("weitz", help="boundary-form positivity scan")
    p.add_argument("--k1", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("figure", help="export figure data as CSV")
    p.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out", required=True)
    return parser


_COMMANDS = {
    "constants": cmd_constants,
    "certify": cmd_certify,
    "bounds": cmd_bounds,
    "enumerate": cmd_enumerate,
    "weitz": cmd_weitz,
    "figure": cmd_figure,
}


_PARSER = _build_parser()


def run(argv: list[str]) -> int:
    """Dispatch a command line; returns the exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        code, out = _COMMANDS[args.command](args)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(out)
    return code


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
