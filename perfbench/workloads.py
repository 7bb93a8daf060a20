"""Seeded workload inputs, the operation each workload times, and its oracles.

Nothing here imports ``dehnfill``: inputs are generated and outputs are
checked with the standard library (and mpmath after the timed phase), so
the oracles stay independent of the code they check.  The library is
reached only through the ``lib`` handle the child process passes to
``Workload.op``.

Each workload is an input stream determined by the seed; only figure_grid's
ends, when its distinct x grids are used up, and the timed phase then stops
early.  Op 0 is the cold first op counted in ``setup_s``; ops 1..warmup run
untimed so that imports and lazy set-up finish; the timed phase follows.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Iterator

import stats

#: The certification threshold as the paper states it, exactly.
C_EXACT = Fraction(75832, 10000)
C_FLOAT = 7.5832
INF = math.inf

#: Visual-area ceiling h(R0) = 3.3957 * z (1 - z^2) / (1 + z^2) at z = 1/sqrt(3).
AREA_CEILING = 3.3957 / (2.0 * math.sqrt(3.0))
Z0 = 1.0 / math.sqrt(3.0)

#: The figure x grid runs from 0 to f(1/sqrt(3)) = (2 pi)^2 / 57.5041.
FIGURE_X_MAX = (2.0 * math.pi) ** 2 / 57.5041

#: 200 trials keep a run at a few hundred ops, so tens of ops lie beyond p90.
WEITZ_TRIALS = 200


def strict_loads(text: str):
    """Parse JSON, rejecting the non-strict tokens NaN, Infinity and -Infinity."""
    def constant(token):
        raise ValueError(f"non-strict JSON token {token}")

    return json.loads(text, parse_constant=constant)


class FormatFailure(str):
    """The reason an op's output is wrong in form only: a non-strict JSON
    token (certificate_to_json's Infinity for an unfilled cusp) while every
    value in it checked out.  Such an op is counted as the known defect
    ``nonstrict_json``, not as a failed op, and lowers ok_ratio; any other
    reason fails the op and makes a run's results incorrect."""


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# --------------------------------------------------------------------------
# certify_stream

#: The inputs exactly at C: C alone or padded with unfilled cusps.
AT_C = ((C_FLOAT,), (INF, C_FLOAT), (C_FLOAT, INF),
        (INF, INF, C_FLOAT), (C_FLOAT, INF, INF), (INF, C_FLOAT, INF))


def certify_stream_inputs(seed: int) -> Iterator[tuple[float, ...]]:
    """Distinct L-hat tuples of 1-3 cusps; no tuple repeats.

    Per block of 20, in seeded order: 15 certified finite tuples, 3 below
    the threshold (decision only) and 2 with one unfilled cusp (inf) beside
    1-2 finite values.  Six tuples exactly at C (C alone, padded with infs)
    replace the inputs at positions 1500, 2500, ..., 6500.  Every L-hat is
    drawn from a continuous distribution, so tuples of different blocks
    repeat only with negligible probability, so the redraw on a repeat looks
    only within a block, which keeps the generator's memory constant.
    """
    rng = random.Random(f"certify_stream:{seed}")
    i = 0
    while True:
        block = ["certified"] * 15 + ["below"] * 3 + ["unfilled"] * 2
        rng.shuffle(block)
        seen: set[tuple[float, ...]] = set()
        for kind in block:
            if i >= 1500 and (i - 1500) % 1000 == 0 and (i - 1500) // 1000 < len(AT_C):
                yield AT_C[(i - 1500) // 1000]
                i += 1
                continue
            while True:
                tup = _certify_tuple(rng, kind)
                if tup not in seen:
                    break
            seen.add(tup)
            yield tup
            i += 1


def _certify_tuple(rng: random.Random, kind: str) -> tuple[float, ...]:
    if kind == "below":
        # combined L-hat log-uniform in [1, C), never within 1e-6 of C
        combined = C_FLOAT * math.exp(-rng.uniform(1e-6, math.log(C_FLOAT)))
    else:
        # combined L-hat from just above C (steep part of f near 1/sqrt 3)
        # to 40 C (flat part near z = 1), denser near C
        combined = C_FLOAT * math.exp(math.log(40.0) * rng.uniform(1e-3, 1.0) ** 2)
    k = rng.choices((1, 2, 3), weights=(5, 3, 2))[0]
    if kind == "unfilled":
        k = rng.choice((1, 2))
    weights = [rng.uniform(0.2, 1.0) for _ in range(k)]
    total = sum(weights)
    lhats = [combined / math.sqrt(w / total) for w in weights]
    if kind == "unfilled":
        lhats.insert(rng.randrange(k + 1), INF)
    return tuple(lhats)


def exact_certified(lhats) -> bool:
    """sum 1/L^2 < 1/C^2 decided in rational arithmetic on the binary floats."""
    total = sum((1 / Fraction(v) ** 2 for v in lhats if v != INF), Fraction(0))
    return total < 1 / C_EXACT ** 2


def certify_stream_op(lib, lhats):
    return lib.certificate_to_json(lib.full_certificate(lhats))


def check_certificate(lhats, text: str):
    """Oracle for one certify_stream op; returns None or a failure reason.

    Output with a NaN or Infinity token fails.  If its only such tokens are
    Infinity, its values are still checked, with Infinity read as inf, and
    the reason is a FormatFailure when they are right.  A strict
    document may echo an unfilled cusp as null or a string.
    """
    format_failure = None
    try:
        doc = strict_loads(text)
    except ValueError as exc:
        format_failure = FormatFailure(f"json: {exc}")
        try:
            doc = json.loads(text, parse_constant=_infinity_only)
        except ValueError as exc:
            return f"json: {exc}"
    echo = doc.get("per_cusp_lhat")
    if not isinstance(echo, list) or len(echo) != len(lhats):
        return "per_cusp_lhat does not echo the input"
    for given, got in zip(lhats, echo):
        if given == INF:
            if got not in (INF, None, "inf", "Infinity"):
                return f"unfilled cusp echoed as {got!r}"
        elif got != given:
            return f"per_cusp_lhat {got!r} != {given!r}"
    certified = exact_certified(lhats)
    if doc.get("certified") is not certified:
        return f"decision {doc.get('certified')!r}, exact decision {certified}"
    finite = [v for v in lhats if v != INF]
    combined = 1.0 / math.sqrt(sum(1.0 / v ** 2 for v in finite))
    got = doc.get("combined_lhat")
    if not isinstance(got, float) or not math.isfinite(got) or not _close(got, combined, 1e-12):
        return f"combined_lhat {doc.get('combined_lhat')} != {combined}"
    bound_keys = ("volume_drop", "visual_area", "core_length_hi", "z_hat", "z_tilde")
    if not certified:
        if any(doc.get(k) is not None for k in bound_keys):
            return "uncertified input carries bounds"
        return format_failure
    try:
        dv_lo, dv_hi = doc["volume_drop"]
        a_lo, a_hi = doc["visual_area"]
        z_hat, z_tilde, core = doc["z_hat"], doc["z_tilde"], doc["core_length_hi"]
    except (KeyError, TypeError, ValueError):
        return "certified input lacks bounds"
    values = (dv_lo, dv_hi, a_lo, a_hi, z_hat, z_tilde, core)
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return f"non-finite bound in {values}"
    if not 0.0 <= dv_lo <= dv_hi:
        return f"volume_drop not ordered: {dv_lo} > {dv_hi}"
    if not 0.0 <= a_lo <= a_hi <= AREA_CEILING * (1.0 + 1e-12):
        return f"visual_area {a_lo}, {a_hi} not ordered under h(R0) = {AREA_CEILING}"
    if not Z0 - 1e-9 <= z_hat <= z_tilde + 1e-12 or z_tilde > 1.0:
        return f"z_hat {z_hat} > z_tilde {z_tilde}"
    if not _close(core, a_hi / (2.0 * math.pi), 1e-12):
        return f"core_length_hi {core} != area_hi/(2 pi)"
    return format_failure


def _infinity_only(token):
    if token != "Infinity":
        raise ValueError(f"non-strict JSON token {token}")
    return INF


def mpmath_check(lhats, text: str):
    """Recompute f(z-hat), ftilde(z-tilde) and both volume-drop integrals
    with 20-digit mpmath quadrature from the envelope formulas; H' is taken
    numerically, so no hand-derived derivative is shared with the library."""
    import mpmath as mp

    mp.mp.dps = 20
    c = mp.mpf("3.3957")

    def H(z):
        return (1 + z * z) / (c * z * (1 - z * z))

    def G(z):
        return (1 + z * z) / (2 * c * z ** 3)

    def Gtilde(z):
        return (1 + z * z) ** 2 / (2 * c * z ** 3 * (3 - z * z))

    def F(w):
        return -(1 + 4 * w + 6 * w ** 2 + w ** 4) / ((w + 1) * (1 + w * w) ** 2)

    def Ftilde(w):
        num = w ** 6 + 7 * w ** 4 + 12 * w ** 3 - 9 * w ** 2 - 4 * w + 1
        den = (w + 1) * (w * w + 1) * (w * w - 2 * w - 1) * (w * w + 2 * w - 1)
        return -num / den

    def envelope(gen, z):
        return c * (1 - z) * mp.exp(-mp.quad(gen, [1, z])) if z < 1 else mp.mpf(0)

    def drop(z0, other, sign):
        if z0 >= 1:
            return mp.mpf(0)
        integrand = lambda z: mp.diff(H, z) / (H(z) * (H(z) + sign * other(z)))  # noqa: E731
        return mp.quad(integrand, [z0, 1]) / 4

    doc = strict_loads(text)
    x_hat = (2 * mp.pi) ** 2 / mp.mpf(doc["combined_lhat"]) ** 2
    z_hat, z_tilde = mp.mpf(doc["z_hat"]), mp.mpf(doc["z_tilde"])
    for name, gen, z in (("f", F, z_hat), ("ftilde", Ftilde, z_tilde)):
        value = envelope(gen, z)
        if abs(value - x_hat) > 1e-8 * max(1, x_hat):
            return f"{name}(z) = {value} misses x_hat = {x_hat}"
    lo, hi = drop(z_tilde, Gtilde, -1), drop(z_hat, G, +1)
    dv_lo, dv_hi = doc["volume_drop"]
    if abs(hi - dv_hi) > 1e-8 or abs(lo - dv_lo) > 1e-8:
        return f"volume_drop ({dv_lo}, {dv_hi}) != mpmath ({lo}, {hi})"
    return None


def certify_stream_properties(inputs) -> dict:
    n = len(inputs)
    cusps = [len(t) for t in inputs]
    combined = sorted(
        1.0 / math.sqrt(sum(1.0 / v ** 2 for v in t if v != INF)) for t in inputs
    )
    return {
        "inputs": n,
        "cusp_count_share": {str(k): cusps.count(k) / n for k in (1, 2, 3)},
        "certified_share": sum(exact_certified(t) for t in inputs) / n,
        "unfilled_cusp_share": sum(INF in t for t in inputs) / n,
        "exactly_at_c": sum(t in AT_C for t in inputs),
        "combined_lhat_quantiles": _quantiles(combined),
    }


# --------------------------------------------------------------------------
# figure_grid

_FIG_STRATA = 15
_FIG_STRATUM_WIDTH = 32
_FIG_MIN_SAMPLES = 8
#: Op 0, timed cold in setup_s: the same for every seed, below the strata.
FIG_FIRST = (1, 7)
#: Inputs after op 0, each with its own sample count (x grid).
FIG_DISTINCT = _FIG_STRATA * _FIG_STRATUM_WIDTH
#: Block b takes the count at this offset in every stratum: the bit-reversal
#: order of 0..31, so the first few blocks already spread over each stratum.
_FIG_OFFSETS = tuple(int(f"{b:05b}"[::-1], 2) for b in range(_FIG_STRATUM_WIDTH))


def figure_grid_inputs(seed: int) -> Iterator[tuple[int, int]]:
    """(which, samples) pairs; ``which`` cycles 1, 2, 3.

    After the fixed first op, sample counts lie in [8, 488), split into 15
    strata of 32.  Block b of 15 ops takes from every stratum s the count at
    offset _FIG_OFFSETS[b] and gives it figure 1 + (s + b) % 3, so every
    block has five ops per figure, every three blocks pair each stratum with
    each figure, and the stream ends after 480 ops, when every count has
    been used once: no two tables share an x grid.  The tables of a block
    are the same for every seed; the seed orders them.  An op's time is
    about proportional to its sample count, so a run's percentiles then
    vary with the program and the host, not with which counts the seed drew
    (drawn counts moved figure_grid's p50 by 0.23 IQR/median over seeds).
    """
    rng = random.Random(f"figure_grid:{seed}")
    yield FIG_FIRST
    for block, offset in enumerate(_FIG_OFFSETS):
        by_figure = {w: [] for w in (1, 2, 3)}
        for stratum in range(_FIG_STRATA):
            samples = _FIG_MIN_SAMPLES + stratum * _FIG_STRATUM_WIDTH + offset
            by_figure[1 + (stratum + block) % 3].append(samples)
        for order in by_figure.values():
            rng.shuffle(order)
        for j in range(_FIG_STRATA):
            which = 1 + j % 3
            yield which, by_figure[which][j // 3]


def figure_grid_op(lib, inp, tmpdir: str):
    which, samples = inp
    path = os.path.join(tmpdir, f"figure-{which}-{samples}.csv")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli_run(["figure", "--which", str(which), "--samples", str(samples),
                            "--out", path])
    return code, out.getvalue(), path


_FIG_COLUMNS = {1: 3, 2: 4, 3: 4}


def check_figure(inp, result):
    which, samples = inp
    code, stdout, path = result
    try:
        if code != 0:
            return f"exit code {code}"
        try:
            doc = strict_loads(stdout)
        except ValueError as exc:
            return f"json: {exc}"
        payload = doc.get("payload", {})
        if doc.get("status") != "ok" or payload.get("which") != which \
                or payload.get("samples") != samples:
            return f"report does not echo the request: {doc.get('status')}, {payload}"
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if len(lines) != samples + 1:
            return f"{len(lines) - 1} rows, expected {samples}"
        if len(lines[0].split(",")) != _FIG_COLUMNS[which]:
            return f"header {lines[0]!r}"
        prev = -1.0
        for line in lines[1:]:
            row = [float(v) for v in line.split(",")]
            if len(row) != _FIG_COLUMNS[which] or not all(math.isfinite(v) for v in row):
                return f"bad row {line!r}"
            x, lower, upper = row[0], row[1], row[2]
            if not x > prev or lower > upper:
                return f"row {line!r} out of order"
            if which == 2 and not _close(row[3], x / 4.0, 1e-11):
                return f"asymptote {row[3]} != x/4"
            if which == 3 and not _close(row[3], x, 1e-11):
                return f"asymptote {row[3]} != x"
            prev = x
        first_x = float(lines[1].split(",")[0])
        if first_x != 0.0 or not _close(prev, FIGURE_X_MAX, 1e-4):
            return f"x grid [{first_x}, {prev}] is not [0, f(1/sqrt 3)]"
        return None
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def figure_grid_properties(inputs) -> dict:
    n = len(inputs)
    samples = sorted(s for _, s in inputs)
    grids = {s for _, s in inputs}
    return {
        "inputs": n,
        "which_share": {str(w): sum(1 for v, _ in inputs if v == w) / n for w in (1, 2, 3)},
        "samples_mean": sum(samples) / n,
        "samples_quantiles": _quantiles(samples),
        "distinct_grid_share": len(grids) / n,
    }


# --------------------------------------------------------------------------
# slope_census


#: Op 0, timed cold in setup_s: the figure-eight cusp at the threshold, for every seed.
SLOPE_FIRST = (0.5, math.sqrt(3.0), C_FLOAT, "reduced")


def slope_census_inputs(seed: int) -> Iterator[tuple[float, float, float, str]]:
    """(re, im, cutoff, kind) cusp shapes with a cutoff in [C, 4.2 C].

    After the fixed first op, per block of 10, in seeded order: 5 reduced
    shapes with im in [sqrt(3)/2, 3], 3 unreduced ones (a reduced shape moved
    by a random SL(2, Z) word, so Gauss reduction iterates) and 2 elongated
    ones with reduced im log-uniform in [10, 1e4], where the bounding box
    tests many candidates per slope found.
    """
    rng = random.Random(f"slope_census:{seed}")
    yield SLOPE_FIRST
    while True:
        block = ["reduced"] * 5 + ["unreduced"] * 3 + ["elongated"] * 2
        rng.shuffle(block)
        for kind in block:
            cutoff = C_FLOAT * 4.2 ** rng.random()
            re = rng.uniform(-0.5, 0.5)
            if kind == "elongated":
                yield re, 10.0 ** rng.uniform(1.0, 4.0), cutoff, kind
                continue
            im = rng.uniform(math.sqrt(1.0 - re * re), 3.0)
            if kind == "reduced":
                yield re, im, cutoff, kind
                continue
            while True:
                tau = _sl2_move(rng, complex(re, im))
                if (abs(tau.real) > 0.5 or abs(tau) < 1.0) and tau.imag > 0.01:
                    break
            yield tau.real, tau.imag, cutoff, kind


def _sl2_move(rng: random.Random, tau: complex) -> complex:
    for _ in range(rng.randint(1, 3)):
        tau = tau + rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.6:
            tau = -1.0 / tau
    return tau


def slope_census_op(lib, inp):
    re, im, cutoff, _ = inp
    slopes = lib.enumerate_short_slopes(lib.CuspShape(re, im), cutoff)
    return slopes, [lib.certify([length]).certified for _, _, length in slopes]


def _length(re: float, im: float, p: int, q: int) -> float:
    return math.hypot(p + q * re, q * im) / math.sqrt(im)


def brute_force_slopes(re: float, im: float, cutoff: float) -> dict[tuple[int, int], float]:
    """Every primitive slope with normalized length <= cutoff, by scanlines
    of the ellipse (p + q re)^2 + (q im)^2 <= cutoff^2 im in the given basis."""
    found = {}
    qmax = math.floor(cutoff / math.sqrt(im) * (1.0 + 1e-9)) + 1
    for q in range(0, qmax + 1):
        half = math.sqrt(max(0.0, cutoff * cutoff * im - (q * im) ** 2))
        centre = -q * re
        for p in range(math.floor(centre - half) - 1, math.ceil(centre + half) + 2):
            if (q == 0 and p <= 0) or math.gcd(p, q) != 1:
                continue
            length = _length(re, im, p, q)
            if length <= cutoff * (1.0 + 1e-9):
                # representative with p > 0, or p = 0 and q > 0
                key = (p, q) if p > 0 or (p == 0 and q > 0) else (-p, -q)
                found[key] = length
    return found


def check_slopes(inp, result, complete: bool):
    re, im, cutoff, _ = inp
    slopes, decisions = result
    if len(decisions) != len(slopes) or not slopes:
        return f"{len(slopes)} slopes, {len(decisions)} decisions"
    seen = set()
    prev = 0.0
    for (p, q, length), certified in zip(slopes, decisions):
        if not (isinstance(p, int) and isinstance(q, int)) or math.gcd(p, q) != 1:
            return f"slope ({p}, {q}) is not primitive"
        if not (p > 0 or (p == 0 and q > 0)) or (p, q) in seen:
            return f"slope ({p}, {q}) is not a unique representative"
        seen.add((p, q))
        if not _close(length, _length(re, im, p, q), 1e-11) or length > cutoff * (1 + 1e-12):
            return f"slope ({p}, {q}) length {length} wrong or above cutoff {cutoff}"
        if length < prev:
            return "slopes not sorted by length"
        prev = length
        if certified is not (Fraction(length) > C_EXACT):
            return f"certify([{length}]) decided {certified}"
    if complete:
        brute = brute_force_slopes(re, im, cutoff)
        # slopes within rounding of the cutoff may fall on either side
        sure = {k for k, v in brute.items() if v <= cutoff * (1.0 - 1e-9)}
        missing = sure - seen
        extra = seen - set(brute)
        if missing or extra:
            return f"enumeration missing {sorted(missing)[:3]} extra {sorted(extra)[:3]}"
    return None


def reduced_im(re: float, im: float) -> float:
    """im of the Gauss-reduced modulus (independent of the library's reduction)."""
    tau = complex(re, im)
    for _ in range(1000):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) < 1.0:
            tau = -1.0 / tau
        else:
            break
    return tau.imag


def slope_census_properties(inputs) -> dict:
    n = len(inputs)
    counts = sorted(len(brute_force_slopes(re, im, cut)) for re, im, cut, _ in inputs)
    return {
        "inputs": n,
        "kind_share": {k: sum(1 for *_, kind in inputs if kind == k) / n
                       for k in ("reduced", "unreduced", "elongated")},
        "not_reduced_share": sum(1 for re, im, *_ in inputs
                                 if abs(re) > 0.5 or abs(complex(re, im)) < 1.0) / n,
        "reduced_im_quantiles": _quantiles(sorted(reduced_im(re, im) for re, im, *_ in inputs)),
        "slopes_per_shape_quantiles": _quantiles(counts),
        "slopes_per_shape_mean": sum(counts) / n,
    }


# --------------------------------------------------------------------------
# weitz_scan

_WEITZ_CELLS = 6
_LOG3 = math.log(3.0)
_EPS_MAX = 2.4


def in_window(k1: float, eps: float) -> bool:
    """Positivity window: 1/sqrt 3 <= k1, k2 <= sqrt 3 and eps <= 2 min(k1, k2)."""
    k = min(k1, 1.0 / k1)
    return 1.0 / math.sqrt(3.0) <= k and max(k1, 1.0 / k1) <= math.sqrt(3.0) and eps <= 2.0 * k


def _near_window_edge(k1: float, eps: float) -> bool:
    edge = abs(abs(math.log(k1)) - 0.5 * _LOG3)
    return edge < 1e-6 or abs(eps - 2.0 * min(k1, 1.0 / k1)) < 1e-6


def weitz_scan_inputs(seed: int) -> Iterator[tuple[float, float, int]]:
    """(k1, eps, trial_seed) on a jittered 6x6 grid over ln k1 in [-ln 3, ln 3]
    and eps in [0, 2.4]; every pass visits all 36 cells in seeded order.
    Points within 1e-6 of the window's edge are redrawn."""
    rng = random.Random(f"weitz_scan:{seed}")
    while True:
        cells = [(a, b) for a in range(_WEITZ_CELLS) for b in range(_WEITZ_CELLS)]
        rng.shuffle(cells)
        for a, b in cells:
            while True:
                u = -_LOG3 + (a + rng.random()) * 2.0 * _LOG3 / _WEITZ_CELLS
                eps = (b + rng.random()) * _EPS_MAX / _WEITZ_CELLS
                k1 = math.exp(u)
                if not _near_window_edge(k1, eps):
                    break
            yield k1, eps, rng.randrange(2 ** 31)


def weitz_argv(inp) -> list[str]:
    k1, eps, trial_seed = inp
    return ["weitz", "--k1", repr(k1), "--eps", repr(eps),
            "--trials", str(WEITZ_TRIALS), "--seed", str(trial_seed)]


def weitz_scan_op(lib, inp):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lib.cli_run(weitz_argv(inp))
    return code, out.getvalue()


def check_weitz(inp, result):
    k1, eps, trial_seed = inp
    code, stdout = result
    if code != 0:
        return f"exit code {code}"
    try:
        doc = strict_loads(stdout)
    except ValueError as exc:
        return f"json: {exc}"
    payload = doc.get("payload", {})
    echo = (payload.get("k1"), payload.get("eps"), payload.get("trials"), payload.get("seed"))
    if doc.get("status") != "ok" or echo != (k1, eps, WEITZ_TRIALS, trial_seed):
        return f"report does not echo the request: {doc.get('status')}, {echo}"
    inside = in_window(k1, eps)
    if payload.get("in_certified_range") is not inside:
        return f"in_certified_range {payload.get('in_certified_range')}, expected {inside}"
    min_b = payload.get("min_b")
    if not isinstance(min_b, (int, float)) or not math.isfinite(min_b):
        return f"min_b {min_b!r}"
    if inside and min_b < -1e-9:
        return f"min_b {min_b} < 0 inside the positivity window"
    return None


def weitz_scan_properties(inputs) -> dict:
    n = len(inputs)
    return {
        "inputs": n,
        "inside_window_share": sum(in_window(k1, eps) for k1, eps, _ in inputs) / n,
        "trials_per_op": WEITZ_TRIALS,
    }


# --------------------------------------------------------------------------


def plain_lib(dehnfill) -> SimpleNamespace:
    """The untraced handle through which ops call the library."""
    return SimpleNamespace(
        full_certificate=dehnfill.certificates.full_certificate,
        certificate_to_json=dehnfill.certificates.certificate_to_json,
        certify=dehnfill.certificates.certify,
        enumerate_short_slopes=dehnfill.slope_lattice.enumerate_short_slopes,
        CuspShape=dehnfill.slope_lattice.CuspShape,
        cli_run=dehnfill.cli.run,
    )


def _quantiles(sorted_values) -> dict:
    return {f"q{p}": stats.percentile(sorted_values, p) for p in (0, 10, 50, 90, 100)}


@dataclass(frozen=True)
class Workload:
    """One named workload: its input stream, the timed op and its oracle.

    ``op(lib, inp, tmpdir)`` runs inside the timed region; ``check(i, inp,
    result)`` runs after it, outside the timing, and returns None or a
    failure reason.  ``post_check`` runs after the timed phase on the
    results ``keep`` selected.  ``trace_ops`` is the fixed op count of a
    traced run, so its counts repeat exactly for a given seed.  The timed
    phase ends only after a multiple of ``block`` ops, so that it times
    whole blocks of the input stream.
    """

    name: str
    inputs: Callable[[int], Iterator]
    op: Callable
    check: Callable
    properties: Callable[[list], dict]
    warmup: int
    trace_ops: int
    keep: Callable[[int, object, object], bool] = lambda i, inp, result: False
    post_check: Callable | None = None
    property_inputs: int = 1000
    block: int = 1


def _keep_certified(i, inp, text) -> bool:
    # the mpmath subsample: every 500th op, if its input certifies
    return i % 500 == 7 and exact_certified(inp)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="certify_stream",
            inputs=certify_stream_inputs,
            op=lambda lib, inp, tmpdir: certify_stream_op(lib, inp),
            check=lambda i, inp, out: check_certificate(inp, out),
            properties=certify_stream_properties,
            warmup=1000,
            trace_ops=3000,
            keep=_keep_certified,
            post_check=mpmath_check,
            property_inputs=8000,
        ),
        Workload(
            name="figure_grid",
            inputs=figure_grid_inputs,
            op=figure_grid_op,
            check=lambda i, inp, out: check_figure(inp, out),
            properties=figure_grid_properties,
            warmup=15,
            trace_ops=30,
            property_inputs=1 + FIG_DISTINCT,
            # a block's 15 tables are the same for every seed
            block=_FIG_STRATA,
        ),
        Workload(
            name="slope_census",
            inputs=slope_census_inputs,
            op=lambda lib, inp, tmpdir: slope_census_op(lib, inp),
            check=lambda i, inp, out: check_slopes(inp, out, complete=i % 4 == 0),
            properties=slope_census_properties,
            warmup=50,
            trace_ops=600,
            property_inputs=400,
        ),
        Workload(
            name="weitz_scan",
            inputs=weitz_scan_inputs,
            op=lambda lib, inp, tmpdir: weitz_scan_op(lib, inp),
            check=lambda i, inp, out: check_weitz(inp, out),
            properties=weitz_scan_properties,
            warmup=20,
            trace_ops=150,
            property_inputs=720,
        ),
    )
}
