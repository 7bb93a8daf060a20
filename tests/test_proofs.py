"""Proof obligations checked exactly: the per-mode coefficients of the
boundary form b, the envelope's closed forms, the derived threshold, the
derivative bounds and rounding allowance behind the inversion's early exit,
the envelopes' least slopes on the certified range, and the inversion's
two passes.

For b, k1 and eps are symbols with k2 = 1/k1, wave vectors are symbols, and
each coefficient c = x + i y is split into its real and imaginary parts.
The library's helpers run on these symbols as they run on arrays; the float
literals in them (3.0, 4.0, 2.0) are read as the rationals they equal, and
every check reduces a difference of rational functions to exactly 0.  The
envelope section below says how its formulas are run.
"""

import ast
import functools
import inspect
import math
import operator
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp
from mpmath import iv, mp

from dehnfill import envelope
from dehnfill.certificates import UNIVERSAL_C, envelope_bounds
from dehnfill.envelope import INV_TOL
from dehnfill.packing import AXIS_COEFFICIENT, H_COEFFICIENT, R0, Z0, h
from dehnfill.weitzenboeck import _mode_coefficients, _mode_matrix, _row_b
from oracles import ParentSeed, parent_invert_decreasing

k1, eps = sp.symbols("k1 epsilon", positive=True)
k2 = 1 / k1
CURV = SimpleNamespace(k1=k1, k2=k2, epsilon=eps)
kap1, kap2 = sp.symbols("kappa1 kappa2", real=True)
x1, y1, x2, y2 = sp.symbols("x1 y1 x2 y2", real=True)


def docstring_b(kap1, kap2, c1, c2):
    """The per-mode formula in ``boundary_form_b``'s docstring, with c1, c2 as
    (re, im) pairs."""
    def abs2(c):
        return c[0] ** 2 + c[1] ** 2

    area = (3 - k1 ** 2) * kap1 ** 2 + (3 - k2 ** 2) * kap2 ** 2
    curl = (kap2 * c1[0] - kap1 * c2[0], kap2 * c1[1] - kap1 * c2[1])
    return sp.Rational(1, 4) * area * (k1 * abs2(c1) + k2 * abs2(c2)) + eps / 2 * abs2(curl) * (
        (k2 - eps / 2) * kap2 ** 2 + (k1 - eps / 2) * kap1 ** 2)


def vanishes(expr) -> bool:
    return sp.cancel(sp.nsimplify(expr, rational=True)) == 0


def scan_row(wave_vectors, draws):
    """The scan's b for one form whose modes sit at ``wave_vectors`` with raw
    draws ``draws``, through a coefficient table with one class per mode."""
    table = np.array([(*_mode_coefficients(CURV, a, b), a, b) for a, b in wave_vectors],
                     dtype=object).T
    pick = np.arange(len(wave_vectors))[None, :]
    (b,) = _row_b(table, pick, np.array([draws], dtype=object))
    return b


def test_table_contraction_is_the_docstring_formula():
    a1, a2, w = _mode_coefficients(CURV, kap1, kap2)
    contraction = a1 * (x1 ** 2 + y1 ** 2) + a2 * (x2 ** 2 + y2 ** 2) + w * (
        (kap2 * x1 - kap1 * x2) ** 2 + (kap2 * y1 - kap1 * y2) ** 2)
    assert vanishes(contraction - docstring_b(kap1, kap2, (x1, y1), (x2, y2)))
    # the scan's contraction of one mode, times its sum g^2
    scan = scan_row([(kap1, kap2)], [(x1, y1, x2, y2)])
    norm = x1 ** 2 + y1 ** 2 + x2 ** 2 + y2 ** 2
    assert vanishes(scan * norm - docstring_b(kap1, kap2, (x1, y1), (x2, y2)))


def test_mode_matrix_is_the_polarization():
    def b(c1, c2):
        return docstring_b(kap1, kap2, (c1, 0), (c2, 0))

    q11, q22, q12 = _mode_matrix(CURV, kap1, kap2)
    assert vanishes(q11 - b(1, 0))
    assert vanishes(q22 - b(0, 1))
    assert vanishes(q12 - (b(1, 1) - b(1, 0) - b(0, 1)) / 2)
    assert vanishes(q11 * x1 ** 2 + 2 * q12 * x1 * x2 + q22 * x2 ** 2 - b(x1, x2))


def test_scan_row_is_b_at_the_unit_form():
    # two modes at independent wave vectors, as one row of the scan
    p1, p2 = sp.symbols("p1 p2", real=True)
    u1, v1, u2, v2 = sp.symbols("u1 v1 u2 v2", real=True)
    draws = [(x1, y1, x2, y2), (u1, v1, u2, v2)]
    scan = scan_row([(kap1, kap2), (p1, p2)], draws)
    scale = sp.sqrt(2 * sum(t ** 2 for row in draws for t in row))
    unit = [[t / scale for t in row] for row in draws]
    # a mode and its conjugate contribute equally
    b_unit = 2 * sum(docstring_b(a, b, row[:2], row[2:]) for (a, b), row in
                     zip([(kap1, kap2), (p1, p2)], unit))
    assert vanishes(scan - b_unit)


# ---------------------------------------------------------------------------
# The envelope.  Each closed form in dehnfill.envelope is run on a symbol from
# its source: the assignments and the final return of its body, with the
# guards (if statements) and the docstring skipped, each float literal read
# as the rational its repr spells (12.0 -> 12, 0.75 -> 3/4), math.* as sympy
# and sqrt(2) exact.  The coefficient c = 3.3957 stays a symbol.

class _Rationals(ast.NodeTransformer):
    def visit_Constant(self, node):
        if isinstance(node.value, float):
            return ast.Call(ast.Name("Rational", ast.Load()), [ast.Constant(repr(node.value))], [])
        return node


def _compiled(node, mode):
    tree = ast.Expression(node) if mode == "eval" else ast.Module([node], [])
    return compile(ast.fix_missing_locations(tree), "envelope", mode)


_ENVELOPE = _Rationals().visit(ast.parse(inspect.getsource(envelope)))
c, z = sp.symbols("c z", positive=True)
_EXACT = {"math": SimpleNamespace(pi=sp.pi, atan=sp.atan, log=sp.log, exp=sp.exp, sqrt=sp.sqrt),
          "Rational": sp.Rational, "_COEFF": c}
for _node in _ENVELOPE.body:
    if isinstance(_node, ast.Assign) and getattr(_node.targets[0], "id", None) in {
            "_R2", "_A", "_B", "_P2", "_Q2"}:
        exec(_compiled(_node, "exec"), _EXACT)
_FUNCTIONS = {node.name: node for node in _ENVELOPE.body if isinstance(node, ast.FunctionDef)}


def run(name, arg=z):
    """envelope.<name>'s formula at ``arg``, and the names its body assigned."""
    scope = dict(_EXACT)
    scope[_FUNCTIONS[name].args.args[0].arg] = arg
    for stmt in _FUNCTIONS[name].body:
        if isinstance(stmt, ast.Assign):
            exec(_compiled(stmt, "exec"), scope)
        elif isinstance(stmt, ast.Return):
            value = eval(_compiled(stmt.value, "eval"), scope)
    return value, scope


def is_zero(expr) -> bool:
    """expr == 0 exactly: a rational function of z over Q(c, sqrt(2)), or a constant."""
    return sp.cancel(expr) == 0 or sp.simplify(expr) == 0


# the docstrings' H, G and Gtilde (G and Gtilde as in tests/oracles.py)
H_SYM = 1 / run("_area_from_z")[0]
G_SYM = (1 + z ** 2) / (2 * c * z ** 3)
GTILDE_SYM = (1 + z ** 2) ** 2 / (2 * c * z ** 3 * (3 - z ** 2))
F_SYM, FTILDE_SYM = run("_F")[0], run("_Ftilde")[0]


def test_h_is_its_docstring():
    assert is_zero(H_SYM - (1 + z ** 2) / (c * z * (1 - z ** 2)))


def test_volume_drop_upper_form():
    # (1/4) int_z^1 H'/(H (H + G)), integrand 2c w^2 (w^4 + 4w^2 - 1)/(1 + w^2)^3
    integrand = 2 * c * z ** 2 * (z ** 4 + 4 * z ** 2 - 1) / (1 + z ** 2) ** 3
    assert is_zero(integrand - sp.diff(H_SYM, z) / (H_SYM * (H_SYM + G_SYM)))
    form = run("_dv_upper_from_z")[0]
    assert is_zero(-sp.diff(form, z) - integrand / 4)
    assert is_zero(form.subs(z, 1))


def test_volume_drop_lower_form():
    # (1/4) int_z^1 H'/(H (H - Gtilde)) = (P(1) - P(z))/4 with the docstring's P'
    p_prime = (2 * c + 3 * c / (z ** 2 + 1) - 4 * c / (z ** 2 + 1) ** 2
               - c / 2 * (3 * z - 1) / (z ** 2 + 2 * z - 1)
               + c / 2 * (3 * z + 1) / (z ** 2 - 2 * z - 1))
    assert is_zero(p_prime - sp.diff(H_SYM, z) / (H_SYM * (H_SYM - GTILDE_SYM)))
    form = run("_dv_lower_from_z")[0]
    assert is_zero(-sp.diff(form, z) - p_prime / 4)
    assert is_zero(form.subs(z, 1))


def test_f_is_its_integral_form():
    # f = c (1 - z) exp(-int_1^z F): log(f/(c (1 - z))) has derivative -F and is 0 at 1
    exponent = sp.expand_log(sp.log(run("_f")[0] / (c * (1 - z))), force=True)
    assert is_zero(sp.diff(exponent, z) + F_SYM)
    assert is_zero(exponent.subs(z, 1))


def test_ftilde_exponent_is_the_integral_of_ftilde():
    # ftilde = c (1 - z) exp(-exponent) with exponent = int_1^z Ftilde
    value, names = run("_ftilde")
    exponent = names["exponent"]
    assert is_zero(sp.diff(exponent, z) - FTILDE_SYM)
    assert is_zero(exponent.subs(z, 1))
    assert is_zero(value - c * (1 - z) * sp.exp(-exponent))


def _enclose(expr, box):
    """A mpmath interval holding ``expr`` for every z in ``box``, by
    outward-rounded interval arithmetic on the expression tree."""
    if expr == z:
        return box
    if expr.is_Rational:
        return iv.mpf(expr.p) / expr.q
    if expr == sp.pi:
        return iv.pi
    if expr == sp.E:
        return iv.e
    args = [_enclose(arg, box) for arg in expr.args]
    if expr.is_Add:
        return functools.reduce(operator.add, args)
    if expr.is_Mul:
        return functools.reduce(operator.mul, args)
    if expr.is_Pow:
        base, power = args
        return base ** int(expr.exp) if expr.exp.is_Integer else iv.exp(power * iv.log(base))
    if isinstance(expr, sp.exp):
        return iv.exp(args[0])
    if isinstance(expr, sp.log):
        return iv.log(args[0])
    if isinstance(expr, sp.atan):  # mpmath 1.3.0 has no iv.atan
        return iv.atan2(args[0], 1)
    raise NotImplementedError(expr)


def test_derived_threshold_is_below_the_literal():
    # C*^2 = (2 pi)^2/f(1/sqrt 3) = 12 pi^2 sqrt(e)/3.3957.  Direction: C* <= C
    # is what decisions need.  They compare L-hat with the literal C = 7.5832,
    # and the theorem holds for L-hat > C*; were C* above C, a filling with
    # L-hat in (C, C*] would be certified without the theorem behind it.
    coeff = sp.Rational(repr(H_COEFFICIENT))
    cstar2 = (2 * sp.pi) ** 2 / run("_f", 1 / sp.sqrt(3))[0].subs(c, coeff)
    assert sp.simplify(cstar2 - 12 * sp.pi ** 2 * sp.sqrt(sp.E) / coeff) == 0
    literal2 = _enclose(sp.Rational(repr(UNIVERSAL_C)) ** 2, None)
    margin = literal2 - _enclose(cstar2, None)
    assert margin.a > 8e-4  # 7.5832^2 - C*^2 = 8.08e-4 > 0, so C* = 7.583147 < C


def test_axis_coefficient_is_inverse_s_truncated():
    # 1/S = 2 sqrt 2 asinh(1/(2 sqrt 2)) = 0.98025814...  The packing bound needs
    # the literal 0.980258 at or below 1/S, within the 1e-6 of a truncation.
    t = 1 / (2 * iv.sqrt(2))
    inverse_s = iv.log(t + iv.sqrt(1 + t ** 2)) / t
    gap = inverse_s - _enclose(sp.Rational(repr(AXIS_COEFFICIENT)), None)
    assert 0 <= gap.a and gap.b < 1e-6


def test_h_coefficient_is_below_its_packing_value():
    # 2 sqrt 3 * 0.980258 = 3.3957133... <= 2 sqrt 3 / S.  The literal 3.3957 must
    # lie at or below it, within the 1e-4 of a truncation.
    axis, coeff = (sp.Rational(repr(v)) for v in (AXIS_COEFFICIENT, H_COEFFICIENT))
    gap = _enclose(2 * sp.sqrt(3) * axis - coeff, None)
    assert 0 <= gap.a and gap.b < 1e-4


# Derivative bounds behind the early exit of the inverters envelope._inverter builds.
# With g = c (1 - z) K and K' = -integrand K (K = exp(-int_1^z integrand) > 0,
# the forms proved above), g^(n) = c K P_n with P_0 = 1 - z and
# P_{n+1} = P_n' - integrand P_n.  The largest |g^(n)| on [lo, hi] is at an
# end or at a root of P_{n+1}; sympy isolates those roots in rational
# intervals, and interval arithmetic encloses c K P_n on each.  The bounds
# hold on the certified range [1/sqrt 3, 1], whose left end is rounded down
# to a rational within 1e-12, widened by DELTA, where the inversion's first
# Newton step may land.

DELTA = 1e-6
_CERTIFIED = (sp.floor(10 ** 12 / sp.sqrt(3)) / 10 ** 12, sp.Integer(1))
_RANGE = (_CERTIFIED[0] - sp.Rational(1, 10 ** 6), sp.Integer(1))


def _kernel(name):
    """(integrand, K) of envelope.<name> with c = the float the module uses."""
    if name == "f":
        return F_SYM, run("_f")[0] / (c * (1 - z))
    return FTILDE_SYM, sp.exp(-run("_ftilde")[1]["exponent"])


@functools.cache
def _factors(name):
    """(K, [P_0, ..., P_3]), each P_n as a (numerator, denominator) pair of Polys."""
    integrand, kernel = _kernel(name)
    a, b = (sp.Poly(part, z) for part in sp.fraction(sp.cancel(integrand)))
    num, den = sp.Poly(1 - z, z), sp.Poly(1, z)
    factors = [(num, den)]
    for _ in range(3):
        num, den = (num.diff(z) * den - num * den.diff(z)) * b - a * num * den, den ** 2 * b
        common = num.gcd(den)
        num, den = num.exquo(common), den.exquo(common)
        factors.append((num, den))
    return kernel, factors


def _abs_derivative_enclosures(name, order, lo, hi):
    """(an interval holding |g^(order)|, the z it is taken at) at lo, at hi and
    on each isolated root of P_{order+1} in [lo, hi], where the extremes of
    |g^(order)| over [lo, hi] are (its least only if g^(order) has no root there)."""
    kernel, factors = _factors(name)
    num, den = factors[order + 1]
    assert not den.intervals(inf=lo, sup=hi)  # P_{n+1} is regular here
    boxes = [(lo, lo), (hi, hi)] + [box for box, _ in num.intervals(
        inf=lo, sup=hi, eps=sp.Rational(1, 10 ** 12))]
    coeff = sp.Rational(envelope._COEFF)  # the float's exact value
    value = (coeff * kernel * factors[order][0].as_expr() / factors[order][1].as_expr()).subs(
        c, coeff)
    return [(abs(_enclose(value, iv.mpf([_enclose(a, None).a, _enclose(b, None).b]))), float(a))
            for a, b in boxes]


@functools.cache
def _max_abs_derivative(name, order):
    """An upper bound on max |g^(order)| over _RANGE, and the z it is taken at."""
    bounds = [(box.b, at) for box, at in _abs_derivative_enclosures(name, order, *_RANGE)]
    return max(bounds, key=lambda pair: float(pair[0]))


@pytest.mark.parametrize("name, bend, peak, at", [
    ("f", envelope.F_BEND, 10.187, 1.0), ("ftilde", envelope.FTILDE_BEND, 14.554, float(_RANGE[0]))])
def test_second_derivative_bound(name, bend, peak, at):
    assert _RANGE[0] <= sp.Rational(Z0) - sp.Rational(DELTA)
    bound, where = _max_abs_derivative(name, 2)
    assert bound <= bend
    assert abs(bound - peak) < 0.01 and where == at  # as envelope's comment says


@pytest.mark.parametrize("name, peak", [("f", 3.3957), ("ftilde", 3.78)])
def test_slope_bound(name, peak):
    bound, _ = _max_abs_derivative(name, 1)
    assert bound <= SLOPE_MAX
    assert bound <= peak + 5e-5


# Slopes bounded away from 0 on the certified range: at 0.57 the slope of f
# is already only 0.268.

@pytest.mark.parametrize("name, floor, least", [
    ("f", 0.2972, 0.297277), ("ftilde", 2.585, 2.585336)])
def test_slope_bounded_away_from_zero(name, floor, least):
    lo, hi = _CERTIFIED
    assert 0 <= 1 / sp.sqrt(3) - lo < sp.Rational(1, 10 ** 12)
    num = _factors(name)[1][1][0]
    # g' = c K P_1 vanishes at sqrt(sqrt 5 - 2) = 0.485868, left of the range, and not in it
    assert sp.expand(num.as_expr().subs(z, sp.sqrt(sp.sqrt(5) - 2))) == 0
    assert not num.intervals(inf=lo, sup=hi)
    box, where = min(_abs_derivative_enclosures(name, 1, lo, hi), key=lambda pair: float(pair[0].a))
    assert box.a >= floor
    assert where == float(lo) and abs(box.a - least) < 5e-5  # the least slope is at 1/sqrt 3


# The rounding allowance of the early exit.  With d the computed Newton step
# from z0, z1 = z0 + d and Taylor's theorem,
#   |fl(g(z1)) - x| <= max|g''| d^2/2 + e(z0) + e(z1) + max|g'| |rho|
#                      + |d| (|slope error| + max|g'| |theta|),
# e the evaluation error of the float g, rho the rounding of z1 (at most half
# an ulp of z1 < 1, so 2^-54), theta that of the step's subtraction and
# quotient (2u).  The exit's test bend d^2 <= tol, rounded, gives
# max|g''| d^2/2 <= tol/2 (the bound above), so the float test at z1 passes,
# and fl(g(z1) - x) is monotone in g(z1), whenever the rest fits under tol/2.
U = 2.0 ** -53
SLOPE_MAX = 3.8
#: evaluation error of _f and _ftilde, relative: the arithmetic (about 8
#: roundings for _f, and for _ftilde 10 plus the cancellation in z^2 -
#: (sqrt(2) - 1)^2 >= 0.031, which with A = 0.146 costs about 7u) plus
#: glibc's documented 1-ulp bounds for exp and log; doubled for slack
EVAL_REL = {"f": 16 * U, "ftilde": 32 * U}
#: absolute error of the computed slope -g (1/(1 - z) + integrand); it only
#: meets the tolerance multiplied by |d| <= 3.2e-7, so it is set loosely
SLOPE_ERR = 2.0 ** -40
#: what all of it comes to, relative to max(1, x)
ALLOWANCE = 1.1e-14


def _rounding(name, x, step):
    """The rounding terms above at target x for a Newton step of size ``step``."""
    return (2.0 * EVAL_REL[name] * (x + SLOPE_MAX * step) + SLOPE_MAX * 2.0 ** -54
            + step * (SLOPE_ERR + SLOPE_MAX * 2.0 * U))


def test_rounding_allowance_fits_under_half_the_tolerance():
    for name, top, bend in (("f", envelope._F_TOP, envelope.F_BEND),
                            ("ftilde", envelope._FTILDE_TOP, envelope.FTILDE_BEND)):
        for x in (min(top, 1.0), top):  # tol = INV_TOL max(1, x) grows past x = 1
            tol = INV_TOL * max(1.0, x)
            step = math.sqrt(tol * (1.0 + 4.0 * U) / bend)
            assert _rounding(name, x, step) <= ALLOWANCE * max(1.0, x) < tol / 2.0


_INTEGRAND_MP = {name: sp.lambdify(z, expr, "mpmath") for name, expr in (("f", F_SYM),
                                                                          ("ftilde", FTILDE_SYM))}


def g_mp(name, t):
    """(g(t), g'(t)) to 50 digits, from g = c (1 - t) exp(-int_1^t integrand)
    by quadrature, and g' = -g (1/(1 - t) + integrand)."""
    integrand = _INTEGRAND_MP[name]
    with mp.workdps(50):
        t = mp.mpf(t)
        value = mp.mpf(envelope._COEFF) * (1 - t) * mp.exp(-mp.quad(integrand, [1, t]))
        return value, -value * (1 / (1 - t) + integrand(t))


def test_evaluation_and_slope_errors_within_the_allowance():
    rng = random.Random(89)
    lo = float(_RANGE[0])
    points = [lo, Z0, envelope._BELOW_ONE] + [rng.uniform(lo, 1.0) for _ in range(25)]
    for name, func, integrand in (("f", envelope._f, envelope._F),
                                  ("ftilde", envelope._ftilde, envelope._Ftilde)):
        for t in points:
            value, slope = g_mp(name, t)
            val = func(t)
            assert abs(val - value) <= EVAL_REL[name] * value, (name, t)
            assert abs(-val * (1.0 / (1.0 - t) + integrand(t)) - slope) <= SLOPE_ERR, (name, t)


# The exit at adversarial targets: x whose first Newton step d has
# bend d^2 in [0.9 tol, tol], so the exit fires with the least room.

_INVERSION = {
    "f": (envelope._f, envelope._F, envelope._F_TOP, envelope._F_SEED, envelope.F_BEND),
    "ftilde": (envelope._ftilde, envelope._Ftilde, envelope._FTILDE_TOP, envelope._FTILDE_SEED,
               envelope.FTILDE_BEND),
}


def _inversion(name, x, bend=math.inf):
    """(z, the points func was evaluated at) of the inverter _inverter builds
    around func, at x; the default bend never exits early."""
    func, integrand, top, seed, _ = _INVERSION[name]
    seen = []

    def recorded(t):
        seen.append(t)
        return func(t)

    return envelope._inverter(recorded, integrand, name, top, seed, bend)(x), seen


def _exit_ratio(name, x):
    """bend d^2/tol for the first Newton step d at x (0 if the seed is met)."""
    seen = _inversion(name, x)[1]
    if len(seen) < 2:
        return 0.0
    d = seen[1] - seen[0]
    return _INVERSION[name][4] * d * d / (INV_TOL * max(1.0, x))


def _adversarial_targets(name):
    """Targets with exit ratio in [0.9, 1]: each seed interval is sampled at 65
    points, and every crossing of 0.92, 0.95 and 0.98 is bisected to within
    0.01 of it (the ftilde seed is so close that only three intervals cross)."""
    top, seed = _INVERSION[name][2], _INVERSION[name][3]
    nodes = [x for x in seed.x_nodes if x < top] + [top]
    targets = []
    for a, b in zip(nodes, nodes[1:]):
        xs = [a + (b - a) * k / 64 for k in range(65)]
        ratios = [_exit_ratio(name, x) for x in xs]
        for level in (0.92, 0.95, 0.98):
            for i in range(64):
                if (ratios[i] < level) == (ratios[i + 1] < level):
                    continue
                lo, hi = (xs[i], xs[i + 1]) if ratios[i] < level else (xs[i + 1], xs[i])
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    ratio = _exit_ratio(name, mid)
                    if abs(ratio - level) <= 0.01:
                        targets.append(mid)
                        break
                    lo, hi = (mid, hi) if ratio < level else (lo, mid)
    return targets


@pytest.mark.parametrize("name", sorted(_INVERSION))
def test_exit_at_adversarial_targets(name):
    func, integrand, top, _, bend = _INVERSION[name]
    parent_seed = ParentSeed(func, integrand)
    targets = _adversarial_targets(name)
    assert len(targets) >= 10
    for x in targets:
        z_exit, seen = _inversion(name, x, bend)
        assert len(seen) == 1  # the exit fired
        assert z_exit.hex() == parent_invert_decreasing(
            func, integrand, x, name, top, parent_seed).hex(), x.hex()
        tol = INV_TOL * max(1.0, x)
        assert abs(g_mp(name, z_exit)[0] - x) <= tol / 2.0 + ALLOWANCE * max(1.0, x) < tol


# The inversion's two passes.  An inverter starts at z0 = seed(x),
# clamped below 1; each pass evaluates g at z, returns z if it meets the
# tolerance, else takes the Newton step d and returns it if bend d^2 <= tol,
# and the second pass returns its step.  With r the root, e0 = |z0 - r|, m
# the least |g'| and bend >= max|g''| on _RANGE, the exact first step z1 is
# off r by at most e1 = bend e0^2/(2m), and the computed one by `rounding`
# more (the rounding terms above, divided by m).  So z1 lies in [Z0 - DELTA,
# 1), where the same bounds hold, and the second step, at most e1 + bend
# e1^2/(2m) + rounding long, passes bend d^2 <= tol.  (f is concave on
# _RANGE and ftilde changes convexity at z = 0.81, so a step may land on
# either side of r.)

#: Seed boxes are at most BOX wide in z, and at most KAPPA (1 - z) near 1.
BOX, KAPPA = 1e-5, 0.1
#: The boxes stop at 1 - ZETA; the seed meets every target whose root lies above.
ZETA = 1e-13
#: Covers the rounding of the float seed and of g at the box ends (the
#: cubic rounds in its last bits, and g's error over m is below 1e-14).
SLACK = 1e-12


@pytest.mark.parametrize("name", sorted(_INVERSION))
def test_seed_decreases_and_starts_in_the_certified_range(name):
    # each seed cubic z0 + t (d + t (c2 + t c3)), t = x - x0, that a target in
    # (0, g(Z0)] reaches, its floats read as exact fractions, for t in [0, h]:
    # to the next node, or to g(Z0)
    top, seed = _INVERSION[name][2], _INVERSION[name][3]
    for cubic, x_next in zip(seed._cubics, seed.x_nodes[1:]):
        if cubic[0] >= top:
            break
        x0, z0, d, c2, c3 = map(Fraction, cubic)
        h = Fraction(min(x_next, top)) - x0
        # the derivative d + 2 c2 t + 3 c3 t^2 is largest at an end or its vertex
        ts = [Fraction(0), h] + ([-c2 / (3 * c3)] if c3 and 0 < -c2 / (3 * c3) < h else [])
        assert max(d + 2 * c2 * t + 3 * c3 * t * t for t in ts) < 0
        # so the piece is least at its right end, at g(Z0) for the last piece
        assert z0 + h * (d + h * (c2 + h * c3)) - Fraction(Z0) > SLACK
    assert Z0 < seed(top) < Z0 + 4e-6  # 0.5773538 for f, 0.5773511 for ftilde


def _box_edges():
    """z from 1 - ZETA down to Z0, in steps of at most BOX and KAPPA (1 - z)."""
    gaps = [ZETA]  # 1 - z
    while gaps[-1] < BOX / KAPPA:
        gaps.append(gaps[-1] * (1.0 + KAPPA))
    n = math.ceil((1.0 - Z0 - gaps[-1]) / BOX)
    gaps += [gaps[-1] + (1.0 - Z0 - gaps[-1]) * k / n for k in range(1, n)]
    return [1.0 - gap for gap in gaps] + [Z0]


@functools.cache
def _seed_boxes(name):
    """[(za, zb, e0)] for boxes [za, zb] covering [Z0, 1 - ZETA], with e0
    bounding |seed(x) - r| over the targets x whose root r lies in the box,
    x in [g(zb), g(za)].  The seed decreases, so it lies in [seed(g(za)),
    seed(g(zb))] there, and e0 = max(seed(g(zb)) - za, zb - seed(g(za)))."""
    func, _, _, seed, _ = _INVERSION[name]
    zs = _box_edges()
    starts = [min(seed(func(t)), envelope._BELOW_ONE) for t in zs]
    return [(za, zb, SLACK + max(s - za, zb - s_next))
            for zb, za, s, s_next in zip(zs, zs[1:], starts, starts[1:])]


@functools.cache
def _least_slope(name):
    """A lower bound on |g'| over _RANGE, where g' has no root."""
    lo, hi = _RANGE
    assert not _factors(name)[1][1][0].intervals(inf=lo, sup=hi)
    return float(min(box.a for box, _ in _abs_derivative_enclosures(name, 1, lo, hi)))


@pytest.mark.parametrize("name, least", [("f", 0.297273), ("ftilde", 2.585321)])
def test_second_pass_returns_its_step(name, least):
    func, _, top, seed, bend = _INVERSION[name]
    assert _RANGE[0] <= sp.Rational(Z0) - sp.Rational(DELTA)
    assert bend >= _max_abs_derivative(name, 2)[0]
    m = _least_slope(name)
    assert abs(m - least) < 1e-5
    boxes = _seed_boxes(name)
    assert boxes[0][1] == 1.0 - ZETA and boxes[-1][0] == Z0
    # the rounding of a step at most 2 e0 long, as both steps are (asserted)
    rounding = _rounding(name, top, 2.0 * max(e0 for _, _, e0 in boxes)) / m
    for za, zb, e0 in boxes:
        e1 = bend * e0 * e0 / (2.0 * m) + rounding  # |z1 - r|, so |z1 - z0| <= e0 + e1
        assert e1 <= min(DELTA, e0) and zb + e1 < 1.0
        d = e1 + bend * e1 * e1 / (2.0 * m) + rounding
        assert d <= 2.0 * e0 and bend * d * d * (1.0 + 4.0 * U) <= INV_TOL  # tol >= INV_TOL
    # roots above 1 - ZETA have targets x <= x_s, where the seed lies at or
    # right of seed(x_s), less its rounding 2^-53 near 1 taken twice, and
    # g there is below the tolerance: the first pass returns the seed
    x_s = func(1.0 - ZETA) * (1.0 + 2.0 * EVAL_REL[name])
    z_s = min(seed(x_s), envelope._BELOW_ONE) - 2.0 ** -52
    assert max(x_s, func(z_s) * (1.0 + 3.0 * EVAL_REL[name])) <= INV_TOL


@pytest.mark.parametrize("name, invert", [("f", envelope.invert_f),
                                          ("ftilde", envelope.invert_ftilde)])
def test_every_returned_z_lies_in_the_certified_range(name, invert):
    # A returned z lies in [Z0 - DELTA, 1] (above) and has |g(z) - x| <= tol
    # (the float test, or the early exit's proof), so g(z) <= (x + tol)/(1 -
    # EVAL_REL), below g(Z0) >= top/(1 + EVAL_REL) once x < cover: there z >
    # Z0.  The floats from cover to top are inverted one by one.
    top, rel = _INVERSION[name][2], EVAL_REL[name]
    cover = top * (1.0 - rel) / (1.0 + rel) - INV_TOL * max(1.0, top)
    xs = [top]
    while xs[-1] >= cover:
        xs.append(math.nextafter(xs[-1], 0.0))
    assert 5_000 < len(xs) < 20_000
    assert min(map(invert, xs)) >= Z0


def test_h_at_r0_is_reciprocal_h_at_z0():
    # h(R0) = c tanh(R0)/cosh(2 R0) with tanh(R0) = 1/sqrt 3, so cosh(2 R0) =
    # (1 + 1/3)/(1 - 1/3) = 2, and H(1/sqrt 3) = 2 sqrt 3/c: both are
    # c/(2 sqrt 3) = 0.98025415454... with c = 3.3957
    coeff = sp.Rational(repr(H_COEFFICIENT))
    exact = coeff / (2 * sp.sqrt(3))
    r0 = sp.atanh(1 / sp.sqrt(3))
    h_r0 = coeff * sp.tanh(r0) / sp.cosh(2 * r0).rewrite(sp.tanh)
    assert sp.simplify(h_r0 - exact) == 0
    assert sp.simplify(run("_area_from_z", 1 / sp.sqrt(3))[0].subs(c, coeff) - exact) == 0
    enclosed = _enclose(exact, None)
    assert 0.980254 <= enclosed.a and enclosed.b < 0.980255
    with mp.workdps(40):
        value = mp.mpf(coeff.p) / coeff.q / (2 * mp.sqrt(3))
        for computed in (h(R0), envelope._area_from_z(Z0)):
            assert abs(computed - value) <= 2 * math.ulp(computed)


# h in z = tanh r: cosh 2r = (1 + z^2)/(1 - z^2), so h = c z (1 - z^2)/(1 + z^2),
# the area 1/H(z) that envelope reads off a z.  A floor on the tube radius
# read off the visual area needs h to decrease on the certified range.
H_OF_Z = c * z * (1 - z ** 2) / (1 + z ** 2)
#: the paper's coefficient, so that an edit of h's coefficient fails below
PAPER_COEFF = sp.Rational("3.3957")
#: working precision of the enclosures at C
BITS = 120


def test_h_decreases_on_the_certified_range():
    assert is_zero(H_OF_Z - 1 / H_SYM)
    assert is_zero(sp.diff(H_OF_Z, z) - c * (1 - 4 * z ** 2 - z ** 4) / (1 + z ** 2) ** 2)
    # with u = z^2 > 0: 1 - 4u - u^2 = 5 - (u + 2)^2 < 0 exactly when u > sqrt 5 - 2
    u = sp.symbols("u", positive=True)
    assert sp.expand(1 - 4 * u - u ** 2 - (5 - (u + 2) ** 2)) == 0
    negative = sp.solveset(1 - 4 * u - u ** 2 < 0, u, sp.Interval.open(0, sp.oo))
    assert negative == sp.Interval.open(sp.sqrt(5) - 2, sp.oo)
    # z^2 >= 1/3 on [1/sqrt 3, 1], and 1/3 > sqrt 5 - 2 as (7/3)^2 = 49/9 > 5
    assert sp.Rational(7, 3) ** 2 > 5 and sp.Rational(1, 3) > sp.sqrt(5) - 2
    # so dh/dz < 0 there, and h(r) decreases for r >= R0, tanh being increasing


@pytest.mark.parametrize("zv", [0.2, Z0, 0.6, 0.75, 0.9, 0.999])
def test_h_is_its_z_form(zv):
    r = math.atanh(zv)
    form = sp.lambdify(z, H_OF_Z.subs(c, PAPER_COEFF), "mpmath")
    with mp.workdps(40):
        expected = form(mp.tanh(mp.mpf(r)))
        assert abs(h(r) - expected) <= 4 * math.ulp(h(r))


def _z_hat_box(x_expr):
    """[lo, hi] holding the z in [1/sqrt 3, 1] where f(z) = x_expr, f run from
    envelope._f at the paper's coefficient, by bisection on interval values:
    f(lo) > x > f(hi) throughout, and f decreases there (the slope floor above)."""
    f_expr = run("_f")[0].subs(c, PAPER_COEFF)
    saved, iv.prec = iv.prec, BITS
    try:
        x = _enclose(x_expr, None)
        lo, hi = mp.mpf(Z0), mp.mpf(1)
        assert _enclose(f_expr, iv.mpf(lo)).a > x.b and _enclose(f_expr, iv.mpf(hi)).b < x.a
        while True:
            with mp.workprec(BITS + 10):
                mid = (lo + hi) / 2
            value = _enclose(f_expr, iv.mpf(mid))
            if value.a > x.b:
                lo = mid
            elif value.b < x.a:
                hi = mid
            else:
                return lo, hi
    finally:
        iv.prec = saved


def test_upper_bounds_at_c_lie_below_the_printed_values():
    # volume_drop_hi and core_length_hi at C = 7.5832 are read off z-hat, where
    # f(z-hat) = x-hat = (2 pi)^2/C^2; the true values lie below the paper's
    # printed 0.197816 and 0.156012.  The library's z-hat meets |f(z) - x| <=
    # INV_TOL, so it is within INV_TOL/0.2972 of the true one, and each bound,
    # of slope below 0.14 in z there, within INV_TOL of its true value.
    x_hat = (2 * sp.pi) ** 2 / sp.Rational(75832, 10000) ** 2
    lo, hi = _z_hat_box(x_hat)
    assert hi - lo < 1e-27
    saved, iv.prec = iv.prec, BITS
    try:
        box = iv.mpf([lo, hi])
        dv = _enclose(run("_dv_upper_from_z")[0].subs(c, PAPER_COEFF), box)
        core = _enclose(run("_area_from_z")[0].subs(c, PAPER_COEFF) / (2 * sp.pi), box)
    finally:
        iv.prec = saved
    assert dv.b < 0.197816 and core.b < 0.156012
    assert dv.b - dv.a < 1e-25 and core.b - core.a < 1e-25
    env = envelope_bounds(UNIVERSAL_C)
    for computed, enclosure in ((env.volume_drop[1], dv), (env.core_length_hi, core)):
        assert abs(computed - float(enclosure.a)) <= INV_TOL
