"""Self-tests of the benchmark: generators, oracles, strict JSON, tail rule, spans.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import itertools
import json
import math

import pytest

import spans
import stats
import workloads as wl
from workloads import WORKLOADS


def _take(workload, seed, n):
    return list(itertools.islice(WORKLOADS[workload].inputs(seed), n))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert _take(workload, 3, 300) == _take(workload, 3, 300)
    assert _take(workload, 3, 300) != _take(workload, 4, 300)


def test_certify_stream_mix():
    assert len(set(_take("certify_stream", 2, 40000))) == 40000
    inputs = _take("certify_stream", 1, 7000)
    at_c = [inputs[i] for i in range(1500, 7000, 1000)]
    assert all(wl.C_FLOAT in t and not wl.exact_certified(t) for t in at_c)
    props = wl.certify_stream_properties(inputs)
    assert props["exactly_at_c"] == 6
    assert 0.05 < props["unfilled_cusp_share"] < 0.15
    assert 0.7 < props["certified_share"] < 0.9


def test_figure_grid_tables_share_no_grid():
    inputs = list(WORKLOADS["figure_grid"].inputs(1))
    assert len(inputs) == 1 + wl.FIG_DISTINCT
    assert len({s for _, s in inputs}) == len(inputs)
    assert [w for w, _ in inputs[:7]] == [1, 1, 2, 3, 1, 2, 3]
    # every seed times the same tables in each block of 15, in its own order
    other = list(WORKLOADS["figure_grid"].inputs(2))
    assert other != inputs
    for start in range(1, len(inputs), 15):
        assert sorted(other[start:start + 15]) == sorted(inputs[start:start + 15])


def test_slope_census_mix():
    inputs = _take("slope_census", 2, 201)[1:]
    props = wl.slope_census_properties(inputs)
    assert props["kind_share"] == {"reduced": 0.5, "unreduced": 0.3, "elongated": 0.2}
    assert props["not_reduced_share"] == 0.3
    assert props["reduced_im_quantiles"]["q100"] > 1e3


def test_strict_json_rejects_nan_and_infinity():
    with pytest.raises(ValueError):
        wl.strict_loads('{"min_b": NaN}')
    with pytest.raises(ValueError):
        wl.strict_loads('{"min_b": Infinity}')
    with pytest.raises(ValueError):
        wl.strict_loads("[-Infinity, 1.5]")
    assert wl.strict_loads('{"x": [1.5, null]}') == {"x": [1.5, None]}


@pytest.mark.parametrize("n, beyond", [
    (1, 0), (50, 5), (91, 9), (100, 10), (999, 99), (20000, 2000),
])
def test_tail_is_nearest_rank_p90(n, beyond):
    values = [float(v) for v in range(1, n + 1)]
    value, p, count = stats.tail(values)
    assert (p, count) == (90.0, beyond)
    assert value == values[n - beyond - 1]


def test_spread_uses_interpolated_quartiles():
    row = stats.spread([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (row["median"], row["q1"], row["q3"]) == (3.0, 1.5, 4.5)
    assert row["spread"] == pytest.approx(1.0)


def test_parse_importtime():
    text = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       100 |        100 | numpy.core\n"
        "import time:       300 |        400 | numpy\n"
        "import time:      2000 |       2000 | scipy.integrate\n"
        "import time:        50 |       2550 | dehnfill\n"
    )
    assert stats.parse_importtime(text) == pytest.approx(
        {"numpy": 4e-4, "scipy": 2e-3, "dehnfill": 5e-5})


# -- oracles flag deliberately wrong results ---------------------------------


@pytest.fixture(scope="module")
def dehnfill():
    import dehnfill
    import dehnfill.cli  # noqa: F401

    return dehnfill


def _lib(dehnfill):
    return wl.plain_lib(dehnfill)


def _edit(text, **changes):
    doc = json.loads(text)
    doc.update(changes)
    return json.dumps(doc)


def test_certificate_oracle(dehnfill):
    lhats = (12.0, 11.0)
    text = wl.certify_stream_op(_lib(dehnfill), lhats)
    doc = json.loads(text)
    assert wl.check_certificate(lhats, text) is None
    assert wl.mpmath_check(lhats, text) is None
    lo, hi = doc["volume_drop"]
    assert wl.check_certificate(lhats, _edit(text, certified=False))
    assert wl.check_certificate(lhats, _edit(text, volume_drop=[hi, lo]))
    assert wl.check_certificate(lhats, _edit(text, z_hat=doc["z_tilde"] + 1e-6))
    assert wl.check_certificate(lhats, _edit(text, visual_area=[0.5, 0.99]))
    assert wl.check_certificate(lhats, text.replace(str(doc["margin"]), "NaN"))
    assert wl.mpmath_check(lhats, _edit(text, volume_drop=[lo, hi * (1 + 1e-6)]))


def test_certificate_oracle_unfilled_and_at_threshold(dehnfill):
    lib = _lib(dehnfill)
    at_c = (math.inf, wl.C_FLOAT)
    text = _edit(wl.certify_stream_op(lib, at_c), per_cusp_lhat=[None, wl.C_FLOAT])
    assert json.loads(text)["certified"] is False
    assert wl.check_certificate(at_c, text) is None
    assert wl.check_certificate(at_c, _edit(text, certified=True))
    unfilled = (math.inf, 12.0)
    strict = _edit(wl.certify_stream_op(lib, unfilled), per_cusp_lhat=[None, 12.0])
    assert wl.check_certificate(unfilled, strict) is None
    assert wl.check_certificate((12.0, 12.0), strict)
    # an Infinity token with right values is a FormatFailure, anything else fails
    infinity = _edit(strict, per_cusp_lhat=[math.inf, 12.0])
    assert "Infinity" in infinity
    assert isinstance(wl.check_certificate(unfilled, infinity), wl.FormatFailure)
    wrong = wl.check_certificate(unfilled, _edit(infinity, certified=False))
    assert wrong and not isinstance(wrong, wl.FormatFailure)
    nan = wl.check_certificate(unfilled, infinity.replace("12.0", "NaN", 1))
    assert nan and not isinstance(nan, wl.FormatFailure)


def test_slope_oracle(dehnfill):
    lib = _lib(dehnfill)
    inp = (0.3, 1.2, 12.0, "reduced")
    slopes, decisions = wl.slope_census_op(lib, inp)
    assert wl.check_slopes(inp, (slopes, decisions), complete=True) is None
    assert wl.check_slopes(inp, (slopes[1:], decisions[1:]), complete=True)
    p, q, length = slopes[0]
    assert wl.check_slopes(inp, ([(2 * p, 2 * q, 2 * length)] + slopes[1:], decisions),
                           complete=False)
    assert wl.check_slopes(inp, (slopes + slopes[-1:], decisions + decisions[-1:]),
                           complete=False)
    assert wl.check_slopes(inp, (slopes, [not d for d in decisions]), complete=False)


def test_brute_force_square_lattice():
    # tau = i: lengths sqrt(p^2 + q^2); below 2.3 the primitive classes are
    # (1,0), (0,1), (1,+-1), (1,+-2), (2,+-1)
    assert len(wl.brute_force_slopes(0.0, 1.0, 2.3)) == 8


def test_figure_oracle(dehnfill, tmp_path):
    lib = _lib(dehnfill)
    inp = (2, 12)
    code, stdout, path = wl.figure_grid_op(lib, inp, str(tmp_path))
    lines = open(path).read().splitlines()
    assert wl.check_figure(inp, (code, stdout, path)) is None  # also removes the CSV

    def broken(rows):
        with open(path, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        return wl.check_figure(inp, (0, stdout, path))

    assert broken(lines[:-1])
    swapped = lines[5].split(",")
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert broken(lines[:5] + [",".join(swapped)] + lines[6:])
    assert broken(lines[:3] + [lines[3].replace(lines[3].split(",")[1], "nan")] + lines[4:])
    assert wl.check_figure(inp, (1, stdout, path))


def test_weitz_oracle(dehnfill):
    lib = _lib(dehnfill)
    inside = (1.1, 0.5, 7)
    assert wl.in_window(1.1, 0.5) and not wl.in_window(2.5, 0.5)
    code, stdout = wl.weitz_scan_op(lib, inside)
    assert wl.check_weitz(inside, (code, stdout)) is None
    doc = json.loads(stdout)
    doc["payload"]["min_b"] = -1e-3
    assert wl.check_weitz(inside, (code, json.dumps(doc)))
    assert wl.check_weitz(inside, (code, stdout.replace('"min_b": ', '"min_b": NaN, "x": ')))
    assert wl.check_weitz(inside, (2, stdout))
    doc["payload"]["in_certified_range"] = False
    assert wl.check_weitz(inside, (code, json.dumps(doc)))


# -- spans -------------------------------------------------------------------


def test_self_times_partition_op_time():
    tracer = spans.Tracer()

    def leaf(n):
        return sum(i * i for i in range(n))

    leaf_traced = tracer.wrap("envelope.leaf", leaf)

    def middle(n):
        return leaf_traced(n) + leaf_traced(n) + leaf(n)

    middle_traced = tracer.wrap("certificates.middle", middle)
    for op in range(5):
        tracer.op(op, middle_traced, 20000)
    spans_by_name = {}
    for name, start, end, parent, op, child in tracer.spans:
        spans_by_name.setdefault(name, []).append((end - start, child, parent, op))
    assert len(spans_by_name["envelope.leaf"]) == 10
    assert {p for _, _, p, _ in spans_by_name["envelope.leaf"]} <= {
        i for i, s in enumerate(tracer.spans) if s[0] == "certificates.middle"}
    summary = tracer.summary(lambda z: 0.0, lambda z: 0.0)
    total = summary["trace.unattributed_s"] + sum(
        summary[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert total == pytest.approx(summary["trace.op_s"], rel=1e-9)
    assert summary["envelope.self_s"] > 0 and summary["certificates.self_s"] > 0


def test_install_restores_the_modules(dehnfill):
    tracer = spans.Tracer()
    before = dehnfill.certificates.invert_f
    lib = tracer.install(dehnfill)
    assert dehnfill.certificates.invert_f is not before
    tracer.op(0, wl.certify_stream_op, lib, (20.0,))
    tracer.unpatch()
    assert dehnfill.certificates.invert_f is before
    summary = tracer.summary(dehnfill.envelope.f, dehnfill.envelope.ftilde)
    assert summary["envelope.invert.calls"] == 2
    assert summary["envelope.invert.tol_met_ratio"] == 1.0
    assert summary["certificates.certified_ratio"] == 1.0
