"""In-memory span tracing around the calls into each dehnfill layer.

Spans are recorded by wrapping public names from outside the package:
nothing under ``src/`` is edited.  A wrapper stands either at the
benchmark's own call site (the ``lib`` handle) or in the namespace of the
module that makes a cross-layer call, so a span covers exactly the calls
into a layer.  Calls inside one module are not split, except where a
layer metric needs them: ``lattice_reduce`` (a span) and
``slope_normalized_length`` (a count only, since it runs once per
enumeration candidate) inside ``enumerate_short_slopes``.

A span is (name, start, end, parent index, op id).  A layer's self time is
its spans' durations minus the time their child spans cover; the op span
itself belongs to no layer, so its self time is the unattributed time.
"""

from __future__ import annotations

import functools
import os
import time
from types import SimpleNamespace

LAYERS = ("envelope", "certificates", "slope_lattice", "weitzenboeck", "cli")

#: Inversions must meet |f(z) - x| <= INV_TOL * max(1, x).
INV_TOL = 1e-12


class Tracer:
    """Spans and counters of one traced run, kept in memory until it ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, child_time]
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, int] = {}
        self.inversions: list[tuple[str, float, float]] = []  # (which, x, z)
        self._restore: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, 0.0])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index: int):
        span = self.spans[index]
        span[2] = time.perf_counter()
        self.stack.pop()
        if span[3] >= 0:
            self.spans[span[3]][5] += span[2] - span[1]

    def op(self, op_id: int, fn, *args):
        """Run one op under a root span; returns fn(*args)."""
        self.op_id = op_id
        index = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(index)

    def wrap(self, name: str, fn, after=None):
        """fn under a span called ``name``; ``after(result, args)`` runs once
        the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(result, args)
            return result

        return traced

    def patch(self, module, attr: str, replacement):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def unpatch(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def install(self, dehnfill) -> SimpleNamespace:
        """Wrap the layer boundaries; returns the traced ``lib`` handle."""
        cert, cli = dehnfill.certificates, dehnfill.cli
        lattice, weitz = dehnfill.slope_lattice, dehnfill.weitzenboeck

        def certified(name):
            def after(result, args):
                self.count(f"{name}.calls")
                self.count(f"{name}.certified", int(result.certified))
            return after

        def inversion(which):
            def after(result, args):
                self.inversions.append((which, args[0], result))
            return after

        def slope_length(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.count("slope_lattice.slope_normalized_length.calls")
                if self.stack and self.spans[self.stack[-1]][0] == \
                        "slope_lattice.enumerate_short_slopes":
                    self.count("slope_lattice.slope_normalized_length.in_enumeration")
                return fn(*args, **kwargs)
            return counted

        def csv_bytes(result, args):
            self.count("cli.csv_bytes", os.path.getsize(args[1]))

        # cross-layer names, wrapped in the calling module's namespace
        self.patch(cert, "invert_f", self.wrap("envelope.invert_f", cert.invert_f,
                                               inversion("f")))
        self.patch(cert, "invert_ftilde", self.wrap("envelope.invert_ftilde",
                                                    cert.invert_ftilde, inversion("ftilde")))
        self.patch(cert, "figure_data", self.wrap("certificates.figure_data",
                                                  cert.figure_data))
        self.patch(weitz, "random_form", self.wrap("weitzenboeck.random_form",
                                                   weitz.random_form))
        self.patch(weitz, "boundary_form_b", self.wrap("weitzenboeck.boundary_form_b",
                                                       weitz.boundary_form_b))
        # calls inside one module that a layer metric names
        self.patch(lattice, "lattice_reduce", self.wrap("slope_lattice.lattice_reduce",
                                                        lattice.lattice_reduce))
        self.patch(lattice, "slope_normalized_length",
                   slope_length(lattice.slope_normalized_length))
        self.patch(cli, "render_figure_csv", self.wrap("cli.render_figure_csv",
                                                       cli.render_figure_csv, csv_bytes))
        # the benchmark's own call sites
        return SimpleNamespace(
            full_certificate=self.wrap("certificates.full_certificate",
                                       cert.full_certificate,
                                       certified("certificates.full_certificate")),
            certificate_to_json=self.wrap("certificates.certificate_to_json",
                                          cert.certificate_to_json),
            certify=self.wrap("certificates.certify", cert.certify,
                              certified("certificates.certify")),
            enumerate_short_slopes=self.wrap(
                "slope_lattice.enumerate_short_slopes", lattice.enumerate_short_slopes,
                lambda result, args: self.count("slope_lattice.slopes_found", len(result))),
            CuspShape=lattice.CuspShape,
            cli_run=self.wrap("cli.run", cli.run),
        )

    def summary(self, f, ftilde) -> dict:
        """Per-layer metrics from the recorded spans and counts.

        ``f`` and ``ftilde`` are the untraced envelope functions, used after
        the run to test each inversion's residual.
        """
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, start, end, _parent, _op, child in self.spans:
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child
            calls[name] = calls.get(name, 0) + 1
        op_s = sum(end - start for name, start, end, *_ in self.spans if name == "op")

        def s(name):
            return self_s.get(name, 0.0)

        def n(name):
            return calls.get(name, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        invert_calls = n("envelope.invert_f") + n("envelope.invert_ftilde")
        invert_s = s("envelope.invert_f") + s("envelope.invert_ftilde")
        met = sum(
            1 for which, x, z in self.inversions
            if abs((f if which == "f" else ftilde)(z) - x) <= INV_TOL * max(1.0, x)
        )
        certified = self.counts.get("certificates.full_certificate.certified", 0) + \
            self.counts.get("certificates.certify.certified", 0)
        decided = self.counts.get("certificates.full_certificate.calls", 0) + \
            self.counts.get("certificates.certify.calls", 0)
        slopes = self.counts.get("slope_lattice.slopes_found", 0)
        metrics = {
            "envelope.invert.calls": invert_calls,
            "envelope.invert.self_s": invert_s,
            "envelope.invert.us_per_call": ratio(invert_s * 1e6, invert_calls),
            "envelope.invert.tol_met_ratio": ratio(met, len(self.inversions)),
            "certificates.full_certificate.self_s": s("certificates.full_certificate"),
            "certificates.figure_data.self_s": s("certificates.figure_data"),
            "certificates.certify.calls": n("certificates.certify"),
            "certificates.certify.self_s": s("certificates.certify"),
            "certificates.certificate_to_json.self_s": s("certificates.certificate_to_json"),
            "certificates.certified_ratio": ratio(certified, decided),
            "slope_lattice.lattice_reduce.calls": n("slope_lattice.lattice_reduce"),
            "slope_lattice.lattice_reduce.self_s": s("slope_lattice.lattice_reduce"),
            "slope_lattice.enumerate_short_slopes.self_s":
                s("slope_lattice.enumerate_short_slopes"),
            "slope_lattice.slope_normalized_length.calls":
                self.counts.get("slope_lattice.slope_normalized_length.calls", 0),
            "slope_lattice.slopes_found": slopes,
            "slope_lattice.yield_ratio": ratio(
                slopes,
                self.counts.get("slope_lattice.slope_normalized_length.in_enumeration", 0)),
            "weitzenboeck.random_form.calls": n("weitzenboeck.random_form"),
            "weitzenboeck.random_form.self_s": s("weitzenboeck.random_form"),
            "weitzenboeck.boundary_form_b.self_s": s("weitzenboeck.boundary_form_b"),
            "cli.run.self_s": s("cli.run"),
            "cli.render_figure_csv.self_s": s("cli.render_figure_csv"),
            "cli.csv_bytes": self.counts.get("cli.csv_bytes", 0),
            "trace.op_s": op_s,
            "trace.unattributed_s": s("op"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".")[0] == layer)
        return metrics

    def write(self, path: str):
        """Write the spans, one per line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op, _child in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
