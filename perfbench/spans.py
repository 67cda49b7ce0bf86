"""Spans and counters recorded around calls into hyperinv, from outside it.

A ``Tracer`` replaces functions where other modules imported them (for
example ``hyperinv.catalogue.transvect``) with timing wrappers, and the
multiplication methods of ``Cyclo`` and ``Poly`` with counting wrappers.
Each span records name, start, end, parent span and request id; spans stay
in memory and are written out once, when the run ends.  Leaving the
``with`` block restores every original.

``layer_metrics`` turns one traced pass into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import random
import statistics
import time
from collections import Counter

# (module, attribute, span name): the import sites that get a timing wrapper
SPAN_SITES = (
    ("hyperinv.catalogue", "transvect", "forms.transvect"),
    ("hyperinv.catalogue", "covariant_catalogue", "catalogue.covariant_catalogue"),
    ("hyperinv.cli", "covariant_catalogue", "catalogue.covariant_catalogue"),
    ("hyperinv.catalogue", "classify_point", "catalogue.classify_point"),
    ("hyperinv.loci", "classify_point", "catalogue.classify_point"),
    ("hyperinv.cli", "classify_point", "catalogue.classify_point"),
    ("hyperinv.catalogue", "absolute_invariants", "catalogue.absolute_invariants"),
    ("hyperinv.loci", "absolute_invariants", "catalogue.absolute_invariants"),
    ("hyperinv.cli", "absolute_invariants", "catalogue.absolute_invariants"),
    ("hyperinv.loci", "vanishing_profile", "catalogue.vanishing_profile"),
    ("hyperinv.cli", "vanishing_profile", "catalogue.vanishing_profile"),
    ("hyperinv.a4", "rational_model", "a4.model"),
    ("hyperinv.a4", "a4_curve_model", "a4.model"),
    ("hyperinv.loci", "rational_model", "a4.model"),
    ("hyperinv.cli", "rational_model", "a4.model"),
    ("hyperinv.cli", "a4_curve_model", "a4.model"),
    ("hyperinv.polynomials", "poly_gcd", "polynomials.poly_gcd"),
    ("hyperinv.loci", "poly_gcd", "polynomials.poly_gcd"),
    ("hyperinv.loci", "recover_mu", "loci.recover_mu"),
    ("hyperinv.cli", "recover_mu", "loci.recover_mu"),
    ("hyperinv.loci", "locus_parametrization", "loci.locus_parametrization"),
    ("hyperinv.loci", "verify_genus", "loci.verify_genus"),
    ("hyperinv.cli", "verify_genus", "loci.verify_genus"),
    ("hyperinv.cli", "default_table", "loci.default_table"),
    ("hyperinv.cli", "dihedral_invariants", "cyclic.dihedral"),
    ("hyperinv.cli", "reconstruct_from_u", "cyclic.reconstruct"),
    ("hyperinv.cli", "signature_row", "cyclic.signature_row"),
    ("hyperinv.cli", "form_from_json", "serialize.decode"),
    ("hyperinv.cli", "normal_form_from_json", "serialize.decode"),
    ("hyperinv.cli", "scalar_from_json", "serialize.decode"),
    ("hyperinv.cli", "form_to_json", "serialize.encode"),
    ("hyperinv.cli", "invariant_set_to_json", "serialize.encode"),
    ("hyperinv.cli", "absolute_to_json", "serialize.encode"),
    ("hyperinv.cli", "moduli_point_to_json", "serialize.encode"),
    ("hyperinv.cli", "normal_form_to_json", "serialize.encode"),
    ("hyperinv.cli", "dihedral_to_json", "serialize.encode"),
    ("hyperinv.cli", "_run_one", "cli.handler"),
)

# (module, class, methods, counter name): hot operations that are counted, not timed
COUNT_SITES = (
    ("hyperinv.scalars", "Cyclo", ("__mul__", "__rmul__"), "scalars.cyclo_mul"),
    ("hyperinv.polynomials", "Poly", ("__mul__", "__rmul__"), "polynomials.poly_mul"),
    ("hyperinv.polynomials", "RatFunc", ("__init__",), "polynomials.ratfunc"),
)

#: operand pairs of Cyclo multiplication kept for the timing probe
OPERAND_SAMPLE = 200
#: prefix of the stderr line on which cli_child.py writes its spans
TRACE_MARK = "PERFBENCH-TRACE "


def coeff_bits(value) -> int:
    """Bit size of an exact scalar: numerator plus denominator bits, maximised
    over the coordinates of a Cyclo and the coefficients of a Poly."""
    if hasattr(value, "numerator"):
        return value.numerator.bit_length() + value.denominator.bit_length()
    if hasattr(value, "coords"):
        return max(coeff_bits(c) for c in value.coords)
    if hasattr(value, "coeffs"):
        return max((coeff_bits(c) for c in value.coeffs), default=0)
    raise TypeError(f"no bit size for {type(value).__name__}")


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, seed: int = 0):
        self.spans = []          # [name, start_ns, end_ns, parent index, request id]
        self.counts = Counter()
        self.maxima = Counter()
        self.operands = []       # sampled (a, b) pairs of Cyclo multiplication
        self.request = None
        self._stack = []
        self._rng = random.Random(seed)
        self._saved = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        for module_name, attr, name in SPAN_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._span(name, original))
        for module_name, cls_name, methods, name in COUNT_SITES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            wrappers = {}
            for method in methods:
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                if original not in wrappers:
                    wrappers[original] = self._counter(name, original)
                setattr(cls, method, wrappers[original])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        after = _AFTER.get(name)

        def wrapped(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.request]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self, record, result)
            return result
        return wrapped

    def _counter(self, name, fn):
        counts = self.counts
        if name != "scalars.cyclo_mul":
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        operands, rng = self.operands, self._rng

        def sampled(a, b):
            counts[name] += 1
            seen = counts[name]
            if len(operands) < OPERAND_SAMPLE:
                operands.append((a, b))
            else:
                slot = rng.randrange(seen)
                if slot < OPERAND_SAMPLE:
                    operands[slot] = (a, b)
            return fn(a, b)
        return sampled

    # -- output -------------------------------------------------------------

    def dump(self) -> dict:
        """Spans and counters as plain JSON data."""
        return {"spans": self.spans, "counts": dict(self.counts),
                "maxima": dict(self.maxima)}


def _after_transvect(tracer, record, result):
    bits = max((coeff_bits(c) for c in result.form.coeffs), default=0)
    if bits > tracer.maxima["forms.coeff_bits"]:
        tracer.maxima["forms.coeff_bits"] = bits


def _after_gcd(tracer, record, result):
    parent = record[3]
    if parent >= 0 and tracer.spans[parent][0] == "loci.recover_mu":
        key = "loci.recover_mu.gcd_degree"
        tracer.maxima[key] = max(tracer.maxima[key], result.degree)


def _after_recover(tracer, record, result):
    tracer.counts["loci.recover_mu.hits"] += len(result)


_AFTER = {
    "forms.transvect": _after_transvect,
    "polynomials.poly_gcd": _after_gcd,
    "loci.recover_mu": _after_recover,
}


def cyclo_mul_ns(operands, repeats: int = 30) -> float:
    """Mean untraced time of one Cyclo multiplication over the sampled operands.

    Run after the tracer has exited, so the original method is timed.
    """
    if not operands:
        return 0.0
    clock = time.perf_counter_ns
    per_pair = []
    for a, b in operands:
        start = clock()
        for _ in range(repeats):
            a * b
        per_pair.append((clock() - start) / repeats)
    return statistics.fmean(per_pair)


# -- per-layer metrics ------------------------------------------------------

#: count-type metrics: these must repeat exactly between traced passes
COUNT_METRICS = (
    "forms.transvect.calls", "forms.coeff_bits.max", "catalogue.catalogues_per_req",
    "scalars.cyclo_mul.calls", "polynomials.poly_mul.calls",
    "polynomials.poly_gcd.calls", "polynomials.ratfunc.calls",
    "loci.recover_mu.gcd_degree.max", "loci.recover_mu.candidates_per_hit",
)

VERIFY_GENERA = (4, 5, 7, 8, 9, 10, 12)


class SpanTable:
    """Inclusive and self durations of one process's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.self_ns = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                self.self_ns[parent] -= end - start

    def outermost(self, name):
        """Spans called name that are not nested in another span of that name."""
        for i, (span_name, start, end, parent, request) in enumerate(self.spans):
            if span_name != name:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                yield i

    def total_ns(self, name):
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.outermost(name))

    def count(self, name):
        return sum(1 for span in self.spans if span[0] == name)

    def self_total_ns(self, prefix):
        return sum(self.self_ns[i] for i, span in enumerate(self.spans)
                   if span[0].startswith(prefix))

    def child_count(self, name, parent_name):
        return sum(1 for span in self.spans
                   if span[0] == name and span[3] >= 0
                   and self.spans[span[3]][0] == parent_name)


def layer_metrics(dumps, requests: int, request_ns: int, request_genus=None) -> dict:
    """Per-layer metrics of one traced pass.

    dumps: one ``Tracer.dump()`` per traced process; requests: requests in
    the pass; request_ns: their summed wall time; request_genus: request id
    -> genus, for workloads that call verify_genus.
    """
    tables = [SpanTable(d["spans"]) for d in dumps]
    counts, maxima = Counter(), Counter()
    for d in dumps:
        counts.update(d["counts"])
        for key, value in d["maxima"].items():
            maxima[key] = max(maxima[key], value)

    def total_ms(name):
        return sum(t.total_ns(name) for t in tables) / 1e6

    def count(name):
        return sum(t.count(name) for t in tables)

    def per_req(value):
        return value / requests

    def per_call_us(name):
        calls = count(name)
        return total_ms(name) * 1e3 / calls if calls else 0.0

    hits = counts["loci.recover_mu.hits"]
    candidates = sum(t.child_count("loci.locus_parametrization", "loci.recover_mu")
                     for t in tables)
    out = {
        "forms.transvect.calls": per_req(count("forms.transvect")),
        "forms.transvect.self_ms": per_req(sum(t.self_total_ns("forms.transvect")
                                               for t in tables) / 1e6),
        "forms.transvect.share": total_ms("forms.transvect") * 1e6 / request_ns,
        "forms.coeff_bits.max": maxima["forms.coeff_bits"],
        "catalogue.catalogues_per_req": per_req(count("catalogue.covariant_catalogue")),
        "catalogue.self_ms": per_req(sum(t.self_total_ns("catalogue.")
                                         for t in tables) / 1e6),
        "catalogue.classify_point.ms": per_req(total_ms("catalogue.classify_point")),
        "catalogue.absolute_invariants.ms": per_req(total_ms("catalogue.absolute_invariants")),
        "scalars.cyclo_mul.calls": per_req(counts["scalars.cyclo_mul"]),
        "polynomials.poly_mul.calls": per_req(counts["polynomials.poly_mul"]),
        "polynomials.poly_gcd.calls": per_req(count("polynomials.poly_gcd")),
        "polynomials.poly_gcd.ms": per_req(total_ms("polynomials.poly_gcd")),
        "polynomials.ratfunc.calls": per_req(counts["polynomials.ratfunc"]),
        "loci.recover_mu.ms": per_req(total_ms("loci.recover_mu")),
        "loci.recover_mu.gcd_degree.max": maxima["loci.recover_mu.gcd_degree"],
        "loci.recover_mu.candidates_per_hit": candidates / hits if hits else 0.0,
        "a4.model.ms": per_req(total_ms("a4.model")),
        "cyclic.dihedral.us": per_call_us("cyclic.dihedral"),
        "cyclic.reconstruct.us": per_call_us("cyclic.reconstruct"),
        "serialize.decode_ms": per_req(total_ms("serialize.decode")),
        "serialize.encode_ms": per_req(total_ms("serialize.encode")),
        "cli.handler_ms": per_req(total_ms("cli.handler")),
    }
    verify = {g: [] for g in VERIFY_GENERA}
    for t in tables:
        for i in t.outermost("loci.verify_genus"):
            _, start, end, _, request = t.spans[i]
            genus = (request_genus or {}).get(request)
            if genus is not None:
                verify[genus].append(end - start)
    for g, walls in verify.items():
        out[f"loci.verify_genus.ms.g{g}"] = statistics.fmean(walls) / 1e6 if walls else 0.0
    return out


def write_trace(path, meta: dict, dumps) -> None:
    """The trace writer: every span and counter of the run, as one JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**meta, "processes": list(dumps)}, fh)
