"""The four workloads: seeded inputs, one closed-loop client, output checks.

Every workload is an endless stream of cycles drawn from its seed; a timed
section runs whole cycles until its time is up.  Library workloads call
hyperinv in this process, through module attributes (``a4.rational_model``,
``loci.verify_genus``, ...) so that a ``spans.Tracer`` sees the calls.
``cli_requests`` runs the ``hyperinv`` program, one process at a time.

Outputs are checked after the timed section.  No reference runs the
transvectant kernel, except for the CLI ``invariants`` command, whose
reference is the same library call made in this process when the input
is drawn.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from hyperinv import a4, catalogue, loci, serialize
from hyperinv.catalogue import VANISHING_BY_GENUS, ModuliPoint
from hyperinv.cyclic import (dihedral_invariants, make_normal_form,
                             reconstruct_from_u, signature_row)
from hyperinv.errors import DomainError
from hyperinv.scalars import Cyclo, rational_to_str

SRC = Path(__file__).resolve().parent.parent / "src"

#: one cycle of rational_classify; 12 twice puts p50 in the g=9 cluster
RATIONAL_CYCLE = (5, 7, 8, 9, 10, 12, 12)
#: one cycle of cyclo_invariants; p50 and the p75 tail both fall inside the
#: g=8 cluster, away from its edges, where few samples still give a steady value
CYCLO_CYCLE = (5, 8, 8)
#: genera of the forms in one cycle of cli_requests
CLI_GENERA = (5, 7, 9)
#: normal-form shapes (case, n, genus) for the dihedral and reconstruct requests
NORMAL_FORM_SHAPES = ((1, 2, 5), (1, 3, 5), (2, 3, 4), (3, 2, 4))
#: signature rows for the catalogue requests, all valid
SIGNATURE_ROWS = (("Z2xA4", 5, None), ("Z2xA4", 7, None), ("SL2(3)", 8, None),
                  ("SL2(3)", 10, None), ("Z2xZn", 5, 2), ("Z2n", 5, 2))

#: verify_genus statuses as the fixture and README record them; the only
#: "recomputed-differs" are the fixture's transcription statuses of genera
#: 7, 9 and 12 and the genus-9 special constant
EXPECTED_CHECKS = {
    4: [("vanishing-profile", "pass"), ("moduli-value-recomputation", "skip")],
    5: [("transcription-status", "verified"),
        ("vanishing-profile-identically", "pass"),
        ("parametrization-first-component", "pass"),
        ("parametrization-second-component", "pass"),
        ("special-value(mu=-924/5)", "pass"),
        ("locus-equation-residual", "pass"),
        ("singular-point-uniqueness", "pass"),
        ("singular-point-value", "pass")],
    7: [("transcription-status", "recomputed-differs"),
        ("published-variants-on-record", "info"),
        ("vanishing-profile-identically", "pass"),
        ("parametrization-first-component", "pass"),
        ("parametrization-second-component", "pass"),
        ("constraint-branch-relation", "pass")],
    8: [("transcription-status", "verified"),
        ("vanishing-profile-identically", "pass"),
        ("parametrization-first-component", "pass"),
        ("parametrization-second-component", "pass"),
        ("special-value(mu=-884/7)", "pass")],
    9: [("transcription-status", "recomputed-differs"),
        ("published-variants-on-record", "info"),
        ("vanishing-profile-identically", "pass"),
        ("parametrization-first-component", "pass"),
        ("parametrization-second-component", "pass"),
        ("special-value(mu=-836/3)", "recomputed-differs")],
    10: [("transcription-status", "verified"),
         ("vanishing-profile-identically", "pass"),
         ("parametrization-first-component", "pass"),
         ("parametrization-second-component", "pass")],
    12: [("transcription-status", "recomputed-differs"),
         ("published-variants-on-record", "info"),
         ("vanishing-profile-identically", "pass"),
         ("parametrization-first-component", "pass"),
         ("parametrization-second-component", "pass"),
         ("special-value(mu=-1700/11)", "pass")],
}


#: the calibration kernel's time on the reference host; measured times are
#: reported at that host's speed (see calibrate)
CAL_REF_NS = 1_000_000
_CAL_A = tuple(Fraction(3 ** (40 + i) + 7 * i, 2 ** (20 + i) + 1) for i in range(16))
_CAL_B = tuple(Fraction(5 ** (25 + i) - 11 * i, 3 ** (12 + i) + 2) for i in range(16))


def _kernel_ns() -> int:
    """Wall ns of a fixed convolution of Fractions, the kind of work the
    transvectant does, using no hyperinv code.  The garbage collector is
    paused so that the heap hyperinv leaves behind cannot change its cost."""
    gc.disable()
    try:
        start = time.perf_counter_ns()
        acc = [0] * (len(_CAL_A) + len(_CAL_B) - 1)
        for i, x in enumerate(_CAL_A):
            for j, y in enumerate(_CAL_B):
                acc[i + j] += x * y
        return time.perf_counter_ns() - start
    finally:
        gc.enable()


def calibrate() -> float:
    """Median of three kernel times: how fast the shared host runs this kind
    of work at the moment.  Run just before each timed request, process or
    set-up probe; a measured time t is reported as t * CAL_REF_NS / calibrate()."""
    return statistics.median(_kernel_ns() for _ in range(3))


def _signed(rng, num_bits: int, den_bits: int) -> Fraction:
    """±a/b with a of num_bits bits and b of den_bits bits, so that the cost
    of a request varies little from one draw to the next."""
    return Fraction(rng.choice((1, -1)) * rng.randint(2 ** (num_bits - 1), 2 ** num_bits),
                    rng.randint(2 ** (den_bits - 1), 2 ** den_bits))


class _MuSource:
    """Distinct rational parameters that lie on the generic branch of the locus table."""

    def __init__(self, rng):
        self.rng = rng
        self.seen = set()

    def __call__(self, genus: int) -> Fraction:
        while True:
            mu = _signed(self.rng, 20, 12)
            if mu in self.seen:
                continue
            try:
                point = loci.locus_parametrization(genus, mu)
            except DomainError:
                continue
            if isinstance(point, ModuliPoint) and len(point.values) == 2:
                self.seen.add(mu)
                return mu


class Outcome:
    """What a timed section produced, before the checks.

    Every time is kept twice: as measured (raw) and scaled to the reference
    host's speed by the calibration run just before it.
    """

    def __init__(self):
        self.latencies_ns = []      # per request (cli: per one-shot process)
        self.scaled_latencies_ns = []
        self.calibrations_ns = []   # one per request or process
        self.cycles_ns = []         # per complete cycle: its requests' summed time
        self.scaled_cycles_ns = []
        self.requests = 0
        self.batch_requests = 0
        self.batch_ns = 0
        self.scaled_batch_ns = 0
        self.results = []           # (input, output) pairs to check
        self.errors = []            # exceptions raised by requests

    def timed(self, raw_ns: int, calibration_ns: int) -> float:
        """Record one calibration and return the scaled time."""
        self.calibrations_ns.append(calibration_ns)
        return raw_ns * CAL_REF_NS / calibration_ns

    def close_cycle(self, raw_ns: int, scaled_ns: float) -> int:
        self.cycles_ns.append(raw_ns)
        self.scaled_cycles_ns.append(scaled_ns)
        return raw_ns


def run_timed(workload, seconds: float, between) -> Outcome:
    """Run whole cycles, one request at a time, until `seconds` have passed.

    between is called before each cycle with the share of the time already
    spent; the time it takes is not counted.
    """
    out = Outcome()
    spent = 0
    while spent < seconds * 1e9 or not out.cycles_ns:
        between(spent / (seconds * 1e9))
        cycle = workload.next_cycle()
        spent += workload.run_cycle(cycle, out)
    return out


class LibraryWorkload:
    """A workload whose requests are calls into hyperinv in this process."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def run_cycle(self, cycle, out: Outcome, tracer=None) -> int:
        """Run one cycle; returns its requests' summed raw time."""
        clock = time.perf_counter_ns
        raw_sum, scaled_sum = 0, 0.0
        for item in cycle:
            if tracer is not None:
                tracer.request = out.requests
            calibration = calibrate()
            t0 = clock()
            try:
                result = self.call(item)
            except Exception as exc:    # a failed request is counted, the run goes on
                out.errors.append(f"{item!r}: {type(exc).__name__}: {exc}")
                result = None
            raw = clock() - t0
            scaled = out.timed(raw, calibration)
            out.latencies_ns.append(raw)
            out.scaled_latencies_ns.append(scaled)
            out.results.append((item, result))
            out.requests += 1
            raw_sum += raw
            scaled_sum += scaled
        return out.close_cycle(raw_sum, scaled_sum)

    def check_all(self, out: Outcome) -> int:
        """Number of outputs that fail their check."""
        return sum(1 for item, result in out.results
                   if result is None or not self.check(item, result))


class RationalClassify(LibraryWorkload):
    """rational_model(g, mu) -> classify_point -> recover_mu over Q."""

    name = "rational_classify"
    tail_pct = 90

    def __init__(self, seed: int):
        super().__init__(seed)
        self.mu = _MuSource(self.rng)

    def next_cycle(self):
        return [(g, self.mu(g)) for g in RATIONAL_CYCLE]

    def call(self, item):
        g, mu = item
        point = catalogue.classify_point(a4.rational_model(g, mu), g)
        return point, loci.recover_mu(g, point)

    def check(self, item, result) -> bool:
        g, mu = item
        point, mus = result
        return point == loci.locus_parametrization(g, mu) and mu in mus

    def warmup(self) -> dict:
        g, mu = self.next_cycle()[0]
        return {"workload": self.name, "genus": g, "mu": rational_to_str(mu)}


class SymbolicVerify(LibraryWorkload):
    """verify_genus(g) over Q[mu] for every genus of the locus table; a
    request is one genus, a cycle one full pass in a seeded order."""

    name = "symbolic_verify"
    tail_pct = 75

    def next_cycle(self):
        genera = list(loci.LOCUS_GENERA)
        self.rng.shuffle(genera)
        return genera

    def call(self, genus):
        return loci.verify_genus(genus)

    def check(self, genus, checks) -> bool:
        return [(c["name"], c["status"]) for c in checks] == EXPECTED_CHECKS[genus]

    def warmup(self) -> dict:
        return {"workload": self.name, "genus": 4}


class CycloInvariants(LibraryWorkload):
    """a4_curve_model(g, [lambda]) over Q(i, sqrt3), then the whole
    covariant_catalogue and absolute_invariants."""

    name = "cyclo_invariants"
    tail_pct = 75

    def _lam(self) -> Cyclo:
        while True:
            lam = Cyclo(*(_signed(self.rng, 8, 4) for _ in range(4)))
            if a4.g_has_distinct_roots(lam):
                return lam

    def next_cycle(self):
        return [(g, self._lam()) for g in CYCLO_CYCLE]

    def call(self, item):
        g, lam = item
        inv = catalogue.covariant_catalogue(a4.a4_curve_model(g, [lam]))
        return inv, catalogue.absolute_invariants(inv)

    def check(self, item, result) -> bool:
        g, _ = item
        inv, _ = result
        return inv.degree == 2 * g + 2 and all(
            getattr(inv, name) == 0 for name in VANISHING_BY_GENUS[g])

    def warmup(self) -> dict:
        g, lam = self.next_cycle()[0]
        return {"workload": self.name, "genus": g,
                "lam": [rational_to_str(c) for c in lam.coords]}


# -- cli_requests -------------------------------------------------------------

class CliCase:
    """One request with its expected exit code and its expected result
    (for exit 0) or error name (for exit 1)."""

    def __init__(self, request: dict, code: int, expected):
        self.request = request
        self.code = code
        self.expected = json.loads(json.dumps(expected))   # tuples become lists

    def matches(self, report) -> bool:
        if not isinstance(report, dict):
            return False
        if self.code:
            return (report.get("status") == "error"
                    and report.get("error", {}).get("name") == self.expected)
        return report.get("status") == "ok" and report.get("result") == self.expected


class CliRequests:
    """Sessions sent to the hyperinv program, half one-shot and half --batch."""

    name = "cli_requests"
    tail_pct = 90
    COMMAND = ["-m", "hyperinv"]

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.mu = _MuSource(self.rng)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    # -- inputs -------------------------------------------------------------

    def next_cycle(self):
        """Each form's session, sent once one-shot and once as a batch."""
        cycle = []
        for index, g in enumerate(CLI_GENERA):
            cases = self._session(g, index)
            cycle += [("oneshot", cases), ("batch", cases)]
        return cycle

    def _session(self, g: int, index: int):
        """The requests for one form; index, the form's place in the cycle,
        picks the extra and the failing request, so every cycle has the same mix."""
        mu = self.mu(g)
        form = a4.rational_model(g, mu)
        form_json = serialize.form_to_json(form, genus=g)
        point = loci.locus_parametrization(g, mu)
        inv = catalogue.covariant_catalogue(form)
        mus = loci.recover_mu(g, point)
        cases = [
            CliCase({"command": "invariants", "payload": form_json}, 0,
                    {"degree": form.degree,
                     "invariants": serialize.invariant_set_to_json(inv),
                     "absolute": serialize.absolute_to_json(
                         catalogue.absolute_invariants(inv))}),
            CliCase({"command": "classify", "payload": form_json}, 0,
                    serialize.moduli_point_to_json(point)),
            CliCase({"command": "vanishing", "payload": form_json}, 0,
                    {"genus": g, "profile": [{"invariant": name, "vanishes": True}
                                             for name in VANISHING_BY_GENUS[g]]}),
            CliCase({"command": "model",
                     "payload": {"genus": g, "mu": rational_to_str(mu)}}, 0, form_json),
            CliCase({"command": "recover",
                     "payload": {"genus": g, "p": [rational_to_str(v) for v in point.values]}},
                    0, {"mu": rational_to_str(mus[0]), "all": [rational_to_str(m) for m in mus]}),
            self._extra(index),
            self._domain_error(g, point.values, index % 2),
        ]
        return cases

    def _normal_form(self):
        case, n, g = self.rng.choice(NORMAL_FORM_SHAPES)
        t = {1: 2 * g + 2, 2: 2 * g + 1, 3: 2 * g}[case] // n
        return make_normal_form(case, n, g, [_signed(self.rng, 6, 2) for _ in range(t - 1)])

    def _extra(self, kind: int) -> CliCase:
        if kind == 0:
            nf = self._normal_form()
            return CliCase({"command": "dihedral", "payload": serialize.normal_form_to_json(nf)},
                           0, serialize.dihedral_to_json(dihedral_invariants(nf)))
        if kind == 1:
            while True:
                nf = self._normal_form()
                u = dihedral_invariants(nf)
                try:
                    rec = reconstruct_from_u(u, nf.case, nf.n, nf.genus)
                except DomainError:
                    continue
                payload = {"u": [rational_to_str(v) for v in u.values],
                           "case": nf.case, "n": nf.n, "genus": nf.genus}
                return CliCase({"command": "reconstruct", "payload": payload}, 0,
                               serialize.normal_form_to_json(rec))
        group, genus, n = self.rng.choice(SIGNATURE_ROWS)
        row = signature_row(group, genus, n)
        payload = {"group": group, "genus": genus, **({"n": n} if n else {})}
        return CliCase({"command": "catalogue", "payload": payload}, 0,
                       {"group": row.group, "delta": row.delta,
                        "signature": list(row.signature), "involutions": row.involutions})

    def _domain_error(self, g, values, kind: int) -> CliCase:
        """kind 0: classify at genus 4; kind 1: recover an off-locus point."""
        if kind == 0:
            form = serialize.form_to_json(a4.rational_model(4), genus=4)
            return CliCase({"command": "classify", "payload": form}, 1,
                           "UndefinedInvariantError")
        shift = 1
        while True:
            off = (values[0] + shift, values[1])
            try:
                loci.recover_mu(g, off)
            except DomainError as exc:
                if type(exc).__name__ == "OffLocusError":
                    break
            shift += 1
        p = [rational_to_str(v) for v in off]
        return CliCase({"command": "recover", "payload": {"genus": g, "p": p}}, 1,
                       "OffLocusError")

    # -- running ------------------------------------------------------------

    def run_process(self, payload, batch: bool, traced: bool = False):
        """Run one hyperinv process; returns (wall ns, exit code, stdout, stderr).

        Traced, the process is cli_child.py, which runs the same main under a
        tracer and writes its spans to stderr.
        """
        program = [str(Path(__file__).with_name("cli_child.py"))] if traced else self.COMMAND
        argv = [sys.executable, *program] + (["--batch"] if batch else [])
        start = time.perf_counter_ns()
        proc = subprocess.run(argv, input=json.dumps(payload), capture_output=True,
                              text=True, env=self.env, timeout=120)
        return time.perf_counter_ns() - start, proc.returncode, proc.stdout, proc.stderr

    def run_cycle(self, cycle, out: Outcome, tracer=None) -> int:
        """Run one cycle; with `tracer` a list, run it traced and append
        (mode, wall ns, stderr) for each process to that list."""
        traced = tracer is not None
        raw_sum, scaled_sum = 0, 0.0
        for mode, cases in cycle:
            runs = ([(case,) for case in cases] if mode == "oneshot" else [tuple(cases)])
            for group in runs:
                payload = group[0].request if mode == "oneshot" else [c.request for c in group]
                calibration = calibrate()
                wall, code, stdout, stderr = self.run_process(payload, mode == "batch", traced)
                scaled = out.timed(wall, calibration)
                if mode == "oneshot":
                    out.latencies_ns.append(wall)
                    out.scaled_latencies_ns.append(scaled)
                else:
                    out.batch_requests += len(group)
                    out.batch_ns += wall
                    out.scaled_batch_ns += scaled
                out.results.append((group, (code, stdout, stderr)))
                if traced:
                    tracer.append((mode, wall, stderr))
                raw_sum += wall
                scaled_sum += scaled
            out.requests += len(cases)
        return out.close_cycle(raw_sum, scaled_sum)

    def check_all(self, out: Outcome) -> int:
        failed = 0
        for cases, (code, stdout, _) in out.results:
            try:
                reports = json.loads(stdout)
            except json.JSONDecodeError:
                failed += len(cases)
                continue
            if len(cases) == 1:
                reports = [reports]
            elif not isinstance(reports, list) or len(reports) != len(cases):
                failed += len(cases)
                continue
            if code != max(case.code for case in cases):
                failed += len(cases)
                continue
            failed += sum(1 for case, report in zip(cases, reports)
                          if not case.matches(report))
        return failed

    def warmup(self) -> dict:
        return {"command": "catalogue", "payload": {"group": "Z2xA4", "genus": 5}}


WORKLOADS = {cls.name: cls for cls in
             (RationalClassify, SymbolicVerify, CycloInvariants, CliRequests)}
