"""Per-layer tracing of mdgkit from outside the library.

`Tracer.install` replaces each boundary function or method in BOUNDARIES with
a wrapper that records one span per outermost call: boundary name, start,
end, parent span and job id.  A function is rebound in every mdgkit module
that holds it (``from .groebner import buchberger`` makes a second binding in
``cli`` and ``symdg``), so no caller bypasses the wrapper.  A call nested in a
call of the same boundary (``poly_gcd`` recursing) is not wrapped again, so
counts and busy time cover outermost calls only.

Spans are kept in flat arrays and written out once, after the measurement.
An untraced run never imports this module's wrappers into the library.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# Boundary names are "<module>.<function>" or "<module>.<Class>.<method>",
# relative to the mdgkit package.
BOUNDARIES = [
    "cli.run_command",
    "parser.parse_document",
    "parser.format_document",
    "groebner.associativity_certificate",
    "groebner.mult_ideal",
    "groebner.buchberger",
    "groebner.spoly",
    "groebner.normal_form",
    "groebner.GBasis.reduce",
    "gcalg.GCPoly.term_mul_left",
    "ring.poly_gcd",
    "complexes.FreeComplex.check",
    "complexes.FreeComplex.homology_dims",
    "linalg.rank",
    "linalg.in_span",
    "linalg.nullspace",
    "mdg.Multiplication.multiply",
    "mdg.MDGAlgebra.check",
    "mdg.MDGAlgebra.associator_submodule",
    "mdg.Submodule.saturate",
    "mdg.Submodule.homology_dims",
    "mdg.quotient_homology_dims",
    "constructions.taylor_algebra",
    "constructions.mapping_cone_extension",
    "constructions.transport_multiplication",
    "symdg.presentation_check",
    "symdg.SymDGAlgebra.check",
    "symdg.SymDGAlgebra.mul",
]

# Boundaries that must record calls on a workload (the self-check).
EXPECTED = {
    "certify-closed": [
        "cli.run_command", "parser.parse_document",
        "groebner.associativity_certificate", "groebner.mult_ideal",
        "groebner.buchberger", "groebner.spoly", "groebner.normal_form",
        "groebner.GBasis.reduce", "gcalg.GCPoly.term_mul_left",
        "constructions.taylor_algebra", "symdg.presentation_check",
    ],
    "certify-growth": [
        "cli.run_command", "parser.parse_document",
        "groebner.associativity_certificate", "groebner.mult_ideal",
        "groebner.buchberger", "groebner.spoly", "groebner.normal_form",
        "groebner.GBasis.reduce", "gcalg.GCPoly.term_mul_left",
        "ring.poly_gcd",
    ],
    "calculus": [
        "cli.run_command", "parser.parse_document", "parser.format_document",
        "complexes.FreeComplex.check", "complexes.FreeComplex.homology_dims",
        "linalg.rank", "linalg.in_span", "mdg.Multiplication.multiply",
        "mdg.MDGAlgebra.check", "mdg.MDGAlgebra.associator_submodule",
        "mdg.Submodule.saturate", "mdg.Submodule.homology_dims",
        "mdg.quotient_homology_dims", "constructions.mapping_cone_extension",
        "constructions.transport_multiplication", "symdg.SymDGAlgebra.check",
        "symdg.SymDGAlgebra.mul",
    ],
}
# Workloads on which no groebner boundary may record a call.
NO_ENGINE = {"calculus"}

# The per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.busy_s", "s"),
    ("groebner.normal_form.self_s", "s"),
    ("groebner.normal_form.steps", "count"),
    ("groebner.normal_form.zero_share", "share"),
    ("groebner.spoly.calls", "count"),
    ("groebner.spoly.busy_s", "s"),
    ("groebner.spoly.zero_share", "share"),
    ("groebner.pairs_total", "count"),
    ("groebner.pairs_skipped", "count"),
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.busy_s", "s"),
    ("groebner.buchberger.self_s", "s"),
    ("groebner.mult_ideal.busy_s", "s"),
    ("groebner.derived", "count"),
    ("groebner.basis_size", "count"),
    ("groebner.interreduce_s", "s"),
    ("groebner.GBasis.reduce.calls", "count"),
    ("groebner.GBasis.reduce.busy_s", "s"),
    ("groebner.postpass_s", "s"),
    ("ring.poly_gcd.calls", "count"),
    ("ring.poly_gcd.busy_s", "s"),
    ("gcalg.GCPoly.term_mul_left.calls", "count"),
    ("gcalg.GCPoly.term_mul_left.busy_s", "s"),
    ("parser.parse_document.calls", "count"),
    ("parser.parse_document.busy_s", "s"),
    ("parser.format_document.busy_s", "s"),
    ("cli.run_command.self_s", "s"),
    ("complexes.FreeComplex.homology_dims.busy_s", "s"),
    ("complexes.FreeComplex.check.busy_s", "s"),
    ("linalg.rank.calls", "count"),
    ("linalg.rank.busy_s", "s"),
    ("linalg.in_span.calls", "count"),
    ("linalg.in_span.busy_s", "s"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.nullspace.busy_s", "s"),
    ("mdg.Multiplication.multiply.calls", "count"),
    ("mdg.Multiplication.multiply.busy_s", "s"),
    ("mdg.MDGAlgebra.check.busy_s", "s"),
    ("mdg.MDGAlgebra.associator_submodule.self_s", "s"),
    ("mdg.Submodule.saturate.busy_s", "s"),
    ("mdg.Submodule.homology_dims.busy_s", "s"),
    ("mdg.quotient_homology_dims.busy_s", "s"),
    ("constructions.mapping_cone_extension.busy_s", "s"),
    ("constructions.transport_multiplication.busy_s", "s"),
    ("symdg.SymDGAlgebra.check.busy_s", "s"),
    ("symdg.SymDGAlgebra.mul.calls", "count"),
    ("symdg.SymDGAlgebra.mul.busy_s", "s"),
    ("symdg.presentation_check.self_s", "s"),
    ("constructions.taylor_algebra.busy_s", "s"),
]


# What a span records beyond its times: `flag` is 1 when the result is zero
# (spoly, normal_form); `value` is the number of reduction steps
# (normal_form), or the nonzero inputs (buchberger); `value2` the basis size
# buchberger returned.
def _nonzero_inputs(args, kwargs):
    gens = args[1] if len(args) > 1 else kwargs["generators"]
    return sum(1 for g in gens if not g.is_zero())


def _observe_spoly(t, i, result):
    t.flag[i] = result.is_zero()


def _observe_normal_form(t, i, result):
    nf, trace = result
    t.flag[i] = nf.is_zero()
    t.value[i] = len(trace.steps)


def _observe_buchberger(t, i, result):
    t.value2[i] = len(result)


BEFORE = {"groebner.buchberger": _nonzero_inputs}
AFTER = {
    "groebner.spoly": _observe_spoly,
    "groebner.normal_form": _observe_normal_form,
    "groebner.buchberger": _observe_buchberger,
}


class Tracer:
    def __init__(self):
        self.names = list(BOUNDARIES)
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")
        self.value = array("q")
        self.value2 = array("q")
        self.stack = []
        self.active = [0] * len(self.names)
        # Spans outside a job (output checks) have job -1 and are not counted.
        self.job_id = -1
        self.bindings = {}        # boundary -> number of bindings wrapped

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "mdgkit"
                                         or n.startswith("mdgkit."))]
        for nid, boundary in enumerate(self.names):
            mod_name, _, qual = boundary.partition(".")
            mod = sys.modules[f"mdgkit.{mod_name}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(nid, cls.__dict__[meth]))
                self.bindings[boundary] = 1
                continue
            orig = getattr(mod, qual)
            wrapper = self._wrap(nid, orig)
            count = 0
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)
                        count += 1
            self.bindings[boundary] = count

    def _wrap(self, nid, fn):
        tr = self
        before = BEFORE.get(self.names[nid])
        after = AFTER.get(self.names[nid])
        active, stack = self.active, self.stack

        def wrapper(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.job.append(tr.job_id)
            tr.flag.append(0)
            tr.value.append(before(args, kwargs) if before else 0)
            tr.value2.append(0)
            tr.end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            tr.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf_counter()
                stack.pop()
                active[nid] -= 1
            if after:
                after(tr, idx, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ---------------------------------------------------------

    def aggregate(self) -> dict:
        """Totals over the spans of all jobs: per boundary calls, busy and
        self seconds, plus the engine counters derived from span structure."""
        n = len(self.start)
        names, parent, job = self.names, self.parent, self.job
        start, end = self.start, self.end
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = defaultdict(int)
        busy = defaultdict(float)
        selft = defaultdict(float)
        zeros = defaultdict(int)
        steps = 0
        kids = defaultdict(list)          # children of engine spans
        engine = {names.index("groebner.buchberger"),
                  names.index("groebner.associativity_certificate")}
        for i in range(n):
            if job[i] < 0:
                continue
            nm = names[self.name[i]]
            d = end[i] - start[i]
            calls[nm] += 1
            busy[nm] += d
            selft[nm] += d - child[i]
            zeros[nm] += self.flag[i]
            if nm == "groebner.normal_form":
                steps += self.value[i]
            p = parent[i]
            if p >= 0 and self.name[p] in engine:
                kids[p].append(i)

        derived = pairs_total = pairs_skipped = basis_size = 0
        interreduce = postpass = 0.0
        for i in range(n):
            if job[i] < 0:
                continue
            nm = names[self.name[i]]
            ch = kids.get(i, [])
            if nm == "groebner.buchberger":
                own_derived, spolys, loop_end = 0, 0, start[i]
                pending = False       # a nonzero S-polynomial awaits its NF
                for c in ch:
                    cn = names[self.name[c]]
                    if cn == "groebner.spoly":
                        spolys += 1
                        loop_end = end[c]
                        pending = not self.flag[c]
                    elif cn == "groebner.normal_form" and pending:
                        own_derived += not self.flag[c]
                        loop_end = end[c]
                        pending = False
                k = self.value[i] + own_derived
                derived += own_derived
                pairs_total += k * (k - 1) // 2
                pairs_skipped += k * (k - 1) // 2 - spolys
                basis_size += self.value2[i]
                interreduce += end[i] - loop_end
            elif nm == "groebner.associativity_certificate":
                inner = sum(end[c] - start[c] for c in ch
                            if names[self.name[c]] in
                            ("groebner.mult_ideal", "groebner.buchberger"))
                postpass += end[i] - start[i] - inner
        return {"calls": dict(calls), "busy": dict(busy), "self": dict(selft),
                "zeros": dict(zeros), "steps": steps, "derived": derived,
                "pairs_total": pairs_total, "pairs_skipped": pairs_skipped,
                "basis_size": basis_size, "interreduce_s": interreduce,
                "postpass_s": postpass}

    def metrics(self, agg: dict, passes: int) -> dict:
        """The PER_LAYER metrics, per pass over the job list."""
        calls, busy, selft = agg["calls"], agg["busy"], agg["self"]

        def share(nm):
            c = calls.get(nm, 0)
            return agg["zeros"].get(nm, 0) / c if c else 0.0

        out = {}
        for key, unit in PER_LAYER:
            base, _, stat = key.rpartition(".")
            if stat == "calls":
                v = calls.get(base, 0) / passes
            elif stat == "busy_s":
                v = busy.get(base, 0.0) / passes
            elif stat == "self_s":
                v = selft.get(base, 0.0) / passes
            elif stat == "zero_share":
                v = share(base)
            elif key == "groebner.normal_form.steps":
                v = agg["steps"] / passes
            else:
                v = agg[key.split(".", 1)[1]] / passes
            out[key] = {"value": v, "unit": unit}
        return out

    def self_check(self, workload: str, agg: dict) -> list:
        """Problems: an expected boundary with no calls, or an engine
        boundary with calls on a workload that must not reach the engine."""
        calls = agg["calls"]
        problems = [f"{b}: no calls on {workload}"
                    for b in EXPECTED.get(workload, []) if not calls.get(b)]
        if workload in NO_ENGINE:
            problems += [f"{b}: {calls[b]} calls on {workload}"
                         for b in calls if b.startswith("groebner.")]
        problems += [f"{b}: not bound anywhere"
                     for b, c in self.bindings.items() if not c]
        return problems

    def write(self, path, t0: float) -> None:
        """All spans as TSV: span, name, start, end, parent, job (seconds
        from the start of the measurement)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name[i]]}\t"
                         f"{self.start[i] - t0:.6f}\t{self.end[i] - t0:.6f}\t"
                         f"{self.parent[i]}\t{self.job[i]}\n")
