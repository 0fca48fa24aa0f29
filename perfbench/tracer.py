"""In-memory span tracer for the qdense benchmark.

The tracer wraps qdense's public functions in every module namespace that
binds them (``from .padic import as_prime`` makes a second binding, which is
patched too), so calls between modules are recorded without touching the
package's source.  Each span keeps its name, start, end, parent span and
request id.  Spans stay in memory until the run ends; `write` dumps them.
"""

from __future__ import annotations

import csv
import gzip
import sys
from array import array
from time import perf_counter

# Spans the tracer opens, as (span name, module, function).  The span name's
# first component is the layer.
TARGETS = (
    ("cli.main", "qdense.cli", "main"),
    ("denseness.decide", "qdense.denseness", "decide"),
    ("denseness.decide_binary", "qdense.denseness", "decide_binary"),
    ("denseness.verdict_to_dict", "qdense.denseness", "verdict_to_dict"),
    ("forms.is_anisotropic_mod_p", "qdense.forms", "is_anisotropic_mod_p"),
    ("forms.normalize_binary", "qdense.forms", "normalize_binary"),
    ("forms.valuation_profile", "qdense.forms", "valuation_profile"),
    ("forms.find_nonsingular_zero_mod_p", "qdense.forms",
     "find_nonsingular_zero_mod_p"),
    ("residues.stabilization_exponent", "qdense.residues",
     "stabilization_exponent"),
    ("residues.is_nth_power_residue", "qdense.residues", "is_nth_power_residue"),
    ("residues.nth_power_residues", "qdense.residues", "nth_power_residues"),
    ("padic.as_prime", "qdense.padic", "as_prime"),
    ("padic.inverse_mod", "qdense.padic", "inverse_mod"),
    ("padic.valuation", "qdense.padic", "valuation"),
    ("oracle.enumerate_values", "qdense.oracle", "enumerate_values"),
    ("oracle.quotient_coverage", "qdense.oracle", "quotient_coverage"),
    ("oracle.check_certificate", "qdense.oracle", "check_certificate"),
)
LAYERS = ("cli", "denseness", "forms", "residues", "padic", "oracle")
REQUEST = "bench.request"
RULES = tuple(f"R{k}" for k in range(1, 7))


def deciding_rule(verdict) -> str:
    """The highest-numbered rule in the trace.  An R5 verdict ends with the
    R1 entries of its dense subform, so the last entry would misreport it."""
    return max(verdict.trace, key=lambda e: int(e.rule[1:])).rule


def _enumerated(values):
    return {"points": (2 * values.B + 1) ** values.form.r,
            "classes": len(values.classes)}


# What each span records about its result, for counts taken at the boundary.
OBSERVERS = {
    "denseness.decide": lambda v: {"rule": deciding_rule(v)},
    "oracle.enumerate_values": _enumerated,
    "oracle.quotient_coverage": lambda report: {"hits": len(report.quotients.hits)},
    "oracle.check_certificate": lambda result: {"refuted": not result.consistent},
}


class Tracer:
    """Records spans while installed; `uninstall` restores the package.

    Spans are stored column-wise in arrays (about 40 bytes each), so a
    traced pass of hundreds of thousands of spans stays small in memory.
    """

    def __init__(self):
        self.names = []  # span name by code
        self.name = array("h")
        self.parent = array("l")
        self.req = array("l")
        self.start = array("d")
        self.end = array("d")
        self.info = {}  # span index -> counts observed at the boundary
        self.error = {}  # span index -> exception class name
        self.request = -1
        self._stack = []
        self._patches = []

    def __len__(self):
        return len(self.name)

    def wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        names, parents, reqs, starts, ends = (
            self.name, self.parent, self.req, self.start, self.end)
        infos, errors, stack = self.info, self.error, self._stack
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            i = len(names)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            reqs.append(self.request)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[i] = type(exc).__name__
                raise
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if observe is not None:
                infos[i] = observe(result)
            return result

        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "qdense" or name.startswith("qdense.")]
        for name, module, attr in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                for binding in [k for k, v in vars(m).items() if v is original]:
                    setattr(m, binding, wrapper)
                    self._patches.append((m, binding, original))

    def uninstall(self):
        for m, binding, original in reversed(self._patches):
            setattr(m, binding, original)
        self._patches.clear()

    def write(self, path):
        """Dump every span as gzipped CSV; times are seconds from the first span."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["id", "name", "parent", "request", "start_s", "end_s",
                          "error"])
            for i in range(len(self)):
                out.writerow([i, self.names[self.name[i]], self.parent[i],
                              self.req[i], f"{self.start[i] - t0:.9f}",
                              f"{self.end[i] - t0:.9f}", self.error.get(i, "")])


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics from the spans of one traced pass."""
    t = tracer
    durations = [e - s for s, e in zip(t.start, t.end)]
    child = [0.0] * len(t)
    for parent, d in zip(t.parent, durations):
        if parent >= 0:
            child[parent] += d
    m = {}
    for name, _, _ in TARGETS:
        m[f"{name}.calls"] = 0
        m[f"{name}.time_s"] = 0.0
        m[f"{name}.self_s"] = 0.0
    for rule in RULES:
        m[f"denseness.rule.{rule}.calls"] = 0
        m[f"denseness.rule.{rule}.time_s"] = 0.0
    counts = dict.fromkeys(
        ("oracle.points", "oracle.classes", "oracle.pairs", "oracle.hits",
         "oracle.check_certificate.refuted",
         "forms.is_anisotropic_mod_p.budget_exceeded"), 0)
    r6_oracle = 0.0
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    total = 0.0
    for i, d in enumerate(durations):
        name, parent = t.names[t.name[i]], t.parent[i]
        info = t.info.get(i)
        self_time = d - child[i]
        layer_self[name.split(".")[0]] += self_time
        if name == REQUEST:
            total += d
            continue
        m[f"{name}.calls"] += 1
        m[f"{name}.time_s"] += d
        m[f"{name}.self_s"] += self_time
        if name == "denseness.decide" and info is not None:
            m[f"denseness.rule.{info['rule']}.calls"] += 1
            m[f"denseness.rule.{info['rule']}.time_s"] += d
        elif name == "oracle.enumerate_values" and info is not None:
            counts["oracle.points"] += info["points"]
            counts["oracle.classes"] += info["classes"]
            # The quotient map pairs every class with every class.
            counts["oracle.pairs"] += info["classes"] ** 2
        elif name == "oracle.quotient_coverage":
            if info is not None:
                counts["oracle.hits"] += info["hits"]
            if parent >= 0 and t.names[t.name[parent]] == "denseness.decide":
                r6_oracle += d
        elif name == "oracle.check_certificate" and info is not None:
            counts["oracle.check_certificate.refuted"] += info["refuted"]
        elif (name == "forms.is_anisotropic_mod_p"
              and t.error.get(i) == "BudgetExceeded"):
            counts["forms.is_anisotropic_mod_p.budget_exceeded"] += 1
    m.update(counts)
    m["oracle.classes_per_point"] = (
        counts["oracle.classes"] / counts["oracle.points"]
        if counts["oracle.points"] else 0.0)
    m["oracle.hits_per_pair"] = (
        counts["oracle.hits"] / counts["oracle.pairs"]
        if counts["oracle.pairs"] else 0.0)
    m["denseness.r6_oracle_s"] = r6_oracle
    for layer, busy in layer_self.items():
        m[f"share.{layer}"] = busy / total if total else 0.0
    m["bench.request.time_s"] = total
    return m
