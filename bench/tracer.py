"""In-memory span tracer for one weakkam CLI command, and its traced entry point.

    python3 bench/tracer.py <spans.npz> <summary.json> <command-id> <cli args...>

runs `weakkam.cli.main(<cli args>)` with spans recorded around the public
functions of each module, then writes every span to <spans.npz> and the
per-name aggregates to <summary.json>.  Nothing inside `src/` is edited:
functions are replaced in every `weakkam.*` module that binds them
(several modules import functions by name), and methods on their classes.

A span records its name, start, end and parent span; all spans of a
process share its command id.  Self time is a span's duration minus the
time its child spans cover; the program is single-threaded, so children
never overlap and self times partition each root span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (module, function) pairs; each is patched wherever a weakkam module binds it
FUNCTIONS = (
    ("cli", "load_config"), ("cli", "run"),
    ("hamiltonian", "validate_spec"), ("hamiltonian", "conjugate_table"),
    ("hamiltonian", "legendre"),
    ("semigroup", "evolve"), ("semigroup", "stationary_solve"),
    ("critical", "critical_value"), ("critical", "discounted_solve"),
    ("critical", "longtime_slope"),
    ("mather", "solve_occupational"), ("mather", "extremal_integral"),
    ("mather", "peierls_barrier"),
    ("stability", "check_condition"), ("stability", "decay_exponent"),
    ("stability", "deviation_series"),
    ("homogenize", "cell_problem"), ("homogenize", "build_effective_table"),
    ("homogenize", "solve_effective"), ("homogenize", "solve_multiscale"),
)
METHODS = (
    ("expr", "Expr", "evaluate"), ("semigroup", "GatherPlan", "apply"),
    ("semigroup", "Stepper", "backward_values"), ("critical", "MinPlusStepper", "step"),
    ("mather", "LinearProgram", "__init__"),
)


def _apply_bytes(args, result):
    plan, u = args[0], args[1]
    return (plan.idx0.nbytes + plan.idx1.nbytes + plan.w0.nbytes + plan.w1.nbytes
            + u.nbytes + result.nbytes)


# counters read from a call's arguments and result, keyed by span name
OBSERVERS = {
    "semigroup.GatherPlan.apply": ("computed_bytes", _apply_bytes),
    "semigroup.stationary_solve": ("steps", lambda args, res: res.steps),
    "critical.critical_value": ("disagree", lambda args, res: int(res.method != "agree")),
    "stability.check_condition": ("zetas", lambda args, res: len(res.c_values)),
}


class Tracer:
    """Spans kept in flat arrays; `stack` holds the open spans' indices."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters = {}

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        observer = OBSERVERS.get(name)
        name_id, parent, start, end, stack = (self.name_id, self.parent, self.start,
                                              self.end, self.stack)
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observer is not None:
                key = f"{name}.{observer[0]}"
                self.counters[key] = self.counters.get(key, 0) + observer[1](args, result)
            return result

        return traced

    def install(self) -> list:
        """Patch every traced function and method; returns what each patch replaced."""
        modules = {short: importlib.import_module(f"weakkam.{short}")
                   for short in {m for m, *_ in FUNCTIONS + METHODS}}
        patched = []
        for short, fname in FUNCTIONS:
            original = getattr(modules[short], fname)
            traced = self.wrap(f"{short}.{fname}", original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("weakkam") and mod is not None:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
                            patched.append((mod, attr, original))
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", original))
            patched.append((cls, meth, original))
        return patched

    def summary(self) -> dict:
        """Calls, total and self time per span name, plus counters."""
        import numpy as np

        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - covered
        k = len(self.names)
        spans = {}
        calls = np.bincount(name_id, minlength=k)
        totals = np.bincount(name_id, weights=dur, minlength=k)
        selfs = np.bincount(name_id, weights=self_time, minlength=k)
        for nid, name in enumerate(self.names):
            spans[name] = {"calls": int(calls[nid]), "total_s": float(totals[nid]),
                           "self_s": float(selfs[nid])}
        # child spans counted per parent name, e.g. steps under discounted_solve
        pairs = {}
        if nested.any():
            links = np.stack([name_id[nested], name_id[parent[nested]]])
            uniq, counts = np.unique(links, axis=1, return_counts=True)
            for (child, par), count in zip(uniq.T, counts):
                pairs[f"{self.names[child]}<{self.names[par]}"] = int(count)
        return {"spans": spans, "counters": dict(self.counters), "pairs": pairs,
                "root_total_s": float(dur[~nested].sum()),
                "self_sum_s": float(self_time.sum())}

    def dump(self, spans_path: str, command_id: int):
        import numpy as np

        np.savez(spans_path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 command_id=np.int64(command_id))


def main(argv) -> int:
    spans_path, summary_path, command_id, cli_args = argv[0], argv[1], int(argv[2]), argv[3:]
    import weakkam.cli as cli

    tracer = Tracer()
    tracer.install()
    rc = cli.main(cli_args)
    loads = [i for i, nid in enumerate(tracer.name_id)
             if tracer.names[nid] == "cli.load_config"]
    summary = tracer.summary()
    summary["command_id"] = command_id
    summary["config_loaded_at"] = tracer.end[loads[0]] if loads else None
    tracer.dump(spans_path, command_id)
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
