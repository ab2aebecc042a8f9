"""In-memory span tracing around the calls the benchmark makes into dicnet.

`Tracer` replaces public callables where their callers look them up (a module
attribute or a class attribute) with wrappers that record one span per call:
name, start, end, parent span and replication id.  Leaving the `with` block
puts every original back.  Self time of a span is its duration minus the time
covered by its child spans; since the run is single-threaded, children never
overlap, so the self times of all spans plus the time outside any span add up
to the traced interval exactly.
"""

from __future__ import annotations

import time
from array import array

import dicnet.cli
import dicnet.diffusion
import dicnet.estimator
import dicnet.oracle
import dicnet.strategies
from dicnet.strategies import AGreedyPolicy

# (owner, attribute, layer name).  Each entry is the lookup its caller uses:
# the CLI and the estimator call these through their own module globals.
TARGETS = (
    (dicnet.cli, "main", "cli"),
    (dicnet.cli, "generate_power_law", "data.generate"),
    (dicnet.cli, "load_network", "data.load"),
    (dicnet.cli, "static_greedy_select", "strategies.select"),
    (dicnet.cli, "h_greedy_prune", "strategies.prune"),
    (dicnet.cli, "run_replications", "estimator"),
    (dicnet.estimator, "estimate_policy_spread", "estimator"),
    (dicnet.estimator, "sample_full", "realization.sample_full"),
    (dicnet.estimator, "run_policy", "diffusion.run_policy"),
    (dicnet.diffusion, "step_round", "diffusion.step_round"),
    (AGreedyPolicy, "decide", "strategies.decide"),
    (dicnet.strategies, "observably_quiescent", "strategies.quiescence"),
    (dicnet.oracle, "exact_policy_value", "oracle.exact_value"),
    (dicnet.oracle, "optimal_adaptive_value", "oracle.optimal"),
    (dicnet.oracle, "greedy_adaptive_value", "oracle.greedy"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in TARGETS))


def installed_wrappers() -> list[str]:
    """Names of TARGETS whose attribute is currently a tracing wrapper."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _ in TARGETS
            if getattr(getattr(owner, attr), "__perfbench_wrapper__", False)]


class Tracer:
    """Records spans and per-layer counters while installed.

    Spans live in parallel typed arrays (layer code, parent index,
    replication id, start, end) so that a pass with hundreds of thousands of
    calls stays small in memory; -1 marks "no parent" and "no replication".
    """

    def __init__(self):
        self.layer = array("b")
        self.parent = array("l")
        self.rep = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters = {"gain_evals": 0, "celf_denominator": 0, "rounds": 0,
                         "select_evals": 0, "prune_kept": [], "reps": 0}
        self.first_decide_s = 0.0
        self._stack: list[int] = []
        self._rep = -1
        self._first_decide_pending = False
        self._originals: list[tuple] = []

    def __enter__(self):
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        return False

    def _wrap(self, name, fn):
        code = LAYERS.index(name)
        layer, parent, rep = self.layer, self.parent, self.rep
        start, end, stack = self.start, self.end, self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if name == "realization.sample_full":
                self._rep += 1              # one world per replication
            elif name == "estimator":
                self._rep = -1
            elif name == "diffusion.run_policy":
                self._first_decide_pending = True
            first = name == "strategies.decide" and self._first_decide_pending
            if first:
                self._first_decide_pending = False
            idx = len(start)
            layer.append(code)
            parent.append(stack[-1] if stack else -1)
            rep.append(self._rep)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
                if name == "estimator":
                    self._rep = -1
            if first:
                self.first_decide_s += end[idx] - start[idx]
            self._count(name, args, result)
            return result

        wrapper.__perfbench_wrapper__ = True
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, args, result):
        c = self.counters
        if name == "diffusion.run_policy":
            c["rounds"] += result.rounds
            policy = args[1]
            if isinstance(policy, AGreedyPolicy):
                c["gain_evals"] += result.gain_evaluations
                c["celf_denominator"] += len(policy.candidates) * len(result.seeds)
        elif name == "strategies.select":
            c["select_evals"] += result[1]
        elif name == "strategies.prune":
            c["prune_kept"].append(1.0 - result[1]["pruned_fraction"])
        elif name == "estimator":
            c["reps"] += args[2]

    def layer_times(self) -> dict[str, tuple[float, int]]:
        """Per layer name: (total self time in seconds, call count)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        self_s = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_s[p] -= dur[i]
        totals = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        for code, t in zip(self.layer, self_s):
            totals[code] += t
            calls[code] += 1
        return {name: (totals[i], calls[i]) for i, name in enumerate(LAYERS)}

    def root_time(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent)
                   if p < 0)

    def write(self, fh) -> None:
        """Write the spans as JSON lines: [id, parent, layer, rep, start, end]."""
        for i in range(len(self.start)):
            fh.write(f'[{i},{self.parent[i]},"{LAYERS[self.layer[i]]}",'
                     f'{self.rep[i]},{self.start[i]!r},{self.end[i]!r}]\n')

    def span_problems(self, t0: float, t1: float) -> list[str]:
        """Spans that do not nest: a span that ends before it starts, a root
        span outside the traced interval [t0, t1], a child span outside its
        parent, or a span that overlaps its previous sibling.  Any of these
        would make a self time or the unattributed rest wrong."""
        problems = []
        last_end: dict[int, float] = {}     # parent index -> latest child end
        for i, p in enumerate(self.parent):
            lo, hi = (t0, t1) if p < 0 else (self.start[p], self.end[p])
            s, e = self.start[i], self.end[i]
            where = "the pass" if p < 0 else f"parent span {p}"
            if not lo <= s <= e <= hi:
                problems.append(f"span {i} ({LAYERS[self.layer[i]]}) "
                                f"[{s}, {e}] is not inside {where} "
                                f"[{lo}, {hi}]")
            elif s < last_end.get(p, lo):
                problems.append(f"span {i} ({LAYERS[self.layer[i]]}) "
                                f"overlaps its previous sibling in {where}")
            last_end[p] = e
            if len(problems) >= 5:
                break
        return problems
