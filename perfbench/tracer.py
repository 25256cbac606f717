"""Spans around liesys's public functions, recorded from outside ``src/``.

Each function is wrapped at the binding its caller looks up at call time:
class attributes (``SystemDef.rhs``, ``Trajectory.dense``), names imported
into the calling module (``liesys.cli.drift``, ``liesys.group.quadrature``)
and the ``ALL_CRITERIA`` list that ``acceptance.run_all`` iterates.  liesys
is single-threaded and has no queues, so a span has no waiting time.

Per span name the tracer keeps the call count, inclusive time (outermost
span of that name only, so nested calls are not counted twice), self time
(duration minus the durations of its direct child spans), the smallest self
time of any one span, and the number of calls that raised.  Spans of the
coarse layers are also kept whole (id, name, start, end, parent id, job);
the hot leaf functions (rhs, dense output, quadrature, actions, brackets)
are only aggregated, which keeps memory flat however long the run.
"""

import importlib
import itertools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, job)
        # name -> [calls, inclusive s, self s, min self s, failures]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, float("inf"), 0])
        self.counters = defaultdict(int)
        self.job = None
        self._stack = []  # open spans: [id, start, child s]
        self._depth = defaultdict(int)
        self._ids = itertools.count(1)
        self._patches = []
        self._domain_error = None  # liesys.errors.DomainError, set by install
        self._last_domain_error = None

    # --- recording -----------------------------------------------------------

    def wrap(self, name, fn, keep=True, before=None, after=None):
        """``fn`` inside a span called ``name``.

        ``before(args)`` may replace the positional arguments (to count calls
        the wrapped function makes back into one of them); ``after(result)``
        sees the return value.
        """
        stack, depth, spans, ids = self._stack, self._depth, self.spans, self._ids
        st = self.stats[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            sid = next(ids)
            parent = stack[-1][0] if stack else None
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                st[4] += 1
                self._on_error(name, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - frame[1]
                own = dur - frame[2]
                st[0] += 1
                st[2] += own
                if own < st[3]:
                    st[3] = own
                if not depth[name]:
                    st[1] += dur
                if stack:
                    stack[-1][2] += dur
                if keep:
                    spans.append((sid, name, frame[1], end, parent, self.job))
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_error(self, name, exc):
        # One DomainError passes through every enclosing group span; count it once.
        if (name.startswith("group.") and isinstance(exc, self._domain_error)
                and exc is not self._last_domain_error):
            self._last_domain_error = exc
            self.counters["group.domain_errors"] += 1

    def _counting(self, counter, fn):
        counters = self.counters

        def counted(*args):
            counters[counter] += 1
            return fn(*args)

        return counted

    # --- installing the wrappers ---------------------------------------------

    def _patch(self, owner, attr, name, **kw):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def install(self):
        """Wrap the public functions of every liesys module; see ``uninstall``."""
        # Submodules by import: the package re-exports a function named integrate.
        (cli, acceptance, group, integrate, superposition, invariants, systems,
         vectorfield) = (importlib.import_module(f"liesys.{name}") for name in (
             "cli", "acceptance", "group", "integrate", "superposition",
             "invariants", "systems", "vectorfield"))
        self._domain_error = importlib.import_module("liesys.errors").DomainError

        def solve_args(args):
            return (self._counting("integrate.solve_rhs_calls", args[0]),) + args[1:]

        def solve_result(traj):
            self.counters["integrate.steps"] += len(traj.times) - 1

        def quad_args(args):
            return (self._counting("integrate.quadrature_integrand_evals", args[0]),) + args[1:]

        def dense_args(args):
            t = args[1]
            points = getattr(t, "size", None)  # numpy scalars and arrays
            if points is None:
                points = len(t) if isinstance(t, (list, tuple)) else 1
            self.counters["integrate.dense_points"] += points
            return args

        def write_args(args):
            self.counters["cli.write_bytes"] += len(args[1].encode())
            return args

        self._patch(systems.SystemDef, "rhs", "systems.rhs", keep=False)
        for mod in (systems, group):
            self._patch(mod, "integrate", "integrate.solve", before=solve_args,
                        after=solve_result)
        self._patch(integrate.Trajectory, "dense", "integrate.dense", keep=False,
                    before=dense_args)
        for mod in (group, superposition, invariants):
            self._patch(mod, "quadrature", "integrate.quadrature", keep=False,
                        before=quad_args)

        self._patch(group, "tau_grid", "group.tau_grid")
        self._patch(group, "tau_reparametrization", "group.tau_reparametrization",
                    keep=False)
        for attr in ("reduce_oscillator", "reduce_pinney_from_oscillator",
                     "reduce_pinney_from_pinney"):
            self._patch(group, attr, "group.reduce")
        self._patch(group, "pinney_action", "group.pinney_action", keep=False)
        self._patch(group, "sl2_exp", "group.sl2_exp", keep=False)
        self._patch(group, "solve_group_equation", "group.solve_group_equation")

        self._patch(superposition, "pinney_rule", "superposition.pinney_rule",
                    keep=False)
        for mod in (cli, acceptance):
            self._patch(mod, "quadrature_rule", "superposition.quadrature_rule")
            self._patch(mod, "pinney_rule_from_solutions",
                        "superposition.pinney_rule_from_solutions")
            self._patch(mod, "drift", "invariants.drift")
            self._patch(mod, "generalized_invariant",
                        "invariants.generalized_invariant", keep=False)
            self._patch(mod, "minimal_m", "vectorfield.minimal_m")

        for mod in (cli, vectorfield):
            self._patch(mod, "bracket", "vectorfield.bracket", keep=False)
        self._patch(acceptance, "verify_algebra", "vectorfield.verify_algebra")

        for attr in ("build_frequency", "build_system", "_initial_states",
                     "_t_span", "_tolerances", "_sample_times"):
            self._patch(cli, attr, "cli.build")
        for attr in ("pipeline_integrate", "pipeline_drift", "pipeline_superpose",
                     "pipeline_reduce", "pipeline_verify_algebra",
                     "pipeline_minimal_m", "pipeline_group_solve"):
            self._patch(cli, attr, "cli.pipeline")
        for attr in ("write_csv", "write_summary"):
            self._patch(cli, attr, "cli.write")
        self._patch(cli, "_atomic_write", "cli.atomic_write", before=write_args)

        criteria = acceptance.ALL_CRITERIA
        for i, fn in enumerate(criteria):
            self._patches.append((criteria, i, fn))
            criteria[i] = self.wrap(f"acceptance.criterion_{i + 1}", fn)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, list):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


# (metric, unit, better): the per-layer metrics of a traced run, in
# BENCHMARK.json's order.
LAYER_METRICS = [
    ("systems.rhs_calls", "count", "lower"),
    ("systems.rhs_self_s", "s", "lower"),
    ("systems.rhs_us_per_call", "us", "lower"),
    ("integrate.solve_calls", "count", "lower"),
    ("integrate.solve_self_s", "s", "lower"),
    ("integrate.steps", "count", "lower"),
    ("integrate.rhs_calls_per_step", "ratio", "lower"),
    ("integrate.solve_failures", "count", "lower"),
    ("integrate.dense_calls", "count", "lower"),
    ("integrate.dense_points", "count", "lower"),
    ("integrate.dense_points_per_call", "ratio", "higher"),
    ("integrate.dense_self_s", "s", "lower"),
    ("integrate.quadrature_calls", "count", "lower"),
    ("integrate.quadrature_integrand_evals", "count", "lower"),
    ("integrate.quadrature_self_s", "s", "lower"),
    ("integrate.quadrature_failures", "count", "lower"),
    ("group.tau_grid_calls", "count", "lower"),
    ("group.tau_grid_s", "s", "lower"),
    ("group.tau_reparametrization_calls", "count", "lower"),
    ("group.reduce_calls", "count", "lower"),
    ("group.reduce_s", "s", "lower"),
    ("group.pinney_action_calls", "count", "lower"),
    ("group.pinney_action_self_s", "s", "lower"),
    ("group.domain_errors", "count", "lower"),
    ("group.sl2_exp_calls", "count", "lower"),
    ("group.solve_group_equation_s", "s", "lower"),
    ("superposition.pinney_rule_calls", "count", "lower"),
    ("superposition.pinney_rule_self_s", "s", "lower"),
    ("superposition.quadrature_rule_calls", "count", "lower"),
    ("superposition.quadrature_rule_s", "s", "lower"),
    ("superposition.pinney_rule_from_solutions_s", "s", "lower"),
    ("invariants.drift_calls", "count", "lower"),
    ("invariants.drift_self_s", "s", "lower"),
    ("invariants.generalized_invariant_calls", "count", "lower"),
    ("vectorfield.bracket_calls", "count", "lower"),
    ("vectorfield.verify_algebra_s", "s", "lower"),
    ("vectorfield.minimal_m_s", "s", "lower"),
    ("cli.build_s", "s", "lower"),
    ("cli.pipeline_s", "s", "lower"),
    ("cli.write_calls", "count", "lower"),
    ("cli.write_bytes", "bytes", "lower"),
    ("cli.write_s", "s", "lower"),
] + [(f"acceptance.criterion_{i}_s", "s", "lower") for i in range(1, 10)] + [
    ("bench.trace_overhead_s", "s", "lower"),
]


def layer_metrics(tracer, rounds, overhead_s):
    """Per-layer metrics per traced round (every round does the same work)."""
    stats, counters = tracer.stats, tracer.counters

    def calls(name):
        return stats[name][0] / rounds if name in stats else 0

    def incl(name):
        return stats[name][1] / rounds if name in stats else 0.0

    def own(name):
        return stats[name][2] / rounds if name in stats else 0.0

    def count(name):
        return counters.get(name, 0) / rounds

    def failures(name):
        return stats[name][4] / rounds if name in stats else 0

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "systems.rhs_calls": calls("systems.rhs"),
        "systems.rhs_self_s": own("systems.rhs"),
        "systems.rhs_us_per_call": 1e6 * ratio(own("systems.rhs"), calls("systems.rhs")),
        "integrate.solve_calls": calls("integrate.solve"),
        "integrate.solve_self_s": own("integrate.solve"),
        "integrate.steps": count("integrate.steps"),
        "integrate.rhs_calls_per_step": ratio(count("integrate.solve_rhs_calls"),
                                              count("integrate.steps")),
        "integrate.solve_failures": failures("integrate.solve"),
        "integrate.dense_calls": calls("integrate.dense"),
        "integrate.dense_points": count("integrate.dense_points"),
        "integrate.dense_points_per_call": ratio(count("integrate.dense_points"),
                                                 calls("integrate.dense")),
        "integrate.dense_self_s": own("integrate.dense"),
        "integrate.quadrature_calls": calls("integrate.quadrature"),
        "integrate.quadrature_integrand_evals": count("integrate.quadrature_integrand_evals"),
        "integrate.quadrature_self_s": own("integrate.quadrature"),
        "integrate.quadrature_failures": failures("integrate.quadrature"),
        "group.tau_grid_calls": calls("group.tau_grid"),
        "group.tau_grid_s": incl("group.tau_grid"),
        "group.tau_reparametrization_calls": calls("group.tau_reparametrization"),
        "group.reduce_calls": calls("group.reduce"),
        "group.reduce_s": incl("group.reduce"),
        "group.pinney_action_calls": calls("group.pinney_action"),
        "group.pinney_action_self_s": own("group.pinney_action"),
        "group.domain_errors": count("group.domain_errors"),
        "group.sl2_exp_calls": calls("group.sl2_exp"),
        "group.solve_group_equation_s": incl("group.solve_group_equation"),
        "superposition.pinney_rule_calls": calls("superposition.pinney_rule"),
        "superposition.pinney_rule_self_s": own("superposition.pinney_rule"),
        "superposition.quadrature_rule_calls": calls("superposition.quadrature_rule"),
        "superposition.quadrature_rule_s": incl("superposition.quadrature_rule"),
        "superposition.pinney_rule_from_solutions_s":
            incl("superposition.pinney_rule_from_solutions"),
        "invariants.drift_calls": calls("invariants.drift"),
        "invariants.drift_self_s": own("invariants.drift"),
        "invariants.generalized_invariant_calls": calls("invariants.generalized_invariant"),
        "vectorfield.bracket_calls": calls("vectorfield.bracket"),
        "vectorfield.verify_algebra_s": incl("vectorfield.verify_algebra"),
        "vectorfield.minimal_m_s": incl("vectorfield.minimal_m"),
        "cli.build_s": incl("cli.build"),
        "cli.pipeline_s": incl("cli.pipeline"),
        "cli.write_calls": calls("cli.write"),
        "cli.write_bytes": count("cli.write_bytes"),
        "cli.write_s": incl("cli.write"),
        "bench.trace_overhead_s": overhead_s,
    }
    for i in range(1, 10):
        values[f"acceptance.criterion_{i}_s"] = incl(f"acceptance.criterion_{i}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in LAYER_METRICS}
