"""Layer tracing for the benchmark, installed from outside the package.

Every wrapper replaces one genpos function on *every* module that binds it
(``statements``, ``positions``, ``resolving`` and ``cliques`` import names with
``from .graphs import ...``), so no call path escapes the count.  Three kinds
of wrapper exist:

* span:    timed, and recorded as a span (name, start, end, parent, task id);
* timed:   timed and counted, but too frequent to keep one span per call;
* counted: counted only (called hundreds of thousands of times per run).

Self time of a call is its duration minus the durations of the timed calls
nested directly inside it.  Spans stay in memory and are written out at the
end.  Pool workers are forked after installation, so they inherit the
wrappers; each worker ships its counts, self times and spans back through a
file written when the worker exits.
"""

from __future__ import annotations

import os
import pickle
import resource
import sys
import time
import weakref
from collections import defaultdict

from speed import Speedometer

SPAN, TIMED, COUNTED = "span", "timed", "counted"

# (module, attribute, metric key, kind).  Attributes with a dot name a method
# or property of a class in that module.
LAYER_FUNCTIONS = [
    ("graphs", "all_pairs_distances", "graphs.apd", SPAN),
    ("graphs", "is_connected", "graphs.connectivity", COUNTED),
    ("graphs", "require_connected", "graphs.connectivity", COUNTED),
    ("graphs", "DistanceMatrix.is_connected_matrix", "graphs.connectivity", COUNTED),
    ("resolving", "boundary", "resolving.boundary", SPAN),
    ("resolving", "is_maximally_distant", "resolving.max_distant", COUNTED),
    ("resolving", "check_mmd_product_cases", "resolving.mmd_case", TIMED),
    ("resolving", "strong_resolving_graph", "resolving.aux", SPAN),
    ("resolving", "g2bar", "resolving.aux", SPAN),
    ("resolving", "tf_boundary_and_srs", "resolving.aux", SPAN),
    ("resolving", "prune_isolated", "resolving.aux", SPAN),
    ("cliques", "max_clique", "cliques.max_clique", SPAN),
    ("cliques", "independence_number", "cliques.other", SPAN),
    ("cliques", "alpha_k", "cliques.other", SPAN),
    ("positions", "max_gp_oracle", "positions.gp_oracle", SPAN),
    ("positions", "max_outer_oracle", "positions.outer_oracle", SPAN),
    ("positions", "max_dual_oracle", "positions.dual_oracle", SPAN),
    ("positions", "_max_dual_characterization", "positions.dual_char", SPAN),
    ("positions", "max_total_oracle", "positions.total", SPAN),
    ("positions", "gp_total", "positions.total", SPAN),
    ("positions", "compute_bundle", "positions.bundle", SPAN),
    ("products", "strong_product", "products.build", SPAN),
    ("products", "lexicographic_product", "products.build", SPAN),
    ("graph6", "write_graph6", "graph6.write", TIMED),
]

# First builds of DistanceMatrix.blockers are spans; every access is counted
# under this key so the self-test can compare it with cProfile.
BLOCKERS_KEY = "graphs.blockers"
BLOCKERS_ACCESS_KEY = "graphs.blockers_access"
POOL_TASK_KEY = "pool.task"


class Tracer:
    """Counts, self times and spans of one process."""

    def __init__(self, record_spans: bool = True):
        self.record_spans = record_spans
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (id, parent, task, name, start, end)
        self.speed = Speedometer()
        self.tasks: list[tuple] = []  # (statement, operation, start, end, net seconds)
        self.task_times: list[tuple] = []  # (statement, operation, seconds, reference seconds)
        self.vertices_built = 0
        self.stack: list[list] = []  # [span id, start, child seconds]
        self.next_id = 0
        self.task = None

    def reset(self) -> None:
        """Forget everything recorded; the wrappers keep their references."""
        self.counts.clear()
        self.self_s.clear()
        self.spans.clear()
        self.speed = Speedometer()
        self.tasks.clear()
        self.task_times.clear()
        self.stack.clear()
        self.vertices_built = 0
        self.task = None

    def enter(self) -> list:
        frame = [self.next_id, time.perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, key: str, name: str, record: bool) -> float:
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame[1]
        self.self_s[key] += dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur
        if record and self.record_spans:
            parent = self.stack[-1][0] if self.stack else None
            self.spans.append((frame[0], parent, self.task, name, frame[1], end))
        return dur

    def wrap(self, fn, key: str, name: str, kind: str):
        counts = self.counts
        if kind == COUNTED:
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return _like(counted, fn)
        record = kind == SPAN

        def timed(*args, **kwargs):
            counts[key] += 1
            frame = self.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(frame, key, name, record)
        return _like(timed, fn)

    def task_span(self, name: str, task, sid, op, fn, *args):
        """Run fn(*args) as the root span of one task; returns (result, seconds).

        ``sid`` is the statement the task checks (or None) and ``op`` the
        operation it is part of: the tasks of one operation add up.

        Speed probes run before and after, outside the task's time; probes
        from the timer inside it are subtracted from the time recorded."""
        self.speed.tick()
        busy = self.speed.busy
        self.task = task
        frame = self.enter()
        try:
            result = fn(*args)
        finally:
            dur = self.leave(frame, name, name, True)
            self.task = None
            net = dur - (self.speed.busy - busy)
            self.tasks.append((sid, op, frame[1], frame[1] + dur, net))
            self.speed.tick()
        return result, net

    def finish_tasks(self) -> None:
        """Move own tasks to task_times, with their time at reference speed."""
        for sid, op, start, end, net in self.tasks:
            self.task_times.append((sid, op, net, net * self.speed.factor(start, end)))
        self.tasks.clear()


def _like(wrapper, fn):
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(wrapper, attr, getattr(fn, attr))
    wrapper.__wrapped__ = fn
    return wrapper


def _genpos_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "genpos" or name.startswith("genpos."))]


class Installation:
    """Wrappers placed on every module binding; ``remove`` restores them all."""

    def __init__(self):
        self.undo: list[tuple[object, str, object]] = []

    def replace_everywhere(self, original, replacement) -> None:
        for mod in _genpos_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def set(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()


def layer_originals() -> dict[str, tuple[str, object]]:
    """{"module.attr": (metric key, function)} for every layer function that
    exists in this version of genpos; a function a later change removed or
    renamed is left out, and its metrics read 0."""
    import genpos.graphs as graphs

    found = {}
    for module, attr, key, kind in LAYER_FUNCTIONS:
        owner = sys.modules[f"genpos.{module}"]
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        fn = None if owner is None else vars(owner).get(name)
        if callable(fn):
            found[f"{module}.{attr}"] = (key, fn)
    prop = vars(graphs.DistanceMatrix).get("blockers")
    if isinstance(prop, property):
        found["graphs.DistanceMatrix.blockers"] = (BLOCKERS_ACCESS_KEY, prop.fget)
    return found


def install_layers(tracer: Tracer) -> Installation:
    """Wrap every layer function of LAYER_FUNCTIONS and the blockers property."""
    inst = Installation()
    present = layer_originals()
    for module, attr, key, kind in LAYER_FUNCTIONS:
        name = f"{module}.{attr}"
        if name not in present:
            print(f"perfbench: genpos.{name} not found; its metrics read 0",
                  file=sys.stderr)
            continue
        original = present[name][1]
        wrapper = tracer.wrap(original, key, name, kind)
        if "." in attr:
            cls_name, meth = attr.split(".")
            inst.set(getattr(sys.modules[f"genpos.{module}"], cls_name), meth, wrapper)
            continue
        if key == "products.build":
            wrapper = _counting_vertices(tracer, wrapper)
        inst.replace_everywhere(original, wrapper)

    if "graphs.DistanceMatrix.blockers" not in present:
        return inst
    fget = present["graphs.DistanceMatrix.blockers"][1]
    built = weakref.WeakSet()

    def blockers(dm):
        tracer.counts[BLOCKERS_ACCESS_KEY] += 1
        if dm in built:
            return fget(dm)
        built.add(dm)
        tracer.counts[BLOCKERS_KEY] += 1
        frame = tracer.enter()
        try:
            return fget(dm)
        finally:
            tracer.leave(frame, BLOCKERS_KEY, "graphs.DistanceMatrix.blockers", True)

    inst.set(sys.modules["genpos.graphs"].DistanceMatrix, "blockers",
             property(_like(blockers, fget)))
    return inst


def _counting_vertices(tracer: Tracer, wrapper):
    def build(*args, **kwargs):
        product = wrapper(*args, **kwargs)
        tracer.vertices_built += product.graph.n
        return product
    return _like(build, wrapper.__wrapped__)


# ---------------------------------------------------------------------------
# statement tasks inside run_suite, including its process pool


class TaskRecorder:
    """Wraps ``statements._run_instance``: one task per statement x instance.

    The wrapper runs wherever run_suite runs the task: in this process when
    jobs is 1, else in a forked pool worker.  A worker keeps its records in
    memory and writes them to ``outdir`` when it exits; ``collect`` merges
    them after run_suite has shut the pool down.
    """

    def __init__(self, tracer: Tracer, outdir: str):
        self.tracer = tracer
        self.outdir = outdir
        self.parent_pid = os.getpid()
        self.worker_pid = None

    def install(self, inst: Installation) -> None:
        import genpos.statements as statements

        original = statements._run_instance
        tracer = self.tracer

        def run_instance(args):
            if os.getpid() != self.parent_pid and self.worker_pid != os.getpid():
                self._start_worker()
            sid, instance = args
            # One operation is one corpus graph through every statement, both
            # alone and as the first graph of its rotation pair.
            entry = instance[0] if isinstance(instance, tuple) else instance
            result, _ = tracer.task_span(f"statements.{sid}", tracer.next_id, sid,
                                         hash(entry), original, args)
            if os.getpid() != self.parent_pid:
                tracer.counts[POOL_TASK_KEY] += 1
            return result

        inst.set(statements, "_run_instance", _like(run_instance, original))

    def _start_worker(self) -> None:
        from multiprocessing import util

        self.worker_pid = os.getpid()
        self.tracer.reset()  # drop what the parent had recorded before the fork
        self.tracer.next_id = self.worker_pid << 32  # span ids unique across workers
        util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        t = self.tracer
        t.finish_tasks()
        state = {
            "counts": dict(t.counts),
            "self_s": dict(t.self_s),
            "spans": t.spans,
            "task_times": t.task_times,
            "vertices_built": t.vertices_built,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        path = os.path.join(self.outdir, f"worker-{os.getpid()}.pkl")
        with open(path + ".tmp", "wb") as fh:
            pickle.dump(state, fh)
        os.replace(path + ".tmp", path)

    def collect(self) -> list[dict]:
        """Merge and delete the worker files; returns the per-worker states."""
        states = []
        for name in sorted(os.listdir(self.outdir)):
            if name.startswith("worker-") and name.endswith(".pkl"):
                path = os.path.join(self.outdir, name)
                with open(path, "rb") as fh:
                    state = pickle.load(fh)
                os.remove(path)
                states.append(state)
        t = self.tracer
        for s in states:
            for k, v in s["counts"].items():
                t.counts[k] += v
            for k, v in s["self_s"].items():
                t.self_s[k] += v
            t.spans.extend(s["spans"])
            t.task_times.extend(s["task_times"])
            t.vertices_built += s["vertices_built"]
        return states
