"""Outside-in tracing of one CLI op, and aggregation into per-layer metrics.

Run as a child process in place of the ``branchedham`` console script:

    python3 perfbench/tracer.py TRACE_OUT <command> --config ... --out ...

It imports the package, wraps the public functions of each module at every
name they are looked up by, calls ``branchedham.cli.main`` and, when main
returns, writes the spans and counters it kept in memory to TRACE_OUT.  The
op therefore pays the same cold import and table builds as an untraced op.

Names bound with ``from ... import`` are separate bindings: classical and
specfun hold their own ``solve_rk45``, models its own ``lambert_w``,
classical its own ``gaussian_*``/``family_*`` functions, cli its own
``render_svg``.  Each of them gets the same wrapper as the defining module.

Scalar hot paths (more than ~1e5 calls per op) are counted, not timed:
``Potential.__call__``, the model velocity/Hamiltonian functions, the
quantum potential callables and ``DeformationProfile.potential_scalar``.
``lambert_w`` and ``ScaledGTable.scalar`` are timed on every 61st call only
(a prime stride, so the sample does not alias with the six-stage RK loops),
and their ``.s`` is that sample scaled up.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time

SAMPLE_STRIDE = 61


class Recorder:
    """Spans and counters of one op, kept in memory until the op ends."""

    def __init__(self):
        self.spans = []                  # [id, parent, name, t0, t1]
        self.stack = [0]
        self.counts = {}                 # name -> int, updated by span hooks
        self.hot = {}                    # name -> itertools.count
        self.sampled = {}                # name -> [sampled seconds]
        self._ids = itertools.count(1)

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(result, args, kwargs) may add counts."""
        spans, stack, clock, ids = self.spans, self.stack, time.perf_counter, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [next(ids), stack[-1], name, clock(), None]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def counter(self, name, fn):
        """Count calls only; one C-level next() per call."""
        tick = self.hot.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args):
            tick()
            return fn(*args)
        return wrapper

    def sampled_counter(self, name, fn):
        """Count calls and time every SAMPLE_STRIDE-th one."""
        seq = self.hot.setdefault(name, itertools.count())
        acc = self.sampled.setdefault(name, [0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args):
            if next(seq) % SAMPLE_STRIDE:
                return fn(*args)
            t0 = clock()
            result = fn(*args)
            acc[0] += clock() - t0
            return result
        return wrapper

    def dump(self) -> dict:
        counts = dict(self.counts)
        for name, seq in self.hot.items():
            counts[name] = next(seq)
        return {"spans": self.spans, "counts": counts,
                "sampled_s": {k: v[0] * SAMPLE_STRIDE for k, v in self.sampled.items()}}


def _patch(modules, attr, make_wrapper):
    """Install one wrapper at every binding of a function."""
    wrapped = make_wrapper(getattr(modules[0], attr))
    for mod in modules:
        setattr(mod, attr, wrapped)


def install(rec: Recorder) -> None:
    from branchedham import (_ode, classical, cli, deformation, models,
                             quantum, specfun, svg)

    # cli
    _patch([cli], "run", lambda f: rec.span("cli.run", f))
    _patch([cli], "validate_config",
           lambda f: rec.span("cli.validate_config", f))

    # specfun
    _patch([specfun, models], "lambert_w",
           lambda f: rec.sampled_counter("specfun.lambert_w", f))
    table = specfun.ScaledGTable
    table.__init__ = rec.span("specfun.g_table_build", table.__init__)
    table.scalar = rec.sampled_counter("specfun.g_table_scalar", table.scalar)
    vector = table.__call__

    def g_table_vector(self, p):
        rec.add("specfun.g_table_vector.points", _size(p))
        return vector(self, p)
    table.__call__ = g_table_vector

    # models
    models.Potential.__call__ = rec.counter("models.potential", models.Potential.__call__)
    for name in ("gaussian_hamiltonian", "family_hamiltonian"):
        _patch([models, classical], name,
               lambda f: rec.counter("models.hamiltonian", f))
    for name in ("gaussian_velocity", "family_velocity"):
        _patch([models, classical], name,
               lambda f: rec.counter("models.velocity", f))

    # _ode
    _patch([_ode, classical, specfun], "solve_rk45",
           lambda f: _traced_rk45(rec, f))

    # quantum
    _patch([quantum], "shoot", lambda f: rec.span("quantum.shoot", f))
    _patch([quantum], "solve_eigenvalue",
           lambda f: rec.span("quantum.solve_eigenvalue", f))
    _patch([quantum], "spectrum", lambda f: rec.span(
        "quantum.spectrum", f, after=lambda r, a, k: rec.add("quantum.eigenvalues", len(r))))
    u_callable = quantum.PotentialProfile.u_callable

    def counted_u_callable(self):
        return rec.counter("quantum.potential_evals", u_callable(self))
    quantum.PotentialProfile.u_callable = counted_u_callable

    # classical
    _patch([classical], "energy_contour", lambda f: rec.span(
        "classical.energy_contour", f,
        after=lambda r, a, k: rec.add("classical.contour_vertices",
                                      sum(len(line) for line in r))))
    _patch([classical], "integrate_branch_flow", lambda f: rec.span(
        "classical.integrate_branch_flow", f,
        after=lambda r, a, k: rec.add("classical.switch_events", len(r.events))))
    _patch([classical], "integrate_lagrangian_flow",
           lambda f: rec.span("classical.integrate_lagrangian_flow", f))

    # deformation
    _patch([deformation], "shared_g_table",
           lambda f: rec.span("deformation.shared_g_table", f))
    profile = deformation.DeformationProfile
    profile.potential_scalar = rec.counter("deformation.potential_scalar",
                                           profile.potential_scalar)
    for name in ("w", "phi0", "potential"):
        setattr(profile, name, rec.span("deformation.sample", getattr(profile, name)))
    profile.residuals = rec.span("deformation.residuals", profile.residuals)

    # svg
    _patch([svg, cli], "render_svg", lambda f: rec.span(
        "svg.render_svg", f,
        after=lambda r, a, k: rec.add("svg.points", sum(len(s.points) for s in a[0]))))

    # writers
    for mod, names in ((classical, ("contours_to_csv", "trajectory_to_csv",
                                    "trajectory_to_json")),
                       (quantum, ("eigensolution_to_csv", "spectrum_to_json")),
                       (deformation, ("profile_to_csv",))):
        for name in names:
            _patch([mod], name, lambda f: rec.span("io.write", f))


def _size(p) -> int:
    return int(getattr(p, "size", 1))


def _traced_rk45(rec: Recorder, solve):
    """Span around solve_rk45 plus step counts derived from the outside.

    Every attempted step makes six right-hand-side calls and the first
    stage one more, so rejected = (rhs - 1)/6 - accepted; the result
    carries accepted (n_steps, forced included) and forced (n_forced).
    """
    timed = rec.span("ode.solve_rk45", solve)

    @functools.wraps(solve)
    def wrapper(f, *args, **kwargs):
        n = [0]

        def rhs(t, y):
            n[0] += 1
            return f(t, y)
        try:
            res = timed(rhs, *args, **kwargs)
        finally:
            rec.add("ode.rhs_evals", n[0])
        rec.add("ode.steps_accepted", res.n_steps)
        rec.add("ode.steps_forced", res.n_forced)
        if n[0]:
            rec.add("ode.steps_rejected", (n[0] - 1) // 6 - res.n_steps)
        return res
    return wrapper


# ---------------------------------------------------------------------------
# aggregation (parent side)
# ---------------------------------------------------------------------------

# counters that repeat exactly for a fixed seed
DETERMINISTIC = (
    "specfun.lambert_w.calls", "specfun.g_table_build.calls",
    "specfun.g_table_scalar.calls", "specfun.g_table_vector.points",
    "models.potential.calls", "models.hamiltonian.calls", "models.velocity.calls",
    "ode.solve_rk45.calls", "ode.steps_accepted", "ode.steps_rejected",
    "ode.steps_forced", "ode.rhs_evals",
    "quantum.shoot.calls", "quantum.potential_evals", "quantum.solve_eigenvalue.calls",
    "quantum.eigenvalues",
    "classical.energy_contour.calls", "classical.contour_vertices",
    "classical.switch_events",
    "deformation.shared_g_table.calls", "deformation.potential_scalar.calls",
    "svg.render_svg.calls", "svg.points", "io.bytes", "io.files",
)


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer totals over the traced ops (values only; units in run.py)."""
    calls, incl, self_s, counts, sampled = {}, {}, {}, {}, {}
    for tr in traces:
        child, names = {}, {}
        for sid, parent, name, t0, t1 in tr["spans"]:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
            names[sid] = name
        for sid, parent, name, t0, t1 in tr["spans"]:
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + (t1 - t0)
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child.get(sid, 0.0)
            # a direct solve yields one eigenvalue; spectrum() counts its own
            if name == "quantum.solve_eigenvalue" \
                    and names.get(parent) != "quantum.spectrum":
                counts["quantum.eigenvalues"] = counts.get("quantum.eigenvalues", 0) + 1
        for name, v in tr["counts"].items():
            counts[name] = counts.get(name, 0) + v
        for name, v in tr["sampled_s"].items():
            sampled[name] = sampled.get(name, 0.0) + v

    def c(name):
        return counts.get(name, 0)

    accepted, rejected = c("ode.steps_accepted"), c("ode.steps_rejected")
    shots, eigen = calls.get("quantum.shoot", 0), c("quantum.eigenvalues")
    return {
        "cli.run.s": incl.get("cli.run", 0.0),
        "cli.run.self_s": self_s.get("cli.run", 0.0),
        "cli.validate_config.s": incl.get("cli.validate_config", 0.0),
        "specfun.lambert_w.calls": c("specfun.lambert_w"),
        "specfun.lambert_w.s": sampled.get("specfun.lambert_w", 0.0),
        "specfun.g_table_build.calls": calls.get("specfun.g_table_build", 0),
        "specfun.g_table_build.s": incl.get("specfun.g_table_build", 0.0),
        "specfun.g_table_scalar.calls": c("specfun.g_table_scalar"),
        "specfun.g_table_scalar.s": sampled.get("specfun.g_table_scalar", 0.0),
        "specfun.g_table_vector.points": c("specfun.g_table_vector.points"),
        "models.potential.calls": c("models.potential"),
        "models.hamiltonian.calls": c("models.hamiltonian"),
        "models.velocity.calls": c("models.velocity"),
        "ode.solve_rk45.calls": calls.get("ode.solve_rk45", 0),
        "ode.solve_rk45.s": incl.get("ode.solve_rk45", 0.0),
        "ode.steps_accepted": accepted,
        "ode.steps_rejected": rejected,
        "ode.steps_forced": c("ode.steps_forced"),
        "ode.rhs_evals": c("ode.rhs_evals"),
        "ode.accept_ratio": accepted / (accepted + rejected) if accepted + rejected else 0.0,
        "quantum.shoot.calls": shots,
        "quantum.shoot.s": incl.get("quantum.shoot", 0.0),
        "quantum.potential_evals": c("quantum.potential_evals"),
        "quantum.solve_eigenvalue.calls": calls.get("quantum.solve_eigenvalue", 0),
        "quantum.solve_eigenvalue.self_s": self_s.get("quantum.solve_eigenvalue", 0.0),
        "quantum.spectrum.s": incl.get("quantum.spectrum", 0.0),
        "quantum.eigenvalues": eigen,
        "quantum.shots_per_eigenvalue": shots / eigen if eigen else 0.0,
        "classical.energy_contour.calls": calls.get("classical.energy_contour", 0),
        "classical.energy_contour.s": incl.get("classical.energy_contour", 0.0),
        "classical.contour_vertices": c("classical.contour_vertices"),
        "classical.integrate_branch_flow.s": incl.get("classical.integrate_branch_flow", 0.0),
        "classical.switch_events": c("classical.switch_events"),
        "classical.integrate_lagrangian_flow.s":
            incl.get("classical.integrate_lagrangian_flow", 0.0),
        "deformation.shared_g_table.calls": calls.get("deformation.shared_g_table", 0),
        "deformation.potential_scalar.calls": c("deformation.potential_scalar"),
        "deformation.sample.s": incl.get("deformation.sample", 0.0),
        "deformation.residuals.s": incl.get("deformation.residuals", 0.0),
        "svg.render_svg.calls": calls.get("svg.render_svg", 0),
        "svg.render_svg.s": incl.get("svg.render_svg", 0.0),
        "svg.points": c("svg.points"),
        "io.write.s": incl.get("io.write", 0.0),
        "io.bytes": c("io.bytes"),
        "io.files": c("io.files"),
    }


def _unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("ratio", "per_eigenvalue")):
        return "ratio"
    return "B" if name == "io.bytes" else "count"


# every per-layer metric a traced run reports, with its unit
LAYER_UNITS = {name: _unit(name)
               for name in [*layer_metrics([]), "trace.ops", "trace.overhead_s"]}


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    from branchedham import cli
    try:
        code = cli.main(cli_args)
    finally:
        with open(trace_out, "w") as fh:
            json.dump(rec.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
