import math

import numpy as np
import pytest

from branchedham._ode import Event, SampleCollector, solve_rk45


def osc_tuple(t, y):
    return (y[1], -y[0])


def osc_array(t, y):
    return np.array([y[1], -y[0]])


def g_tuple(t, y):
    return (1.0 - 2.0 * math.sqrt(t) * y[0],)


def g_array(t, y):
    return np.array([1.0 - 2.0 * math.sqrt(t) * y[0]])


# (rhs variants, y0, t0, t1, solver options)
PROBLEMS = {
    "1d": ((g_tuple, g_array), [0.04], 0.05, 20.0,
           dict(rtol=1e-11, atol=1e-16)),
    "2d": ((osc_tuple, osc_array), [1.0, 0.0], 0.0, 10.0,
           dict(rtol=1e-9, atol=1e-12, first_step=2.0)),
}


def solve_counted(f, y0, t0, t1, **kw):
    """solve_rk45 plus the times of every RHS call and the dense segments."""
    times, segs = [], []

    def rhs(t, y):
        times.append(t)
        return f(t, y)

    def on_dense(seg):
        segs.append(seg)

    res = solve_rk45(rhs, t0, y0, t1, on_dense=on_dense, **kw)
    return res, times, segs


def hexes(values):
    return [float(v).hex() for v in values]


class TestSolveRk45:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_rhs_calls_are_one_plus_six_per_attempt(self, name):
        (f, _), y0, t0, t1, kw = PROBLEMS[name]
        res, times, segs = solve_counted(f, y0, t0, t1, **kw)
        assert (len(times) - 1) % 6 == 0
        attempts = [times[1 + 6 * i: 7 + 6 * i] for i in range((len(times) - 1) // 6)]
        # stages 6 and 7 of an attempt both sit at its end time t + h
        assert all(a[4] == a[5] for a in attempts)
        accepted_ends = {seg.t1 for seg in segs}
        accepted = sum(a[5] in accepted_ends for a in attempts)
        rejected = len(attempts) - accepted
        assert accepted == res.n_steps == len(segs)
        assert len(times) == 1 + 6 * (accepted + rejected)
        if name == "2d":  # the oversized first step must be rejected
            assert rejected > 0

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_same_result_for_list_array_tuple_inputs(self, name):
        fs, y0, t0, t1, kw = PROBLEMS[name]
        results = []
        for f in fs:
            for start in (list(y0), np.array(y0)):
                coll = SampleCollector(np.linspace(t0, t1, 11))
                res = solve_rk45(f, t0, start, t1, on_dense=coll, **kw)
                assert isinstance(res.y, np.ndarray) and res.y.dtype == float
                results.append((res.t, hexes(res.y), res.n_steps,
                                [hexes(v) for v in coll.values]))
        assert all(r == results[0] for r in results[1:])

    def test_pinned_bits(self):
        # values of the numpy-vector implementation this integrator replaced
        (f, _), y0, t0, t1, kw = PROBLEMS["2d"]
        res, times, _ = solve_counted(f, y0, t0, t1, **kw)
        assert hexes(res.y) == ["-0x1.ad9ac88aaacb9p-1", "0x1.1689ef5bf7cc9p-1"]
        assert (res.n_steps, len(times)) == (216, 1345)
        (f, _), y0, t0, t1, kw = PROBLEMS["1d"]
        res, times, _ = solve_counted(f, y0, t0, t1, **kw)
        assert hexes(res.y) == ["0x1.cb3dc73260f68p-4"]
        assert (res.n_steps, len(times)) == (1078, 6481)

    def test_collector_samples_are_floats(self):
        coll = SampleCollector(np.linspace(0.0, 2.0, 9))
        solve_rk45(osc_tuple, 0.0, [1.0, 0.0], 2.0, on_dense=coll)
        assert len(coll.taken) == len(coll.values) == 9
        assert all(type(t) is float for t in coll.taken)
        assert all(type(v) is float for vals in coll.values for v in vals)

    def test_event_result(self):
        res = solve_rk45(osc_tuple, 0.0, [1.0, 0.0], 10.0, rtol=1e-9, atol=1e-12,
                         events=[Event(lambda t, y: y[0], -1)])
        assert res.status == "event" and res.event_index == 0
        assert isinstance(res.y, np.ndarray)
        assert res.t.hex() == "0x1.921fb544347e5p+0"
        assert res.t == pytest.approx(math.pi / 2, abs=1e-8)

    def test_zero_span_returns_array(self):
        res = solve_rk45(osc_tuple, 1.0, (2.0, 3.0), 1.0)
        assert res.status == "reached"
        assert isinstance(res.y, np.ndarray)
        assert res.y.tolist() == [2.0, 3.0]
