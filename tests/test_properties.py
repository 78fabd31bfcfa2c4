"""Property tests: generated devices and schedules against independent
oracles.  Examples are derandomized and no example database is kept, so
every run draws the same examples."""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from crdd.sequences import QubitGraph, cr_variant, pad
from crdd.sim import DeviceModel, cycle_propagator
from test_sim import DRAG, colour_schedules, lab_frame_rk4, span_kinds

TAU_P = 5.69e-8
J = 5e-3 / TAU_P


@st.composite
def bipartite_devices(draw):
    """2-3 qubits split into two sides, each cross pair an edge or not, with
    J in [0.5, 1.5] x 5e-3 / tau_p per edge and Z fields within +/- 0.2 J."""
    n = draw(st.integers(2, 3))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
    edges = tuple(p for p in pairs if draw(st.booleans()))
    zz = draw(st.lists(st.floats(0.5, 1.5), min_size=len(edges), max_size=len(edges)))
    bz = draw(st.lists(st.floats(-0.2, 0.2), min_size=n, max_size=n))
    b = np.zeros((n, 3))
    b[:, 2] = np.array(bz) * J
    return DeviceModel(QubitGraph(n, edges), np.array(zz) * J, b, TAU_P).colored()


@st.composite
def cr_schedules(draw):
    """A stagger of random equal-length red and blue phase lists, padded by
    0 or tau_p in either mode."""
    length = draw(st.integers(1, 3))
    phases = st.lists(st.floats(0.0, 2 * math.pi), min_size=length, max_size=length)
    sched = cr_variant(draw(phases), draw(phases), TAU_P, DRAG)
    return pad(sched, draw(st.sampled_from([0.0, TAU_P])),
               draw(st.sampled_from(["symmetric", "asymmetric"])))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(dev=bipartite_devices(), sched=cr_schedules())
def test_factored_cr_cycle_matches_lab_frame(dev, sched):
    # a CR stagger never drives both colours at once, so with no static X/Y
    # field every pulsed piece is factored.  Random phases do not cancel
    # pulse errors as the catalog does (a lone DRAG pulse is 2.2e-12 from
    # converged at 256 CF4 steps), so both grids are refined until the
    # bound tests the factorization, not the step
    seqs = colour_schedules(dev, sched)
    assert span_kinds(dev, seqs)["rk4"] == 0
    u = cycle_propagator(dev, seqs, samples_per_pulse=1024)
    assert np.abs(u - lab_frame_rk4(dev, seqs, 2048)).max() < 1e-12
