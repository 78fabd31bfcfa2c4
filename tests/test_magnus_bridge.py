"""First-order Magnus bridge between the two engines.

With H_err = J Z_r Z_b + sum_q b_q . sigma_q, the cycle propagator is
U(tau_c) = U_c(tau_c) exp(-i K + O((eps tau_c)^2)), eps the largest coupling,
where to first order

    K = J sum chi2[a, b] sigma_a (x) sigma_b + sum_q sum b_q[mu] chi1_q[mu, a] sigma_a^(q).

``sim.cycle_propagator`` gives U and U_c (J = b = 0), so K = i logm(U_c^dag U)
comes from the full-Hamiltonian engine alone; the prediction comes from the
control engine's ``verify_first_order``.  A transposed control matrix or a
flipped drive frame in either engine breaks the agreement at first order.
"""
import math

import numpy as np
import pytest
from scipy.linalg import logm

from crdd.control import verify_first_order
from crdd.sequences import (
    ColoredSchedule, PulseShape, QubitGraph, cr_dd, cr_variant, pad, sim_dd, two_color,
)
from crdd.sim import DeviceModel, cycle_propagator

PAULI = (np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, -1j], [1j, 0]]),
         np.array([[1, 0], [0, -1]], dtype=complex))
GRAPH = two_color(QubitGraph.path(2))
TAU_P = 1.0
J = 1e-6 / TAU_P
SAMPLES = 256
# |K_sim - K_first_order| <= SECOND_ORDER (eps tau_c)^2 + FLOOR, with eps = J
# (every b component is drawn at most a few J).  Relative to the first-order
# scale J tau_c that is SECOND_ORDER * J tau_c.  The floor covers the RK4 and
# CF4 quadrature difference on shaped pulses and the rounding of logm; both
# sit near 1.4e-12 at 10x smaller couplings.
SECOND_ORDER = 2.0
FLOOR = 1e-11


def sim_generator(sched, b):
    """K = i logm(U_c^dag U) of one cycle with red on qubit 0, blue on qubit 1."""
    seqs = [sched.red, sched.blue]
    u_c = cycle_propagator(DeviceModel(GRAPH, [0.0], np.zeros((2, 3)), TAU_P), seqs, SAMPLES)
    u = cycle_propagator(DeviceModel(GRAPH, [J], b, TAU_P), seqs, SAMPLES)
    return 1j * logm(u_c.conj().T @ u)


def first_order_generator(sched, b):
    chi = {}
    for kind, a, c, v, _ in verify_first_order(sched, SAMPLES).rows:
        chi.setdefault(kind, np.zeros((3, 3)))["XYZ".index(a), "XYZ".index(c)] = v
    k = J * sum(chi["two_local"][a, c] * np.kron(PAULI[a], PAULI[c])
                for a in range(3) for c in range(3))
    for q, color in enumerate(("red", "blue")):
        field = b[q] @ chi[f"one_local_{color}"]
        op = sum(field[a] * PAULI[a] for a in range(3))
        k = k + (np.kron(op, np.eye(2)) if q == 0 else np.kron(np.eye(2), op))
    return k


def assert_bridge(sched, b):
    err = np.abs(sim_generator(sched, b) - first_order_generator(sched, b)).max()
    assert err <= SECOND_ORDER * (J * sched.duration) ** 2 + FLOOR


def fields(rng, shape):
    """Random static fields of order J.  Shaped pulses get Z fields only, so
    ``sim`` shares their propagators across drive phases by the Z frame."""
    b = rng.normal(size=(2, 3)) * J
    if shape.kind in ("gaussian", "gaussian_drag"):
        b[:, :2] = 0.0
    return b


KINDS = ("square", "gaussian", "gaussian_drag", "ideal")
MODES = ("symmetric", "asymmetric")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", KINDS)
def test_random_phase_pairs(kind, mode):
    # four seeded random phases per color, so chi2 does not cancel
    rng = np.random.default_rng([2025, KINDS.index(kind), MODES.index(mode)])
    shape = PulseShape(kind)
    phases = rng.uniform(0.0, 2 * math.pi, (2, 4))
    sched = pad(cr_variant(phases[0], phases[1], TAU_P, shape), TAU_P, mode)
    b = fields(rng, shape)
    assert_bridge(sched, b)
    # the check has something to see: a term enters K at first order
    chi2_rel = verify_first_order(sched, SAMPLES).two_local_max_relative
    if kind == "ideal":
        # ideal pi pulses turning mid-slot flip Z, so a true stagger cancels
        # chi2 for any phases; the one-local fields are left to see
        assert chi2_rel <= 1e-12
        assert np.abs(first_order_generator(sched, b)).max() > 1000 * FLOOR
    else:
        assert J * chi2_rel * sched.duration > 1000 * FLOOR


@pytest.mark.parametrize("red, blue, kind", [("XY4", None, "square"),
                                             ("XY4", "UR12", "gaussian_drag")])
def test_catalog_schedules(red, blue, kind):
    # chi2 cancels, so the ZZ coupling enters K at second order only; the
    # DRAG case has Z fields only, so there K is second order throughout
    shape = PulseShape(kind)
    sched = cr_dd(red, blue, tau_p=TAU_P, shape=shape)
    assert_bridge(sched, fields(np.random.default_rng(7), shape))


def test_sim_xy4_2_closed_form():
    # the full-Hamiltonian engine alone reproduces chi2_ZZ = 4 tau_d + 2 tau_p
    seq = sim_dd("XY4", 2, TAU_P, PulseShape.square())
    k = sim_generator(ColoredSchedule(seq, seq), np.zeros((2, 3)))
    zz = np.trace(k @ np.kron(PAULI[2], PAULI[2])).real / 4
    tau_d = TAU_P
    assert abs(zz - J * (4 * tau_d + 2 * TAU_P)) <= (SECOND_ORDER * (J * seq.duration) ** 2
                                                     + FLOOR)
