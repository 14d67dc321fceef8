"""Statevector simulator: gates, reduced density matrices, Pauli sampling."""
import numpy as np
import numpy.testing as npt
import pytest

from mixedprep import (
    BadLabelError,
    Circuit,
    Cnot,
    IndexOutOfRangeError,
    MultiControlledRy,
    NotUnitaryError,
    OutOfRangeError,
    Ry,
    UnitaryBlock,
    apply_gate,
    compile_real_state,
    kron,
    partial_trace,
    reduced_density,
    run,
    sample_pauli,
    sample_pauli_expectations,
    zero_state,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def basis(n, idx):
    v = np.zeros(2 ** n, dtype=complex)
    v[idx] = 1.0
    return v


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return v / np.linalg.norm(v)


def bell_state():
    return run(Circuit(2, [Ry(0, np.pi / 2), Cnot(0, 1)]))


def test_cnot_flips_target():
    # qubit 0 is the most significant bit: |10> has index 2
    out = apply_gate(basis(2, 0b10), Cnot(0, 1))
    npt.assert_array_equal(out, basis(2, 0b11))
    out = apply_gate(basis(2, 0b01), Cnot(0, 1))  # control clear: no-op
    npt.assert_array_equal(out, basis(2, 0b01))
    out = apply_gate(basis(2, 0b01), Cnot(1, 0))  # reversed roles
    npt.assert_array_equal(out, basis(2, 0b11))


def test_ry_half_pi():
    out = apply_gate(basis(1, 0), Ry(0, np.pi / 2))
    npt.assert_allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


def test_ry_matrix_convention():
    # columns (cos, sin) and (-sin, cos)
    theta = 0.73
    out = apply_gate(basis(1, 0), Ry(0, theta))
    npt.assert_allclose(out, [np.cos(theta / 2), np.sin(theta / 2)], atol=1e-15)
    out = apply_gate(basis(1, 1), Ry(0, theta))
    npt.assert_allclose(out, [-np.sin(theta / 2), np.cos(theta / 2)], atol=1e-15)


def test_multicontrolled_ry_open_control():
    gate = MultiControlledRy(controls=((0, 0),), target=1, theta=np.pi)
    out = apply_gate(basis(2, 0b00), gate)
    npt.assert_allclose(out, basis(2, 0b01), atol=1e-15)
    # activation bit 0 means qubit-0 = 1 states are untouched
    out = apply_gate(basis(2, 0b10), gate)
    npt.assert_allclose(out, basis(2, 0b10), atol=1e-15)


def test_multicontrolled_ry_matches_dense_matrix():
    # 4x4 product check: closed control on qubit 0, Ry on qubit 1
    theta = 1.1
    gate = MultiControlledRy(controls=((0, 1),), target=1, theta=theta)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    dense = np.eye(4, dtype=complex)
    dense[2:, 2:] = [[c, -s], [s, c]]
    for seed in range(5):
        psi = random_state(2, seed)
        npt.assert_allclose(apply_gate(psi, gate), dense @ psi, atol=1e-14)


def test_unitary_block_application():
    psi = random_state(3, 3)
    # single-qubit block on each wire against the kron expansion
    for q, mats in [(0, (H, np.eye(2), np.eye(2))),
                    (1, (np.eye(2), H, np.eye(2))),
                    (2, (np.eye(2), np.eye(2), H))]:
        dense = kron(kron(mats[0], mats[1]), mats[2])
        out = apply_gate(psi, UnitaryBlock((q,), H))
        npt.assert_allclose(out, dense @ psi, atol=1e-14)


def test_unitary_block_ordering():
    # block qubit order (2, 0): qubit 2 is the block's own MSB
    rng = np.random.default_rng(8)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = np.linalg.qr(g)[0]
    psi = random_state(3, 4)
    out = apply_gate(psi, UnitaryBlock((2, 0), u))
    # build dense operator by permuting (q2, q0, q1) -> (q0, q1, q2)
    big = kron(u, np.eye(2)).reshape((2,) * 6)
    big = big.transpose((1, 2, 0, 4, 5, 3)).reshape(8, 8)
    npt.assert_allclose(out, big @ psi, atol=1e-13)


def test_unitary_block_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        apply_gate(basis(1, 0), UnitaryBlock((0,), np.ones((2, 2))))


def test_gate_index_bounds():
    with pytest.raises(IndexOutOfRangeError):
        apply_gate(basis(2, 0), Ry(2, 0.3))
    with pytest.raises(IndexOutOfRangeError):
        apply_gate(basis(2, 0), Cnot(0, 5))


def test_norm_preserved():
    psi = random_state(4, 11)
    gates = [
        Ry(2, 0.4),
        Cnot(1, 3),
        MultiControlledRy(((0, 1), (1, 0)), 2, 2.2),
        UnitaryBlock((3,), H),
    ]
    for g in gates:
        psi = apply_gate(psi, g)
        npt.assert_allclose(np.linalg.norm(psi), 1.0, atol=1e-12)


def test_run_empty_circuit():
    npt.assert_array_equal(run(Circuit(2, [])), basis(2, 0))


def test_run_bell():
    npt.assert_allclose(bell_state(), [1, 0, 0, 1] / np.sqrt(2), atol=1e-15)


def test_run_matches_compiled_amplitudes():
    amps = np.sqrt([0.4, 0.3, 0.2, 0.1])
    npt.assert_allclose(run(compile_real_state(amps)), amps, atol=1e-12)


def test_run_validates():
    with pytest.raises(IndexOutOfRangeError):
        run(Circuit(1, [Cnot(0, 1)]))
    with pytest.raises(OutOfRangeError):
        run(Circuit(25, []))
    with pytest.raises(OutOfRangeError):
        zero_state(0)


@pytest.mark.parametrize("theta", [float("inf"), float("-inf"), float("nan")])
def test_run_rejects_non_finite_angle(theta):
    with pytest.raises(OutOfRangeError, match="not finite"):
        run(Circuit(1, [Ry(0, theta)]))
    with pytest.raises(OutOfRangeError, match="not finite"):
        run(Circuit(2, [MultiControlledRy(((0, 1),), 1, theta)]))


def test_reduced_density_bell():
    npt.assert_allclose(reduced_density(bell_state(), {0}), np.eye(2) / 2, atol=1e-15)


def test_reduced_density_product():
    psi = kron(basis(1, 0).reshape(2, 1), basis(1, 1).reshape(2, 1)).reshape(-1)
    npt.assert_allclose(reduced_density(psi, {1}), [[0, 0], [0, 1]], atol=0)


def test_reduced_density_matches_partial_trace():
    for n in range(2, 7):
        psi = random_state(n, 50 + n)
        full = np.outer(psi, psi.conj())
        for keep in ({0}, {n - 1}, {0, n - 1}, set(range(n - 1))):
            npt.assert_allclose(
                reduced_density(psi, keep),
                partial_trace(full, keep, n),
                atol=1e-12,
            )


def test_reduced_density_errors():
    with pytest.raises(IndexOutOfRangeError):
        reduced_density(basis(2, 0), {4})
    with pytest.raises(IndexOutOfRangeError):
        reduced_density(basis(2, 0), set())


def test_sample_z_on_basis_state():
    res, est = sample_pauli(basis(1, 0), "Z", 100, 3)
    assert est == 1.0
    assert res.counts == {"0": 100}
    assert res.shots == 100 and res.seed == 3


def test_sample_xx_on_bell():
    _, est = sample_pauli(bell_state(), "XX", 100_000, 7)
    assert abs(est - 1.0) <= 0.02


def test_sample_z_on_superposition():
    shots = 40_000
    psi = apply_gate(basis(1, 0), Ry(0, np.pi / 2))
    _, est = sample_pauli(psi, "Z", shots, 5)
    assert abs(est) <= 3 / np.sqrt(shots)


def test_sampling_unbiased():
    # mean of <Z> estimates over 50 seeds within 5 standard errors of cos(theta)
    theta = 0.8
    shots = 2000
    psi = apply_gate(basis(1, 0), Ry(0, theta))
    ests = [sample_pauli(psi, "Z", shots, seed)[1] for seed in range(50)]
    se = np.sqrt((1 - np.cos(theta) ** 2) / shots / 50)
    assert abs(np.mean(ests) - np.cos(theta)) <= 5 * se


def test_sample_reproducible():
    psi = bell_state()
    a = sample_pauli(psi, "ZZ", 500, 42)
    b = sample_pauli(psi, "ZZ", 500, 42)
    assert a[0].counts == b[0].counts and a[1] == b[1]


def test_sample_label_validation():
    with pytest.raises(BadLabelError):
        sample_pauli(bell_state(), "XQ", 10, 0)
    with pytest.raises(BadLabelError):
        sample_pauli(bell_state(), "X", 10, 0)  # wrong length
    with pytest.raises(OutOfRangeError):
        sample_pauli(bell_state(), "XX", 0, 0)


def test_sample_expectations_table():
    psi = bell_state()
    table = sample_pauli_expectations(psi, (0, 1), 50_000, 11)
    assert set(table) == {a + b for a in "IXYZ" for b in "IXYZ"}
    assert table["II"] == 1.0
    for label, exact in [("XX", 1.0), ("YY", -1.0), ("ZZ", 1.0), ("XZ", 0.0)]:
        assert abs(table[label] - exact) <= 0.03
