"""Metrics: fidelity, coherence, concurrence, Pauli decomposition, tomography."""
import numpy as np
import numpy.testing as npt
import pytest

from mixedprep import (
    BadLabelError,
    DimensionMismatchError,
    MissingExpectationError,
    build_preparation_circuit,
    c1_state,
    concurrence,
    exact_pauli_expectations,
    fidelity,
    ginibre_density,
    kron,
    l1_coherence,
    local_l1_coherence,
    pauli_decompose_2q,
    pauli_labels,
    pauli_matrix,
    run,
    sample_pauli_expectations,
    tomography_reconstruct,
)


def bell_rho():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = rho[0, 3] = rho[3, 0] = rho[3, 3] = 0.5
    return rho


def proj(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def haar_unitary(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_pauli_matrix():
    npt.assert_array_equal(pauli_matrix("I"), np.eye(2))
    npt.assert_array_equal(pauli_matrix("ZZ"), np.diag([1, -1, -1, 1]))
    xz = kron(pauli_matrix("X"), pauli_matrix("Z"))
    npt.assert_array_equal(pauli_matrix("XZ"), xz)
    with pytest.raises(BadLabelError):
        pauli_matrix("XQ")
    with pytest.raises(BadLabelError):
        pauli_matrix("")
    assert len(pauli_labels(2)) == 16


def test_fidelity_identity_cases():
    for seed in range(5):
        rho = ginibre_density(4, seed)
        npt.assert_allclose(fidelity(rho, rho), 1.0, atol=1e-10)
    assert fidelity(proj([1, 0]), proj([0, 1])) == 0.0
    npt.assert_allclose(fidelity(np.eye(2) / 2, proj([1, 0])), 0.5, atol=1e-12)


def test_fidelity_symmetric():
    for seed in range(10):
        a = ginibre_density(4, 100 + seed)
        b = ginibre_density(4, 200 + seed)
        npt.assert_allclose(fidelity(a, b), fidelity(b, a), atol=1e-9)


def test_fidelity_pure_shortcut_consistent():
    # near-pure state through both code paths; fidelity shifts like
    # sqrt(mixing weight), so eta = 1e-10 keeps the gap below ~2e-5
    eta = 1e-10
    psi = proj([1, 1j, 0.5, 0])
    rho = ginibre_density(4, 3)
    almost_pure = (1 - eta) * psi + eta * np.eye(4) / 4
    f_shortcut = fidelity(psi, rho)
    f_general = fidelity(almost_pure, rho)
    npt.assert_allclose(f_shortcut, f_general, atol=1e-4)


@pytest.mark.parametrize("eps", [1e-9, 3e-9, 1e-8])
def test_fidelity_near_pure_self_overlap_is_one(eps):
    # The eps branch enters as sqrt(eps**2); rounding it away would read as a
    # loss of 2 * eps, beyond the 1e-9 verification bound.
    worst = 0.0
    for d in (2, 4, 8):
        for seed in range(10):
            u = haar_unitary(d, 31 * d + seed)
            rho = (u * ([1.0 - eps, eps] + [0.0] * (d - 2))) @ u.conj().T
            rho = (rho + rho.conj().T) / 2
            worst = max(worst, 1.0 - fidelity(rho, rho))
    assert worst <= 1e-12


def test_fidelity_multiplicative_under_tensor():
    for seed in range(5):
        a1, b1 = ginibre_density(2, seed), ginibre_density(2, 50 + seed)
        a2, b2 = ginibre_density(2, 80 + seed), ginibre_density(2, 90 + seed)
        npt.assert_allclose(
            fidelity(kron(a1, a2), kron(b1, b2)),
            fidelity(a1, b1) * fidelity(a2, b2),
            atol=1e-9,
        )


def test_fidelity_bounds_and_errors():
    for seed in range(10):
        f = fidelity(ginibre_density(4, seed), ginibre_density(4, 1000 + seed))
        assert 0.0 <= f <= 1.0
    with pytest.raises(DimensionMismatchError):
        fidelity(np.eye(2) / 2, np.eye(4) / 4)


def test_fidelity_iff_equal():
    a = ginibre_density(4, 7)
    b = ginibre_density(4, 8)
    assert fidelity(a, a) >= 1 - 1e-10
    assert fidelity(a, b) < 1 - 1e-5


def test_l1_coherence():
    assert l1_coherence(np.eye(4) / 4) == 0.0
    npt.assert_allclose(l1_coherence(bell_rho()), 1.0, atol=1e-12)
    npt.assert_allclose(l1_coherence(c1_state(0.2)), 0.6, atol=1e-12)
    for seed in range(5):
        w = np.random.default_rng(seed).dirichlet(np.ones(4))
        assert l1_coherence(np.diag(w).astype(complex)) <= 1e-15


def test_local_l1_coherence():
    npt.assert_allclose(local_l1_coherence(c1_state(0.2), "A"), 0.2, atol=1e-12)
    npt.assert_allclose(local_l1_coherence(c1_state(0.2), "B"), 0.2, atol=1e-12)
    assert local_l1_coherence(bell_rho(), "A") <= 1e-15
    assert local_l1_coherence(bell_rho(), "B") <= 1e-15
    plus = proj([1, 1])
    npt.assert_allclose(local_l1_coherence(kron(plus, proj([1, 0])), "A"), 1.0, atol=1e-12)
    with pytest.raises(DimensionMismatchError):
        local_l1_coherence(np.eye(2) / 2, "A")
    with pytest.raises(BadLabelError):
        local_l1_coherence(bell_rho(), "C")


def test_concurrence_landmarks():
    npt.assert_allclose(concurrence(bell_rho()), 1.0, atol=1e-9)
    assert concurrence(np.eye(4) / 4) == 0.0
    for p, expected in [(1 / 3, 0.0), (0.5, 0.25), (0.8, 0.7), (1.0, 1.0)]:
        werner = p * bell_rho() + (1 - p) * np.eye(4) / 4
        npt.assert_allclose(concurrence(werner), max(0.0, (3 * p - 1) / 2), atol=1e-9)
        assert expected == pytest.approx(max(0.0, (3 * p - 1) / 2))
    with pytest.raises(DimensionMismatchError):
        concurrence(np.eye(2) / 2)


def test_concurrence_local_unitary_invariant():
    for seed in range(10):
        rho = ginibre_density(4, 300 + seed)
        u = kron(haar_unitary(2, seed), haar_unitary(2, 77 + seed))
        rotated = u @ rho @ u.conj().T
        npt.assert_allclose(concurrence(rotated), concurrence(rho), atol=1e-9)


def test_pauli_decompose_examples():
    dec = pauli_decompose_2q(np.eye(4) / 4)
    assert np.abs(dec.a).max() == 0 and np.abs(dec.b).max() == 0
    assert np.abs(dec.cross).max() == 0

    c1 = 0.2
    dec = pauli_decompose_2q(c1_state(c1))
    npt.assert_allclose(dec.a, [c1, 0, 0], atol=1e-12)
    npt.assert_allclose(dec.b, [c1, 0, 0], atol=1e-12)
    npt.assert_allclose(dec.c, [c1, c1, c1], atol=1e-12)
    npt.assert_allclose(dec.cross - np.diag(dec.c), 0, atol=1e-12)

    dec = pauli_decompose_2q(bell_rho())
    npt.assert_allclose(dec.c, [1, -1, 1], atol=1e-12)
    npt.assert_allclose(dec.a, 0, atol=1e-12)
    npt.assert_allclose(dec.b, 0, atol=1e-12)


def test_decompose_reconstruct_roundtrip():
    for seed in range(10):
        rho = ginibre_density(4, 400 + seed)
        dec = pauli_decompose_2q(rho)
        npt.assert_allclose(dec.reconstruct(), rho, atol=1e-10)


def test_tomography_exact_single_qubit():
    est = {"X": 0.0, "Y": 0.0, "Z": 0.0}
    npt.assert_allclose(tomography_reconstruct(est, 1), np.eye(2) / 2, atol=1e-15)


def test_tomography_exact_roundtrip():
    rho = bell_rho()
    est = exact_pauli_expectations(rho)
    npt.assert_allclose(tomography_reconstruct(est, 2), rho, atol=1e-12)
    for seed in range(5):
        rho = ginibre_density(4, 500 + seed)
        rec = tomography_reconstruct(exact_pauli_expectations(rho), 2)
        npt.assert_allclose(rec, rho, atol=1e-12)


def test_tomography_missing_entry():
    est = exact_pauli_expectations(bell_rho())
    del est["XY"]
    with pytest.raises(MissingExpectationError):
        tomography_reconstruct(est, 2)


def test_tomography_finite_shots():
    # sampled expectations of a prepared state reconstruct it to high fidelity
    for seed in range(3):
        target = ginibre_density(4, 600 + seed)
        bundle = build_preparation_circuit(target)
        state = run(bundle.circuit)
        est = sample_pauli_expectations(state, bundle.system_qubits, 100_000, 900 + seed)
        rec = tomography_reconstruct(est, 2)
        assert fidelity(rec, target) >= 0.99


def test_tomography_output_is_density():
    rng = np.random.default_rng(4)
    est = {lab: float(np.clip(rng.normal(0, 0.3), -1, 1)) for lab in pauli_labels(2)}
    est["II"] = 1.0
    rec = tomography_reconstruct(est, 2)
    w = np.linalg.eigvalsh(rec)
    assert w.min() >= -1e-14
    npt.assert_allclose(np.trace(rec), 1.0, atol=1e-12)
