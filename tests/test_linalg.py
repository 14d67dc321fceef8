"""Linear-algebra layer: eigendecomposition, square roots, partial trace."""
import numpy as np
import numpy.testing as npt
import pytest

from mixedprep import (
    DimensionMismatchError,
    NotDensityMatrixError,
    NotHermitianError,
    NotOrthonormalError,
    NotPSDError,
    SpectralDecomposition,
    eig_hermitian,
    is_density,
    is_hermitian,
    is_unitary,
    kron,
    matrix_sqrt_psd,
    orthonormal_completion,
    partial_trace,
    require_density,
)
from mixedprep.states import ginibre_density


def random_density(d, seed):
    return ginibre_density(d, seed)


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def test_predicates():
    assert is_hermitian(np.eye(3))
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert not is_hermitian(np.ones((2, 3)))
    assert is_unitary(np.eye(4))
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert is_unitary(h)
    assert not is_unitary(2 * np.eye(2))
    assert is_density(np.eye(2) / 2)
    assert not is_density(np.eye(2))          # trace 2
    assert not is_density(np.diag([1.5, -0.5]))  # negative eigenvalue


@pytest.mark.parametrize(
    "m",
    [
        np.array([[0.5, np.nan], [np.nan, 0.5]]),
        np.array([[0.5, 0.0], [0.0, np.inf]]),
        np.ones((2, 3)) / 2,
        np.eye(2),                                   # trace 2
        np.diag([1.5, -0.5]),                        # negative eigenvalue
        np.array([[0.5, 0.5], [0.0, 0.5]]),          # not Hermitian
        np.eye(2) / 2,                               # valid
    ],
    ids=["nan", "inf", "non-square", "trace-2", "negative", "non-hermitian", "valid"],
)
def test_is_density_agrees_with_require_density(m):
    try:
        require_density(m)
        accepted = True
    except NotDensityMatrixError:
        accepted = False
    assert is_density(m) == accepted
    assert accepted == (m.shape == (2, 2) and np.allclose(m, np.eye(2) / 2))


def test_one_hermitian_solve_per_density_matrix(monkeypatch):
    from mixedprep import build_preparation_circuit, concurrence, fidelity

    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def solves(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    rho, sigma = random_density(4, 1), random_density(4, 2)
    assert solves(build_preparation_circuit, rho) == 1
    assert solves(fidelity, rho, sigma) == 3
    assert solves(concurrence, rho) == 1


def test_require_density_messages():
    with pytest.raises(NotDensityMatrixError, match="square"):
        require_density(np.ones((2, 3)))
    with pytest.raises(NotDensityMatrixError, match="NaN or infinite"):
        require_density(np.full((2, 2), np.nan))
    with pytest.raises(NotDensityMatrixError, match="Hermitian"):
        require_density(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(NotDensityMatrixError, match="trace"):
        require_density(np.eye(2))
    with pytest.raises(NotDensityMatrixError, match="positive semidefinite"):
        require_density(np.diag([1.5, -0.5]))


def test_eig_descending_and_reconstruct():
    for seed in range(30):
        m = random_density(5, seed)
        dec = eig_hermitian(m)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
        npt.assert_allclose(dec.reconstruct(), m, atol=1e-12)
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        npt.assert_allclose(gram, np.eye(5), atol=1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_identity_gives_canonical_basis():
    # fully degenerate: the deterministic tie-breaking must return identity columns
    dec = eig_hermitian(np.eye(4) / 4)
    npt.assert_allclose(dec.eigenvalues, [0.25] * 4, atol=1e-15)
    npt.assert_allclose(dec.eigenvectors, np.eye(4), atol=1e-12)


def test_eig_diagonal_input_gives_basis_vectors():
    dec = eig_hermitian(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex))
    npt.assert_allclose(dec.eigenvalues, [0.5, 0.3, 0.2, 0.0], atol=1e-15)
    npt.assert_allclose(np.abs(dec.eigenvectors), np.eye(4), atol=1e-12)
    # phase convention: leading nonzero component real positive
    for j in range(4):
        col = dec.eigenvectors[:, j]
        lead = col[np.flatnonzero(np.abs(col) > 1e-10)[0]]
        assert lead.real > 0 and abs(lead.imag) < 1e-12


def test_eig_deterministic_on_degenerate_spectrum():
    # two-fold degenerate eigenvalue; repeated calls must agree exactly
    v = np.linalg.qr(random_hermitian(4, 9))[0]
    m = (v * np.array([0.4, 0.3, 0.3, 0.0])) @ v.conj().T
    m = (m + m.conj().T) / 2
    a = eig_hermitian(m)
    b = eig_hermitian(m.copy())
    npt.assert_array_equal(a.eigenvalues, b.eigenvalues)
    npt.assert_array_equal(a.eigenvectors, b.eigenvectors)
    npt.assert_allclose(a.reconstruct(), m, atol=1e-12)


def test_spectral_dataclass_roundtrip():
    dec = SpectralDecomposition(np.array([1.0]), np.array([[1.0 + 0j]]))
    npt.assert_allclose(dec.reconstruct(), [[1.0]], atol=0)


def test_matrix_sqrt_psd():
    for seed in range(20):
        m = random_density(4, 100 + seed)
        s = matrix_sqrt_psd(m)
        npt.assert_allclose(s @ s, m, atol=1e-12)
        assert is_hermitian(s)
    with pytest.raises(NotPSDError):
        matrix_sqrt_psd(np.diag([1.5, -0.5]))


def test_matrix_sqrt_clamps_tiny_negatives():
    m = np.diag([1.0, -1e-13]).astype(complex)
    s = matrix_sqrt_psd(m)
    npt.assert_allclose(s, np.diag([1.0, 0.0]), atol=1e-7)


def test_partial_trace_bell():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    npt.assert_allclose(partial_trace(rho, {0}, 2), np.eye(2) / 2, atol=1e-12)
    npt.assert_allclose(partial_trace(rho, {1}, 2), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_states():
    a = random_density(2, 1)
    b = random_density(2, 2)
    rho = kron(a, b)
    npt.assert_allclose(partial_trace(rho, {0}, 2), a, atol=1e-12)
    npt.assert_allclose(partial_trace(rho, {1}, 2), b, atol=1e-12)
    # keeping everything is the identity map
    npt.assert_allclose(partial_trace(rho, {0, 1}, 2), rho, atol=0)


def test_partial_trace_three_qubits():
    parts = [random_density(2, 10 + i) for i in range(3)]
    rho = kron(kron(parts[0], parts[1]), parts[2])
    npt.assert_allclose(partial_trace(rho, {0, 2}, 3), kron(parts[0], parts[2]), atol=1e-12)
    npt.assert_allclose(partial_trace(rho, {1}, 3), parts[1], atol=1e-12)


def test_partial_trace_preserves_trace():
    for seed in range(10):
        rho = random_density(8, 200 + seed)
        out = partial_trace(rho, {2}, 3)
        npt.assert_allclose(np.trace(out), 1.0, atol=1e-12)


def test_partial_trace_errors():
    rho = np.eye(4) / 4
    with pytest.raises(DimensionMismatchError):
        partial_trace(rho, {0}, 3)
    with pytest.raises(DimensionMismatchError):
        partial_trace(rho, set(), 2)
    with pytest.raises(DimensionMismatchError):
        partial_trace(rho, {5}, 2)


def test_orthonormal_completion():
    # empty input completes to the identity
    npt.assert_allclose(orthonormal_completion(np.zeros((4, 0))), np.eye(4), atol=0)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        q = np.linalg.qr(g)[0]
        u = orthonormal_completion(q)
        npt.assert_array_equal(u[:, :3], q)  # kept verbatim
        npt.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-12)
        # deterministic
        npt.assert_array_equal(u, orthonormal_completion(q))


def test_orthonormal_completion_errors():
    with pytest.raises(NotOrthonormalError):
        orthonormal_completion(np.ones((3, 2)))
    with pytest.raises(DimensionMismatchError):
        orthonormal_completion(np.eye(5)[:, :3][:2])  # 2x3: more cols than rows
