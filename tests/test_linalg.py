"""Linear-algebra layer: eigendecomposition, square roots, partial trace."""
import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from mixedprep import (
    Circuit,
    DimensionMismatchError,
    NotDensityMatrixError,
    NotHermitianError,
    NotOrthonormalError,
    NotPSDError,
    OutOfRangeError,
    SpectralDecomposition,
    UnitaryBlock,
    eig_hermitian,
    is_density,
    is_unitary,
    matrix_sqrt_psd,
    orthonormal_completion,
    partial_trace,
    require_density,
    validate_circuit,
)
from mixedprep.linalg import (
    DEFAULT_TOL,
    TIE_TOL,
    _gram_schmidt,
    canonical_eigenvectors,
    density_factor,
)
from mixedprep.states import ginibre_density


def random_density(d, seed):
    return ginibre_density(d, seed)


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def test_predicates():
    assert is_unitary(np.eye(4))
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert is_unitary(h)
    assert not is_unitary(2 * np.eye(2))
    assert is_density(np.eye(2) / 2)
    assert not is_density(np.eye(2))          # trace 2
    assert not is_density(np.diag([1.5, -0.5]))  # negative eigenvalue


def haar_unitary(d, seed):
    q, r = np.linalg.qr(random_hermitian(d, seed) + 1j * random_hermitian(d, seed + 1))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.mark.parametrize("d", [2, 8, 64])
def test_is_unitary_tolerance_edge(d):
    tol = 1e-10

    def stretched(dev):  # column 0 scaled so that (U^dagger U)[0, 0] = 1 + dev
        u = haar_unitary(d, d)
        u[:, 0] *= np.sqrt(1.0 + dev)
        return u

    assert is_unitary(stretched(0.5 * tol), tol)
    assert not is_unitary(stretched(2.0 * tol), tol)
    nan_entry = haar_unitary(d, d)
    nan_entry[d - 1, 0] = np.nan
    assert not is_unitary(nan_entry, tol)
    assert not is_unitary(haar_unitary(d, d)[:, :-1], tol)
    assert is_unitary(np.zeros((0, 0)), tol) is True


@pytest.mark.parametrize("entry", [np.inf, -np.inf, 1e200], ids=["inf", "-inf", "overflowing"])
def test_is_unitary_answers_false_without_a_warning_for_a_huge_entry(entry):
    # pytest turns numpy's RuntimeWarning into an error, as a CLI user would see it
    u = np.eye(2, dtype=complex)
    u[0, 0] = entry
    assert not is_unitary(u)


def test_density_factor_reproduces_the_matrix():
    def padded(seed, rank):  # a Haar-rotated rank-deficient density matrix
        u = haar_unitary(8, seed)
        w = np.concatenate([np.random.default_rng(seed).dirichlet(np.ones(rank)), np.zeros(8 - rank)])
        m = (u * w) @ u.conj().T
        return (m + m.conj().T) / 2

    for m, cols in [(random_density(8, 3), 8), (padded(4, 3), 3), (padded(5, 1), 1)]:
        m_out, a = density_factor(m)
        npt.assert_array_equal(m_out, m)
        assert a.shape == (8, cols)
        npt.assert_allclose(a @ a.conj().T, m, atol=1e-14)
    with pytest.raises(NotDensityMatrixError, match="positive semidefinite"):
        density_factor(np.diag([1.5, -0.5]))
    with pytest.raises(NotDensityMatrixError, match="trace"):
        density_factor(np.eye(2))


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


def test_tolerance_table_lists_exactly_the_tol_constants():
    from mixedprep import linalg

    rows = re.findall(r"^(\w+_TOL) +(\S+) ", linalg.__doc__, flags=re.MULTILINE)
    table = {name: float(value) for name, value in rows}
    assert len(table) == len(rows)  # no constant listed twice
    constants = {name: value for name, value in vars(linalg).items() if name.endswith("_TOL")}
    assert table == constants


def test_one_hermitian_solve_per_density_matrix(hermitian_solves):
    from mixedprep import (
        build_preparation_circuit,
        c1_state,
        c1_valid_range,
        concurrence,
        fidelity,
        l1_coherence,
        pad_to_qubit_dimension,
    )

    def solves(fn, *args):
        hermitian_solves.clear()
        fn(*args)
        return len(hermitian_solves)

    rho, sigma = random_density(4, 1), random_density(4, 2)
    assert solves(build_preparation_circuit, rho) == 1
    assert solves(fidelity, rho, sigma) == 0  # two Cholesky factors and one SVD
    assert solves(concurrence, rho) == 0  # one Cholesky factor and one SVD
    assert solves(require_density, rho) == 0
    assert solves(is_density, rho) == 0
    assert solves(l1_coherence, rho) == 0
    assert solves(pad_to_qubit_dimension, random_density(3, 1)) == 0  # validated by Cholesky
    assert solves(c1_valid_range) == 0  # closed form
    assert solves(c1_state, 0.2) == 0  # least eigenvalue in closed form

    # a zero row and column stop the Cholesky; the pivoted Cholesky and its
    # residual certificate take the support columns without a solve
    def rank_deficient(seed):
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = random_density(2, seed)
        return m

    assert solves(fidelity, rank_deficient(1), sigma) == 0
    assert solves(fidelity, rho, rank_deficient(2)) == 0
    assert solves(fidelity, rank_deficient(1), rank_deficient(2)) == 0
    assert solves(concurrence, rank_deficient(1)[::-1, ::-1]) == 0  # zero rows first: pivoting

    # an indefinite matrix fails the certificate: one eigh names its least eigenvalue
    q = np.linalg.qr(random_hermitian(4, 3) + 1j * np.eye(4))[0]
    indefinite = (q * [0.5, 0.3, 0.2 + 1.6e-9, -1.6e-9]) @ q.conj().T
    hermitian_solves.clear()
    with pytest.raises(NotDensityMatrixError, match="minimum eigenvalue -1.600e-09"):
        require_density((indefinite + indefinite.conj().T) / 2)
    assert len(hermitian_solves) == 1


def test_no_svd_on_a_round_trip(svd_calls):
    from mixedprep import c1_state, c1_valid_range, fidelity, p00_family, prepare_density

    # the trace bound |Tr A^dagger B|^2 <= F is within d * eps of 1 on a round trip
    for d in (8, 64):
        rho = random_density(d, d)
        prepared = prepare_density(rho)
        svd_calls.clear()
        assert 1.0 - fidelity(prepared, rho) <= 1e-12
        assert len(svd_calls) == 0
    rho = p00_family(1.0)
    assert 1.0 - fidelity(prepare_density(rho), rho) <= 1e-12

    # the uniform diagonal of the c1 = -1/3 edge ties the first pivot, so the
    # two factors need not pair their columns: the r x r SVD resolves F
    rho = c1_state(c1_valid_range()[0])
    prepared = prepare_density(rho)
    svd_calls.clear()
    assert 1.0 - fidelity(prepared, rho) <= 1e-12
    assert len(svd_calls) == 1


def test_canonical_basis_built_only_for_the_compile_block(monkeypatch):
    from mixedprep import build_preparation_circuit, fidelity, linalg

    calls = []
    real = linalg._gram_schmidt

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(linalg, "_gram_schmidt", counted)

    def rank2(seed, weights):  # two support eigenvalues and a six-fold zero
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))[0]
        m = (q * weights) @ q.conj().T
        return (m + m.conj().T) / 2

    # distinct eigenvalues: the null space keeps its eigh columns, no Gram-Schmidt
    # tied eigenvalues: one Gram-Schmidt, for the tie group of the support
    for weights, compile_calls in (([0.7, 0.3], 0), ([0.5, 0.5], 1)):
        rho, sigma = rank2(1, weights), rank2(2, weights)
        calls.clear()
        build_preparation_circuit(rho)
        assert len(calls) == compile_calls
        calls.clear()
        fidelity(rho, sigma)
        assert len(calls) == 0


def _reference_canonical_eigenvectors(w, v, count):
    """The column-at-a-time form of ``canonical_eigenvectors``: a tie scan, one phase fix per column.

    All d columns come back; tie groups are rebuilt up to the first one that
    reaches past ``count``, which keeps the columns of ``v`` from there on.
    """
    w = np.ascontiguousarray(w[::-1].real)
    v = np.ascontiguousarray(v[:, ::-1])
    d = w.shape[0]
    out = v.copy()
    start = 0
    while start < d:
        stop = start + 1
        while stop < d and w[stop - 1] - w[stop] <= TIE_TOL:
            stop += 1
        if stop > count:
            break
        if stop - start > 1:
            proj = v[:, start:stop] @ v[:, start:stop].conj().T
            out[:, start:stop] = _gram_schmidt(proj.T.copy(), stop - start)
        start = stop
    for j in range(d):
        col = out[:, j]
        idx = np.flatnonzero(np.abs(col) > DEFAULT_TOL)
        if idx.size:
            lead = col[idx[0]]
            out[:, j] = col * (lead.conjugate() / abs(lead))
    return w, out


def _haar(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _phased(v, rng):
    return v * np.exp(1j * rng.uniform(0, 2 * np.pi, v.shape[1]))


def _canonical_cases():
    rng = np.random.default_rng(5)
    cases = {}
    for name, weights in (
        ("tie2", [0.4, 0.4, 0.15, 0.05]),
        ("tie2x2", [0.35, 0.35, 0.15, 0.15]),
        ("tie4", [0.25] * 4),
        ("tie4-in-8", [0.3, 0.1, 0.1, 0.1, 0.1, 0.2, 0.05, 0.05]),
        ("zero-group", [0.6, 0.4, 0, 0, 0, 0, 0, 0]),
        ("distinct", [0.05, 0.1, 0.15, 0.2, 0.5]),
    ):
        u = _haar(len(weights), rng)
        m = (u * weights) @ u.conj().T
        w, v = np.linalg.eigh((m + m.conj().T) / 2)
        cases[name] = (w, _phased(v, rng))
    # permuted standard-basis eigenvectors with arbitrary phases, ties included
    for d in (4, 8):
        w = np.sort(rng.choice([0.0, 0.5, 1.0], size=d))
        cases[f"basis-{d}"] = (w, _phased(np.eye(d, dtype=complex)[:, rng.permutation(d)], rng))
    # every column but one has leading entries at or below DEFAULT_TOL
    v = np.eye(4, dtype=complex)
    v[1:, 1:] = _haar(3, rng)
    c, s = np.cos(5e-11), np.sin(5e-11)
    v[[0, 1]] = np.array([[c, -s], [s, c]]) @ v[[0, 1]]
    cases["small-leads"] = (np.array([0.1, 0.2, 0.3, 0.4]), _phased(v[:, [2, 0, 3, 1]], rng))
    cases["d1"] = (np.array([1.0]), np.array([[np.exp(0.3j)]]))
    return cases


CANONICAL_CASES = _canonical_cases()


@pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
def test_canonical_eigenvectors_bytes_equal_column_loop(name):
    w, v = CANONICAL_CASES[name]
    for count in range(len(w) + 1):
        got_w, got_v = canonical_eigenvectors(w, v, count)
        ref_w, ref_v = _reference_canonical_eigenvectors(w, v, count)
        assert got_w.tobytes() == ref_w.tobytes()
        assert got_v.shape == ref_v.shape == (len(w), len(w)), count
        assert got_v.tobytes() == ref_v.tobytes(), count


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


def reconstruct(dec):
    v = dec.eigenvectors
    return (v * dec.eigenvalues) @ v.conj().T


def test_eig_descending_and_reconstruct():
    for seed in range(30):
        m = random_density(5, seed)
        dec = eig_hermitian(m)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
        npt.assert_allclose(reconstruct(dec), m, atol=1e-12)
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
    npt.assert_allclose(reconstruct(a), m, atol=1e-12)


def test_spectral_dataclass_roundtrip():
    dec = SpectralDecomposition(np.array([1.0]), np.array([[1.0 + 0j]]))
    npt.assert_allclose(reconstruct(dec), [[1.0]], atol=0)


def test_matrix_sqrt_psd():
    for seed in range(20):
        m = random_density(4, 100 + seed)
        s = matrix_sqrt_psd(m)
        npt.assert_allclose(s @ s, m, atol=1e-12)
        assert (s == s.conj().T).all()
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
    rho = np.kron(a, b)
    npt.assert_allclose(partial_trace(rho, {0}, 2), a, atol=1e-12)
    npt.assert_allclose(partial_trace(rho, {1}, 2), b, atol=1e-12)
    # keeping everything is the identity map
    npt.assert_allclose(partial_trace(rho, {0, 1}, 2), rho, atol=0)


def test_partial_trace_three_qubits():
    parts = [random_density(2, 10 + i) for i in range(3)]
    rho = np.kron(np.kron(parts[0], parts[1]), parts[2])
    npt.assert_allclose(partial_trace(rho, {0, 2}, 3), np.kron(parts[0], parts[2]), atol=1e-12)
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


@pytest.mark.parametrize("total_qubits", [True, 1.0, 2.0, "2", 0, -1])
def test_partial_trace_rejects_a_non_integer_qubit_count(total_qubits):
    # 2 ** True is 2, so a bool count once traced a 2x2 matrix
    with pytest.raises(DimensionMismatchError, match="total_qubits must be an integer"):
        partial_trace(np.eye(2) / 2, {0}, total_qubits)


def test_orthonormal_completion():
    for d in (2, 8, 64, 256):
        # empty input completes to exactly the identity
        npt.assert_array_equal(orthonormal_completion(np.zeros((d, 0))), np.eye(d))
        for k in sorted({1, d // 2, d - 1, d}):
            rng = np.random.default_rng(1000 * d + k)
            g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
            q = np.linalg.qr(g)[0]
            u = orthonormal_completion(q)
            assert u.shape == (d, d)
            npt.assert_array_equal(u[:, :k], q)  # kept verbatim
            assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-12
            npt.assert_array_equal(u, orthonormal_completion(q))  # deterministic
            if k == d:  # a new array: writing to it leaves the input alone
                kept = q.copy()
                u[0, 0] += 1.0
                npt.assert_array_equal(q, kept)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("k", [1, 3])
def test_orthonormal_completion_rejects_non_finite(bad, k):
    q = np.eye(3, dtype=complex)[:, :k]
    q[0, 0] = bad
    with pytest.raises(NotOrthonormalError, match="NaN or infinite"):
        orthonormal_completion(q)


def test_orthonormal_completion_errors():
    with pytest.raises(NotOrthonormalError):
        orthonormal_completion(np.ones((3, 2)))
    with pytest.raises(DimensionMismatchError):
        orthonormal_completion(np.eye(5)[:, :3][:2])  # 2x3: more cols than rows


@pytest.mark.parametrize("keep", [{1.5}, {"0"}, {True}, [0, 1.0]],
                         ids=["float", "str", "bool", "mixed"])
def test_partial_trace_rejects_non_integer_qubits(keep):
    # a truncated index would trace down to the wrong qubit
    rho = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
    with pytest.raises(DimensionMismatchError, match="integer"):
        partial_trace(rho, keep, 2)
    npt.assert_array_equal(partial_trace(rho, np.array([1]), 2), np.eye(2) / 2)


UNREADABLE = {
    "ragged": [[1, 0], [0]],
    "dict": {"a": 1},
    "beyond-float": [[10 ** 400]],
    "string-entries": [["a", "b"], ["c", "d"]],
}


@pytest.mark.parametrize("value", list(UNREADABLE.values()), ids=list(UNREADABLE))
@pytest.mark.parametrize(
    "call, error",
    [(require_density, NotDensityMatrixError), (density_factor, NotDensityMatrixError),
     (eig_hermitian, NotHermitianError), (matrix_sqrt_psd, NotHermitianError),
     (lambda m: partial_trace(m, {0}, 1), DimensionMismatchError)],
    ids=["require_density", "density_factor", "eig_hermitian", "matrix_sqrt_psd",
         "partial_trace"],
)
def test_a_matrix_numpy_cannot_read_is_the_callers_typed_error(call, error, value):
    with pytest.raises(error, match="cannot read a complex array"):
        call(value)
    assert not is_density(value)


@pytest.mark.parametrize("value", [[[1, 0], [0]], [1, 2]], ids=["ragged", "1-d"])
def test_unitary_checks_end_in_a_typed_answer(value):
    with pytest.raises(DimensionMismatchError):
        orthonormal_completion(value)
    assert is_unitary(value) is False


def test_a_bool_identity_is_unitary():
    assert is_unitary(np.eye(2, dtype=bool)) is True


@pytest.mark.parametrize(
    "tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300, np.float64(np.nan), 1e-8j, "1e-8",
            None, 10 ** 400, 10 ** 5000],
    ids=["nan", "inf", "-inf", "negative", "tiny-negative", "np-nan", "complex", "str", "none",
         "beyond-float", "too-long-to-print"],
)
def test_a_tolerance_that_turns_the_checks_off_is_refused(tol):
    # a NaN or infinite tol passed every comparison: this non-Hermitian,
    # trace-3 matrix was a density, and 2 I a unitary block
    with pytest.raises(OutOfRangeError, match="tol must be a finite number >= 0"):
        density_factor(np.array([[5, 3], [-7, -2]]), tol)
    with pytest.raises(OutOfRangeError, match="tol must be a finite number >= 0"):
        validate_circuit(Circuit(1, [UnitaryBlock((0,), 2 * np.eye(2))]), tol)


@pytest.mark.parametrize("tol", [0, 0.0, 1e-8, np.float64(1e-8), np.float32(0.5), 1],
                         ids=["int-0", "zero", "float", "np-float64", "np-float32", "int"])
def test_every_finite_nonnegative_tolerance_is_taken(tol):
    density_factor(np.eye(2) / 2, tol)
    validate_circuit(Circuit(1, [UnitaryBlock((0,), np.eye(2))]), tol)
