"""Linear-algebra layer: density check, eigendecomposition, square roots, completion."""
import math
import re
import sys
import threading
import tracemalloc

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
    build_preparation_circuit,
    concurrence,
    eig_hermitian,
    fidelity,
    is_unitary,
    local_l1_coherence,
    matrix_sqrt_psd,
    orthonormal_completion,
    require_density,
    validate_circuit,
)
from mixedprep import linalg
from mixedprep.linalg import (
    DEFAULT_TOL,
    GS_DROP_TOL,
    TIE_TOL,
    _gram_schmidt,
    _trace_down,
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


@pytest.mark.parametrize(
    "m",
    [np.array([[0.25, 1e308, 0.0], [1e308, 0.25, 0.0], [0.0, 0.0, 0.5]]),
     np.array([[0.5, 1e300], [1e300, 0.5]])],
    ids=["nan-residual", "overflowing-residual"],
)
def test_an_overflowing_cholesky_certifies_nothing(m):
    # least eigenvalues -1e308 and -1e300: the pivoted Cholesky overflows a
    # column, so a a^dagger - m holds inf or inf * 0 = NaN, and neither may pass
    # the residual check; pytest makes a RuntimeWarning on the way an error
    from mixedprep import l1_coherence, pad_to_qubit_dimension

    padded = np.pad(m, (0, 4 - m.shape[0]))  # concurrence takes a 4 x 4 matrix
    refusals = [(density_factor, m), (lambda x: fidelity(x, x), m), (concurrence, padded),
                (l1_coherence, m), (build_preparation_circuit, m), (pad_to_qubit_dimension, m)]
    for call, arg in refusals:
        with pytest.raises(NotDensityMatrixError, match="not positive semidefinite"):
            call(arg)


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
def test_require_density_accepts_only_a_density_matrix(m):
    try:
        require_density(m)
        accepted = True
    except NotDensityMatrixError:
        accepted = False
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
    assert solves(l1_coherence, rho) == 0
    assert solves(pad_to_qubit_dimension, random_density(3, 1)) == 0  # validated by Cholesky
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
    from mixedprep import c1_state, fidelity, p00_family, prepare_density

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
    rho = c1_state(-1 / 3)
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


def _g_coordinate_rebuild(group):
    """A tie group's canonical columns as ``canonical_eigenvectors`` builds them."""
    return group @ _gram_schmidt(group.conj())


def _projector_rebuild(group):
    """The oracle: modified Gram-Schmidt, twice, of the columns P e_0, P e_1, ... of
    the d x d projector P = V V^dagger onto the group, one basis vector at a time."""
    basis = []
    for vec in (group @ group.conj().T).T:
        if len(basis) == group.shape[1]:
            break
        for _ in range(2):
            for b in basis:
                vec = vec - b * (b.conj() @ vec)
        nrm = float(np.linalg.norm(vec))
        if nrm > GS_DROP_TOL:
            basis.append(vec / nrm)
    assert len(basis) == group.shape[1]
    return np.column_stack(basis)


def _reference_canonical_eigenvectors(w, v, count, rebuild=_g_coordinate_rebuild):
    """The column-at-a-time form of ``canonical_eigenvectors``: a tie scan, one phase fix per column.

    All d columns come back; tie groups are rebuilt by ``rebuild`` up to the
    first one that reaches past ``count``, which keeps the columns of ``v``
    from there on.
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
            out[:, start:stop] = rebuild(v[:, start:stop])
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


def _oracle_cases():
    """(w, v, count) inputs whose tie groups the projector oracle rebuilds too."""
    rng = np.random.default_rng(33)
    cases = {f"canonical-{name}": (w, v, len(w)) for name, (w, v) in CANONICAL_CASES.items()}
    for d in range(2, 65):  # I/d: one d-fold group, in eigh's basis and in a Haar one
        w = np.full(d, 1 / d)
        cases[f"identity-{d}"] = (w, np.linalg.eigh(np.eye(d) / d)[1], d)
        cases[f"identity-{d}-haar"] = (w, _haar(d, rng), d)
    w, v = np.linalg.eigh(np.diag([0.5, 0, 0.25, 0.25]).astype(complex))
    cases["diag-0.5-0-0.25-0.25"] = (w, _phased(v, rng), 4)
    # an 8-fold group on e_8 ... e_15: its first eight coordinates are zero
    v = np.zeros((16, 16), dtype=complex)
    v[:8, :8], v[8:, 8:] = _haar(8, rng), _haar(8, rng)
    cases["high-indices"] = (np.r_[np.linspace(0.01, 0.05, 8), np.full(8, 0.06)], v, 16)
    # I (x) |+><+| / 32 at d = 64: coordinates 2k and 2k + 1 of each group are equal
    plus = np.full((2, 2), 0.5)
    cases["identity-x-plus"] = (*np.linalg.eigh(np.kron(np.eye(32), plus) / 32), 64)
    for g in (4, 16):  # a g-fold group on a Haar subspace at d = 256, the rest distinct
        w = np.r_[np.linspace(0.001, 0.002, 256 - g), np.full(g, 0.003)]
        cases[f"haar-{g}-of-256"] = (w, _haar(256, rng), 256)
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_canonical_eigenvectors_agree_with_the_projector_oracle(name):
    w, v, count = ORACLE_CASES[name]
    got_w, got_v = canonical_eigenvectors(w, v, count)
    ref_w, ref_v = _reference_canonical_eigenvectors(w, v, count, _projector_rebuild)
    assert got_w.tobytes() == ref_w.tobytes()
    assert np.abs(got_v - ref_v).max() <= 1e-12
    assert np.abs(got_v.conj().T @ got_v - np.eye(len(w))).max() <= 1e-13


def test_the_null_group_of_eig_hermitian_agrees_with_the_projector_oracle():
    # rank 4 at d = 256: a 4-fold support group and a 252-fold null group
    d = 256
    u = haar_unitary(d, 33)[:, :4]
    m = (u * 0.25) @ u.conj().T
    m = (m + m.conj().T) / 2
    got = eig_hermitian(m)
    ref_w, ref_v = _reference_canonical_eigenvectors(*np.linalg.eigh(m), d, _projector_rebuild)
    assert got.eigenvalues.tobytes() == ref_w.tobytes()
    assert np.abs(got.eigenvectors - ref_v).max() <= 1e-12
    assert np.abs(got.eigenvectors.conj().T @ got.eigenvectors - np.eye(d)).max() <= 1e-13


@pytest.mark.parametrize("seed", range(4))
def test_near_dependent_coordinates_keep_the_drop_rule_and_orthogonality(seed):
    # an 8-fold group at d = 16 whose coordinate row 1 is row 0 within 1e-10
    # (dropped: below GS_DROP_TOL) and row 3 is row 2 within 1e-7 (kept: one
    # projection pass would leave it about 1e-9 off the columns before it)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
    a[1] = a[0] + 1e-10 * a[1]
    a[3] = a[2] + 1e-7 * a[3]
    q = np.linalg.qr(a, mode="complete")[0]  # its first 8 columns span a's
    w, v = np.r_[np.linspace(0.01, 0.02, 8), np.full(8, 0.1)], np.hstack([q[:, 8:], q[:, :8]])
    got = canonical_eigenvectors(w, v, 16)[1]
    ref = _reference_canonical_eigenvectors(w, v, 16, _projector_rebuild)[1]
    assert np.abs(got.conj().T @ got - np.eye(16)).max() <= 1e-13
    # the kept column is fixed only to about eps / 1e-7, and so is the choice
    # of a lead entry near DEFAULT_TOL: compare the columns up to their phase
    overlap = (ref.conj() * got).sum(axis=0)
    assert np.abs(got * (overlap.conj() / np.abs(overlap)) - ref).max() <= 1e-6


def test_a_support_tie_is_rebuilt_without_a_d_by_d_projector():
    # one 8-fold support group at d = 512: the reversed copy and the phased
    # result are the two d x d arrays; the projector and its copy made 3.04
    d = 512
    u = haar_unitary(d, 8)
    w, v = np.linalg.eigh((u[:, :8] / 8) @ u[:, :8].conj().T)
    tracemalloc.start()
    try:
        canonical_eigenvectors(w, v, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * v.nbytes


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


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0, -np.inf)], ids=["nan", "inf", "-inf-j"])
def test_require_density_refuses_a_non_finite_matrix(entry):
    for m in (np.full((2, 2), entry), np.eye(4) / 4):
        m = m.astype(complex)
        m[-1, 0] = entry
        with pytest.raises(NotDensityMatrixError, match="matrix has NaN or infinite entries"):
            require_density(m)


# _trace_down takes a density matrix already certified by its caller,
# local_l1_coherence, and its kept qubits distinct and ascending

def test_trace_down_bell():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    npt.assert_allclose(_trace_down(rho, [0], 2), np.eye(2) / 2, atol=1e-12)
    npt.assert_allclose(_trace_down(rho, [1], 2), np.eye(2) / 2, atol=1e-12)


def test_trace_down_product_states():
    a = random_density(2, 1)
    b = random_density(2, 2)
    rho = np.kron(a, b)
    npt.assert_allclose(_trace_down(rho, [0], 2), a, atol=1e-12)
    npt.assert_allclose(_trace_down(rho, [1], 2), b, atol=1e-12)
    # keeping everything is the identity map
    npt.assert_allclose(_trace_down(rho, [0, 1], 2), rho, atol=0)


def test_trace_down_three_qubits():
    parts = [random_density(2, 10 + i) for i in range(3)]
    rho = np.kron(np.kron(parts[0], parts[1]), parts[2])
    npt.assert_allclose(_trace_down(rho, [0, 2], 3), np.kron(parts[0], parts[2]), atol=1e-12)
    npt.assert_allclose(_trace_down(rho, [1], 3), parts[1], atol=1e-12)


def test_trace_down_preserves_trace():
    for seed in range(10):
        rho = random_density(8, 200 + seed)
        out = _trace_down(rho, [2], 3)
        npt.assert_allclose(np.trace(out), 1.0, atol=1e-12)


@pytest.mark.parametrize(
    "m",
    [np.diag([1e308, 1e308]), np.diag([1e308, 0, 1e308, 0]),
     np.diag([1e308, 1e308, -1e308, -1e308, 0, 0, 0, 0])],
    ids=["2x2", "4x4", "opposite-signs"],
)
def test_require_density_refuses_a_trace_past_the_float_range(m):
    # the Hermitian diagonal's finite entries summed past the float range with an
    # overflow warning, an untyped error under -W error, and opposite signs summed
    # to a NaN that passed the trace test; local_l1_coherence reads its matrix
    # through require_density
    with pytest.raises(NotDensityMatrixError, match="trace deviates from 1 by (inf|nan)"):
        require_density(m)
    if m.shape == (4, 4):
        with pytest.raises(NotDensityMatrixError, match="trace deviates from 1 by (inf|nan)"):
            local_l1_coherence(m, "A")


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
     (eig_hermitian, NotHermitianError), (matrix_sqrt_psd, NotHermitianError)],
    ids=["require_density", "density_factor", "eig_hermitian", "matrix_sqrt_psd"],
)
def test_a_matrix_numpy_cannot_read_is_the_callers_typed_error(call, error, value):
    with pytest.raises(error, match="cannot read a complex array"):
        call(value)


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
    # trace-3 matrix was a density, 2 I a unitary block, c1 = 0.9 a state
    # and a negative amplitude a loader's
    from mixedprep import c1_state, compile_real_state, eigenvalue_amplitudes

    calls = [
        lambda: density_factor(np.array([[5, 3], [-7, -2]]), tol),
        lambda: validate_circuit(Circuit(1, [UnitaryBlock((0,), 2 * np.eye(2))]), tol),
        lambda: is_unitary(2 * np.eye(2), tol),
        lambda: c1_state(0.9, tol),
        lambda: compile_real_state([-0.5, 1], tol),
        lambda: eigenvalue_amplitudes(SpectralDecomposition(np.array([2.0, -1.0]), np.eye(2)),
                                      tol),
        lambda: eig_hermitian(np.array([[0, 1], [-1, 0]]), tol),
        lambda: matrix_sqrt_psd(-np.eye(2), tol),
        lambda: orthonormal_completion(2 * np.eye(2)[:, :1], tol),
    ]
    for call in calls:
        with pytest.raises(OutOfRangeError, match="tol must be a finite number >= 0"):
            call()


@pytest.mark.parametrize("tol", [0, 0.0, 1e-8, np.float64(1e-8), np.float32(0.5), 1],
                         ids=["int-0", "zero", "float", "np-float64", "np-float32", "int"])
def test_every_finite_nonnegative_tolerance_is_taken(tol):
    density_factor(np.eye(2) / 2, tol)
    validate_circuit(Circuit(1, [UnitaryBlock((0,), np.eye(2))]), tol)


# -- density_factor's memo ------------------------------------------------------

def rank_two(d, seed):
    m = np.zeros((d, d), dtype=complex)
    m[:2, :2] = random_density(2, seed)
    return m


def test_a_memo_hit_has_the_bytes_of_a_miss():
    # full rank (Cholesky), rank deficient (pivoted Cholesky) and a list input
    for rho in (random_density(4, 3), rank_two(4, 3), random_density(8, 4).tolist()):
        linalg._memo.cache_clear()
        m, miss = density_factor(rho)
        own = np.array(rho, dtype=complex)
        m_hit, hit = density_factor(own)
        assert m_hit is own  # the caller's own converted array, as without the memo
        assert hit is miss and linalg._memo.cache_info().currsize == 1
        linalg._memo.cache_clear()
        assert density_factor(own)[1].tobytes() == hit.tobytes()
        assert np.array_equal(m, own)


def test_a_matrix_changed_after_it_was_stored_is_checked_again(cholesky_calls):
    rho = random_density(4, 6)
    original = rho.copy()
    density_factor(rho)
    rho[0, 1] += 0.5  # no longer Hermitian
    with pytest.raises(NotDensityMatrixError, match="not Hermitian"):
        density_factor(rho)
    rho[...] = original  # the stored bytes again, in either array: the stored factor
    assert density_factor(original)[1] is density_factor(rho)[1]
    assert cholesky_calls == [(4, 4)]


def test_a_refused_matrix_raises_on_every_call_and_is_never_stored():
    linalg._memo.cache_clear()
    indefinite = np.array([[0.5, 0.6], [0.6, 0.5]])
    for _ in range(3):
        with pytest.raises(NotDensityMatrixError, match="minimum eigenvalue -1.000e-01"):
            density_factor(indefinite)
        with pytest.raises(NotDensityMatrixError, match="trace deviates"):
            density_factor(2 * np.eye(2))
    assert not linalg._memo.cache_info().currsize


def test_a_stored_factor_cannot_be_written():
    linalg._memo.cache_clear()
    rho = random_density(4, 7)
    _, a = density_factor(rho)
    before = a.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        a *= 2
    assert density_factor(rho)[1].tobytes() == before


def test_the_memo_holds_at_most_its_entries(cholesky_calls):
    inputs = [random_density(2, seed) for seed in range(3 * linalg._MEMO_ENTRIES)]
    for rho in inputs:
        density_factor(rho)
    assert linalg._memo.cache_info().currsize == linalg._MEMO_ENTRIES
    cholesky_calls.clear()
    for rho in inputs[-linalg._MEMO_ENTRIES:]:  # the newest are held
        density_factor(rho)
    assert cholesky_calls == []
    density_factor(inputs[0])  # the oldest was evicted
    assert cholesky_calls == [(2, 2)]


def test_the_memo_evicts_the_least_recently_used(cholesky_calls):
    inputs = [random_density(2, seed) for seed in range(linalg._MEMO_ENTRIES + 1)]
    for rho in inputs[:-1]:
        density_factor(rho)
    density_factor(inputs[0])  # a hit: the oldest insert is now the most recent use
    density_factor(inputs[-1])  # one more: the least recently used, inputs[1], goes
    cholesky_calls.clear()
    density_factor(inputs[0])
    assert cholesky_calls == []
    density_factor(inputs[1])
    assert cholesky_calls == [(2, 2)]


def test_the_memo_bound_holds_under_threads():
    # more threads than cores, switching as often as the interpreter allows:
    # every factor read must be its own input's, and the bound must hold
    linalg._memo.cache_clear()
    inputs = [random_density(2, seed) for seed in range(400)]
    errors = []

    def work(start):
        try:
            for rho in inputs[start:] + inputs[:start]:
                _, a = density_factor(rho)
                assert np.abs(a @ a.conj().T - rho).max() <= 1e-15
                assert linalg._memo.cache_info().currsize <= linalg._MEMO_ENTRIES
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(50 * i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and linalg._memo.cache_info().currsize == linalg._MEMO_ENTRIES


def test_a_matrix_above_the_cap_bypasses_the_memo():
    linalg._memo.cache_clear()
    at_cap, above = random_density(64, 1), random_density(65, 1)  # 64 KiB and past it
    assert at_cap.nbytes == linalg._MEMO_BYTES
    assert not density_factor(at_cap)[1].flags.writeable
    assert linalg._memo.cache_info().currsize == 1
    _, a = density_factor(above)
    assert a.flags.writeable and linalg._memo.cache_info().currsize == 1
    assert density_factor(above)[1] is not a  # factored again


def test_the_memo_keys_on_the_tolerance():
    linalg._memo.cache_clear()
    rho = np.eye(2) / 2
    a = density_factor(rho, 1e-10)[1]
    assert density_factor(rho, np.float64(1e-10))[1] is a  # the same number
    assert density_factor(rho, 1e-8)[1] is not a
    assert linalg._memo.cache_info().currsize == 2


def test_one_figure_2_target_is_factored_once_per_matrix(cholesky_calls):
    # compile factors rho, and fidelity, concurrence and the l1 coherence the
    # prepared state: five factorizations without the memo, now one per matrix
    from mixedprep import (build_preparation_circuit, concurrence, fidelity, l1_coherence,
                           p00_family, reduced_density, run)

    rho = p00_family(0.3)
    bundle = build_preparation_circuit(rho)
    prepared = reduced_density(run(bundle.circuit), bundle.system_qubits)
    assert 1.0 - fidelity(prepared, rho) <= 1e-12
    concurrence(prepared)
    l1_coherence(prepared)
    assert cholesky_calls == [(4, 4), (4, 4)]


# -- density_factor at its own rank and size -------------------------------------

def full_cholesky_rule(m, tol=DEFAULT_TOL):
    """The rule density_factor had before the leading-block probe and the padded
    split: a full Cholesky, then the pivoted one and its residual, then eigh."""
    m = linalg._require_unit_trace(m, tol)
    d = m.shape[0]
    floor = d * linalg._EPS
    try:
        a = np.linalg.cholesky(m)
        if a.diagonal().real.min() ** 2 > floor:
            return a
    except np.linalg.LinAlgError:
        pass
    a = linalg._pivoted_cholesky(m, floor)
    resid = a @ a.conj().T
    resid -= m
    if d * float(np.abs(resid).max()) <= tol:
        return a
    w, v = np.linalg.eigh(m)
    if w[0] < -tol:
        raise NotDensityMatrixError(
            f"matrix is not positive semidefinite: minimum eigenvalue {w[0]:.3e} < -{tol:g}")
    keep = w > floor
    return v[:, keep] * np.sqrt(w[keep])


def of_rank(d, rank, seed, equal=False):
    """A rank-``rank`` density matrix on a Haar-random subspace, weights equal or
    Dirichlet: the construction of the lowrank-n8 benchmark targets."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, d, rank))
    q = np.linalg.qr(g[0] + 1j * g[1])[0]
    w = np.full(rank, 1.0 / rank) if equal else rng.dirichlet(np.ones(rank))
    rho = (q * w) @ q.conj().T
    return (rho + rho.conj().T) / 2


def with_pivot(d, j, pivot_sq, seed):
    """L L^dagger of trace 1 whose Cholesky pivot j is sqrt(pivot_sq) in exact
    arithmetic, with row j of L reaching back over every earlier column; the
    other pivots are about 1 / sqrt(d), well clear of the floor."""
    rng = np.random.default_rng(seed)
    low = np.tril(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), -1) / d
    low += np.eye(d)
    low[j, j] = 0.0
    low *= math.sqrt((1.0 - pivot_sq) / np.vdot(low, low).real)
    low[j, j] = math.sqrt(pivot_sq)
    return low @ low.conj().T


def oracle_cases(d):
    floor = d * linalg._EPS
    k = d // 8
    ranks = range(1, d) if d <= 64 else [*range(1, d, 9), 4, 16, k - 1, k, k + 1, d - 2, d - 1]
    cases = {f"rank{r}": of_rank(d, r, r) for r in ranks}
    cases["full-rank"] = random_density(d, d)
    for r in (1, 4, 16):  # the lowrank-n8 family
        for equal in (True, False):
            cases[f"lowrank-{r}-{'equal' if equal else 'random'}"] = of_rank(d, r, 7 * r, equal)
    for j in (1, k - 1, k, d - 1):  # inside the probed block, at its edge, past it
        for scale in (0.125, 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0, 1e3):  # 1/8: the probe's floor
            cases[f"pivot{j}-{scale}floor"] = with_pivot(d, j, scale * floor, j)
    return cases


@pytest.mark.parametrize("d", [16, 32, 64, 256])
def test_the_factor_has_the_bytes_of_the_full_cholesky_rule(d):
    for name, rho in oracle_cases(d).items():
        a, old = linalg._factor(rho, DEFAULT_TOL), full_cholesky_rule(rho)
        assert a.shape == old.shape and a.tobytes() == old.tobytes(), name


def test_a_probe_below_the_rank_skips_the_full_cholesky(cholesky_calls):
    # d // 8 = 32: a leading 32 x 32 block of a rank-16 matrix has no 17th pivot
    for rank in (1, 4, 16, 31):
        cholesky_calls.clear()
        density_factor(of_rank(256, rank, rank))
        assert cholesky_calls == [(32, 32)], rank
    cholesky_calls.clear()
    density_factor(of_rank(256, 64, 1))  # a rank the probe cannot see: both calls
    density_factor(random_density(256, 1))
    assert cholesky_calls == [(32, 32), (256, 256)] * 2


@pytest.mark.parametrize("d", [2, 4, 8])
def test_no_probe_at_the_paper_sizes(cholesky_calls, d):
    for rho in (random_density(d, d), of_rank(d, 1, d), of_rank(d, d // 2, d + 1)):
        linalg._memo.cache_clear()
        cholesky_calls.clear()
        density_factor(rho)
        assert cholesky_calls == [(d, d)]


def exact_rank_four(d):
    """Weights 1/4 on four basis states, the last one d - 1 so that the matrix
    is not padded: the pivoted Cholesky and its residual are exact."""
    m = np.zeros((d, d), dtype=complex)
    for i in (0, 1, d // 2, d - 1):
        m[i, i] = 0.25
    return m


def test_a_certified_residual_stands_in_for_the_hermitian_test(hermitian_passes):
    for rho in (of_rank(256, 4, 4), of_rank(256, 4, 5, equal=True), exact_rank_four(256)):
        hermitian_passes.clear()
        density_factor(rho)
        assert hermitian_passes == []


def test_a_matrix_the_probe_accepts_makes_the_hermitian_test(hermitian_passes):
    # the full Cholesky reads one triangle: a full-rank matrix, a rank the probe
    # cannot see, and every matrix without a probe (d <= 15) are tested first
    cases = [random_density(256, 2), of_rank(256, 64, 3)]
    cases += [rho for d in (2, 8, 15) for rho in (random_density(d, d), of_rank(d, 1, d))]
    for rho in cases:
        linalg._memo.cache_clear()
        hermitian_passes.clear()
        density_factor(rho)
        assert hermitian_passes == [rho.shape]


def test_a_tolerance_below_the_rounding_margin_makes_the_hermitian_test(hermitian_passes):
    # the residual of exact_rank_four is exactly 0, so it certifies at every tol;
    # the margin (r + 2) * eps * max_i G_ii = 6 * eps / 4 must be within tol / 4
    rho = exact_rank_four(256)
    margin = 6 * linalg._EPS * 0.25
    for tol, passes in ((0.0, 1), (1e-15, 1), (4 * margin, 0), (1e-14, 0), (DEFAULT_TOL, 0)):
        hermitian_passes.clear()
        a = density_factor(rho, tol)[1]
        assert len(hermitian_passes) == passes, tol
        assert a.tobytes() == full_cholesky_rule(rho, tol).tobytes()


def test_a_lowrank_round_trip_makes_no_hermitian_test(hermitian_passes):
    from mixedprep import simulator

    # the lowrank-n8 targets: compile's factor and fidelity's two are certified
    # by their residuals, so the d x d Hermitian test runs on none of them
    for rank in (1, 4, 16):
        for equal in (True, False):
            rho = of_rank(256, rank, rank, equal)
            hermitian_passes.clear()
            bundle = build_preparation_circuit(rho)
            state = simulator.run(bundle.circuit)
            prepared = simulator.reduced_density(state, bundle.system_qubits)
            assert 1.0 - fidelity(prepared, rho) <= 1e-12
            assert hermitian_passes == [], (rank, equal)


def padded(rho, d):
    out = np.zeros((d, d), dtype=complex)
    out[: len(rho), : len(rho)] = rho
    return out


@pytest.mark.parametrize(
    "p, d, rank", [(1, 2, 1), (3, 4, 3), (5, 8, 2), (250, 256, 250), (200, 256, 4)])
def test_a_padded_matrix_is_factored_at_its_own_size(cholesky_calls, p, d, rank):
    rho = of_rank(p, rank, p)
    m, a = density_factor(padded(rho, d))
    assert cholesky_calls and all(shape[0] <= p for shape in cholesky_calls)
    if p // 8 < 2 or rank >= p // 8:
        assert cholesky_calls[-1] == (p, p)
    linalg._memo.cache_clear()
    block = density_factor(rho)[1]
    assert a.shape == (d, block.shape[1]) and not a[p:].any()
    assert a[:p].tobytes() == block.tobytes()


def test_a_padded_fidelity_moves_by_at_most_d_eps(monkeypatch):
    from mixedprep import prepare_density

    for rho in (random_density(5, 3), of_rank(6, 2, 4), random_density(100, 5)):
        bundle = build_preparation_circuit(rho)
        traced = prepare_density(rho)
        linalg._memo.cache_clear()
        value = fidelity(traced, bundle.target)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_factor", full_cholesky_rule)
            linalg._memo.cache_clear()
            old = fidelity(traced, bundle.target)
        linalg._memo.cache_clear()
        assert abs(value - old) <= len(traced) * linalg._EPS
        assert 1.0 - value <= 1e-12


@pytest.mark.parametrize(
    "where, value, match",
    [((-1, 0), np.nan, "NaN or infinite"), ((-1, -1), np.nan, "NaN or infinite"),
     ((0, -1), 1e-3, "not Hermitian"), ((-1, 0), 1e-3, "not Hermitian")],
)
def test_a_matrix_that_is_not_exactly_padded_is_checked_whole(where, value, match):
    m = padded(random_density(3, 1), 4)
    m[where] = value
    linalg._memo.cache_clear()
    with pytest.raises(NotDensityMatrixError, match=match):
        density_factor(m)


def test_a_zero_diagonal_with_a_live_row_is_checked_whole():
    # not padded: the last row reaches back, and is refused, or accepted within tol, as it was
    for off in (1e-3, 1e-12):
        m = padded(random_density(3, 2), 4)
        m[-1, 0] = m[0, -1] = off
        linalg._memo.cache_clear()
        try:
            old = full_cholesky_rule(m)
        except NotDensityMatrixError:
            with pytest.raises(NotDensityMatrixError, match="minimum eigenvalue"):
                density_factor(m)
        else:
            assert density_factor(m)[1].tobytes() == old.tobytes()


@pytest.mark.parametrize(
    "call",
    [lambda: build_preparation_circuit(np.zeros((2, 2)), tol=2),
     lambda: concurrence(np.zeros((4, 4)), tol=1.5),
     lambda: fidelity(np.zeros((2, 2)), np.zeros((2, 2)), tol=1.5),
     lambda: density_factor(np.zeros((300, 300)), tol=1.5),
     lambda: density_factor(padded(np.full((1, 1), 1e-17), 4), tol=1.5)],
    ids=["compile", "concurrence", "fidelity", "large", "padded"],
)
def test_a_weightless_matrix_is_not_a_density_matrix(call):
    linalg._memo.cache_clear()
    with pytest.raises(NotDensityMatrixError, match="no weight"):
        call()


# The certificates' fast paths: each is checked against the expression it
# stands in front of, which decides every case the fast path leaves open.

def old_hermitian_test(m, tol, error):
    """The Hermitian test before its float-view prefilter, message included."""
    m = np.asarray(m, dtype=complex)
    if not np.isfinite(m).all():
        raise error("matrix has NaN or infinite entries")
    asym = float(np.abs(m - m.conj().T).max())
    if asym > tol:
        raise error(f"matrix is not Hermitian: max |m - m^dagger| = {asym:.3e} > {tol:g}")


def outcome(call, *args):
    """None for an accepted call, else the type and message of its refusal."""
    try:
        call(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle compares any refusal
        return type(exc), str(exc)
    return None


def asymmetric_cases(d, bases=None):
    """Exactly Hermitian bases with one entry moved, keyed by a name.

    On the diagonal base every moved entry is exact, so the asymmetry is the
    step itself (or twice it, on the diagonal) and lands on either side of
    ``tol``; on the dense base, and on any ``bases`` given, it is rounded,
    and the oracle decides.  Entry (0, d - 1) is in the upper triangle only.
    """
    tol = DEFAULT_TOL
    if bases is None:
        bases = {"diagonal": np.eye(d, dtype=complex) / d, "dense": random_density(d, d)}
    steps = {"tol(1+1e-9)": tol * (1 + 1e-9), "tol(1-1e-9)": tol * (1 - 1e-9),
             "tol/sqrt2": tol / math.sqrt(2), "tol/1.5": tol / 1.5, "2tol": 2 * tol}
    phases = {"re": 1, "im": 1j, "diag": (1 + 1j) / math.sqrt(2)}
    cases = {}
    for base_name, base in bases.items():
        cases[base_name] = base
        for step_name, step in steps.items():
            for phase_name, phase in phases.items():
                for i, j in ((0, d - 1), (d - 1, 1), (d // 2, d // 2)):
                    m = base.copy()
                    m[i, j] += step * phase
                    cases[f"{base_name}-{step_name}-{phase_name}-{i},{j}"] = m
        for value in (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)):
            for i, j in ((0, d - 1), (d // 2, d // 2)):
                m = base.copy()
                m[i, j] = value
                cases[f"{base_name}-{value}-{i},{j}"] = m
            m = base.copy()
            m[1, 0] = m[0, 1] = value  # a mirrored pair: inf - inf in the difference
            cases[f"{base_name}-mirrored-{value}"] = m
    return cases


def layouts(m):
    """``m`` in C order, in Fortran order and as a slice of a padded array."""
    d = m.shape[0]
    big = np.zeros((d + 3, d + 5), dtype=complex)
    big[:d, :d] = m
    return {"C": np.ascontiguousarray(m), "F": np.asfortranarray(m), "slice": big[:d, :d]}


@pytest.mark.parametrize("d", [4, 256])
def test_the_hermitian_test_decides_as_the_old_expression(d):
    tol = DEFAULT_TOL
    for name, m in asymmetric_cases(d).items():
        for layout, view in layouts(m).items():
            for error, call in ((NotHermitianError, eig_hermitian),
                                (NotDensityMatrixError, require_density)):
                old = outcome(old_hermitian_test, view, tol, error)
                assert outcome(linalg._require_hermitian, view, tol, error) == old, (name, layout)
                if old:  # the public callers refuse with the same message
                    assert outcome(call, view, tol) == old, (name, layout)


def test_the_hermitian_cases_reach_both_answers_and_the_exact_test():
    cases = asymmetric_cases(4)
    for name in ("diagonal-tol(1+1e-9)-re-0,3", "diagonal-tol(1+1e-9)-diag-0,3"):
        assert outcome(linalg._require_hermitian, cases[name], DEFAULT_TOL, NotHermitianError)
    for name in ("diagonal-tol(1-1e-9)-re-0,3", "diagonal-tol/sqrt2-re-0,3"):
        # accepted by the exact test only: the prefilter's 1.5 * max part exceeds tol
        part = np.abs((cases[name] - cases[name].conj().T).view(float)).max()
        assert 1.5 * part > DEFAULT_TOL
        assert outcome(linalg._require_hermitian, cases[name], DEFAULT_TOL, NotHermitianError) is None
    m = cases["diagonal-tol/1.5-diag-0,3"]  # the fast accept
    assert 1.5 * np.abs((m - m.conj().T).view(float)).max() <= DEFAULT_TOL


def test_a_non_finite_entry_never_takes_the_fast_accept():
    for d in (4, 256):
        for name, m in asymmetric_cases(d).items():
            if not np.isfinite(m).all():
                for tol in (DEFAULT_TOL, 1e300):
                    with pytest.raises(NotHermitianError, match="NaN or infinite"):
                        linalg._require_hermitian(m, tol, NotHermitianError)


@pytest.mark.parametrize("layout", ["C", "F", "slice"])
def test_the_hermitian_test_allocates_one_scratch_array(layout):
    # the scratch array takes m's memory order: a ufunc reading two layouts
    # allocated a 128 KiB buffer on top of it, 1.13 arrays at d = 256
    d = 256
    m = layouts(random_density(d, 3))[layout]
    linalg._require_hermitian(m, DEFAULT_TOL, NotHermitianError)
    tracemalloc.start()
    try:
        linalg._require_hermitian(m, DEFAULT_TOL, NotHermitianError)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the scratch array and its views; the exact test alone peaks at about 2.1 arrays
    assert peak <= m.nbytes + 4096


@pytest.mark.parametrize("entry", [1e-3, np.nan], ids=["asymmetric", "nan"])
def test_a_refused_hermitian_test_allocates_one_scratch_array(entry):
    # the refusal reads the moduli off the scratch array, and frees it before
    # the finite test's mask; it recomputed m - m^dagger, about 2.5 arrays
    d = 256
    m = random_density(d, 3)
    m[0, d - 1] += entry
    tracemalloc.start()
    try:
        with pytest.raises(NotHermitianError):
            linalg._require_hermitian(m, DEFAULT_TOL, NotHermitianError)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= m.nbytes + 4096


def old_order(m, tol=DEFAULT_TOL):
    """density_factor's checks in their order before a certified residual could
    stand in for the Hermitian test: that test first, then the full Cholesky rule."""
    old_hermitian_test(m, tol, NotDensityMatrixError)
    return full_cholesky_rule(m, tol)


def decision(call, *args):
    """The shape and bytes of an accepted call's factor, else its refusal's type and message."""
    try:
        a = call(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle compares any refusal
        return type(exc), str(exc)
    return a.shape, a.tobytes()


def order_cases(d):
    """Rank-deficient matrices with one entry moved, a non-Hermitian one whose
    trace is off 1 too, and indefinite ones within and beyond ``tol``."""
    tol = DEFAULT_TOL
    bases = {"rank1": of_rank(d, 1, d), "rank4": of_rank(d, 4, d + 1)}
    cases = asymmetric_cases(d, bases)
    for name, base in bases.items():
        m = base * (1 + 1e-3)
        m[0, d - 1] += 1e-3
        cases[f"{name}-asymmetric-trace"] = m
        # the top eigenvector u gains the weight the null vector v loses: trace 1,
        # least eigenvalue -step, and a residual the pivoted Cholesky cannot certify
        vecs = np.linalg.eigh(base)[1]
        u, v = vecs[:, -1], vecs[:, 0]
        for step in (tol / 2, 2 * tol):
            m = base + step * (np.outer(u, u.conj()) - np.outer(v, v.conj()))
            cases[f"{name}-indefinite-{step:g}"] = (m + m.conj().T) / 2
    return cases


@pytest.mark.parametrize("d", [16, 32, 64, 256])
def test_a_certified_residual_keeps_the_old_order_of_checks(d):
    # every accepted matrix keeps its factor's bytes, every refused one the first
    # failed check's type and message, on every memory layout
    kinds = {}
    for name, m in order_cases(d).items():
        old = decision(old_order, m)
        for layout, view in layouts(m).items():
            assert decision(linalg._factor, view, DEFAULT_TOL) == old, (name, layout)
        refused = old[0] is NotDensityMatrixError
        kinds[name] = old[1].split(":")[0].split(" by ")[0] if refused else "accepted"
    for name in ("rank1", "rank4", "rank4-indefinite-5e-11"):
        assert kinds[name] == "accepted"
    assert kinds["rank4-asymmetric-trace"] == "matrix is not Hermitian"  # not the trace
    assert kinds[f"rank1-inf-0,{d - 1}"] == "matrix has NaN or infinite entries"  # upper only
    assert kinds["rank4-indefinite-2e-10"] == "matrix is not positive semidefinite"
    assert "trace deviates from 1" in kinds.values()


def residual_case(d, step, entry):
    """A trace-1 rank-4 matrix on a Haar-random subspace, less ``step`` at one
    diagonal entry or, times (1 + i) / sqrt(2), at an off-diagonal pair: its
    pivoted Cholesky residual is about that step."""
    u = haar_unitary(d, 5)[:, :4]
    m = (u * 0.25) @ u.conj().T
    m = (m + m.conj().T) / 2
    if entry == "diagonal":
        m[d // 2, d // 2] -= step
    else:  # an indefinite pair whose residual has equal real and imaginary parts
        c = step * (1 + 1j) / math.sqrt(2)
        m[d // 2, 3] -= c
        m[3, d // 2] -= c.conjugate()
    return m


# The prefilter accepts at 1.5 * d * max part <= tol, the exact test at
# d * max |S| <= tol: a real residual lies between them for ratios in (2/3, 1],
# one with equal parts for ratios in (sqrt(2)/1.5, 1]; past sqrt(2) a prefilter
# without its factor 1.5 would accept the latter
@pytest.mark.parametrize("entry", ["diagonal", "pair"])
@pytest.mark.parametrize("ratio", [0.5, 0.7, 0.8, 0.96, 0.99, 1.01, 1.2, 1.5])
def test_the_residual_decides_as_the_old_expression(hermitian_solves, entry, ratio):
    d = 256
    tol = DEFAULT_TOL
    m = residual_case(d, ratio * tol / d, entry)
    a = linalg._pivoted_cholesky(m, d * linalg._EPS)
    resid = a @ a.conj().T - m
    exact = d * float(np.abs(resid).max())
    part = d * float(np.abs(resid.view(float)).max())
    fast = 2 / 3 if entry == "diagonal" else math.sqrt(2) / 1.5
    assert (1.5 * part <= tol) == (ratio < fast) and (exact <= tol) == (ratio < 1)
    hermitian_solves.clear()
    got = density_factor(m, tol)[1]
    assert hermitian_solves == ([] if exact <= tol else [(d, d)])
    assert got.tobytes() == full_cholesky_rule(m, tol).tobytes()


def signed_permutation(d, seed):
    """A unitary whose Gram is exact: a permutation with entries 1, -1, 1j or -1j."""
    rng = np.random.default_rng(seed)
    q = np.zeros((d, d), dtype=complex)
    q[rng.permutation(d), np.arange(d)] = np.array([1, -1, 1j, -1j])[rng.integers(0, 4, d)]
    return q


@pytest.mark.parametrize("d", [256, 512])
def test_the_gram_decides_as_the_old_expression(d):
    tol = DEFAULT_TOL
    half = d // 2
    pairs = {"diagonal-block": (3, 100), "diagonal-block-far": (half + 1, d - 2),
             "off-diagonal-block": (5, half + 7), "off-diagonal-block-lower": (d - 1, 0),
             "one-leaf": (130, 250), "two-leaves": (100, 200)}  # 128-column leaves
    for name, (i, j) in pairs.items():
        for scale in (1 + 1e-9, 1 - 1e-9):
            q = signed_permutation(d, i + j)
            q[:, j] += tol * scale * q[:, i]  # (Q^dagger Q)[i, j] = tol * scale, exactly
            old = float(np.abs(q.conj().T @ q - np.eye(d)).max())
            assert old == tol * scale
            assert linalg._gram_deviation(q) == old, (name, scale)
            assert is_unitary(q, tol) == (scale < 1), (name, scale)
            if scale < 1:
                assert orthonormal_completion(q, tol).tobytes() == q.tobytes()
            else:
                message = f"max Gram deviation {old:.3e} > {tol:g}"
                with pytest.raises(NotOrthonormalError, match=re.escape(message)):
                    orthonormal_completion(q, tol)


@pytest.mark.parametrize("column", [0, 127, 128, 255, 256, 511])
def test_a_nan_in_any_gram_block_is_not_unitary(column):
    q = signed_permutation(512, column)
    q[column, column] = np.nan
    assert np.isnan(linalg._gram_deviation(q))
    assert not is_unitary(q)
    q[column, column] = np.inf
    assert not is_unitary(q)

