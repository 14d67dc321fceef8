"""Metrics: fidelity, coherence, concurrence, Pauli expectations, tomography."""
import re
import tracemalloc
from functools import reduce

import numpy as np
import numpy.testing as npt
import pytest

from mixedprep import (
    BadLabelError,
    DimensionMismatchError,
    MissingExpectationError,
    NoConvergenceError,
    NotAProbabilityVectorError,
    NotDensityMatrixError,
    OutOfRangeError,
    build_preparation_circuit,
    c1_state,
    concurrence,
    exact_pauli_expectations,
    fidelity,
    ginibre_density,
    l1_coherence,
    local_l1_coherence,
    p00_family,
    partial_trace,
    pauli_labels,
    pauli_matrix,
    prepare_density,
    run,
    sample_pauli_expectations,
    tomography_reconstruct,
)
from mixedprep import linalg, metrics
from mixedprep.metrics import PAULI_1Q


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
    xz = np.kron(pauli_matrix("X"), pauli_matrix("Z"))
    npt.assert_array_equal(pauli_matrix("XZ"), xz)
    with pytest.raises(BadLabelError):
        pauli_matrix("XQ")
    with pytest.raises(BadLabelError):
        pauli_matrix("")
    assert len(pauli_labels(2)) == 16


def test_pauli_matrix_bytes_equal_kron_fold():
    for n in range(1, 5):
        for label in pauli_labels(n):
            ref = reduce(np.kron, [PAULI_1Q[ch] for ch in label])
            assert pauli_matrix(label).tobytes() == ref.tobytes(), label


def test_pauli_matrix_returns_fresh_arrays(monkeypatch):
    monkeypatch.setitem(PAULI_1Q, "X", PAULI_1Q["X"].copy())  # the shared table survives a failure
    pauli_matrix("X")[0, 0] = 5
    pauli_matrix("XI")[0, 0] = 5
    assert pauli_matrix("X").tobytes() == PAULI_1Q["X"].tobytes()
    assert PAULI_1Q["X"][0, 0] == 0
    assert pauli_matrix("X")[0, 0] == 0
    assert pauli_matrix("XI")[0, 0] == 0


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
    # a pure state (a one-column factor) against a near-pure one; fidelity
    # shifts like sqrt(mixing weight), so eta = 1e-10 keeps the gap below ~2e-5
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
            fidelity(np.kron(a1, a2), np.kron(b1, b2)),
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


def with_spectrum(p, u):
    m = (u * np.asarray(p, dtype=float)) @ u.conj().T
    return (m + m.conj().T) / 2


def oracle_spectra(d, rng):
    """Spectrum pairs (p, q) for commuting states, and whether a rotation keeps them exact."""
    def mixed():
        return rng.dirichlet(np.ones(d))

    zeros = [0.0] * (d - 2)
    support = np.concatenate([np.ones(d // 2), np.zeros(d - d // 2)])
    pairs = [(mixed(), mixed(), True)]
    # both sides of the 1e-12 top-weight threshold of the former pure-state shortcut
    for eps in (1e-14, 1e-13, 9e-13, 1.1e-12, 1e-11, 1e-9):
        pairs.append(([1.0 - eps, eps] + zeros, mixed(), False))
        pairs.append(([1.0 - eps, eps] + zeros, [eps, 1.0 - eps] + zeros, False))
    pairs.append(([1.0, 0.0] + zeros, mixed(), False))
    # rank-deficient pairs: on one support, and on overlapping supports
    p, q = mixed() * support, mixed() * support
    pairs.append((p / p.sum(), q / q.sum(), True))
    q = mixed() * support[::-1]
    pairs.append((p / p.sum(), q / q.sum(), False))
    return pairs


@pytest.mark.parametrize("d", [2, 4, 8])
def test_fidelity_commuting_pairs_match_closed_form(d):
    # rho = U diag(p) U^dagger and sigma = U diag(q) U^dagger have
    # F = (sum_i sqrt(p_i q_i))**2.  With U = I the float matrices hold p and q
    # exactly.  A Haar U rounds every entry by ~eps, which moves a weight eps'
    # of the spectrum by ~eps and so F by ~eps / sqrt(eps') (1e-10 at
    # eps' = 1e-12) for any method; rotated cases therefore keep every weight
    # either well above rounding or zero on both sides.
    rng = np.random.default_rng(d)
    for p, q, rotate in oracle_spectra(d, rng):
        exact = float(np.sum(np.sqrt(np.multiply(p, q))) ** 2)
        for u in [np.eye(d), haar_unitary(d, 70 + d)] if rotate else [np.eye(d)]:
            rho, sigma = with_spectrum(p, u), with_spectrum(q, u)
            assert abs(fidelity(rho, sigma) - exact) <= 1e-12, (p, q)
            assert abs(fidelity(sigma, rho) - exact) <= 1e-12, (p, q)
    # the former shortcut read this as <psi|sigma|psi> = 0.5
    eps = 9e-13
    npt.assert_allclose(
        fidelity(np.diag([1.0 - eps, eps]), np.eye(2) / 2),
        0.5 + np.sqrt(eps * (1.0 - eps)), rtol=0, atol=1e-15,
    )


def mp_fidelity(rho, sigma):
    """(Tr sqrt(sqrt(rho) sigma sqrt(rho)))**2 of the float matrices in mpmath."""
    import mpmath

    def mat(m):
        return mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in m.tolist()])

    w, v = mpmath.eighe(mat(rho))
    root = v * mpmath.diag([mpmath.sqrt(x) if x > 0 else 0 for x in w]) * v.H
    m = root * mat(sigma) * root
    w = mpmath.eighe((m + m.H) / 2, eigvals_only=True)
    return sum(mpmath.sqrt(x) for x in w if x > 0) ** 2


def test_fidelity_against_50_digit_reference():
    mpmath = pytest.importorskip("mpmath")
    worst = {"near-pure": 0.0, "ginibre": 0.0, "rank-deficient": 0.0}
    with mpmath.workdps(50):
        for i in range(20):
            d = (2, 4, 8)[i % 3]
            rng = np.random.default_rng(i)
            eps = 10.0 ** rng.uniform(-13, -8)  # smallest weight >= 7e-15, above rounding
            tail = rng.uniform(1.0, 2.0, d - 1)
            near_pure = np.concatenate([[1.0 - eps], tail * eps / tail.sum()])
            k = int(rng.integers(1, d))
            deficient = np.concatenate([rng.dirichlet(np.ones(k)), np.zeros(d - k)])
            cases = [
                ("near-pure", with_spectrum(near_pure, haar_unitary(d, i)), ginibre_density(d, 100 + i)),
                ("ginibre", ginibre_density(d, 200 + i), ginibre_density(d, 300 + i)),
                ("rank-deficient", with_spectrum(deficient, haar_unitary(d, 400 + i)),
                 ginibre_density(d, 500 + i)),
            ]
            for kind, rho, sigma in cases:
                err = abs(fidelity(rho, sigma) - float(mp_fidelity(rho, sigma)))
                worst[kind] = max(worst[kind], err)
    assert worst["near-pure"] <= 1e-9  # measured 1.3e-11
    assert worst["ginibre"] <= 1e-9  # measured 5.6e-16
    # A zero eigenvalue is stored as rounding noise of ~d * eps, and sigma has
    # weight on its eigenvector: F moves by up to ~sqrt(d * eps) = 4.2e-8 at
    # d = 8, for every method.
    assert worst["rank-deficient"] <= 1e-8  # measured 4.5e-9


@pytest.mark.parametrize(
    "bad, match",
    [
        (np.array([[0.5, np.nan], [np.nan, 0.5]]), "NaN or infinite"),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), "Hermitian"),
        (np.eye(2), "trace"),
    ],
    ids=["nan", "non-hermitian", "trace-2"],
)
def test_fidelity_rejects_invalid_arguments(bad, match):
    for args in ((bad, np.eye(2) / 2), (np.eye(2) / 2, bad)):
        with pytest.raises(NotDensityMatrixError, match=match):
            fidelity(*args)


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
    npt.assert_allclose(local_l1_coherence(np.kron(plus, proj([1, 0])), "A"), 1.0, atol=1e-12)
    with pytest.raises(DimensionMismatchError):
        local_l1_coherence(np.eye(2) / 2, "A")
    with pytest.raises(BadLabelError):
        local_l1_coherence(bell_rho(), "C")


def test_local_l1_coherence_has_the_bytes_of_the_checked_partial_trace():
    # it traces its certified matrix without partial_trace's checks, on figure 2's c1 grid
    for c1 in np.linspace(-0.32, 0.32, 21):
        for rho in (c1_state(c1), prepare_density(c1_state(c1))):
            for qubit, letter in enumerate("AB"):
                mags = np.abs(partial_trace(rho, {qubit}, 2))
                assert local_l1_coherence(rho, letter) == float(mags.sum() - mags.trace())


def test_a_subsystem_index_names_the_same_qubit_as_its_letter():
    for rho in (c1_state(0.2), ginibre_density(4, 3)):
        assert local_l1_coherence(rho, 0) == local_l1_coherence(rho, "A")
        assert local_l1_coherence(rho, 1) == local_l1_coherence(rho, "B")
    rho = ginibre_density(4, 3)
    assert local_l1_coherence(rho, 0) != local_l1_coherence(rho, 1)


def test_concurrence_landmarks():
    npt.assert_allclose(concurrence(bell_rho()), 1.0, atol=1e-9)
    assert concurrence(np.eye(4) / 4) == 0.0
    for p, expected in [(1 / 3, 0.0), (0.5, 0.25), (0.8, 0.7), (1.0, 1.0)]:
        werner = p * bell_rho() + (1 - p) * np.eye(4) / 4
        npt.assert_allclose(concurrence(werner), max(0.0, (3 * p - 1) / 2), atol=1e-9)
        assert expected == pytest.approx(max(0.0, (3 * p - 1) / 2))
    with pytest.raises(DimensionMismatchError):
        concurrence(np.eye(2) / 2)


def test_concurrence_x_state_closed_form():
    # X-states: C = 2 max(0, |r14| - sqrt(r22 r33), |r23| - sqrt(r11 r44)),
    # with the rank-2 endpoints p00 = 0 and 1 among them
    for p00 in np.linspace(0.0, 1.0, 21):
        for theta in (np.pi / 8, 0.3, np.pi / 4):
            rho = p00_family(float(p00), theta, np.pi / 2 - theta).real
            expected = 2 * max(0.0, abs(rho[0, 3]) - np.sqrt(rho[1, 1] * rho[2, 2]),
                               abs(rho[1, 2]) - np.sqrt(rho[0, 0] * rho[3, 3]))
            npt.assert_allclose(concurrence(rho), expected, rtol=0, atol=1e-14)


def test_concurrence_local_unitary_invariant():
    for seed in range(10):
        rho = ginibre_density(4, 300 + seed)
        u = np.kron(haar_unitary(2, seed), haar_unitary(2, 77 + seed))
        rotated = u @ rho @ u.conj().T
        npt.assert_allclose(concurrence(rotated), concurrence(rho), atol=1e-9)


def test_pauli_decompose_examples():
    # coefficients Tr(rho P) of I/4, c1_state and the Bell state in closed form
    e = exact_pauli_expectations(np.eye(4) / 4)
    assert max(abs(v) for label, v in e.items() if label != "II") == 0

    c1 = 0.2
    e = exact_pauli_expectations(c1_state(c1))
    expected = {"XI": c1, "IX": c1, "XX": c1, "YY": c1, "ZZ": c1}
    for label in pauli_labels(2)[1:]:
        npt.assert_allclose(e[label], expected.get(label, 0.0), atol=1e-12, err_msg=label)

    e = exact_pauli_expectations(bell_rho())
    expected = {"XX": 1, "YY": -1, "ZZ": 1}
    for label in pauli_labels(2)[1:]:
        npt.assert_allclose(e[label], expected.get(label, 0.0), atol=1e-12, err_msg=label)


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


def test_tomography_refuses_short_table_before_allocating():
    with pytest.raises(MissingExpectationError, match=repr("I" * 11 + "X")):
        tomography_reconstruct({}, 12)
    # past the largest system register that compiles, before any label is made
    for n in (13, 40, 2 ** 40, 10 ** 400):
        with pytest.raises(OutOfRangeError, match="qubit count must be an integer in 0..12"):
            tomography_reconstruct({}, n)
    tracemalloc.start()
    try:
        with pytest.raises(MissingExpectationError, match=repr("I" * 8 + "X")):
            tomography_reconstruct({}, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # the d x d estimate alone would be 4 MiB


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("label", ["X", "ZZ"])
def test_tomography_rejects_non_finite(bad, label):
    n = len(label)
    est = {lab: 0.0 for lab in pauli_labels(n)}
    est[label] = bad
    with pytest.raises(OutOfRangeError, match=re.escape(f"{label!r} is {bad}, not finite")):
        tomography_reconstruct(est, n)


@pytest.mark.parametrize("value", [1e308, 1.5, -1.5, -1e308, 1.0 + 1e-9])
@pytest.mark.parametrize("label", ["X", "ZZ", "II"])
def test_tomography_refuses_an_estimate_beyond_plus_or_minus_one(value, label):
    # each was clamped into some state: X = 1e308 or 1.5 gave |+><+|
    n = len(label)
    est = {lab: 0.0 for lab in pauli_labels(n)}
    est["I" * n] = 1.0
    est[label] = value
    with pytest.raises(OutOfRangeError, match=re.escape(f"{label!r} is {value}, outside")):
        tomography_reconstruct(est, n)


def test_tomography_takes_an_estimate_within_tolerance_of_plus_or_minus_one():
    for value in (1.0, -1.0, 1.0 + 1e-11, -1.0 - 1e-11):
        rec = tomography_reconstruct({"X": value, "Y": 0.0, "Z": 0.0}, 1)
        npt.assert_allclose(rec, [[0.5, value / 2], [value / 2, 0.5]], atol=1e-10)


def test_unconverged_solve_raises_typed_error(monkeypatch):
    def unconverged(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", unconverged)
    with pytest.raises(NoConvergenceError):
        tomography_reconstruct({"X": 0.0, "Y": 0.0, "Z": 0.0}, 1)


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


@pytest.mark.parametrize("table", [{"Z": 1.0, "z": -1.0}, {"Q": 1.0}, {"XX": 1.0}, {1: 1.0}],
                         ids=["conflicting-case", "unknown-letter", "too-long", "not-a-string"])
def test_tomography_refuses_conflicting_or_unknown_labels(table):
    # a conflict would keep whichever key came last; an unknown key would be ignored
    with pytest.raises(BadLabelError):
        tomography_reconstruct({"X": 0.0, "Y": 0.0, "Z": 1.0, **table}, 1)


@pytest.mark.parametrize("n", [2.5, True, np.float64(1.0)], ids=["float", "bool", "np-float"])
def test_tomography_rejects_non_integer_qubit_count(n):
    with pytest.raises(DimensionMismatchError, match="integer >= 1"):
        tomography_reconstruct({"X": 0.0, "Y": 0.0, "Z": 1.0}, n)


@pytest.mark.parametrize(
    "value", [0.5 + 0.5j, np.complex128(0.5 - 1e-3j), complex(0.0, np.nan), "a"],
    ids=["complex", "np-complex", "nan-imag", "str"],
)
def test_tomography_rejects_complex_estimates(value):
    with pytest.raises(OutOfRangeError, match="must be real"):
        tomography_reconstruct({"X": 0.0, "Y": 0.0, "Z": value}, 1)


def test_tomography_reads_zero_imaginary_parts_as_real():
    est = {"X": 0.0, "Y": 0.0, "Z": 0.5}
    npt.assert_array_equal(tomography_reconstruct({**est, "Z": 0.5 + 0j}, 1),
                           tomography_reconstruct(est, 1))


def test_label_that_is_not_a_string_is_a_bad_label():
    with pytest.raises(BadLabelError):
        pauli_matrix(5)


@pytest.mark.parametrize("n", [-1, 1.5, True, None], ids=["negative", "float", "bool", "none"])
def test_pauli_labels_rejects_a_count_that_is_not_an_integer(n):
    with pytest.raises(OutOfRangeError, match="qubit count must be an integer in 0..12"):
        pauli_labels(n)


@pytest.mark.parametrize("n", [13, 2 ** 40, 10 ** 400], ids=["13", "2**40", "beyond-float"])
def test_pauli_labels_stop_at_the_largest_system_register(n):
    # 12 qubits, MAX_QUBITS // 2, is the largest target that compiles
    with pytest.raises(OutOfRangeError, match="qubit count must be an integer in 0..12"):
        pauli_labels(n)


@pytest.mark.parametrize("subsystem", [True, False, 0.0, None],
                         ids=["true", "false", "float", "none"])
def test_local_coherence_rejects_a_subsystem_that_is_not_a_name_or_an_integer(subsystem):
    with pytest.raises(BadLabelError):
        local_l1_coherence(np.eye(4) / 4, subsystem)


def test_exact_pauli_expectations_needs_a_qubit_register():
    for rho in (np.eye(3) / 3, np.ones((1, 1))):
        with pytest.raises(DimensionMismatchError, match="not a power of two >= 2"):
            exact_pauli_expectations(rho)


@pytest.mark.parametrize(
    "value", [[[1, 0], [0]], {"a": 1}, [[10 ** 400]]], ids=["ragged", "dict", "beyond-float"],
)
def test_fidelity_and_concurrence_read_their_arguments_through_the_typed_door(value):
    half = np.eye(2) / 2
    for call in (lambda: fidelity(value, half), lambda: fidelity(half, value),
                 lambda: concurrence(value)):
        with pytest.raises(NotDensityMatrixError, match="cannot read a complex array"):
            call()


@pytest.mark.parametrize("value", [[[1, 0], [0]], [1, 2]], ids=["ragged", "list"])
def test_tomography_refuses_expectations_that_are_not_a_mapping(value):
    with pytest.raises(MissingExpectationError, match="must map Pauli strings"):
        tomography_reconstruct(value, 1)


# -- the Pauli folds against the per-label loop --------------------------------

def oracle_tomography(expectations, n):
    """Linear inversion with one ``raw += c * P`` per label, each P its own Kronecker fold."""
    table = {k.upper(): float(v) for k, v in expectations.items()}
    table.setdefault("I" * n, 1.0)
    dim = 2 ** n
    raw = np.zeros((dim, dim), dtype=complex)
    for label in pauli_labels(n):
        raw += table[label] * reduce(np.kron, [PAULI_1Q[ch] for ch in label])
    total = raw.copy()
    raw /= dim
    raw = (raw + raw.conj().T) / 2
    w, v = metrics._eigh(raw)
    w = np.clip(w, 0.0, None)
    w /= float(w.sum())
    return total, (v * w) @ v.conj().T


def tomography_tables():
    for n in range(1, 6):
        yield f"exact-n{n}", n, exact_pauli_expectations(ginibre_density(2 ** n, 30 + n))
    for d in (2, 4, 8):
        bundle = build_preparation_circuit(ginibre_density(d, 50 + d))
        state = run(bundle.circuit)
        n = len(bundle.system_qubits)
        yield f"shots-d{d}", n, sample_pauli_expectations(state, bundle.system_qubits, 1000, d)


TOMOGRAPHY_TABLES = {name: (n, table) for name, n, table in tomography_tables()}


@pytest.mark.parametrize("name", sorted(TOMOGRAPHY_TABLES))
def test_tomography_fold_matches_the_per_label_sum(name):
    n, table = TOMOGRAPHY_TABLES[name]
    coefficients = np.array([table.get(label, 1.0) for label in pauli_labels(n)])
    total, estimate = oracle_tomography(table, n)
    npt.assert_allclose(linalg._pauli_density(coefficients), total / 2 ** n, rtol=0, atol=1e-15)
    npt.assert_allclose(tomography_reconstruct(table, n), estimate, rtol=0, atol=1e-15)


@pytest.mark.parametrize("k", range(1, 7))
def test_a_pauli_density_of_real_coefficients_is_exactly_hermitian(k):
    # tomography_reconstruct hands the fold to eigh as it is: symmetrizing it
    # would change no byte.  The diagonal's imaginary zeros are +0.0, so the
    # byte test is against the Hermitized matrix, not the sign-flipped conjugate.
    rng = np.random.default_rng(k)
    shots = rng.integers(-1000, 1001, (100, 4 ** k)) / 1000  # as 1000-shot estimates
    for c in [*rng.standard_normal((100, 4 ** k)), *shots]:
        raw = linalg._pauli_density(c)
        assert np.array_equal(raw, raw.conj().T)
        assert raw.tobytes() == ((raw + raw.conj().T) / 2).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_coefficients_fold_matches_the_trace_with_each_kron(n):
    for seed in range(5):
        rho = ginibre_density(2 ** n, 90 + seed)
        got = linalg._pauli_coefficients(rho).ravel()
        for c, label in zip(got, pauli_labels(n)):
            kron = reduce(np.kron, [PAULI_1Q[ch] for ch in label])
            assert abs(c - np.trace(rho @ kron)) <= 1e-15, label
        assert got.tolist() == list(exact_pauli_expectations(rho).values())


# tracemalloc peak of the per-label loop, which built one Pauli matrix at a
# time, on the call below
PER_LABEL_TOMOGRAPHY_PEAK = 996_957


def test_tomography_peak_stays_within_the_chunk_budget():
    # unbounded, the 4096 labels of n = 6 would be one 256 MiB stack
    table = dict.fromkeys(pauli_labels(6), 0.0)
    table["I" * 6] = 1.0
    tracemalloc.start()
    try:
        rec = tomography_reconstruct(table, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PER_LABEL_TOMOGRAPHY_PEAK
    npt.assert_allclose(rec, np.eye(64) / 64, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2])
def test_an_estimate_with_no_mass_left_after_clamping_is_refused(n):
    # every value 0, the all-identity one included: the raw estimate is 0
    with pytest.raises(NotAProbabilityVectorError, match="clamped eigenvalue mass is zero"):
        tomography_reconstruct(dict.fromkeys(pauli_labels(n), 0.0), n)
