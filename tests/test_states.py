"""State-family generators: X-states, the c1 family, Ginibre sampling."""
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from mixedprep import (
    MAX_QUBITS,
    BadProbabilitiesError,
    NotPSDError,
    OutOfRangeError,
    XStateParams,
    c1_state,
    c1_valid_range,
    concurrence,
    eig_hermitian,
    ginibre_density,
    is_density,
    l1_coherence,
    p00_family,
    p00_family_probs,
    x_state,
    x_state_eigenvectors,
)


def test_eigenvectors_orthonormal():
    for theta, phi in [(0.0, 0.0), (np.pi / 8, np.pi / 8), (0.3, 1.2), (np.pi / 4, np.pi / 4)]:
        v = x_state_eigenvectors(theta, phi)
        npt.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-14)


def test_x_state_bell_limit():
    rho = x_state(XStateParams(np.pi / 4, np.pi / 4, (1.0, 0.0, 0.0, 0.0)))
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    npt.assert_allclose(rho, bell, atol=1e-15)


def test_x_state_diagonal_limit():
    a, b, c, d = 0.4, 0.3, 0.2, 0.1
    rho = x_state(XStateParams(0.0, 0.0, (a, b, c, d)))
    npt.assert_allclose(rho, np.diag([a, c, b, d]), atol=1e-15)


def test_x_state_shape_and_entries():
    theta = phi = np.pi / 8
    probs = p00_family_probs(0.3)
    rho = x_state(XStateParams(theta, phi, probs))
    # zeros away from the two diagonals
    mask = np.zeros((4, 4), dtype=bool)
    for i, j in [(0, 1), (0, 2), (1, 3), (2, 3)]:
        mask[i, j] = mask[j, i] = True
    assert np.abs(rho[mask]).max() <= 1e-15
    # anti-diagonal couplings carry the stated products
    w = (probs[0] - probs[3]) * np.cos(theta) * np.sin(theta)
    z = (probs[1] - probs[2]) * np.cos(phi) * np.sin(phi)
    npt.assert_allclose(rho[0, 3], w, atol=1e-15)
    npt.assert_allclose(rho[1, 2], z, atol=1e-15)
    # trace closes the diagonal: d = 1 - a - b - c
    diag = np.diag(rho).real
    npt.assert_allclose(diag[3], 1 - diag[0] - diag[1] - diag[2], atol=1e-14)
    assert is_density(rho)


def test_x_state_spectrum_matches_probs():
    probs = (0.4, 0.3, 0.2, 0.1)
    rho = x_state(XStateParams(0.3, 0.7, probs))
    dec = eig_hermitian(rho)
    npt.assert_allclose(dec.eigenvalues, sorted(probs, reverse=True), atol=1e-10)


def test_x_state_bad_probs():
    with pytest.raises(BadProbabilitiesError):
        x_state(XStateParams(0.1, 0.1, (0.5, 0.5, 0.5, -0.5)))
    with pytest.raises(BadProbabilitiesError):
        x_state(XStateParams(0.1, 0.1, (0.3, 0.3, 0.3, 0.3)))
    with pytest.raises(BadProbabilitiesError):
        x_state(XStateParams(0.1, 0.1, (1.0, 0.0, 0.0)))


def test_p00_probs_endpoints():
    npt.assert_allclose(p00_family_probs(0.0), (0, 1 / 3, 0, 2 / 3), atol=1e-15)
    npt.assert_allclose(p00_family_probs(1.0), (1 / 3, 0, 2 / 3, 0), atol=1e-15)
    npt.assert_allclose(p00_family_probs(0.5), (1 / 6, 1 / 6, 1 / 3, 1 / 3), atol=1e-15)
    with pytest.raises(OutOfRangeError):
        p00_family_probs(1.2)


def test_p00_family_grid():
    for p00 in np.linspace(0, 1, 101):
        probs = p00_family_probs(float(p00))
        npt.assert_allclose(sum(probs), 1.0, atol=1e-12)
    assert is_density(p00_family(0.3))


def test_c1_zero_is_maximally_mixed():
    npt.assert_allclose(c1_state(0.0), np.eye(4) / 4, atol=0)


def test_c1_explicit_matrix():
    c = 0.2
    expected = np.array(
        [
            [1 + c, c, c, 0],
            [c, 1 - c, 2 * c, c],
            [c, 2 * c, 1 - c, c],
            [0, c, c, 1 + c],
        ]
    ) / 4
    npt.assert_allclose(c1_state(c), expected, atol=1e-15)
    npt.assert_allclose(l1_coherence(c1_state(c)), 3 * c, atol=1e-12)
    npt.assert_allclose(concurrence(c1_state(c)), 0.0, atol=1e-9)


def test_c1_physical_range():
    lo, hi = c1_valid_range()
    npt.assert_allclose(lo, -1 / 3, atol=1e-3)
    npt.assert_allclose(hi, 1 / 3, atol=1e-3)
    with pytest.raises(NotPSDError):
        c1_state(0.5)
    with pytest.raises(NotPSDError):
        c1_state(-0.4)
    assert is_density(c1_state(0.33))
    assert is_density(c1_state(-0.33))
    # the closed form: both endpoints are states, a step past either is not
    assert (lo, hi) == (-1 / 3, 1 / 3)
    assert is_density(c1_state(lo)) and is_density(c1_state(hi))
    with pytest.raises(NotPSDError):
        c1_state(hi + 1e-9)
    with pytest.raises(NotPSDError):
        c1_state(lo - 1e-9)
    # huge finite scalars, numpy's included, are out of range without an
    # overflow warning
    for huge in (np.float32(3e38), np.float64(-1e308), 1e308):
        with pytest.raises(NotPSDError, match="outside the physical range"):
            c1_state(huge)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_parameters_rejected(bad):
    with pytest.raises(OutOfRangeError):
        c1_state(bad)
    with pytest.raises(OutOfRangeError):
        x_state_eigenvectors(bad, 0.3)
    with pytest.raises(OutOfRangeError):
        x_state_eigenvectors(0.3, bad)
    with pytest.raises(OutOfRangeError):
        p00_family(0.5, bad)


def test_ginibre_basic_properties():
    for seed in (0, 1, 42):
        rho = ginibre_density(2, seed)
        npt.assert_allclose(np.trace(rho), 1.0, atol=1e-12)
        assert is_density(rho)
    with pytest.raises(OutOfRangeError):
        ginibre_density(1, 0)


@pytest.mark.parametrize("seed", [-1, 1.5, True, None], ids=["negative", "float", "bool", "none"])
def test_ginibre_rejects_non_integer_seed(seed):
    with pytest.raises(OutOfRangeError, match="seed must be an integer >= 0"):
        ginibre_density(4, seed)


@pytest.mark.parametrize("d", [4.0, True, None], ids=["float", "bool", "none"])
def test_ginibre_rejects_non_integer_dimension(d):
    with pytest.raises(OutOfRangeError, match="dimension must be an integer >= 2"):
        ginibre_density(d, 1)


def test_ginibre_deterministic_and_distinct():
    a = ginibre_density(4, 42)
    b = ginibre_density(4, 42)
    npt.assert_array_equal(a, b)
    mats = [ginibre_density(2, seed) for seed in range(100)]
    for i in range(100):
        for j in range(i + 1, 100):
            assert np.abs(mats[i] - mats[j]).max() > 1e-6


def test_ginibre_mean_purity():
    # frozen oracle from a 200k-sample run: mean Tr(rho^2) for d=2 is 0.7994
    rhos = [ginibre_density(2, 5000 + s) for s in range(1000)]
    vals = [np.trace(rho @ rho).real for rho in rhos]
    npt.assert_allclose(np.mean(vals), 0.80, atol=0.02)


@pytest.mark.parametrize(
    "probs",
    [(np.nan, 0.5, 0.25, 0.25), (0.25, 0.25, np.nan, np.nan),
     (0.25 + 0.1j, 0.25, 0.25, 0.25 - 0.1j), np.array([0.25, 0.25, 0.25, 0.25]) + 1e-3j,
     ("a", 0.5, 0.25, 0.25)],
    ids=["nan", "two-nan", "complex", "complex-array", "str"],
)
def test_x_state_rejects_nan_and_complex_probabilities(probs):
    with pytest.raises(BadProbabilitiesError, match="finite|real"):
        x_state(XStateParams(0.3, 0.2, probs))


def test_x_state_reads_zero_imaginary_parts_as_real():
    probs = (0.4, 0.3, 0.2, 0.1)
    npt.assert_array_equal(x_state(XStateParams(0.3, 0.2, np.array(probs) + 0j)),
                           x_state(XStateParams(0.3, 0.2, probs)))


@pytest.mark.parametrize(
    "call",
    [lambda: p00_family("0.5"), lambda: p00_family_probs(None), lambda: c1_state("0.1"),
     lambda: c1_state(0.1 + 0j), lambda: c1_state(np.complex128(0.1)),
     lambda: x_state_eigenvectors("a", 0), lambda: x_state_eigenvectors(0.0, 10 ** 400)],
    ids=["p00-str", "p00-none", "c1-str", "c1-complex", "c1-numpy-complex", "theta-str",
         "phi-huge-int"],
)
def test_family_parameters_must_be_finite_real_numbers(call):
    with pytest.raises(OutOfRangeError):
        call()


def test_ginibre_refuses_a_dimension_past_the_compile_cap():
    # checked on the integer, before the (2, d, d) draw is allocated
    cap = 2 ** (MAX_QUBITS // 2)
    with pytest.raises(OutOfRangeError, match=f"dimension {cap + 1} exceeds {cap}"):
        ginibre_density(cap + 1, 0)


def oracle_ginibre(d, seed):
    """The Ginibre formula as four whole-array expressions."""
    g = np.random.default_rng(seed).standard_normal((2, d, d))
    G = (g[0] + 1j * g[1]) / math.sqrt(2.0)
    m = G @ G.conj().T
    return m / np.trace(m).real


@pytest.mark.parametrize("d", [2, 3, 8, 64, 512])
def test_ginibre_built_in_place_has_the_formula_bytes(d):
    for seed in (0, 7):
        assert ginibre_density(d, seed).tobytes() == oracle_ginibre(d, seed).tobytes()


def test_ginibre_holds_at_most_three_d_by_d_arrays():
    # the formula held the draw, two complex temporaries and G: four arrays
    d = 256
    tracemalloc.start()
    try:
        ginibre_density(d, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * 16 * d * d
