"""Generated spectra: the compiler's contracts on adversarial targets.

Spectra are rank-deficient, exactly degenerate, straddle RANK_TOL or
TIE_TOL, or are near-pure, on padded (3, 5, 6, 7) and power-of-two
dimensions, and a padded target must come back embedded bit for bit;
others put the smallest eigenvalue just inside or just outside the
validation tolerance.  Examples are derandomized, so every run checks
the same ones.  One seeded d = 256 target puts most of its weights just
under RANK_TOL, and seeded d = 256 targets of rank 1, 4 and 16 are solved
on their support.  The verify path's factor and its trace bound are checked
on generated ranks and on seeded pairs.
"""
import json

import numpy as np
import numpy.testing as npt
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedprep import (
    DEFAULT_TOL,
    NotDensityMatrixError,
    build_preparation_circuit,
    circuit_to_dict,
    eig_hermitian,
    eigenvalue_amplitudes,
    fidelity,
    reduced_density,
    run,
    validate_circuit,
    write_density_file,
)
from mixedprep.cli import main
from mixedprep.linalg import FILE_VALIDATE_TOL, RANK_TOL, TIE_TOL, density_factor

DIMS = (2, 3, 4, 5, 6, 7, 8)
TOL_MULTIPLES = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0)
weights = st.floats(0.05, 1.0)


@st.composite
def spectra(draw):
    """A dimension and a non-negative spectrum summing to 1 (up to rounding)."""
    d = draw(st.sampled_from(DIMS))
    kind = draw(st.sampled_from(["rank", "degenerate", "rank_tol", "tie_tol", "near_pure"]))
    if kind == "rank":
        rank = draw(st.integers(1, d))
        w = draw(st.lists(weights, min_size=rank, max_size=rank)) + [0.0] * (d - rank)
    elif kind == "degenerate":
        levels = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), min_size=d, max_size=d))
        w = levels if any(levels) else [1.0] * d
    elif kind == "rank_tol":
        small = st.sampled_from(TOL_MULTIPLES).map(lambda k: k * RANK_TOL)
        lead = draw(st.integers(1, d - 1))
        w = draw(st.lists(weights, min_size=lead, max_size=lead))
        w += draw(st.lists(small, min_size=d - lead, max_size=d - lead))
    elif kind == "tie_tol":
        a = draw(weights)
        gap = draw(st.sampled_from(TOL_MULTIPLES)) * TIE_TOL
        w = [a, a + gap] + draw(st.lists(weights | st.just(0.0), min_size=d - 2, max_size=d - 2))
    else:
        eps = draw(st.sampled_from([1.0, 2.0, 5.0])) * 10.0 ** draw(st.integers(-14, -7))
        w = [1.0 - eps, eps] + [0.0] * (d - 2)
    w = np.array(w, dtype=float)
    return d, w / w.sum(), draw(st.integers(0, 2 ** 32 - 1))


def density_with_spectrum(w, seed):
    rng = np.random.default_rng(seed)
    d = w.shape[0]
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))  # Haar-distributed unitary
    m = (q * w) @ q.conj().T
    return (m + m.conj().T) / 2


def density_below_zero(d, depth, seed):
    """A d x d target whose smallest eigenvalue is -depth and whose trace is 1."""
    w = np.random.default_rng(seed).uniform(0.05, 1.0, d)
    w[-1] = 0.0
    w *= (1.0 + depth) / w.sum()
    w[-1] = -depth
    return density_with_spectrum(w, seed)


def compile_and_trace(rho):
    bundle = build_preparation_circuit(rho)
    state = run(bundle.circuit)
    return bundle, state, reduced_density(state, bundle.system_qubits)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(spectra())
def test_generated_spectra_compile_exactly_and_deterministically(case):
    _, w, seed = case
    rho = density_with_spectrum(w, seed)
    bundle, state, prepared = compile_and_trace(rho)

    assert 1.0 - fidelity(prepared, bundle.target) <= 1e-9
    validate_circuit(bundle.circuit)

    # Closed form of the purification: amplitude (s, a) is V[s, a] * sqrt(lambda_a).
    d = bundle.target.shape[0]
    closed_form = bundle.spectral.eigenvectors * eigenvalue_amplitudes(bundle.spectral)
    npt.assert_allclose(state.reshape(d, d), closed_form, rtol=0, atol=1e-12)

    again, _, prepared_again = compile_and_trace(rho.copy())
    assert json.dumps(circuit_to_dict(again.circuit)) == json.dumps(circuit_to_dict(bundle.circuit))
    assert prepared_again.tobytes() == prepared.tobytes()

    block = bundle.circuit.gates[-1].matrix
    w = bundle.spectral.eigenvalues
    assert np.array_equal(bundle.spectral.eigenvectors, block)
    given_d = rho.shape[0]
    if given_d < d:
        # Padding is an embedding: the added basis states are eigenvectors of
        # weight exactly 0, and the target is rho with zeros around it.
        eye = np.eye(d)
        assert np.array_equal(block[given_d:], eye[given_d:])
        assert np.array_equal(block[:, given_d:], eye[:, given_d:])
        assert not w[given_d:].any()
        assert not eigenvalue_amplitudes(bundle.spectral)[given_d:].any()
        padded = np.zeros((d, d), dtype=complex)
        padded[:given_d, :given_d] = rho
        assert np.array_equal(bundle.target, padded)
    assert np.linalg.norm(bundle.target @ block - block * w, axis=0).max() <= 1e-10
    assert np.abs(block.conj().T @ block - np.eye(d)).max() <= 1e-12
    assert (np.diff(w) <= 0).all()
    rank = density_factor(rho)[1].shape[1]
    if rank == given_d:
        # One eigh in the target's own dimension: the block is the canonical
        # basis bit for bit, so circuit files keep their bytes, up to the
        # first tie group that reaches down to RANK_TOL (none unless a group
        # straddles it), and eigh's own eigenvectors from there on.  A padded
        # target's weights are clamped at the zeros added after them.
        dec = eig_hermitian(rho)
        canonical = int(np.sum(w > RANK_TOL))
        while 0 < canonical < given_d and w[canonical - 1] - w[canonical] <= TIE_TOL:
            canonical -= 1
        assert np.array_equal(block[:given_d, :canonical], dec.eigenvectors[:, :canonical])
        solved = dec.eigenvalues if given_d == d else np.maximum(dec.eigenvalues, 0.0)
        assert np.array_equal(w[:given_d], solved)
    else:
        # Solved on the factor's support: the spectrum to rounding, and the
        # null columns load exactly nothing.
        assert np.abs(w - np.linalg.eigvalsh(bundle.target)[::-1]).max() <= 1e-12
        assert not w[rank:].any()
        assert not eigenvalue_amplitudes(bundle.spectral)[rank:].any()


def test_padded_weight_rounded_below_zero_is_clamped_before_the_added_zeros():
    # An exactly rank-4 5 x 5 target whose Cholesky completes (numpy 2.4,
    # OpenBLAS): its 5 x 5 eigh puts -3.1e-33 last, which must not sort
    # after the three zeros of the padding.
    rho = density_with_spectrum(np.array([0.25, 0.25, 0.0, 0.25, 0.25]), 4)
    w = build_preparation_circuit(rho).spectral.eigenvalues
    assert (np.diff(w) <= 0).all()
    assert not w[4:].any()


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(DIMS), st.integers(0, 2 ** 32 - 1))
def test_negative_eigenvalue_edge_at_library_tol(d, seed):
    bundle, _, prepared = compile_and_trace(density_below_zero(d, 0.99 * DEFAULT_TOL, seed))
    assert 1.0 - fidelity(prepared, bundle.target) <= 1e-9
    with pytest.raises(NotDensityMatrixError, match="positive semidefinite"):
        build_preparation_circuit(density_below_zero(d, 1.01 * DEFAULT_TOL, seed))


@pytest.mark.parametrize("d", [2, 8, 64, 512])
def test_fidelity_negative_eigenvalue_edge(d):
    # A completed Cholesky would accept the matrix without reading its
    # spectrum, so both sides of the edge must reach the eigh check.
    mixed = np.eye(d) / d
    inside = density_below_zero(d, 0.99 * DEFAULT_TOL, d)
    expected = np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(inside), 0.0, None) / d)) ** 2
    npt.assert_allclose(fidelity(inside, mixed), expected, rtol=0, atol=1e-9)
    outside = density_below_zero(d, 1.01 * DEFAULT_TOL, d)
    for args in ((outside, mixed), (mixed, outside)):
        with pytest.raises(NotDensityMatrixError, match="positive semidefinite"):
            fidelity(*args)


@pytest.mark.parametrize("factor, code", [(0.99, 0), (1.01, 2)])
def test_negative_eigenvalue_edge_at_file_tol(tmp_path, capsys, factor, code):
    path = tmp_path / "rho.json"
    write_density_file(path, density_below_zero(4, factor * FILE_VALIDATE_TOL, 3))
    out = tmp_path / "c.json"
    assert main(["prepare", "--input", str(path), "--out", str(out), "--quiet"]) == code
    assert ("positive semidefinite" in capsys.readouterr().err) == bool(code)


def test_most_eigenvalues_just_under_rank_tol():
    # 248 of 256 weights sit just under RANK_TOL: they keep their amplitudes
    # and their own eigh eigenvectors, so the traced state is the target to
    # rounding (1.1e-16 measured), against 2.3e-10 of such weight.
    d, rank = 256, 8
    rng = np.random.default_rng(2024)
    w = np.concatenate([rng.uniform(0.05, 1.0, rank), rng.uniform(0.9, 0.99, d - rank) * RANK_TOL])
    w[:rank] *= (1.0 - w[rank:].sum()) / w[:rank].sum()
    rho = density_with_spectrum(w, 2024)
    bundle, _, prepared = compile_and_trace(rho)
    assert int(np.sum(bundle.spectral.eigenvalues > RANK_TOL)) == rank
    validate_circuit(bundle.circuit)
    assert np.abs(prepared - bundle.target).max() <= 1e-15
    assert 1.0 - fidelity(prepared, bundle.target) <= 1e-9


@pytest.mark.parametrize("equal", [True, False], ids=["equal", "random"])
@pytest.mark.parametrize("rank", [1, 4, 16])
def test_low_rank_d256_is_solved_on_its_support(hermitian_solves, rank, equal):
    # one r x r eigh, exact zero null weights, and a lossless round trip
    d = 256
    w = np.zeros(d)
    w[:rank] = 1.0 if equal else np.random.default_rng(rank).uniform(0.05, 1.0, rank)
    bundle, _, prepared = compile_and_trace(density_with_spectrum(w / w.sum(), rank))
    assert hermitian_solves == [(rank, rank)]
    assert not bundle.spectral.eigenvalues[rank:].any()
    validate_circuit(bundle.circuit)
    assert 1.0 - fidelity(prepared, bundle.target) <= 1e-12


def test_tie_group_straddling_rank_tol():
    # 1.1e-12 and 1.05e-12 lie above RANK_TOL, 0.95e-12 and 0.9e-12 below, and
    # all four agree to TIE_TOL: the group keeps its eigh columns, which are
    # eigenvectors, so the block stays unitary and the round trip exact
    # (1.3e-16 measured).
    w = np.array([0.5, 0.3, 0.15, 0.05, 1.1e-12, 1.05e-12, 0.95e-12, 0.9e-12])
    w[:4] *= (1.0 - w[4:].sum()) / w[:4].sum()
    bundle, _, prepared = compile_and_trace(density_with_spectrum(w, 7))
    got = bundle.spectral.eigenvalues
    assert int(np.sum(got > RANK_TOL)) == 6 and got[3] - got[4] > TIE_TOL
    assert (got[4:-1] - got[5:]).max() <= TIE_TOL
    block = bundle.circuit.gates[-1].matrix
    assert np.abs(block.conj().T @ block - np.eye(8)).max() <= 1e-12
    validate_circuit(bundle.circuit)
    assert np.abs(prepared - bundle.target).max() <= 1e-15
    assert 1.0 - fidelity(prepared, bundle.target) <= 1e-12


EPS = np.finfo(float).eps


@st.composite
def ranked_densities(draw, dims):
    """(rank, rho, seed): rank 1, 2, 5, d/2 or d, with equal or with random weights."""
    d = draw(st.sampled_from(dims))
    rank = draw(st.sampled_from(sorted({r for r in (1, 2, 5, d // 2, d) if 1 <= r <= d})))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    w = np.zeros(d)
    w[:rank] = 1.0 if draw(st.booleans()) else np.random.default_rng(seed).uniform(0.05, 1.0, rank)
    return rank, density_with_spectrum(w / w.sum(), seed), seed


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(ranked_densities((4, 16, 64)))
def test_factor_has_the_numerical_rank_and_a_certified_residual(case):
    rank, rho, _ = case
    m, a = density_factor(rho)
    assert a.shape == (rho.shape[0], rank)
    assert rho.shape[0] * np.abs(m - a @ a.conj().T).max() <= DEFAULT_TOL


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(ranked_densities((2, 4, 8, 16)))
def test_trace_bound_never_overstates_the_svd_fidelity(case):
    # rho against its round trip, where the bound is tight, and against another state
    _, rho, seed = case
    d = rho.shape[0]
    _, _, prepared = compile_and_trace(rho)
    rotated = density_with_spectrum(np.clip(np.linalg.eigvalsh(rho), 0.0, None), seed + 1)
    for sigma in (prepared, rotated):
        (_, a), (_, b) = density_factor(rho), density_factor(sigma)
        k = min(a.shape[1], b.shape[1])
        bound = min(float(abs(np.vdot(a[:, :k], b[:, :k])) ** 2), 1.0)
        exact = min(float(np.linalg.svd(a.conj().T @ b, compute_uv=False).sum() ** 2), 1.0)
        assert bound <= exact + d * EPS
        if 1.0 - bound <= d * EPS:  # the fast path
            assert fidelity(rho, sigma) == bound
            assert abs(bound - exact) <= d * EPS
        else:
            assert fidelity(rho, sigma) == exact
