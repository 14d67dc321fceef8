"""Generated spectra: the compiler's contracts on adversarial targets.

Spectra are rank-deficient, exactly degenerate, straddle RANK_TOL or
TIE_TOL, or are near-pure, on padded (3, 5, 6, 7) and power-of-two
dimensions.  Examples are derandomized, so every run checks the same ones.
"""
import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedprep import (
    build_preparation_circuit,
    circuit_to_dict,
    eig_hermitian,
    fidelity,
    orthonormal_completion,
    reduced_density,
    run,
    validate_circuit,
)
from mixedprep.linalg import EIGVEC_ORTHO_TOL, RANK_TOL, TIE_TOL

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


def compile_and_trace(rho):
    bundle = build_preparation_circuit(rho)
    return bundle, reduced_density(run(bundle.circuit), bundle.system_qubits)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(spectra())
def test_generated_spectra_compile_exactly_and_deterministically(case):
    _, w, seed = case
    rho = density_with_spectrum(w, seed)
    bundle, prepared = compile_and_trace(rho)

    assert 1.0 - fidelity(prepared, bundle.target) <= 1e-9
    validate_circuit(bundle.circuit)

    again, prepared_again = compile_and_trace(rho.copy())
    assert json.dumps(circuit_to_dict(again.circuit)) == json.dumps(circuit_to_dict(bundle.circuit))
    assert prepared_again.tobytes() == prepared.tobytes()

    # The block is the canonical support basis completed to a unitary, bit
    # for bit, so circuit files keep their bytes.
    dec = eig_hermitian(bundle.target)
    rank = int(np.sum(dec.eigenvalues > RANK_TOL))
    oracle = orthonormal_completion(dec.eigenvectors[:, :rank], EIGVEC_ORTHO_TOL)
    block = bundle.circuit.gates[-1].matrix
    assert np.array_equal(block, oracle)
    assert np.array_equal(bundle.spectral.eigenvectors, block)

