"""Purification pipeline: padding, amplitude loading, end-to-end round trips."""
import numpy as np
import numpy.testing as npt
import pytest

from mixedprep import (
    MAX_QUBITS,
    Circuit,
    Cnot,
    MultiControlledRy,
    NotAProbabilityVectorError,
    NotDensityMatrixError,
    OutOfRangeError,
    Ry,
    UnitaryBlock,
    build_preparation_circuit,
    compile_real_state,
    concurrence,
    eig_hermitian,
    eigenvalue_amplitudes,
    fidelity,
    ginibre_density,
    l1_coherence,
    local_l1_coherence,
    orthonormal_completion,
    pad_to_qubit_dimension,
    prepare_density,
    p00_family,
    reduced_density,
    run,
    sample_pauli_expectations,
    tomography_reconstruct,
)
from mixedprep import StatePrepError, circuit_to_dict, linalg, purify
from mixedprep.linalg import SpectralDecomposition, density_factor


def random_density_any_dim(d, seed, rank=None):
    rng = np.random.default_rng(seed)
    shape = (d, rank or d)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_pad_power_of_two_unchanged():
    rho = ginibre_density(4, 1)
    out = pad_to_qubit_dimension(rho)
    npt.assert_array_equal(out, rho)


def test_pad_3x3():
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    out = pad_to_qubit_dimension(rho)
    npt.assert_allclose(out, np.diag([0.5, 0.3, 0.2, 0.0]), atol=0)


def test_pad_5x5():
    rho = random_density_any_dim(5, 2)
    out = pad_to_qubit_dimension(rho)
    assert out.shape == (8, 8)
    npt.assert_array_equal(out[:5, :5], rho)
    assert np.abs(out[5:, :]).max() == 0 and np.abs(out[:, 5:]).max() == 0


def test_pad_rejects_garbage():
    with pytest.raises(NotDensityMatrixError):
        pad_to_qubit_dimension(np.eye(3))
    for fn in (pad_to_qubit_dimension, build_preparation_circuit):  # the shape, not a padded trace
        with pytest.raises(NotDensityMatrixError, match="nonempty square"):
            fn(np.zeros((0, 0)))


def test_eigenvalue_amplitudes():
    dec = SpectralDecomposition(np.array([1.0, 0.0]), np.eye(2, dtype=complex))
    npt.assert_allclose(eigenvalue_amplitudes(dec), [1, 0], atol=0)
    dec = SpectralDecomposition(np.full(4, 0.25), np.eye(4, dtype=complex))
    npt.assert_allclose(eigenvalue_amplitudes(dec), [0.5] * 4, atol=0)
    p00 = 0.6
    w = np.sort([p00 / 3, (1 - p00) / 3, 2 * p00 / 3, 2 * (1 - p00) / 3])[::-1]
    dec = SpectralDecomposition(w, np.eye(4, dtype=complex))
    npt.assert_allclose(eigenvalue_amplitudes(dec), np.sqrt(w), atol=1e-15)


def test_eigenvalue_amplitudes_clamps_and_renormalizes():
    w = np.array([1.0 + 5e-11, -5e-11])
    dec = SpectralDecomposition(w, np.eye(2, dtype=complex))
    amps = eigenvalue_amplitudes(dec)
    assert amps[1] == 0.0
    npt.assert_allclose(np.linalg.norm(amps), 1.0, atol=1e-12)


def test_eigenvalue_amplitudes_rejects():
    bad = SpectralDecomposition(np.array([0.9, -0.1]), np.eye(2, dtype=complex))
    with pytest.raises(NotAProbabilityVectorError):
        eigenvalue_amplitudes(bad)
    bad = SpectralDecomposition(np.array([0.6, 0.6]), np.eye(2, dtype=complex))
    with pytest.raises(NotAProbabilityVectorError):
        eigenvalue_amplitudes(bad)
    bad = SpectralDecomposition(np.array([np.nan, 0.5]), np.eye(2, dtype=complex))
    with pytest.raises(NotAProbabilityVectorError):
        eigenvalue_amplitudes(bad)


def test_bundle_structure():
    rho = ginibre_density(4, 7)
    bundle = build_preparation_circuit(rho)
    c = bundle.circuit
    n = 2
    assert c.num_qubits == 2 * n
    assert bundle.system_qubits == (0, 1)
    assert bundle.ancilla_qubits == (2, 3)
    assert len(c.gates) == (2 ** n - 1) + n + 1
    loader, cnots, block = c.gates[: 2 ** n - 1], c.gates[2 ** n - 1 : -1], c.gates[-1]
    assert all(isinstance(g, (Ry, MultiControlledRy)) for g in loader)
    assert cnots == [Cnot(0, 2), Cnot(1, 3)]
    assert isinstance(block, UnitaryBlock) and block.qubits == (0, 1)
    npt.assert_allclose(np.sum(bundle.spectral.eigenvalues), 1.0, atol=1e-10)


def test_roundtrip_pure_and_maximally_mixed():
    out = prepare_density(np.diag([1.0, 0.0]))
    npt.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)
    out = prepare_density(np.eye(2) / 2)
    npt.assert_allclose(out, np.eye(2) / 2, atol=1e-12)


def test_identity_over_two_gives_bell_structure():
    bundle = build_preparation_circuit(np.eye(2) / 2)
    ry = bundle.circuit.gates[0]
    npt.assert_allclose(ry.theta, np.pi / 2, atol=1e-12)
    state = run(bundle.circuit)
    npt.assert_allclose(np.abs(state) ** 2, [0.5, 0, 0, 0.5], atol=1e-12)


def test_roundtrip_seeded_targets():
    for d in (2, 4, 8):
        for seed in range(5):
            rho = ginibre_density(d, 10 * d + seed)
            out = prepare_density(rho)
            assert np.linalg.norm(out - rho) <= 1e-9
            assert fidelity(out, rho) >= 1 - 1e-9


def test_roundtrip_xstate():
    rho = p00_family(0.5)
    out = prepare_density(rho)
    assert fidelity(out, rho) >= 1 - 1e-9


def test_full_state_is_pure():
    bundle = build_preparation_circuit(ginibre_density(4, 3))
    state = run(bundle.circuit)
    full = np.outer(state, state.conj())
    npt.assert_allclose(np.trace(full @ full).real, 1.0, atol=1e-12)


def test_intermediate_state_after_cnot_layer():
    # dropping the final basis change leaves diag(eigenvalues) on the system
    for seed in range(5):
        rho = ginibre_density(4, 40 + seed)
        bundle = build_preparation_circuit(rho)
        partial = Circuit(bundle.circuit.num_qubits, bundle.circuit.gates[:-1])
        red = reduced_density(run(partial), bundle.system_qubits)
        npt.assert_allclose(red, np.diag(bundle.spectral.eigenvalues), atol=1e-10)


def test_rank_deficient_completion_freedom():
    # swapping in a different completion of the zero-eigenvalue columns
    # must not change the traced output
    rho = np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex)
    bundle = build_preparation_circuit(rho)
    reference = reduced_density(run(bundle.circuit), bundle.system_qubits)

    dec = eig_hermitian(rho)
    kept = dec.eigenvectors[:, :2]
    completed = orthonormal_completion(kept)
    # perturb: swap the two synthesized columns and flip one sign
    twisted = completed.copy()
    twisted[:, [2, 3]] = twisted[:, [3, 2]]
    twisted[:, 3] *= -1
    circuit = Circuit(bundle.circuit.num_qubits, bundle.circuit.gates[:-1])
    circuit.gates.append(UnitaryBlock((0, 1), twisted))
    alt = reduced_density(run(circuit), bundle.system_qubits)
    npt.assert_allclose(alt, reference, atol=1e-12)
    npt.assert_allclose(reference, rho, atol=1e-12)


@pytest.mark.parametrize(
    "rho", [ginibre_density(8, 7), p00_family(0.0)], ids=["full-rank-d8", "p00-rank-2"]
)
def test_block_gram_measured_once_per_compile_and_run(monkeypatch, rho):
    # compile leaves the block's unitarity to validate_circuit at run
    from mixedprep import linalg

    shapes = []
    real = linalg._gram_deviation

    def counted(q):
        shapes.append(q.shape)
        return real(q)

    monkeypatch.setattr(linalg, "_gram_deviation", counted)
    bundle = build_preparation_circuit(rho)
    assert shapes == []
    run(bundle.circuit)
    d = rho.shape[0]
    assert shapes == [(d, d)]


def random_density_of_rank(d, rank, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


@pytest.mark.parametrize(
    "rho, rank",
    [(ginibre_density(8, 7), 8), (p00_family(0.0), 2), (random_density_any_dim(3, 9), 3),
     (random_density_of_rank(3, 2, 9), 2)],
    ids=["full-rank", "rank-deficient", "padded", "padded-rank-deficient"],
)
def test_compile_solves_on_the_support(monkeypatch, hermitian_solves, qr_calls, svd_calls, rho,
                                       rank):
    # solved in the target's own dimension d, padded or not: full rank, one
    # d x d eigh and no pivoted Cholesky; rank r < d, one SVD of the d x r
    # factor, and no eigh and no QR
    from mixedprep import linalg

    pivoted = []
    real = linalg._pivoted_cholesky

    def counted(m, floor):
        pivoted.append(m.shape)
        return real(m, floor)

    monkeypatch.setattr(linalg, "_pivoted_cholesky", counted)
    build_preparation_circuit(rho)
    d = rho.shape[0]
    assert qr_calls == []
    if rank == d:
        assert hermitian_solves == [(d, d)]
        assert svd_calls == []
        assert pivoted == []
    else:
        assert hermitian_solves == []
        assert svd_calls == [(d, rank)]
        assert pivoted == [(d, d)]


@pytest.mark.parametrize(
    "rho", [ginibre_density(8, 7), p00_family(0.0), random_density_any_dim(3, 9)],
    ids=["full-rank", "rank-deficient", "padded"],
)
def test_loader_is_the_checked_real_amplitude_compiler(rho):
    # compile skips compile_real_state's checks, not its gates
    bundle = build_preparation_circuit(rho)
    n = len(bundle.system_qubits)
    loader = compile_real_state(eigenvalue_amplitudes(bundle.spectral)).gates
    assert bundle.circuit.gates[: 2 ** n - 1] == loader


def test_padded_roundtrip_3x3():
    rho = random_density_any_dim(3, 9)
    out = prepare_density(rho)
    assert out.shape == (4, 4)
    npt.assert_allclose(out[:3, :3], rho, atol=1e-9)
    assert abs(out[3, 3]) <= 1e-9


READOUT_TARGETS = {
    "padded-d3": lambda: random_density_any_dim(3, 9),
    "rank-2-d8": lambda: random_density_any_dim(8, 4, rank=2),
    "figure-2-p00": lambda: p00_family(0.25),
}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", sorted(READOUT_TARGETS))
def test_prepare_density_reads_out_as_the_hand_assembled_pipeline(name, seed):
    target = READOUT_TARGETS[name]()
    bundle = build_preparation_circuit(target)
    state = run(bundle.circuit)
    qubits = bundle.system_qubits
    traced = reduced_density(state, qubits)
    sampled = tomography_reconstruct(sample_pauli_expectations(state, qubits, 1000, seed),
                                     len(qubits))
    assert prepare_density(target).tobytes() == traced.tobytes()
    assert prepare_density(target, shots=1000, seed=seed).tobytes() == sampled.tobytes()
    assert not np.array_equal(sampled, traced)


def test_a_shot_readout_without_a_seed_is_refused():
    with pytest.raises(OutOfRangeError, match="seed must be an integer >= 0, got None"):
        prepare_density(p00_family(0.5), shots=10)


@pytest.mark.parametrize("w", [[0.5 + 0.1j, 0.5 - 0.1j], [0.5 + 0j, complex(0.5, np.nan)]],
                         ids=["complex", "nan-imag"])
def test_eigenvalue_amplitudes_rejects_complex_eigenvalues(w):
    with pytest.raises(NotAProbabilityVectorError, match="must be real"):
        eigenvalue_amplitudes(SpectralDecomposition(np.array(w), np.eye(2, dtype=complex)))


def test_compile_refuses_a_target_past_the_cap_before_any_work():
    # a broadcast view has the shape of a 4097 x 4097 matrix and no storage;
    # any conversion, validation or padding of it would allocate
    d = 2 ** (MAX_QUBITS // 2) + 1
    view = np.broadcast_to(np.zeros((), dtype=complex), (d, d))
    with pytest.raises(OutOfRangeError, match="4097 x 4097 target exceeds the largest"):
        build_preparation_circuit(view)


@pytest.mark.parametrize(
    "value", [[[1, 0], [0]], {"a": 1}, [[10 ** 400]]], ids=["ragged", "dict", "beyond-float"],
)
def test_compile_refuses_a_matrix_numpy_cannot_read(value):
    with pytest.raises(NotDensityMatrixError, match="cannot read a complex array"):
        build_preparation_circuit(value)


def test_compile_at_tol_0_accepts_every_target_density_factor_accepts(monkeypatch):
    # compile loads the spectrum density_factor certified, with no second check of
    # its sum: at tol = 0 that sum is 1 only up to rounding
    def refuse(*args, **kwargs):
        raise AssertionError("compile re-checks its own spectrum")

    monkeypatch.setattr(purify, "eigenvalue_amplitudes", refuse)
    accepted = 0
    for seed in range(200):
        rho = ginibre_density(4, seed)
        rho = (rho + rho.conj().T) / 2
        try:
            density_factor(rho, 0.0)
        except StatePrepError:
            continue
        accepted += 1
        exact = build_preparation_circuit(rho, tol=0.0)
        assert circuit_to_dict(exact.circuit) == circuit_to_dict(build_preparation_circuit(rho).circuit)
    assert accepted > 100


# numpy's Python-level helpers that the paper's small-target path no longer
# calls: each costs microseconds of argument handling on a target of ~0.25 ms
REMOVED_HELPERS = ("moveaxis", "trace", "diagonal", "finfo", "sum", "flatnonzero", "clip")


def test_the_paper_path_calls_none_of_the_removed_numpy_helpers(monkeypatch):
    targets = [p00_family(0.37), ginibre_density(8, 2027)]

    def refuse(name):
        def helper(*args, **kwargs):
            raise AssertionError(f"np.{name} is back on the paper's path")
        return helper

    linalg._memo.cache_clear()  # every matrix is factored, none looked up
    for name in REMOVED_HELPERS:
        monkeypatch.setattr(np, name, refuse(name))
    for rho in targets:
        bundle = build_preparation_circuit(rho)
        prepared = reduced_density(run(bundle.circuit), bundle.system_qubits)
        assert 1.0 - fidelity(prepared, rho) <= 1e-9
        assert l1_coherence(prepared) > 0.0
        if rho.shape == (4, 4):
            assert concurrence(prepared) >= 0.0
            assert local_l1_coherence(prepared, "A") >= 0.0


@pytest.mark.parametrize("seed", range(4))
def test_a_tie_group_with_near_dependent_projections_compiles_to_a_unitary_block(seed):
    # an 8-fold support tie at d = 16 whose projections of e_2 and e_3 differ
    # by about 1e-7: rebuilt from the d x d projector, the column kept from e_3
    # left the group by about eps / 1e-7, and `run` refused the block
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
    a[1] = a[0] + 1e-10 * a[1]
    a[3] = a[2] + 1e-7 * a[3]
    q = np.linalg.qr(a, mode="complete")[0]
    rest = np.linspace(1, 4, 8)
    rho = (q * np.r_[np.full(8, 0.1), 0.2 * rest / rest.sum()]) @ q.conj().T
    rho = (rho + rho.conj().T) / 2
    bundle = build_preparation_circuit(rho)
    (block,) = [g.matrix for g in bundle.circuit.gates if isinstance(g, UnitaryBlock)]
    assert np.abs(block.conj().T @ block - np.eye(16)).max() <= 1e-13
    traced = reduced_density(run(bundle.circuit), bundle.system_qubits)
    assert 1 - fidelity(traced, rho) <= 1e-12
