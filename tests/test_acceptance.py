"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Run with plain pytest; the verdict lines bypass output capture so every
criterion reports PASS or FAIL on the terminal regardless of flags.
"""
import time

import numpy as np
import pytest

from mixedprep import (
    Circuit,
    UnitaryBlock,
    build_preparation_circuit,
    c1_state,
    compile_real_state,
    concurrence,
    exact_pauli_expectations,
    fidelity,
    ginibre_density,
    l1_coherence,
    local_l1_coherence,
    p00_family,
    prepare_density,
    reduced_density,
    run,
    sample_pauli_expectations,
    tomography_reconstruct,
    validate_circuit,
)
from mixedprep.cli import main


@pytest.fixture
def verdict(capsys):
    def _report(num: int, desc: str, ok: bool, detail: str = ""):
        line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line)
        assert ok, line

    return _report


def random_density_3x3(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_criterion_1_random_state_fidelity(verdict):
    t0 = time.perf_counter()
    worst = 1.0
    for d in (2, 4, 8):
        for sample in range(10):
            target = ginibre_density(d, 1000 * d + sample)
            worst = min(worst, fidelity(prepare_density(target), target))
    elapsed = time.perf_counter() - t0
    ok = worst >= 1 - 1e-9 and elapsed < 5.0
    verdict(1, "random-state end-to-end fidelity >= 1 - 1e-9 at d in {2,4,8}", ok,
            f"worst {worst:.3e} loss {1 - worst:.1e}, {elapsed:.2f}s")


def test_criterion_2_xstate_curves(verdict):
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(21):
        target = p00_family(i / 20)
        prepared = prepare_density(target)
        worst = max(
            worst,
            abs(concurrence(target) - concurrence(prepared)),
            abs(l1_coherence(target) - l1_coherence(prepared)),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    verdict(2, "pipeline E_C and C_l1 match theory within 1e-9 on the p00 grid", ok,
            f"worst {worst:.1e}, {elapsed:.2f}s")


def test_criterion_3_c1_coherence(verdict):
    # the family is separable only for c1 >= -0.2612 or so (entanglement is
    # genuinely nonzero further left, e.g. concurrence 0.27 at c1 = -0.33),
    # so the grid sits inside the zero-concurrence portion of the PSD range
    worst = 0.0
    for c1 in np.linspace(-0.25, 0.33, 23):
        c1 = float(c1)
        prepared = prepare_density(c1_state(c1))
        worst = max(
            worst,
            abs(l1_coherence(prepared) - 3 * abs(c1)),
            abs(local_l1_coherence(prepared, "A") - abs(c1)),
            abs(local_l1_coherence(prepared, "B") - abs(c1)),
            concurrence(prepared),
        )
    ok = worst <= 1e-9
    verdict(3, "c1 family: global 3|c1|, local |c1|, zero concurrence", ok,
            f"worst {worst:.1e}")


def test_criterion_4_pure_state_prep(verdict):
    worst = 1.0
    counts_ok = True
    for n in range(1, 6):
        for sample in range(100):
            rng = np.random.default_rng(10_000 * n + sample)
            amps = rng.random(2 ** n)
            amps /= np.linalg.norm(amps)
            circuit = compile_real_state(amps)
            counts_ok &= len(circuit.gates) == 2 ** n - 1
            worst = min(worst, abs(np.vdot(amps, run(circuit))) ** 2)
    ok = worst >= 1 - 1e-10 and counts_ok
    verdict(4, "100 seeded loaders per n in 1..5: overlap >= 1 - 1e-10, 2^n - 1 gates",
            ok, f"worst overlap loss {1 - worst:.1e}")


def test_criterion_5_intermediate_state(verdict):
    worst = 0.0
    for seed in range(20):
        target = ginibre_density(4, 7000 + seed)
        bundle = build_preparation_circuit(target)
        partial = Circuit(bundle.circuit.num_qubits, bundle.circuit.gates[:-1])
        red = reduced_density(run(partial), bundle.system_qubits)
        worst = max(worst, np.abs(red - np.diag(bundle.spectral.eigenvalues)).max())
    ok = worst <= 1e-10
    verdict(5, "traced state after the CNOT layer is diag(eigenvalues)", ok,
            f"worst {worst:.1e}")


def test_criterion_6_tomography(verdict):
    exact_worst = 0.0
    shot_worst = 1.0
    for seed in range(20):
        target = ginibre_density(4, 8000 + seed)
        bundle = build_preparation_circuit(target)
        state = run(bundle.circuit)
        simulated = reduced_density(state, bundle.system_qubits)
        rec = tomography_reconstruct(exact_pauli_expectations(simulated), 2)
        exact_worst = max(exact_worst, np.abs(rec - simulated).max())
        est = sample_pauli_expectations(state, bundle.system_qubits, 100_000, 9000 + 100 * seed)
        shot_worst = min(shot_worst, fidelity(tomography_reconstruct(est, 2), target))
    ok = exact_worst <= 1e-12 and shot_worst >= 0.99
    verdict(6, "tomography: exact within 1e-12, 1e5-shot fidelity >= 0.99 over 20 seeds",
            ok, f"exact {exact_worst:.1e}, shots worst {shot_worst:.4f}")


def test_criterion_7_padding(verdict):
    worst_block = 0.0
    worst_corner = 0.0
    for seed in range(5):
        target = random_density_3x3(seed)
        out = prepare_density(target)
        worst_block = max(worst_block, np.abs(out[:3, :3] - target).max())
        worst_corner = max(worst_corner, abs(out[3, 3]))
    ok = worst_block <= 1e-9 and worst_corner <= 1e-9
    verdict(7, "3x3 target via padding: block match and empty fourth level", ok,
            f"block {worst_block:.1e}, corner {worst_corner:.1e}")


def test_criterion_8_metric_units(verdict):
    bell = np.zeros((4, 4), dtype=complex)
    bell[0, 0] = bell[0, 3] = bell[3, 0] = bell[3, 3] = 0.5
    werner = bell / 3 + (2 / 3) * np.eye(4) / 4
    rho = ginibre_density(4, 17)
    sigma = ginibre_density(4, 18)
    diag = np.diag(np.random.default_rng(2).dirichlet(np.ones(4))).astype(complex)
    checks = [
        abs(concurrence(bell) - 1.0) <= 1e-9,
        concurrence(np.eye(4) / 4) <= 1e-9,
        concurrence(werner) <= 1e-9,
        abs(fidelity(rho, sigma) - fidelity(sigma, rho)) <= 1e-9,
        abs(fidelity(rho, rho) - 1.0) <= 1e-9,
        l1_coherence(diag) <= 1e-9,
    ]
    verdict(8, "metric unit suite (Bell, I/4, Werner, symmetry, self, diagonal)",
            all(checks), f"{sum(checks)}/6 checks")


def test_criterion_9_determinism(verdict, tmp_path):
    pairs = []
    for tag in ("a", "b"):
        circ = tmp_path / f"circ_{tag}.json"
        fig2 = tmp_path / f"fig2_{tag}.csv"
        fig3 = tmp_path / f"fig3_{tag}.csv"
        assert main(["prepare", "--family", "ginibre:d=4,seed=7",
                     "--out", str(circ), "--quiet"]) == 0
        assert main(["reproduce", "--figure", "2", "--shots", "400", "--seed", "11",
                     "--out", str(fig2), "--quiet"]) == 0
        assert main(["reproduce", "--figure", "3", "--out", str(fig3), "--quiet"]) == 0
        pairs.append((circ.read_bytes(), fig2.read_bytes(), fig3.read_bytes()))
    ok = pairs[0] == pairs[1]
    verdict(9, "identical seeds give bitwise-identical circuit files and CSVs", ok)


def test_criterion_10_degenerate_spectra(verdict):
    # every eigenvalue tied (I/256), and two 128-fold groups on a Haar basis:
    # each tie group is rebuilt canonically, and the block must stay unitary
    d = 256
    rng = np.random.default_rng(10)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    two_groups = (u * np.repeat([0.75, 0.25], d // 2) / (d // 2)) @ u.conj().T
    worst_loss = worst_gram = 0.0
    for target in (np.eye(d) / d, (two_groups + two_groups.conj().T) / 2):
        bundle = build_preparation_circuit(target)
        validate_circuit(bundle.circuit)
        (block,) = [g.matrix for g in bundle.circuit.gates if isinstance(g, UnitaryBlock)]
        worst_gram = max(worst_gram, np.abs(block.conj().T @ block - np.eye(d)).max())
        traced = reduced_density(run(bundle.circuit), bundle.system_qubits)
        worst_loss = max(worst_loss, 1 - fidelity(traced, target))
    ok = worst_loss <= 1e-9 and worst_gram <= 1e-12
    verdict(10, "I/256 and two 128-fold groups at d = 256: fidelity loss <= 1e-9, unitary block",
            ok, f"loss {worst_loss:.1e}, max |U^dagger U - I| {worst_gram:.1e}")
