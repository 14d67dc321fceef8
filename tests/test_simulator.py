"""Statevector simulator: gates, reduced density matrices, Pauli sampling."""
import numpy as np
import numpy.testing as npt
import pytest

from mixedprep import simulator
from mixedprep import (
    BadLabelError,
    Circuit,
    Cnot,
    IndexOutOfRangeError,
    MultiControlledRy,
    NotUnitaryError,
    OutOfRangeError,
    Ry,
    UnitaryBlock,
    apply_gate,
    build_preparation_circuit,
    compile_real_state,
    ginibre_density,
    partial_trace,
    pauli_labels,
    reduced_density,
    run,
    sample_pauli,
    sample_pauli_expectations,
    zero_state,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def basis(n, idx):
    v = np.zeros(2 ** n, dtype=complex)
    v[idx] = 1.0
    return v


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return v / np.linalg.norm(v)


def bell_state():
    return run(Circuit(2, [Ry(0, np.pi / 2), Cnot(0, 1)]))


def test_cnot_flips_target():
    # qubit 0 is the most significant bit: |10> has index 2
    out = apply_gate(basis(2, 0b10), Cnot(0, 1))
    npt.assert_array_equal(out, basis(2, 0b11))
    out = apply_gate(basis(2, 0b01), Cnot(0, 1))  # control clear: no-op
    npt.assert_array_equal(out, basis(2, 0b01))
    out = apply_gate(basis(2, 0b01), Cnot(1, 0))  # reversed roles
    npt.assert_array_equal(out, basis(2, 0b11))


def test_ry_half_pi():
    out = apply_gate(basis(1, 0), Ry(0, np.pi / 2))
    npt.assert_allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


def test_ry_matrix_convention():
    # columns (cos, sin) and (-sin, cos)
    theta = 0.73
    out = apply_gate(basis(1, 0), Ry(0, theta))
    npt.assert_allclose(out, [np.cos(theta / 2), np.sin(theta / 2)], atol=1e-15)
    out = apply_gate(basis(1, 1), Ry(0, theta))
    npt.assert_allclose(out, [-np.sin(theta / 2), np.cos(theta / 2)], atol=1e-15)


def test_multicontrolled_ry_open_control():
    gate = MultiControlledRy(controls=((0, 0),), target=1, theta=np.pi)
    out = apply_gate(basis(2, 0b00), gate)
    npt.assert_allclose(out, basis(2, 0b01), atol=1e-15)
    # activation bit 0 means qubit-0 = 1 states are untouched
    out = apply_gate(basis(2, 0b10), gate)
    npt.assert_allclose(out, basis(2, 0b10), atol=1e-15)


def test_multicontrolled_ry_matches_dense_matrix():
    # 4x4 product check: closed control on qubit 0, Ry on qubit 1
    theta = 1.1
    gate = MultiControlledRy(controls=((0, 1),), target=1, theta=theta)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    dense = np.eye(4, dtype=complex)
    dense[2:, 2:] = [[c, -s], [s, c]]
    for seed in range(5):
        psi = random_state(2, seed)
        npt.assert_allclose(apply_gate(psi, gate), dense @ psi, atol=1e-14)


def test_unitary_block_application():
    psi = random_state(3, 3)
    # single-qubit block on each wire against the kron expansion
    for q, mats in [(0, (H, np.eye(2), np.eye(2))),
                    (1, (np.eye(2), H, np.eye(2))),
                    (2, (np.eye(2), np.eye(2), H))]:
        dense = np.kron(np.kron(mats[0], mats[1]), mats[2])
        out = apply_gate(psi, UnitaryBlock((q,), H))
        npt.assert_allclose(out, dense @ psi, atol=1e-14)


def test_unitary_block_ordering():
    # block qubit order (2, 0): qubit 2 is the block's own MSB
    rng = np.random.default_rng(8)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = np.linalg.qr(g)[0]
    psi = random_state(3, 4)
    out = apply_gate(psi, UnitaryBlock((2, 0), u))
    # build dense operator by permuting (q2, q0, q1) -> (q0, q1, q2)
    big = np.kron(u, np.eye(2)).reshape((2,) * 6)
    big = big.transpose((1, 2, 0, 4, 5, 3)).reshape(8, 8)
    npt.assert_allclose(out, big @ psi, atol=1e-13)


def test_unitary_block_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        apply_gate(basis(1, 0), UnitaryBlock((0,), np.ones((2, 2))))


def test_gate_index_bounds():
    with pytest.raises(IndexOutOfRangeError):
        apply_gate(basis(2, 0), Ry(2, 0.3))
    with pytest.raises(IndexOutOfRangeError):
        apply_gate(basis(2, 0), Cnot(0, 5))


def test_norm_preserved():
    psi = random_state(4, 11)
    gates = [
        Ry(2, 0.4),
        Cnot(1, 3),
        MultiControlledRy(((0, 1), (1, 0)), 2, 2.2),
        UnitaryBlock((3,), H),
    ]
    for g in gates:
        before = psi.copy()
        out = apply_gate(psi, g)
        npt.assert_array_equal(psi, before)  # the input is left untouched
        npt.assert_allclose(np.linalg.norm(out), 1.0, atol=1e-12)
        psi = out


def test_run_empty_circuit():
    npt.assert_array_equal(run(Circuit(2, [])), basis(2, 0))


def test_run_bell():
    npt.assert_allclose(bell_state(), [1, 0, 0, 1] / np.sqrt(2), atol=1e-15)


def test_run_matches_compiled_amplitudes():
    amps = np.sqrt([0.4, 0.3, 0.2, 0.1])
    npt.assert_allclose(run(compile_real_state(amps)), amps, atol=1e-12)


def test_run_validates():
    with pytest.raises(IndexOutOfRangeError):
        run(Circuit(1, [Cnot(0, 1)]))
    with pytest.raises(OutOfRangeError):
        run(Circuit(25, []))
    with pytest.raises(OutOfRangeError):
        zero_state(0)


@pytest.mark.parametrize(
    "theta",
    [float("inf"), float("-inf"), float("nan"), pytest.param(10 ** 400, id="int-beyond-float")],
)
def test_run_rejects_non_finite_angle(theta):
    with pytest.raises(OutOfRangeError, match="not finite"):
        run(Circuit(1, [Ry(0, theta)]))
    with pytest.raises(OutOfRangeError, match="not finite"):
        run(Circuit(2, [MultiControlledRy(((0, 1),), 1, theta)]))


def test_reduced_density_bell():
    npt.assert_allclose(reduced_density(bell_state(), {0}), np.eye(2) / 2, atol=1e-15)


def test_reduced_density_product():
    psi = np.kron(basis(1, 0).reshape(2, 1), basis(1, 1).reshape(2, 1)).reshape(-1)
    npt.assert_allclose(reduced_density(psi, {1}), [[0, 0], [0, 1]], atol=0)


def test_reduced_density_matches_partial_trace():
    for n in range(2, 7):
        psi = random_state(n, 50 + n)
        full = np.outer(psi, psi.conj())
        for keep in ({0}, {n - 1}, {0, n - 1}, set(range(n - 1))):
            npt.assert_allclose(
                reduced_density(psi, keep),
                partial_trace(full, keep, n),
                atol=1e-12,
            )


def test_reduced_density_errors():
    with pytest.raises(IndexOutOfRangeError):
        reduced_density(basis(2, 0), {4})
    with pytest.raises(IndexOutOfRangeError):
        reduced_density(basis(2, 0), set())


def test_sample_z_on_basis_state():
    res, est = sample_pauli(basis(1, 0), "Z", 100, 3)
    assert est == 1.0
    assert res.counts == {"0": 100}
    assert res.shots == 100 and res.seed == 3


def test_sample_xx_on_bell():
    _, est = sample_pauli(bell_state(), "XX", 100_000, 7)
    assert abs(est - 1.0) <= 0.02


def test_sample_z_on_superposition():
    shots = 40_000
    psi = apply_gate(basis(1, 0), Ry(0, np.pi / 2))
    _, est = sample_pauli(psi, "Z", shots, 5)
    assert abs(est) <= 3 / np.sqrt(shots)


def test_sampling_unbiased():
    # mean of <Z> estimates over 50 seeds within 5 standard errors of cos(theta)
    theta = 0.8
    shots = 2000
    psi = apply_gate(basis(1, 0), Ry(0, theta))
    ests = [sample_pauli(psi, "Z", shots, seed)[1] for seed in range(50)]
    se = np.sqrt((1 - np.cos(theta) ** 2) / shots / 50)
    assert abs(np.mean(ests) - np.cos(theta)) <= 5 * se


def test_sample_reproducible():
    psi = bell_state()
    a = sample_pauli(psi, "ZZ", 500, 42)
    b = sample_pauli(psi, "ZZ", 500, 42)
    assert a[0].counts == b[0].counts and a[1] == b[1]


def test_sample_label_validation():
    with pytest.raises(BadLabelError):
        sample_pauli(bell_state(), "XQ", 10, 0)
    with pytest.raises(BadLabelError):
        sample_pauli(bell_state(), "X", 10, 0)  # wrong length
    with pytest.raises(OutOfRangeError):
        sample_pauli(bell_state(), "XX", 0, 0)


@pytest.mark.parametrize("shots", [2.5, "10"], ids=["float", "str"])
def test_sample_rejects_non_integer_shots(shots):
    with pytest.raises(OutOfRangeError, match="integer"):
        sample_pauli(bell_state(), "ZZ", shots, 1)


@pytest.mark.parametrize(
    "shots, seed, name",
    [(True, 1, "shots"), (0, 1, "shots"), (2.0, 1, "shots"), (2 ** 63, 1, "shots"),
     (10 ** 20, 1, "shots"), (10, -1, "seed"), (10, 2.0, "seed"), (10, True, "seed"),
     (10, None, "seed")],
    ids=["bool-shots", "zero-shots", "float-shots", "int64-overflow-shots", "huge-shots",
         "negative-seed", "float-seed", "bool-seed", "none-seed"],
)
def test_sampling_rejects_bad_shots_and_seeds(shots, seed, name):
    with pytest.raises(OutOfRangeError, match=f"{name} must be an integer"):
        sample_pauli(bell_state(), "ZZ", shots, seed)
    with pytest.raises(OutOfRangeError, match=f"{name} must be an integer"):
        sample_pauli_expectations(bell_state(), (0, 1), shots, seed)


def test_sampling_accepts_the_largest_shot_count():
    # numpy's multinomial draws int64 counts, so 2**63 - 1 is the most it takes
    shots = 2 ** 63 - 1
    result, est = sample_pauli(zero_state(2), "ZZ", shots, 1)
    assert result.counts == {"00": shots} and est == 1.0
    assert sample_pauli_expectations(zero_state(2), (0,), shots, 1)["Z"] == 1.0


def purification_state(d, seed):
    bundle = build_preparation_circuit(ginibre_density(d, seed))
    return run(bundle.circuit), bundle.system_qubits


@pytest.mark.parametrize(
    "d, qubits", [(2, None), (4, None), (8, None), (8, (2, 0))],
    ids=["k1", "k2", "k3", "non-ascending"],
)
def test_expectations_equal_sample_pauli_bit_for_bit(d, qubits):
    state, system = purification_state(d, 17)
    qubits = system if qubits is None else qubits
    n = int(state.size).bit_length() - 1
    labels = pauli_labels(len(qubits))
    table = sample_pauli_expectations(state, qubits, 300, 41)
    assert list(table) == labels and table[labels[0]] == 1.0
    for i, label in enumerate(labels[1:], start=1):
        full = ["I"] * n
        for q, ch in zip(qubits, label):
            full[q] = ch
        assert table[label] == sample_pauli(state, "".join(full), 300, 41 + i)[1], label


def test_odd_parity_matches_bit_count():
    for n in range(1, 7):
        for mask in range(2 ** n):
            odd = simulator._odd_parity(n, mask)
            assert odd.dtype == bool
            assert odd.tolist() == [bin(i & mask).count("1") & 1 == 1 for i in range(2 ** n)]


def test_expectations_rotate_once_per_setting(monkeypatch):
    # k = 3: one rotation per string is 96 block applications, one distribution
    # per measurement setting 54 (27 settings, two of three letters rotate)
    state, system = purification_state(8, 3)
    calls = []
    real = simulator._apply_block

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(simulator, "_apply_block", counted)
    sample_pauli_expectations(state, system, 100, 0)
    assert len(calls) <= 54


@pytest.mark.parametrize(
    "qubits",
    [(0, 5), (0, -1), (0, 0), ()],
    ids=["out-of-range", "negative", "repeated", "empty"],
)
def test_sample_expectations_rejects_bad_qubits(qubits):
    with pytest.raises(IndexOutOfRangeError):
        sample_pauli_expectations(bell_state(), qubits, 100, 0)


def test_sample_expectations_table():
    psi = bell_state()
    table = sample_pauli_expectations(psi, (0, 1), 50_000, 11)
    assert set(table) == {a + b for a in "IXYZ" for b in "IXYZ"}
    assert table["II"] == 1.0
    for label, exact in [("XX", 1.0), ("YY", -1.0), ("ZZ", 1.0), ("XZ", 0.0)]:
        assert abs(table[label] - exact) <= 0.03


@pytest.mark.parametrize("keep", [[0.9], ["0"], [True], [0, 1.0]],
                         ids=["float", "str", "bool", "mixed"])
def test_reduced_density_rejects_non_integer_qubits(keep):
    # a truncated index would trace down to the wrong qubit
    with pytest.raises(IndexOutOfRangeError, match="integer"):
        reduced_density(random_state(2, 3), keep)


@pytest.mark.parametrize("qubits", [(0.7,), ("1",), (True,), (0, 1.0)],
                         ids=["float", "str", "bool", "mixed"])
def test_sample_expectations_rejects_non_integer_qubits(qubits):
    with pytest.raises(IndexOutOfRangeError, match="integer"):
        sample_pauli_expectations(bell_state(), qubits, 100, 0)


@pytest.mark.parametrize(
    "circuit",
    [
        Circuit(2, [Ry(1.7, 0.1)]),
        Circuit(2, [Ry(True, 0.1)]),
        Circuit(2, [Cnot(0.0, 1)]),
        Circuit(2, [Cnot(0, "1")]),
        Circuit(2, [MultiControlledRy(((0, 1.0),), 1, 0.3)]),
        Circuit(2, [MultiControlledRy(((0, True),), 1, 0.3)]),
        Circuit(2, [MultiControlledRy(((0.0, 1),), 1, 0.3)]),
        Circuit(2, [UnitaryBlock([0.5], H)]),
        Circuit(2, [UnitaryBlock(["1"], H)]),
        Circuit(2.5, []),
        Circuit(True, []),
    ],
    ids=["ry-float", "ry-bool", "cnot-float", "cnot-str", "bit-float", "bit-bool", "control-float",
         "block-float", "block-str", "count-float", "count-bool"],
)
def test_run_rejects_non_integer_wires_bits_and_counts(circuit):
    with pytest.raises(IndexOutOfRangeError, match="integer|expected 0 or 1"):
        run(circuit)


def test_apply_gate_rejects_a_float_wire():
    with pytest.raises(IndexOutOfRangeError, match="integer"):
        apply_gate(zero_state(2), Cnot(0.0, 1))


@pytest.mark.parametrize("n", [2.5, True, "2", np.float64(2.0)],
                         ids=["float", "bool", "str", "np-float"])
def test_zero_state_rejects_non_integer_count(n):
    with pytest.raises(OutOfRangeError, match="num_qubits must be an integer in 1..24"):
        zero_state(n)


def test_numpy_integer_wires_and_subsets_still_run():
    i0, i1, two = np.int64(0), np.int64(1), np.int64(2)
    psi = run(Circuit(two, [Ry(i0, np.pi / 2), Cnot(i0, i1), UnitaryBlock(np.array([1]), H)]))
    plain = run(Circuit(2, [Ry(0, np.pi / 2), Cnot(0, 1), UnitaryBlock((1,), H)]))
    npt.assert_array_equal(psi, plain)
    npt.assert_array_equal(reduced_density(psi, np.array([1])), reduced_density(psi, {1}))
    table = sample_pauli_expectations(psi, (i1,), 10, 0)
    assert table == sample_pauli_expectations(psi, (1,), 10, 0)
    npt.assert_array_equal(zero_state(two), basis(2, 0))
