"""Statevector simulator: gates, reduced density matrices, Pauli sampling."""
import timeit
import tracemalloc
from itertools import combinations, permutations, product

import numpy as np
import numpy.testing as npt
import pytest

from mixedprep import simulator
from mixedprep import (
    Circuit,
    Cnot,
    DimensionMismatchError,
    IndexOutOfRangeError,
    MultiControlledRy,
    NotNormalizedError,
    NotUnitaryError,
    OutOfRangeError,
    Ry,
    UnitaryBlock,
    apply_gate,
    build_preparation_circuit,
    compile_real_state,
    ginibre_density,
    p00_family,
    partial_trace,
    pauli_labels,
    reduced_density,
    run,
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


@pytest.mark.parametrize("matrix", [[[1, 0], [0]], [1, 2]], ids=["ragged", "1-d"])
def test_unitary_block_refuses_a_matrix_it_cannot_read(matrix):
    with pytest.raises(IndexOutOfRangeError):
        UnitaryBlock((0,), matrix)


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
    "gate, message",
    [
        ("x", "unreadable wires"),
        (MultiControlledRy(((0,),), 1, 0.3), "unreadable wires"),
        (MultiControlledRy(((0, 1, 1),), 1, 0.3), "unreadable wires"),
        (MultiControlledRy((0, 1), 1, 0.3), "unreadable wires"),
        (MultiControlledRy(None, 1, 0.3), "unreadable wires"),
        # a list is a readable wire, but not an integer one
        (MultiControlledRy((([0], 1),), 1, 0.3), r"touches qubit \[0\], not an integer"),
        (UnitaryBlock([[0]], np.eye(2)), r"touches qubit \[0\], not an integer"),
    ],
    ids=["not-a-gate", "short-pair", "long-pair", "bare-ints", "none", "list-qubit",
         "list-block-qubit"],
)
def test_run_rejects_unreadable_wires(gate, message):
    with pytest.raises(IndexOutOfRangeError, match=message):
        run(Circuit(2, [gate]))


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


def oracle_apply_block(ten, qubits, matrix, live_rows):
    """The block product, reading the register through ``np.moveaxis`` as it once did."""
    k = len(qubits)
    view = np.moveaxis(ten, qubits, range(k))
    rows = view.reshape(2 ** k, -1)
    if live_rows:
        live = rows.real.any(axis=1) | rows.imag.any(axis=1)
        if not live.all():
            matrix, rows = matrix[:, live], rows[live]
    view[...] = (matrix @ rows).reshape(view.shape)


def oracle_reduced_density(state, kept):
    """The contraction over the dropped qubits, reading them through ``np.moveaxis``."""
    n = state.size.bit_length() - 1
    m = np.moveaxis(state.reshape((2,) * n), kept, range(len(kept))).reshape(2 ** len(kept), -1)
    if np.count_nonzero(m) < m.size:
        live = m.real.any(axis=0) | m.imag.any(axis=0)
        if not live.all():
            m = m[:, live]
    return m @ m.conj().T


def oracle_states(n):
    """A dense state, one with random exact zeros and one with a whole qubit at |0>."""
    rng = np.random.default_rng(700 + n)
    dense = random_state(n, 600 + n)
    sparse = dense * (rng.random(2 ** n) < 0.5)
    half = (dense.reshape(2, -1) * [[1], [0]]).reshape(-1)
    return [dense, sparse, half]


@pytest.mark.parametrize("live_rows", [False, True], ids=["all-rows", "live-rows"])
@pytest.mark.parametrize("n", range(1, 5))
def test_block_on_every_ordered_qubit_subset_has_the_moveaxis_bytes(n, live_rows):
    # leading (0, 1, ...), non-leading and unsorted qubits, read as a view or a transpose
    rng = np.random.default_rng(800 + n)
    for k in range(1, n + 1):
        matrix = rng.standard_normal((2 ** k, 2 ** k)) + 1j * rng.standard_normal((2 ** k, 2 ** k))
        for qubits in permutations(range(n), k):
            for state in oracle_states(n):
                got, want = state.copy(), state.copy()
                simulator._apply_block(got.reshape((2,) * n), qubits, matrix, live_rows)
                oracle_apply_block(want.reshape((2,) * n), qubits, matrix, live_rows)
                assert got.tobytes() == want.tobytes(), (qubits, live_rows)


@pytest.mark.parametrize("n", range(1, 5))
def test_reduced_density_on_every_keep_set_has_the_moveaxis_bytes(n):
    for k in range(1, n + 1):
        for kept in combinations(range(n), k):
            for state in oracle_states(n):
                want = oracle_reduced_density(state, list(kept))
                assert reduced_density(state, kept).tobytes() == want.tobytes(), kept


def test_reduced_density_errors():
    with pytest.raises(IndexOutOfRangeError):
        reduced_density(basis(2, 0), {4})
    with pytest.raises(IndexOutOfRangeError):
        reduced_density(basis(2, 0), set())


def test_sample_z_on_basis_state():
    table = sample_pauli_expectations(basis(1, 0), (0,), 100, 3)
    assert table["Z"] == 1.0 and table["I"] == 1.0


def test_sample_xx_on_bell():
    table = sample_pauli_expectations(bell_state(), (0, 1), 100_000, 7)
    assert abs(table["XX"] - 1.0) <= 0.02


def test_sample_z_on_superposition():
    shots = 40_000
    psi = apply_gate(basis(1, 0), Ry(0, np.pi / 2))
    table = sample_pauli_expectations(psi, (0,), shots, 5)
    assert abs(table["Z"]) <= 3 / np.sqrt(shots)


def test_sampling_unbiased():
    # mean of <Z> estimates over 50 seeds within 5 standard errors of cos(theta)
    theta = 0.8
    shots = 2000
    psi = apply_gate(basis(1, 0), Ry(0, theta))
    ests = [sample_pauli_expectations(psi, (0,), shots, seed)["Z"] for seed in range(50)]
    se = np.sqrt((1 - np.cos(theta) ** 2) / shots / 50)
    assert abs(np.mean(ests) - np.cos(theta)) <= 5 * se


def test_sample_reproducible():
    psi = bell_state()
    a = sample_pauli_expectations(psi, (0, 1), 500, 42)
    b = sample_pauli_expectations(psi, (0, 1), 500, 42)
    assert a == b


@pytest.mark.parametrize("shots", [2.5, "10"], ids=["float", "str"])
def test_sample_rejects_non_integer_shots(shots):
    with pytest.raises(OutOfRangeError, match="integer"):
        sample_pauli_expectations(bell_state(), (0, 1), shots, 1)


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
        sample_pauli_expectations(bell_state(), (0, 1), shots, seed)


def test_sampling_accepts_the_largest_shot_count():
    # numpy's multinomial draws int64 counts, so 2**63 - 1 is the most it takes
    shots = 2 ** 63 - 1
    assert sample_pauli_expectations(zero_state(2), (0,), shots, 1)["Z"] == 1.0


def purification_state(d, seed):
    bundle = build_preparation_circuit(ginibre_density(d, seed))
    return run(bundle.circuit), bundle.system_qubits


@pytest.mark.parametrize(
    "d, qubits", [(2, None), (4, None), (8, None), (8, (2, 0))],
    ids=["k1", "k2", "k3", "non-ascending"],
)
def test_expectations_equal_the_setting_loop_bit_for_bit(monkeypatch, d, qubits):
    state, system = purification_state(d, 17)
    qubits = system if qubits is None else qubits
    labels = pauli_labels(len(qubits))
    first = None
    for budget in BUDGETS.values():
        with monkeypatch.context() as m:
            if budget is not None:
                m.setattr(simulator, "_CHUNK_BYTES", budget)
            table, blocks = recorded_draws(
                m, lambda: sample_pauli_expectations(state, qubits, 300, 41))
        probs = np.concatenate(blocks)
        npt.assert_allclose(probs, oracle_probabilities(state, qubits), rtol=0, atol=1e-15)
        oracle = oracle_expectations(probs, state.size, qubits, 300, np.random.default_rng(41))
        assert list(table) == labels and table[labels[0]] == 1.0
        assert np.array(list(table.values())).tobytes() == np.array(list(oracle.values())).tobytes()
        first = first or (probs.tobytes(), table)
        assert (probs.tobytes(), table) == first  # the budget moves no byte


@pytest.mark.parametrize("qubits", [(0, 1, 2), (2, 0, 1)], ids=["ascending", "reordered"])
def test_full_weight_strings_equal_their_rotated_setting_when_every_qubit_is_measured(
        monkeypatch, qubits):
    # with no qubit summed out, setting s is the distribution of a state copy
    # rotated into its own label, within the rounding of the two routes
    state = random_state(3, 29)
    _, [probs] = recorded_draws(
        monkeypatch, lambda: sample_pauli_expectations(state, qubits, 300, 41))
    for s, combo in enumerate(product("XYZ", repeat=3)):
        label = "".join(combo)
        own = oracle_setting_probabilities(state, label)
        npt.assert_allclose(probs[s], own, rtol=0, atol=1e-15, err_msg=label)


def test_expectations_at_the_largest_shot_count_are_exact(monkeypatch):
    # 3 * shots passes int64: the I-summed strings need Python-int sums
    shots = 2 ** 63 - 1
    table, [probs] = recorded_draws(
        monkeypatch, lambda: sample_pauli_expectations(zero_state(2), (0, 1), shots, 3))
    assert table["ZI"] == table["IZ"] == table["ZZ"] == table["II"] == 1.0
    assert all(np.isfinite(v) and -1.0 <= v <= 1.0 for v in table.values())
    npt.assert_allclose(probs, oracle_probabilities(zero_state(2), (0, 1)), rtol=0, atol=1e-15)
    assert table == oracle_expectations(probs, 4, (0, 1), shots, np.random.default_rng(3))


def object_sums(monkeypatch, call):
    """``call()`` with every readout summed in Python ints."""
    with monkeypatch.context() as m:
        m.setattr(simulator, "_INT64_MAX", 0)
        return call()


@pytest.mark.parametrize("k", range(1, 9))
def test_int64_sums_equal_the_python_int_sums_on_both_sides_of_int64(monkeypatch, k):
    # every sum is at most 3**k * shots: int64 up to the largest int64, Python ints past it
    state = random_state(k, 70 + k)
    largest = np.iinfo(np.int64).max // 3 ** k
    for shots, summed_as in ((largest, np.int64), (largest + 1, object)):
        call = lambda: sample_pauli_expectations(state, range(k), shots, 5)  # noqa: E731
        dtypes, fold = [], simulator._fold
        with monkeypatch.context() as m:
            m.setattr(simulator, "_fold", lambda x, mats: dtypes.append(x.dtype) or fold(x, mats))
            table = call()
        assert dtypes[-1] == summed_as  # the last fold is the counts'
        if summed_as is np.int64:  # past the switch the call is the object path itself
            assert np.array(list(table.values())).tobytes() == np.array(
                list(object_sums(monkeypatch, call).values())).tobytes()


def test_int64_sums_make_the_k8_readout_at_least_twice_as_fast(monkeypatch):
    state = random_state(8, 8)
    call = lambda: sample_pauli_expectations(state, range(8), 10, 0)  # noqa: E731
    fast, slow = [], []
    for _ in range(3):
        fast.append(timeit.timeit(call, number=1))
        slow.append(timeit.timeit(lambda: object_sums(monkeypatch, call), number=1))
    assert 2 * min(fast) <= min(slow)


def test_a_rounding_level_probability_draws_as_zero():
    # numpy's multinomial draws nothing for an exact zero but a random number
    # for 4e-17, so without the floor every later count would move
    exact, tiny = np.array([[0.3, 0.0, 0.2, 0.5]]), np.array([[0.3, 4e-17, 0.2, 0.5]])
    raw = [np.random.default_rng(7).multinomial(1000, p[0]) for p in (exact, tiny)]
    assert raw[0].tolist() != raw[1].tolist()
    drawn = [simulator._draws(p, 4, 1000, np.random.default_rng(7)) for p in (tiny, exact)]
    assert drawn[0].tolist() == drawn[1].tolist()
    # the same through the sampler: an amplitude of 1e-17 is a Z-basis
    # probability of 1e-34, drawn as the exact zero beside it would be
    exact, rounded = np.array([0.6, 0.0, 0.48, 0.64]), np.array([0.6, 1e-17, 0.48, 0.64])
    assert (sample_pauli_expectations(rounded, (0, 1), 1000, 5)
            == sample_pauli_expectations(exact, (0, 1), 1000, 5))


@pytest.mark.parametrize("budget", [None, 0], ids=["default", "one-row"])
def test_expectations_trace_once_and_rotate_no_amplitude(monkeypatch, budget):
    # k = 3: one rotation per measurement setting was 54 2x2 products over the
    # whole register; the readout folds the measured qubits' reduced state
    # instead, traced once whatever the chunking
    state, system = purification_state(8, 3)
    if budget is not None:
        monkeypatch.setattr(simulator, "_CHUNK_BYTES", budget)
    rotations, traces, trace = [], [], simulator._trace
    monkeypatch.setattr(simulator, "_apply_block", lambda *args: rotations.append(args))
    monkeypatch.setattr(simulator, "_trace", lambda s, kept: traces.append(kept) or trace(s, kept))
    sample_pauli_expectations(state, system, 100, 0)
    assert rotations == [] and traces == [sorted(system)]


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


@pytest.mark.parametrize("qubits", [(0.7,), ("1",), (True,), (0, 1.0), ([0],)],
                         ids=["float", "str", "bool", "mixed", "list"])
def test_sample_expectations_rejects_non_integer_qubits(qubits):
    with pytest.raises(IndexOutOfRangeError, match="integer"):
        sample_pauli_expectations(bell_state(), qubits, 100, 0)


@pytest.mark.parametrize("qubits", [3, None, 1.5], ids=["int", "none", "float"])
def test_a_qubit_set_that_cannot_be_iterated_is_a_typed_error(qubits):
    with pytest.raises(IndexOutOfRangeError, match="iterable"):
        reduced_density(bell_state(), qubits)
    with pytest.raises(DimensionMismatchError, match="iterable"):
        partial_trace(np.eye(4) / 4, qubits, 2)
    with pytest.raises(IndexOutOfRangeError, match="iterable"):
        sample_pauli_expectations(bell_state(), qubits, 10, 0)
    with pytest.raises(IndexOutOfRangeError, match="iterable"):
        UnitaryBlock(qubits, np.eye(2))


def test_sample_expectations_measure_at_most_twelve_qubits(monkeypatch):
    # 4**13 labels pass any system register that compiles: refused before a draw
    draws = []
    monkeypatch.setattr(simulator, "_draws", lambda *args: draws.append(args))
    with pytest.raises(OutOfRangeError, match="qubit count must be an integer in 0..12"):
        sample_pauli_expectations(zero_state(13), range(13), 1, 0)
    assert draws == []


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


@pytest.mark.parametrize(
    "circuit, error",
    [
        (Circuit(2, [Cnot(10 ** 5000, 0)]), IndexOutOfRangeError),
        (Circuit(2, [MultiControlledRy(((0, 10 ** 5000),), 1, 0.3)]), IndexOutOfRangeError),
        (Circuit(1, [Ry(0, 10 ** 5000)]), OutOfRangeError),
        (Circuit(10 ** 5000, []), OutOfRangeError),
    ],
    ids=["wire", "control-bit", "angle", "count"],
)
def test_an_integer_too_long_to_print_is_a_typed_error(circuit, error):
    # repr of an int past Python's 4300-digit limit raises; the message names its type
    with pytest.raises(error, match="int"):
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


STATE_CALLS = {
    "reduced_density": lambda s: reduced_density(s, [0]),
    "apply_gate": lambda s: apply_gate(s, Ry(0, 0.1)),
    "sample_pauli_expectations": lambda s: sample_pauli_expectations(s, [0], 10, 0),
}


@pytest.mark.parametrize("call", sorted(STATE_CALLS))
@pytest.mark.parametrize("state", [np.eye(2), np.array(1.0)], ids=["2-d", "0-d"])
def test_state_must_be_one_dimensional(call, state):
    with pytest.raises(IndexOutOfRangeError, match="1-d"):
        STATE_CALLS[call](state)


@pytest.mark.parametrize(
    "state", [np.zeros(2, dtype=complex), np.array([np.nan, 1.0]), np.array([np.inf, 0.0])],
    ids=["zero", "nan", "inf"],
)
def test_sampling_needs_finite_probability_mass(state):
    # refused before the draw, with no warning and no NaN reaching the sampler
    with pytest.raises(NotNormalizedError, match="probability mass"):
        sample_pauli_expectations(state, [0], 10, 0)


# -- the work run and reduced_density skip ------------------------------------

def oracle_run(circuit):
    """The simulator with nothing skipped: every gate, the block on every row."""
    n = circuit.num_qubits
    state = np.zeros(2 ** n, dtype=complex)
    state[0] = 1.0
    ten = state.reshape((2,) * n)
    for gate in circuit.gates:
        if isinstance(gate, UnitaryBlock):
            k = len(gate.qubits)
            view = np.moveaxis(ten, gate.qubits, range(k))
            view[...] = (gate.matrix @ view.reshape(2 ** k, -1)).reshape(view.shape)
            continue
        idx = [slice(None)] * n + [Ellipsis]
        if isinstance(gate, Cnot):
            controls, c, s = ((gate.control, 1),), None, None
        else:
            controls = gate.controls if isinstance(gate, MultiControlledRy) else ()
            c, s = np.cos(gate.theta / 2.0), np.sin(gate.theta / 2.0)
        for q, b in controls:
            idx[q] = b
        idx[gate.target] = 0
        a0 = ten[tuple(idx)]
        idx[gate.target] = 1
        a1 = ten[tuple(idx)]
        if c is None:
            a0[...], a1[...] = a1.copy(), a0.copy()
        else:
            tmp = s * a0
            a0 *= c
            a0 -= s * a1
            a1 *= c
            a1 += tmp
    return state


def oracle_trace(state, keep):
    """The reduced density matrix contracted over every dropped column."""
    n = int(state.size).bit_length() - 1
    m = np.moveaxis(state.reshape((2,) * n), keep, range(len(keep))).reshape(2 ** len(keep), -1)
    return m @ m.conj().T


def low_rank(d, rank, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, d, rank))
    q, _ = np.linalg.qr(g[0] + 1j * g[1])
    rho = (q * rng.dirichlet(np.ones(rank))) @ q.conj().T
    return (rho + rho.conj().T) / 2


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q


class WorkCount:
    """Records rotation and CNOT amplitude pairs, live-row scans and block products."""

    def __init__(self, monkeypatch):
        self.pairs, self.scans, self.products = [], [], []
        pair, live = simulator._pair, simulator._live

        def counted_pair(ten, target, controls):
            self.pairs.append(controls)
            return pair(ten, target, controls)

        def counted_live(m):
            self.scans.append(m.shape)
            return live(m)

        monkeypatch.setattr(simulator, "_pair", counted_pair)
        monkeypatch.setattr(simulator, "_live", counted_live)

    def record_products(self, block):
        """Make ``block`` record the shape of every right-hand side it multiplies."""
        products = self.products

        class Recorded(np.ndarray):
            def __matmul__(self, other):
                products.append(other.shape)
                return np.asarray(self) @ other

        block.matrix = block.matrix.view(Recorded)


ORACLE_TARGETS = {
    **{f"low-rank d={d} r={r}": (lambda d=d, r=r: low_rank(d, r, d + r))
       for d in (8, 16, 32, 64) for r in (1, 2, 4)},
    "padded d=3": lambda: ginibre_density(3, 2),
    "padded d=5": lambda: ginibre_density(5, 2),
    "xstate:p00=0": lambda: p00_family(0.0),
    **{f"ginibre d={d}": (lambda d=d: ginibre_density(d, 7)) for d in range(2, 33)},
}


@pytest.mark.parametrize("name", sorted(ORACLE_TARGETS))
def test_skipping_keeps_state_and_trace_bytes(name):
    bundle = build_preparation_circuit(ORACLE_TARGETS[name]())
    state = run(bundle.circuit)
    assert state.tobytes() == oracle_run(bundle.circuit).tobytes()
    for keep in (bundle.system_qubits, bundle.ancilla_qubits):
        assert reduced_density(state, keep).tobytes() == oracle_trace(state, list(keep)).tobytes()


@pytest.mark.parametrize(
    "qubits", [(3,), (3, 1), (1, 2, 3), (3, 0)],
    ids=["trailing", "descending", "suffix", "non-adjacent"],
)
def test_block_on_non_leading_qubits_keeps_bytes(monkeypatch, qubits):
    # qubit 3 is never rotated, so every block row with qubit 3 set is dead
    circuit = Circuit(4, [
        Ry(0, 0.7), Ry(3, 0.0), MultiControlledRy(((0, 1),), 2, 1.3),
        MultiControlledRy(((0, 0), (2, 1)), 3, 0.0), Cnot(0, 1),
        UnitaryBlock(qubits, random_unitary(2 ** len(qubits), 5)),
    ])
    work = WorkCount(monkeypatch)
    work.record_products(circuit.gates[-1])
    state = run(circuit)
    [(rows, cols)] = work.products
    assert rows < 2 ** len(qubits) and cols == 2 ** (4 - len(qubits))
    assert state.tobytes() == oracle_run(circuit).tobytes()


@pytest.mark.parametrize("keep", [[1], [3], [1, 2], [2, 3], [0, 2], [1, 2, 3], [0, 1, 2, 3]])
def test_non_leading_keep_traces_live_columns_to_the_same_bytes(keep):
    state = run(build_preparation_circuit(low_rank(4, 2, 3)).circuit)
    assert np.count_nonzero(state) < state.size
    assert reduced_density(state, keep).tobytes() == oracle_trace(state, keep).tobytes()


@pytest.mark.parametrize(
    "state", [np.zeros(8, dtype=complex), basis(3, 5), 1j * basis(3, 6), random_state(3, 1)],
    ids=["no-live-column", "one-live-column", "imaginary-column", "no-zero"],
)
def test_trace_corner_cases_keep_bytes(state):
    for keep in ([0], [2], [0, 1]):
        assert reduced_density(state, keep).tobytes() == oracle_trace(state, keep).tobytes()


def test_rank_one_circuit_applies_no_rotation_and_multiplies_one_row(monkeypatch):
    bundle = build_preparation_circuit(low_rank(16, 1, 4))
    circuit = bundle.circuit
    assert len(circuit.gates) == 15 + 4 + 1  # the paper's circuit is unchanged
    work = WorkCount(monkeypatch)
    work.record_products(circuit.gates[-1])
    state = run(circuit)
    assert len(work.pairs) == 4  # the CNOTs only
    assert work.scans == [(16, 16)]
    assert work.products == [(1, 16)]
    traced = reduced_density(state, bundle.system_qubits)
    assert work.scans == [(16, 16)] * 2  # the trace scans the 16 dropped columns once
    npt.assert_allclose(traced, bundle.target, atol=1e-12)


@pytest.mark.parametrize("rank", [2, 4])
def test_low_rank_block_multiplies_rank_rows(monkeypatch, rank):
    bundle = build_preparation_circuit(low_rank(16, rank, 4))
    work = WorkCount(monkeypatch)
    work.record_products(bundle.circuit.gates[-1])
    run(bundle.circuit)
    assert work.products == [(rank, 16)]


def test_full_rank_circuit_and_sampling_run_no_scan(monkeypatch):
    bundle = build_preparation_circuit(ginibre_density(8, 3))
    work = WorkCount(monkeypatch)
    work.record_products(bundle.circuit.gates[-1])
    state = run(bundle.circuit)
    reduced_density(state, bundle.system_qubits)
    reduced_density(state, bundle.ancilla_qubits)
    assert work.scans == [] and work.products == [(8, 8)]
    assert len(work.pairs) == 7 + 3  # every rotation and CNOT
    # the sampler scans only in its one trace, for the state's zero columns
    sparse = run(build_preparation_circuit(low_rank(8, 1, 2)).circuit)
    work.scans.clear()
    sample_pauli_expectations(sparse, (0, 1, 2), 10, 0)
    assert work.scans == [(8, 8)]


# -- the batched readout against the per-setting loop --------------------------

Y_TO_Z = H @ np.diag([1.0, -1.0j])


def oracle_setting_probabilities(state, label):
    """One setting's Z-basis distribution: a rotated copy of the state per setting."""
    rotated = state.copy()
    ten = rotated.reshape((2,) * len(label))
    for q, ch in enumerate(label):
        if ch in "XY":
            view = np.moveaxis(ten, (q,), (0,))
            rows = view.reshape(2, -1)
            view[...] = ((H if ch == "X" else Y_TO_Z) @ rows).reshape(view.shape)
    probs = np.abs(rotated) ** 2
    probs /= probs.sum()
    return probs


def oracle_marginal(probs, measured):
    """A distribution summed over the unmeasured qubits, the last first, as p0 + p1 each."""
    n = int(probs.size).bit_length() - 1
    ten = probs.reshape((2,) * n)
    for q in reversed(range(n)):
        if q not in measured:
            ten = np.take(ten, 0, axis=q) + np.take(ten, 1, axis=q)
    return ten.reshape(-1)


def oracle_probabilities(state, qubits):
    """Each setting's rotated distribution marginalized to its measured qubits, in setting order."""
    n, measured = int(state.size).bit_length() - 1, sorted(qubits)
    rows = []
    for combo in product("XYZ", repeat=len(qubits)):
        full = ["Z"] * n
        for q, ch in zip(measured, combo):
            full[q] = ch
        rows.append(oracle_marginal(oracle_setting_probabilities(state, "".join(full)), measured))
    return np.array(rows)


def oracle_expectations(probs, dim, qubits, shots, rng):
    """One draw per setting row of ``probs``, in order, from ``rng``; Python-int balance sums."""
    k = len(qubits)
    measured = sorted(qubits)
    draws = []
    for s, combo in enumerate(product("XYZ", repeat=k)):
        row = np.where(probs[s] <= dim * np.finfo(float).eps, 0.0, probs[s])
        draws.append((combo, rng.multinomial(shots, row).tolist()))
    out = {}
    for label in pauli_labels(k):
        letter = dict(zip(qubits, label))
        support = [p for p, q in enumerate(measured) if letter[q] != "I"]
        total = settings = 0
        for combo, hist in draws:
            if all(letter[q] in ("I", ch) for q, ch in zip(measured, combo)):
                settings += 1
                for outcome, count in enumerate(hist):
                    odd = sum(outcome >> (k - 1 - p) & 1 for p in support) % 2
                    total += -count if odd else count
        out[label] = total / (settings * shots)
    out["I" * k] = 1.0
    return out


def recorded_draws(monkeypatch, call) -> tuple:
    """``call()``'s result and the probability blocks its sampler drew from, in order."""
    blocks, draws = [], simulator._draws

    def recorded(probs, dim, shots, rng):
        blocks.append(probs.copy())
        return draws(probs, dim, shots, rng)

    with monkeypatch.context() as m:
        m.setattr(simulator, "_draws", recorded)
        return call(), blocks


def readout_cases():
    """Compiled states of d = 2..16 with their system qubits and reordered subsets."""
    for d in range(2, 17):
        bundle = build_preparation_circuit(ginibre_density(d, 40 + d))
        state = run(bundle.circuit)
        n = int(state.size).bit_length() - 1
        subsets = [tuple(bundle.system_qubits), (1,), (n - 1, 0)]
        subsets += [(2, 0)] if n > 2 else []
        subsets += [(4, 1, 3), (3, 1)] if n > 4 else []
        for qubits in subsets:
            yield f"d={d}-q={qubits}", state, qubits


READOUT_CASES = {name: (state, qubits) for name, state, qubits in readout_cases()}
# None keeps the default budget (one chunk); 0 loops over every measured
# qubit, one setting per chunk; the middle one splits a k = 4 readout.
BUDGETS = {"default": None, "one-row": 0, "one-qubit": 3 * 48 * 2 ** 8}


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("name", sorted(READOUT_CASES))
def test_batched_readout_keeps_the_per_setting_bytes(monkeypatch, name, budget):
    state, qubits = READOUT_CASES[name]
    if BUDGETS[budget] is not None:
        monkeypatch.setattr(simulator, "_CHUNK_BYTES", BUDGETS[budget])
    table, blocks = recorded_draws(
        monkeypatch, lambda: sample_pauli_expectations(state, qubits, 257, 9))
    assert budget != "default" or len(blocks) == 1
    assert budget != "one-row" or len(blocks) == 3 ** len(qubits)
    rows = np.concatenate(blocks)
    assert rows.shape == (3 ** len(qubits), 2 ** len(qubits))
    npt.assert_allclose(rows, oracle_probabilities(state, qubits), rtol=0, atol=1e-15)
    oracle = oracle_expectations(rows, state.size, qubits, 257, np.random.default_rng(9))
    assert list(table) == list(oracle)
    assert np.array(list(table.values())).tobytes() == np.array(list(oracle.values())).tobytes()


@pytest.mark.parametrize("budget", sorted(BUDGETS))
def test_each_sampler_call_makes_one_generator(monkeypatch, budget):
    # every setting draws from one default_rng(seed), in setting order, however
    # the readout is chunked: k = 4 is one, 3 and 81 chunks under the budgets
    state = random_state(5, 31)
    if BUDGETS[budget] is not None:
        monkeypatch.setattr(simulator, "_CHUNK_BYTES", BUDGETS[budget])
    seeds, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: seeds.append(seed) or default_rng(seed))
    sample_pauli_expectations(state, (4, 0, 2, 1), 50, 11)
    assert seeds == [11]


@pytest.mark.parametrize("shots", [1, 1000, 2 ** 62])
def test_a_block_draw_equals_a_row_by_row_loop_on_one_generator(shots):
    # the readout draws a chunk of settings in one multinomial call: numpy draws
    # its rows in order, as a loop on the same generator does (the numpy-floor
    # CI job checks this on the oldest supported numpy)
    probs = np.random.default_rng(0).dirichlet(np.ones(8), size=27)
    probs[::4, 2] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    rng = np.random.default_rng(5)
    loop = [rng.multinomial(shots, row).tolist() for row in probs]
    assert np.random.default_rng(5).multinomial(shots, probs).tolist() == loop
    assert simulator._draws(probs, 8, shots, np.random.default_rng(5)).tolist() == loop


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peak of the per-setting loop, which held one setting's
# distribution at a time, on the call below
PER_SETTING_READOUT_PEAK = 1_242_972


def test_readout_peak_stays_within_the_chunk_budget():
    # unbounded, the 729 settings of 6 measured qubits on a 12-qubit state
    # would be one 729 x 4096 block of amplitudes, 45.6 MiB
    state = random_state(12, 12)
    peak = traced_peak(lambda: sample_pauli_expectations(state, range(6), 10, 0))
    assert peak <= simulator._CHUNK_BYTES + PER_SETTING_READOUT_PEAK


# tracemalloc peak of the batched rotation readout, which expanded the
# settings' amplitudes in chunks, on the call below under the same budget
ROTATED_READOUT_PEAK = 1_004_440


def test_chunked_readout_peak_stays_below_the_rotated_readout(monkeypatch):
    # unchunked, the 729 settings of 6 measured qubits are a 729 x 64 table
    # of marginals, which with its copies and counts passes a 1 MiB budget
    monkeypatch.setattr(simulator, "_CHUNK_BYTES", 2 ** 20)
    state = random_state(6, 6)
    _, blocks = recorded_draws(
        monkeypatch, lambda: sample_pauli_expectations(state, range(6), 10, 0))
    assert len(blocks) > 1
    peak = traced_peak(lambda: sample_pauli_expectations(state, range(6), 10, 0))
    assert peak <= ROTATED_READOUT_PEAK


# -- the readout's per-qubit maps against Kronecker oracles --------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_settings_fold_matches_the_rotated_marginals(k):
    for seed in range(5):
        state = random_state(k + 1, 60 + seed)
        coefficients = simulator._pauli_coefficients(reduced_density(state, range(k)))
        folded = simulator._fold(coefficients / coefficients.flat[0], [simulator._TO_SETTINGS] * k)
        # (letter, outcome) per qubit, to the letters of every qubit, then the outcomes
        probs = folded.reshape((3, 2) * k).transpose([*range(0, 2 * k, 2), *range(1, 2 * k, 2)])
        npt.assert_allclose(probs.reshape(3 ** k, 2 ** k), oracle_probabilities(state, range(k)),
                            rtol=0, atol=1e-15)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sums_fold_of_one_count_is_its_parity_sign(k):
    labels = pauli_labels(k)
    for s, combo in enumerate(product("XYZ", repeat=k)):
        for o in range(2 ** k):
            counts = np.zeros((3 ** k, 2 ** k), dtype=np.int64)
            counts[s, o] = 1
            # letters of every qubit, then the outcomes, to (letter, outcome) per qubit
            pairs = counts.reshape((3,) * k + (2,) * k).transpose(
                [a for q in range(k) for a in (q, k + q)])
            sums = simulator._fold(pairs, [simulator._TO_SUMS] * k).ravel().tolist()
            for label, total in zip(labels, sums):
                agrees = all(ch in ("I", c) for ch, c in zip(label, combo))
                odd = sum(o >> (k - 1 - q) & 1 for q, ch in enumerate(label) if ch != "I") % 2
                assert total == (0 if not agrees else -1 if odd else 1), (combo, o, label)


# -- the typed door of the simulator's conversions -----------------------------

UNREADABLE = {
    "ragged": [[1, 0], [0]],
    "dict": {"a": 1},
    "string": "abc",
    "beyond-float": [10 ** 400, 0],
    "objects": np.array([object(), object()], dtype=object),
}


@pytest.mark.parametrize("value", list(UNREADABLE.values()), ids=list(UNREADABLE))
@pytest.mark.parametrize("call", sorted(STATE_CALLS))
def test_a_state_numpy_cannot_read_is_an_index_error(call, value):
    with pytest.raises(IndexOutOfRangeError, match="cannot read a complex array"):
        STATE_CALLS[call](value)
