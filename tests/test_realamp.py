"""Real-amplitude loader: branch norms, angles, compiled circuit structure."""
import math

import numpy as np
import numpy.testing as npt
import pytest

from mixedprep import (
    Circuit,
    Cnot,
    DimensionMismatchError,
    LevelOutOfRangeError,
    MultiControlledRy,
    NegativeAmplitudeError,
    NotNormalizedError,
    Ry,
    branch_norms,
    compile_real_state,
    rotation_angle,
    run,
)


def random_amps(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.random(2 ** n)
    return a / np.linalg.norm(a)


def test_branch_norms_examples():
    npt.assert_allclose(branch_norms([1, 0, 0, 0], 0), [1, 0], atol=0)
    npt.assert_allclose(
        branch_norms([0.5, 0.5, 0.5, 0.5], 0), [1 / np.sqrt(2)] * 2, atol=1e-15
    )
    amps = np.sqrt([0.4, 0.3, 0.2, 0.1])
    npt.assert_allclose(branch_norms(amps, 1), amps, atol=1e-15)


def test_branch_norms_squares_sum_to_one():
    for n in range(1, 5):
        amps = random_amps(n, n)
        for level in range(n):
            norms = branch_norms(amps, level)
            assert norms.shape == (2 ** (level + 1),)
            npt.assert_allclose((norms ** 2).sum(), 1.0, atol=1e-10)


@pytest.mark.parametrize(
    "amps, want",
    [([1e200, 1e200], [1e200, 1e200]), ([3e-170, 4e-170, 0.0, 0.0], [5e-170, 0.0]),
     ([1e200, 0.0, 1e-200, 0.0], [1e200, 1e-200]), ([1.5e308] * 4, [math.inf] * 2)],
    ids=["overflowing-squares", "underflowing-squares", "both", "past-the-float-range"],
)
def test_branch_norms_square_no_amplitude_past_the_float_range(amps, want):
    # RuntimeWarning is an error here: the squares once overflowed to inf and underflowed to 0
    npt.assert_array_equal(branch_norms(np.array(amps), 0), want)


def test_branch_norms_scaling_keeps_the_unscaled_bytes():
    rng = np.random.default_rng(31)
    for n in range(1, 7):
        for scale in (1e-3, 1.0, 1e3):
            amps = rng.random(2 ** n) * (rng.random(2 ** n) < 0.7) * scale
            for level in range(n):
                want = np.sqrt((amps ** 2).reshape(2 ** (level + 1), -1).sum(axis=1))
                assert branch_norms(amps, level).tobytes() == want.tobytes(), (n, level)


def test_branch_norms_level_out_of_range():
    with pytest.raises(LevelOutOfRangeError):
        branch_norms([1, 0], 1)
    with pytest.raises(LevelOutOfRangeError):
        branch_norms([1, 0, 0, 0], -1)


def test_rotation_angle():
    assert rotation_angle(1.0, 0.0) == 0.0
    npt.assert_allclose(rotation_angle(1 / np.sqrt(2), 1 / np.sqrt(2)), np.pi / 2)
    assert rotation_angle(0.0, 1.0) == np.pi
    assert rotation_angle(0.0, 0.0) == 0.0  # convention for the dead branch


def test_compile_single_qubit():
    amps = np.sqrt([0.7, 0.3])
    c = compile_real_state(amps)
    assert len(c.gates) == 1
    (gate,) = c.gates
    assert isinstance(gate, Ry) and gate.target == 0
    npt.assert_allclose(gate.theta, 2 * math.acos(math.sqrt(0.7)), atol=1e-14)


def test_compile_basis_state():
    c = compile_real_state([1, 0, 0, 0])
    assert all(g.theta == 0 for g in c.gates)
    sv = run(c)
    npt.assert_allclose(sv, [1, 0, 0, 0], atol=1e-15)


def test_compile_structure():
    c = compile_real_state(random_amps(3, 5))
    assert len(c.gates) == 7  # 2^3 - 1
    assert isinstance(c.gates[0], Ry)
    # level 1: controls on qubit 0, patterns 0 then 1
    assert c.gates[1] == MultiControlledRy(controls=((0, 0),), target=1, theta=c.gates[1].theta)
    assert c.gates[2].controls == ((0, 1),)
    # level 2: two-bit prefixes ascending
    assert [g.controls for g in c.gates[3:]] == [
        ((0, 0), (1, 0)),
        ((0, 0), (1, 1)),
        ((0, 1), (1, 0)),
        ((0, 1), (1, 1)),
    ]
    assert all(isinstance(g, (Ry, MultiControlledRy)) for g in c.gates)
    assert not any(isinstance(g, Cnot) for g in c.gates)


def test_compile_angles_in_range():
    for n in range(1, 6):
        for seed in range(10):
            c = compile_real_state(random_amps(n, 37 * n + seed))
            assert all(0.0 <= g.theta <= np.pi for g in c.gates)


def test_compile_roundtrip_seeded():
    for n in range(1, 6):
        for seed in range(20):
            amps = random_amps(n, 1000 * n + seed)
            sv = run(compile_real_state(amps))
            npt.assert_allclose(sv, amps, atol=1e-10)
            assert abs(np.vdot(amps, sv)) ** 2 >= 1 - 1e-10


def test_compile_sparse_vectors():
    # vectors with dead subtrees: gates controlled on them stay at angle 0
    amps = np.zeros(8)
    amps[0], amps[1] = np.sqrt(0.5), np.sqrt(0.5)
    c = compile_real_state(amps)
    sv = run(c)
    npt.assert_allclose(sv, amps, atol=1e-12)
    for g in c.gates:
        if isinstance(g, MultiControlledRy) and g.controls[0][1] == 1:
            assert g.theta == 0.0


def oracle_ry_tree(amps):
    """The loader built gate by gate: one ``rotation_angle`` of a level's float64
    norms per prefix, and each prefix's control bits shifted out of its index."""
    n = amps.shape[0].bit_length() - 1
    sq = amps ** 2
    circuit = Circuit(num_qubits=n, label="real-amplitude loader")
    for level in range(n):
        children = np.sqrt(sq.reshape(2 ** (level + 1), -1).sum(axis=1))
        for prefix in range(2 ** level):
            theta = rotation_angle(children[2 * prefix], children[2 * prefix + 1])
            if level == 0:
                circuit.gates.append(Ry(target=0, theta=theta))
            else:
                controls = tuple((q, (prefix >> (level - 1 - q)) & 1) for q in range(level))
                circuit.gates.append(MultiControlledRy(controls, level, theta))
    return circuit


def oracle_vectors(n):
    """A dense, a sparse and a one-hot amplitude vector of 2**n entries."""
    rng = np.random.default_rng(n)
    dense = random_amps(n, 500 + n)
    sparse = np.zeros(2 ** n)
    live = rng.choice(2 ** n, size=max(1, 2 ** n // 8), replace=False)
    sparse[live] = rng.random(live.size)
    one_hot = np.zeros(2 ** n)
    one_hot[rng.integers(2 ** n)] = 1.0
    return {"dense": dense, "sparse": sparse / np.linalg.norm(sparse), "one-hot": one_hot}


@pytest.mark.parametrize("n", range(1, 11))
def test_compile_equals_the_gate_by_gate_loader(n):
    for name, amps in oracle_vectors(n).items():
        circuit = compile_real_state(amps)
        assert circuit == oracle_ry_tree(amps), name
        assert all(type(g.theta) is float and type(g.target) is int for g in circuit.gates)
        assert all(type(b) is int for g in circuit.gates[1:] for _, b in g.controls)


def test_compile_validation():
    with pytest.raises(NotNormalizedError):
        compile_real_state([1.0, 1.0])
    with pytest.raises(NotNormalizedError):
        compile_real_state([np.nan, 1.0])
    with pytest.raises(NotNormalizedError, match="norm inf"):  # overflows, unwarned
        compile_real_state(np.array([1e200, 0.0]))
    with pytest.raises(NegativeAmplitudeError):
        compile_real_state([np.sqrt(0.5), -np.sqrt(0.5)])
    with pytest.raises(DimensionMismatchError):
        compile_real_state([1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        compile_real_state([1.0])


@pytest.mark.parametrize(
    "amps",
    [np.array([0.6, 0.8j]), [0.6 + 0j, 0.8 + 1e-9j], [0.6, complex(0.8, np.nan)], [0.6, "a"]],
    ids=["imaginary", "small-imaginary", "nan-imaginary", "str"],
)
def test_complex_amplitudes_are_rejected(amps):
    # dropping the imaginary part would load a different state
    with pytest.raises(NegativeAmplitudeError, match="real and non-negative"):
        compile_real_state(amps)
    with pytest.raises(NegativeAmplitudeError, match="real and non-negative"):
        branch_norms(amps, 0)


def test_zero_imaginary_parts_load_as_real():
    amps = np.sqrt([0.4, 0.3, 0.2, 0.1])
    assert compile_real_state(amps + 0j).gates == compile_real_state(amps).gates
    npt.assert_array_equal(branch_norms(amps + 0j, 0), branch_norms(amps, 0))


@pytest.mark.parametrize("level", [0.5, True, None], ids=["float", "bool", "none"])
def test_branch_norms_rejects_a_level_that_is_not_an_integer(level):
    with pytest.raises(LevelOutOfRangeError):
        branch_norms([0.5, 0.5, 0.5, 0.5], level)


@pytest.mark.parametrize("amps", [None, 0.5, [[1.0, 0.0], [0.0, 0.0]]],
                         ids=["none", "scalar", "2-d"])
def test_amplitudes_that_are_not_a_vector_are_a_dimension_error(amps):
    # a 2-d array of unit norm would otherwise load as its row norms
    with pytest.raises(DimensionMismatchError, match="1-d"):
        compile_real_state(amps)
    with pytest.raises(DimensionMismatchError, match="1-d"):
        branch_norms(amps, 0)


@pytest.mark.parametrize("amps", [[[0.6], [0.8, 0.0]], [10 ** 400, 0], {"a": 1}],
                         ids=["ragged", "beyond-float", "dict"])
def test_amplitudes_numpy_cannot_read_are_a_typed_error(amps):
    with pytest.raises(NegativeAmplitudeError, match="real and non-negative"):
        compile_real_state(amps)
    with pytest.raises(NegativeAmplitudeError, match="real and non-negative"):
        branch_norms(amps, 0)
