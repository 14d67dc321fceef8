"""A 3x3 target doesn't fill a qubit register.  The compiler solves it as a
3x3 matrix, then embeds it in the top-left of a 4x4 block: the extra level
is an eigenvector of weight 0, which the basis change leaves alone.
"""

import numpy as np

from mixedprep import (
    build_preparation_circuit,
    pad_to_qubit_dimension,
    prepare_density,
)

rng = np.random.default_rng(11)
g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
rho3 = g @ g.conj().T
rho3 /= np.trace(rho3).real

padded = pad_to_qubit_dimension(rho3)
print("padded target (note the zero fourth row/column):")
np.set_printoptions(precision=4, suppress=True)
print(padded)

prepared = prepare_density(rho3)        # padding happens internally too
print("\nmax |prepared[:3,:3] - rho3| =", np.abs(prepared[:3, :3] - rho3).max())
print("weight in the unused level    =", prepared[3, 3].real)

bundle = build_preparation_circuit(rho3)
print("qubits used:", bundle.circuit.num_qubits)
print("eigenvalues:", bundle.spectral.eigenvalues)
print("block's fourth column:", bundle.circuit.gates[-1].matrix[:, 3])
