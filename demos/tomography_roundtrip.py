"""Reconstruct a prepared state from simulated Pauli measurements.

``prepare_density`` with ``shots`` samples each of the 3^k measurement
settings of the k system qubits, inverts the Pauli estimates back into a
density matrix, and the result is compared with the exact target.
Statistical error shrinks like 1/sqrt(shots).
"""

from mixedprep import fidelity, ginibre_density, prepare_density

target = ginibre_density(4, seed=7)

for shots in (100, 1_000, 10_000, 100_000):
    rho = prepare_density(target, shots=shots, seed=42)
    print(f"shots={shots:>7}  fidelity={fidelity(rho, target):.6f}")

# the exact readout traces the ancillas off and reproduces the target to machine precision
rho = prepare_density(target)
print(f"exact         fidelity={fidelity(rho, target):.15f}")
