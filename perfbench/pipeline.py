"""One target through the public pipeline, and the spans that time it.

compile (purify) -> simulate (simulator.run) -> read out (exact partial
trace, or Pauli sampling plus tomography) -> verify (metrics).  Every call
into a layer goes through ``call(name, fn, *args)``: ``direct`` just calls,
``Tracer.call`` also records a span, so the traced and untraced runs
execute the same code.
"""
from __future__ import annotations

from time import perf_counter

from mixedprep import metrics, purify, simulator

# A target fails verification beyond these limits.
EXACT_LOSS_MAX = 1e-9  # 1 - fidelity against the generated target, exact readout
THEORY_TOL = 1e-9  # |pipeline - closed form| for the figure 2 metrics, exact readout
# Over 2736 seeded 1000-shot paper targets the lowest tomography fidelity
# was 0.949 (d = 8); a floor of 0.9 only catches a broken pipeline.
SHOT_FIDELITY_FLOOR = 0.9


def direct(name, fn, *args):
    return fn(*args)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, target id]."""

    def __init__(self):
        self.spans = []
        self._parent = None
        self._target = None

    def begin(self, name: str, target_id: str) -> int:
        self.spans.append([name, perf_counter(), None, None, target_id])
        self._parent = len(self.spans) - 1
        self._target = target_id
        return self._parent

    def end(self, index: int) -> None:
        """Close a span; later calls keep its target id but have no parent."""
        self.spans[index][2] = perf_counter()
        self._parent = None

    def call(self, name, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, start, perf_counter(), self._parent, self._target])


def process(target, call=direct):
    """Compile, simulate, read out and verify one target.

    Returns ``(bundle, values, problem)``: the compiled bundle, the verified
    quantities in a fixed order (fidelity first), and a description of the
    first failed check or None.
    """
    bundle = call("purify.build_preparation_circuit", purify.build_preparation_circuit, target.rho)
    state = call("simulator.run", simulator.run, bundle.circuit)
    qubits = bundle.system_qubits
    if target.shots is None:
        prepared = call("simulator.reduced_density", simulator.reduced_density, state, qubits)
    else:
        expectations = call("simulator.sample_pauli_expectations",
                            simulator.sample_pauli_expectations,
                            state, qubits, target.shots, target.meas_seed)
        prepared = call("metrics.tomography_reconstruct", metrics.tomography_reconstruct,
                        expectations, len(qubits))
    fid = call("metrics.fidelity", metrics.fidelity, prepared, target.rho)
    values = [fid]
    problem = None
    if target.shots is None and 1.0 - fid > EXACT_LOSS_MAX:
        problem = f"fidelity loss {1.0 - fid:.3e} > {EXACT_LOSS_MAX:g}"
    if target.shots is not None and fid < SHOT_FIDELITY_FLOOR:
        problem = f"tomography fidelity {fid:.4f} < {SHOT_FIDELITY_FLOOR}"
    for name, expected in target.theory.items():
        if name == "concurrence":
            got = call("metrics.concurrence", metrics.concurrence, prepared)
        elif name == "l1_coherence":
            got = call("metrics.l1_coherence", metrics.l1_coherence, prepared)
        else:
            got = call("metrics.local_l1_coherence", metrics.local_l1_coherence, prepared, "A")
        values.append(got)
        if target.shots is None and problem is None and abs(got - expected) > THEORY_TOL:
            problem = f"{name} {got!r} differs from closed form {expected!r}"
    return bundle, values, problem
