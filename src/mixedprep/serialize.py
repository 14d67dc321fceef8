"""JSON file formats for density matrices and circuits.

Density files carry {"dim", "re", "im"} with the real and imaginary parts
as row-major nested lists.  Circuit files carry {"num_qubits", "gates",
"meta"}; each gate record has a "kind" of "ry", "cnot", "mcry", or
"unitary" plus kind-specific fields.  The reader and the writer both apply
``validate_circuit``'s gate checks (the blocks' Gram is left to ``run``):
the qubit count, qubit indices and control bits are integers and angles
finite reals, none of them a ``bool``, and a failure is a
:class:`FormatError`, so nothing is coerced.  All numbers are written as
plain Python ints/floats, so json round-trips them exactly (shortest-repr
float encoding is lossless for binary64).

A writer encodes the whole document before it opens the file, so what the
readers would refuse (a NaN or infinite float), an int too long to print
and a ``meta`` value of no JSON type raise :class:`FormatError` and leave
the path as it was.
"""
from __future__ import annotations

import json

import numpy as np

from .circuits import Circuit, Cnot, MultiControlledRy, Ry, UnitaryBlock, _require_gates
from .errors import FormatError, IndexOutOfRangeError, OutOfRangeError, _as_complex, _shown
from .linalg import FILE_VALIDATE_TOL, require_density


def _matrix_to_parts(m: np.ndarray) -> tuple:
    """Real and imaginary parts of a complex matrix as nested lists of Python floats."""
    return m.real.tolist(), m.imag.tolist()


def _parts_to_matrix(re, im, what: str) -> np.ndarray:
    try:
        re = np.asarray(re, dtype=float)
        im = np.asarray(im, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{what}: re/im are not numeric arrays: {exc}") from exc
    if re.ndim != 2 or re.shape[0] != re.shape[1]:
        raise FormatError(f"{what}: re must be a square 2-d array, got shape {re.shape}")
    if im.shape != re.shape:
        raise FormatError(f"{what}: im shape {im.shape} differs from re shape {re.shape}")
    return re + 1j * im


def density_to_dict(rho) -> dict:
    rho = _as_complex(rho, FormatError)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise FormatError(f"a density matrix is a square 2-d array, got shape {rho.shape}")
    re, im = _matrix_to_parts(rho)
    return {"dim": int(rho.shape[0]), "re": re, "im": im}


def density_from_dict(doc, validate_tol: float | None = FILE_VALIDATE_TOL) -> np.ndarray:
    """Parse a density-file document; ``validate_tol=None`` skips the physics check."""
    if not isinstance(doc, dict):
        raise FormatError(f"density document must be an object, got {type(doc).__name__}")
    for key in ("dim", "re", "im"):
        if key not in doc:
            raise FormatError(f"density document is missing key {key!r}")
    dim = doc["dim"]
    if type(dim) is not int or dim < 1:  # a JSON true is a bool, and no size
        raise FormatError(f"dim must be a positive integer, got {_shown(dim)}")
    m = _parts_to_matrix(doc["re"], doc["im"], "density document")
    if m.shape != (dim, dim):
        raise FormatError(f"declared dim {_shown(dim)} does not match matrix shape {m.shape}")
    if validate_tol is not None:
        m = require_density(m, validate_tol)
    return m


def _read_json(path):
    """Parse a JSON file, rejecting the non-standard NaN and Infinity literals."""
    def reject(name):
        raise FormatError(f"{path}: non-finite number {name} is not allowed")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=reject)
        except FormatError:  # from reject
            raise
        except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def _write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON and a newline, once all of it has encoded."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: cannot write the document as JSON: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def write_density_file(path, rho) -> None:
    _write_json(path, density_to_dict(rho))


def read_density_file(path, validate_tol: float | None = FILE_VALIDATE_TOL) -> np.ndarray:
    return density_from_dict(_read_json(path), validate_tol)


def _gate_to_dict(gate) -> dict:
    if isinstance(gate, Ry):
        return {"kind": "ry", "target": int(gate.target), "theta": float(gate.theta)}
    if isinstance(gate, Cnot):
        return {"kind": "cnot", "control": int(gate.control), "target": int(gate.target)}
    if isinstance(gate, MultiControlledRy):
        return {"kind": "mcry", "controls": [int(q) for q, _ in gate.controls],
                "bits": [int(b) for _, b in gate.controls], "target": int(gate.target),
                "theta": float(gate.theta)}
    re, im = _matrix_to_parts(gate.matrix)  # a UnitaryBlock, the one gate type left
    return {"kind": "unitary", "qubits": [int(q) for q in gate.qubits], "re": re, "im": im}


def _gate_from_dict(doc, pos: int):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError(f"gate {pos}: expected an object with a 'kind' key")
    kind = doc["kind"]
    try:
        if kind == "ry":
            return Ry(target=doc["target"], theta=doc["theta"])
        if kind == "cnot":
            return Cnot(control=doc["control"], target=doc["target"])
        if kind == "mcry":
            controls, bits = list(doc["controls"]), list(doc["bits"])
            if len(controls) != len(bits):
                raise FormatError(f"gate {pos}: {len(controls)} controls but {len(bits)} bits")
            return MultiControlledRy(tuple(zip(controls, bits)), doc["target"], doc["theta"])
        if kind == "unitary":
            matrix = _parts_to_matrix(doc["re"], doc["im"], f"gate {pos}")
            return UnitaryBlock(doc["qubits"], matrix)
    except KeyError as exc:
        raise FormatError(f"gate {pos} ({kind}): missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:  # not a list; a block's IndexOutOfRangeError
        raise FormatError(f"gate {pos} ({kind}): bad field value: {exc}") from exc
    raise FormatError(f"gate {pos}: unknown kind {_shown(kind)}")


def _checked(circuit: Circuit) -> Circuit:
    """``circuit`` once :func:`~mixedprep.circuits.validate_circuit`'s gate checks pass.

    A failure is a :class:`FormatError`.  The blocks' Gram is left to
    ``run``, and the CLI's ``simulate``, at their ``tol``.
    """
    try:
        _require_gates(circuit)
    except (IndexOutOfRangeError, OutOfRangeError) as exc:
        raise FormatError(str(exc)) from exc
    return circuit


def circuit_to_dict(circuit: Circuit, meta: dict | None = None) -> dict:
    _checked(circuit)
    doc_meta = dict(meta or {})
    if circuit.label and "label" not in doc_meta:
        doc_meta["label"] = circuit.label
    return {
        "num_qubits": int(circuit.num_qubits),
        "gates": [_gate_to_dict(g) for g in circuit.gates],
        "meta": doc_meta,
    }


def circuit_from_dict(doc) -> Circuit:
    if not isinstance(doc, dict):
        raise FormatError(f"circuit document must be an object, got {type(doc).__name__}")
    for key in ("num_qubits", "gates"):
        if key not in doc:
            raise FormatError(f"circuit document is missing key {key!r}")
    if not isinstance(doc["gates"], list):
        raise FormatError("gates must be a list")
    gates = [_gate_from_dict(g, i) for i, g in enumerate(doc["gates"])]
    meta = doc.get("meta") or {}
    label = meta.get("label", "") if isinstance(meta, dict) else ""
    return _checked(Circuit(num_qubits=doc["num_qubits"], gates=gates, label=label))


def write_circuit_file(path, circuit: Circuit, meta: dict | None = None) -> None:
    _write_json(path, circuit_to_dict(circuit, meta))


def read_circuit_file(path) -> Circuit:
    return circuit_from_dict(_read_json(path))
