"""JSON file formats for density matrices and circuits.

Density files carry {"dim", "re", "im"} with the real and imaginary parts
as row-major nested lists.  Circuit files carry {"num_qubits", "gates",
"meta"}; each gate record has a "kind" of "ry", "cnot", "mcry", or
"unitary" plus kind-specific fields.  Qubit indices and control bits must
be JSON integers and angles JSON numbers; nothing else is coerced.  All
numbers are written as plain Python ints/floats, so json round-trips them
exactly (shortest-repr float encoding is lossless for binary64).
"""
from __future__ import annotations

import json
import numbers

import numpy as np

from .circuits import Circuit, Cnot, MultiControlledRy, Ry, UnitaryBlock
from .errors import FormatError, _as_complex, _is_int, _shown
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


def write_density_file(path, rho) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(density_to_dict(rho), fh, indent=2)
        fh.write("\n")


def read_density_file(path, validate_tol: float | None = FILE_VALIDATE_TOL) -> np.ndarray:
    return density_from_dict(_read_json(path), validate_tol)


def _gate_to_dict(gate) -> dict:
    if isinstance(gate, Ry):
        return {"kind": "ry", "target": int(gate.target), "theta": float(gate.theta)}
    if isinstance(gate, Cnot):
        return {"kind": "cnot", "control": int(gate.control), "target": int(gate.target)}
    if isinstance(gate, MultiControlledRy):
        return {
            "kind": "mcry",
            "controls": [int(q) for q, _ in gate.controls],
            "bits": [int(b) for _, b in gate.controls],
            "target": int(gate.target),
            "theta": float(gate.theta),
        }
    if isinstance(gate, UnitaryBlock):
        re, im = _matrix_to_parts(gate.matrix)
        return {"kind": "unitary", "qubits": [int(q) for q in gate.qubits], "re": re, "im": im}
    raise FormatError(f"cannot serialize gate of type {type(gate).__name__}")


def _index(value) -> int:
    """A qubit index or control bit: an integer, and not a ``bool`` (JSON ``true``)."""
    if not _is_int(value):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _angle(value) -> float:
    """A rotation angle: a number, and not a ``bool`` or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _gate_from_dict(doc, pos: int):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError(f"gate {pos}: expected an object with a 'kind' key")
    kind = doc["kind"]
    try:
        if kind == "ry":
            return Ry(target=_index(doc["target"]), theta=_angle(doc["theta"]))
        if kind == "cnot":
            return Cnot(control=_index(doc["control"]), target=_index(doc["target"]))
        if kind == "mcry":
            controls = [_index(q) for q in doc["controls"]]
            bits = [_index(b) for b in doc["bits"]]
            if len(controls) != len(bits):
                raise FormatError(
                    f"gate {pos}: {len(controls)} controls but {len(bits)} bits"
                )
            return MultiControlledRy(
                controls=tuple(zip(controls, bits)),
                target=_index(doc["target"]),
                theta=_angle(doc["theta"]),
            )
        if kind == "unitary":
            matrix = _parts_to_matrix(doc["re"], doc["im"], f"gate {pos}")
            return UnitaryBlock(qubits=[_index(q) for q in doc["qubits"]], matrix=matrix)
    except KeyError as exc:
        raise FormatError(f"gate {pos} ({kind}): missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"gate {pos} ({kind}): bad field value: {exc}") from exc
    raise FormatError(f"gate {pos}: unknown kind {kind!r}")


def circuit_to_dict(circuit: Circuit, meta: dict | None = None) -> dict:
    if not isinstance(circuit, Circuit):
        raise FormatError(f"expected a Circuit, got {type(circuit).__name__}")
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
    n = doc["num_qubits"]
    if type(n) is not int or n < 1:  # a JSON true is a bool, and no size
        raise FormatError(f"num_qubits must be a positive integer, got {_shown(n)}")
    if not isinstance(doc["gates"], list):
        raise FormatError("gates must be a list")
    gates = [_gate_from_dict(g, i) for i, g in enumerate(doc["gates"])]
    meta = doc.get("meta") or {}
    label = meta.get("label", "") if isinstance(meta, dict) else ""
    return Circuit(num_qubits=n, gates=gates, label=label)


def write_circuit_file(path, circuit: Circuit, meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(circuit_to_dict(circuit, meta), fh, indent=2)
        fh.write("\n")


def read_circuit_file(path) -> Circuit:
    return circuit_from_dict(_read_json(path))
