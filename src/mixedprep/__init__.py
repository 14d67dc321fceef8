"""Compile mixed quantum states into purification circuits and verify them.

The pipeline: a target density matrix is eigendecomposed, the square roots
of its eigenvalues are loaded as real amplitudes on a system register, a
CNOT ladder copies the register onto ancillas, and a basis-change unitary
rotates the system into the eigenvector basis.  Tracing the ancillas off
the simulated 2n-qubit state returns the target.  Everything here is exact
dense numpy; the heaviest supported register is 24 qubits.

Each module's ``__all__`` declares its public names; the package exports
them all, and ``__version__``.
"""

__version__ = "0.1.0"

from .circuits import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .linalg import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .purify import *  # noqa: F401,F403
from .realamp import *  # noqa: F401,F403
from .serialize import *  # noqa: F401,F403
from .simulator import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403
from . import circuits, errors, linalg, metrics, purify, realamp, serialize, simulator, states

__all__ = ["__version__"]
__all__ += circuits.__all__
__all__ += errors.__all__
__all__ += linalg.__all__
__all__ += metrics.__all__
__all__ += purify.__all__
__all__ += realamp.__all__
__all__ += serialize.__all__
__all__ += simulator.__all__
__all__ += states.__all__
