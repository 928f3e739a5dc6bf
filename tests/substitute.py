"""Substitute chosen zero values at the package's lookup boundary.

The package reads the zero cache only through ``zeros_upto``.
``substituted_zeros`` wraps it wherever ``interlace``, ``wronskian`` and
``cli`` bind it, so every checker sees the substituted values while the
zero cache keeps the true ones. Tests use it to force violations and
exact equalities that real zeros never produce.
"""

import contextlib
from unittest import mock

from bessel_interlace import cli, interlace, wronskian, zeros
from bessel_interlace.zeros import ZeroKind


@contextlib.contextmanager
def substituted_zeros(changes):
    """Within the block, the zero named (kind, nu, s) reads as ``f(true value)``.

    ``changes`` maps (kind, nu, s) to f, with kind as text ("j", "y", "jp", "yp").
    """
    table = {(ZeroKind(k), float(nu), s): f for (k, nu, s), f in changes.items()}

    true_zeros_upto = zeros.zeros_upto

    def swapped(kind, nu, s_max):
        """A table over copies of the true table's columns, its value column swapped."""
        true = true_zeros_upto(kind, nu, s_max)
        value = true.value
        for s, v in enumerate(value, 1):
            f = table.get((kind, float(nu), s))
            if f is not None:
                value[s - 1] = f(v)
        return zeros.ZeroTable((value, true.lo, true.hi, true.residual, true.iterations), len(true))

    with contextlib.ExitStack() as stack:
        for module in (interlace, wronskian, cli):
            stack.enter_context(mock.patch.object(module, "zeros_upto", swapped))
        yield
