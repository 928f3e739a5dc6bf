"""Substitute chosen zero values at the package's lookup boundary.

``substituted_zeros`` wraps ``zero`` and ``zeros_upto`` wherever
``interlace``, ``wronskian`` and ``cli`` bind them, so every checker sees
the substituted values while the zero cache keeps the true ones. Tests
use it to force violations and exact equalities that real zeros never
produce.
"""

import contextlib
import dataclasses
from unittest import mock

from bessel_interlace import cli, interlace, wronskian, zeros
from bessel_interlace.zeros import ZeroKind


@contextlib.contextmanager
def substituted_zeros(changes):
    """Within the block, the zero named (kind, nu, s) reads as ``f(true value)``.

    ``changes`` maps (kind, nu, s) to f, with kind as text ("j", "y", "jp", "yp").
    """
    table = {(ZeroKind(k), float(nu), s): f for (k, nu, s), f in changes.items()}

    def swap(kind, nu, rec):
        f = table.get((kind, float(nu), rec.s))
        return rec if f is None else dataclasses.replace(rec, value=f(rec.value))

    def swap_table(kind, nu, true):
        """A table over copies of ``true``'s columns, its value column swapped."""
        value = true.value
        for s, v in enumerate(value, 1):
            f = table.get((kind, float(nu), s))
            if f is not None:
                value[s - 1] = f(v)
        return zeros.ZeroTable((value, true.lo, true.hi, true.residual, true.iterations), len(true))

    true_zero, true_zeros_upto = zeros.zero, zeros.zeros_upto
    wrappers = {
        "zero": lambda id: swap(id.kind, id.nu, true_zero(id)),
        "zeros_upto": lambda kind, nu, s_max: swap_table(kind, nu, true_zeros_upto(kind, nu, s_max)),
    }
    with contextlib.ExitStack() as stack:
        for module in (interlace, wronskian, cli):
            for name, wrapper in wrappers.items():
                if hasattr(module, name):
                    stack.enter_context(mock.patch.object(module, name, wrapper))
        yield
