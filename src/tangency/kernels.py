"""The directed-rounding kernels, re-exported from ``tangency._pyops``.

Callers use the kernels through this module (``from tangency import
kernels as _k``), so a name replaced here, for instance to count calls,
reaches every caller, while the kernels' calls to one another inside
``_pyops`` stay untouched.
"""

from tangency._pyops import (
    add_down,
    add_up,
    div_down,
    div_up,
    iadd,
    idiv,
    imul,
    isqr,
    isqrt,
    isub,
    mul_down,
    mul_up,
    sqrt_down,
    sqrt_up,
    sub_down,
    sub_up,
)

BACKEND = "python"
