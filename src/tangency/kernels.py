"""The directed-rounding kernels and the rounding-mode blocks, re-exported
from ``tangency._pyops``.

Callers use the kernels through this module (``from tangency import
kernels as _k``), so a name replaced here, for instance to count calls,
reaches every caller, while the kernels' calls to one another inside
``_pyops`` stay untouched.  The rigorous stages run inside ``with
_k.upward():`` blocks, where each kernel bound is one float operation; a
kernel called outside one sets the mode for that call alone.  Code whose
error analysis assumes round-to-nearest runs inside ``with _k.nearest():``.
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
    nearest,
    sqrt_down,
    sqrt_up,
    sub_down,
    sub_up,
    upward,
)

BACKEND = "python"
