"""qdense: p-adic denseness of quotient sets of integral diagonal forms.

Given F(x_1..x_r) = a_1 x_1^n + ... + a_r x_r^n and a prime p, decide
whether R(F) = {F(x)/F(y) : F(y) != 0} is dense in the p-adic numbers,
with a citable proof trace, machine-checkable obstruction certificates
for NotDense verdicts, and an independent brute-force oracle.

The package re-exports each module's `__all__`, and its own `__all__` is
their concatenation, so a public name is listed once, in its module.
"""

from .denseness import *
from .errors import *
from .forms import *
from .oracle import *
from .padic import *
from .residues import *

__all__ = (
    denseness.__all__
    + errors.__all__
    + forms.__all__
    + oracle.__all__
    + padic.__all__
    + residues.__all__
)

__version__ = "0.1.0"
