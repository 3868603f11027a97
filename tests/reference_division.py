"""The division rule on Python floats in ``reduce`` form, the reference for the generated kernels.

``engine._float_kernel`` writes each sum out as straight-line code; this
is the same rule as loops over the rows and columns, each sum formed
left to right with ``reduce`` (not ``sum``, whose order changed in Python
3.12).  The two must agree bit for bit, a ZeroDivisionError included.
"""

from functools import reduce
from operator import add, mul


def reference_divide(y, scaled, claimed, pad, keep, free):
    """y keeps ``keep`` of itself plus its shares of the ``claimed`` payoffs, on lists.

    ``scaled`` is the (M, N) weights as a list of rows, and ``claimed``,
    ``pad`` and ``free`` are as ``engine._claims`` returns them.
    """
    columns = [list(c) for c in zip(*scaled)]
    q = [p / (reduce(add, map(mul, y, c)) + d) for c, p, d in zip(columns, claimed, pad)]
    return [u * (reduce(add, map(mul, r, q)) + keep) + free for u, r in zip(y, scaled)]
