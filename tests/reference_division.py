"""The division rule on Python floats in ``reduce`` form, the reference for the generated kernels.

``engine._float_kernel`` writes each sum out as straight-line code; this
is the same bounded order as loops over the rows and columns, each sum
formed left to right with ``reduce`` (not ``sum``, whose order changed in
Python 3.12).  The two must agree bit for bit, a ZeroDivisionError
included.
"""

from functools import reduce
from operator import add


def reference_divide(y, scaled, claimed, pad, keep, free):
    """y keeps ``keep`` of itself plus its shares of the ``claimed`` payoffs, on lists.

    ``scaled`` is the (M, N) weights as a list of rows, and ``claimed``,
    ``pad`` and ``free`` are as ``engine._claims`` returns them.  Each
    product y_i s_ij is formed once, summed into its column's invested
    wealth, and divided by it before it meets the payoff.
    """
    products = [[u * s for s in row] for u, row in zip(y, scaled)]
    invested = [reduce(add, column) + d for column, d in zip(zip(*products), pad)]
    return [
        reduce(add, (a / r * p for a, r, p in zip(row, invested, claimed)), u * keep) + free
        for u, row in zip(y, products)
    ]
