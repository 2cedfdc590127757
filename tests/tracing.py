"""traced_max: the largest intermediate an array kernel computes.

A kernel picks each array's dtype from a bound it proves, through
geometry._exact_dtype.  traced_max runs the kernel with that function
patched to give object dtype, on inputs whose integers are _Traced ints.
Every + - * // % abs and unary minus that a _Traced int takes part in
records the largest |result| so far and yields a _Traced int, so the
record covers every value that the same code, in the picked dtype, would
have had to hold.

Limits: the tracer sees only Python operators on the elements.  It does
not see inside ufuncs that skip them (np.gcd, for one, whose results are at
most their inputs), nor arithmetic on plain Python ints, such as the
bounds themselves.  Comparisons yield bools and record nothing.
"""

import numpy as np

from richlines import geometry


class _Traced(int):
    top = 0  # the largest |result| recorded since traced_max last reset it


def _recorded(name):
    op = getattr(int, name)

    def traced(self, *other):
        value = op(self, *other)
        if value is NotImplemented:
            return value
        _Traced.top = max(_Traced.top, abs(value))
        return _Traced(value)

    return traced


for _name in (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__abs__", "__neg__",
):
    setattr(_Traced, _name, _recorded(_name))


def _traced_array(values):
    """The integer array values as an object array of _Traced ints."""
    out = np.empty(np.shape(values), dtype=object)
    out.flat = [_Traced(v) for v in np.asarray(values).flat]
    return out


def traced_max(kernel, *args):
    """(result, top): kernel(*args) with geometry._exact_dtype giving object
    dtype, and the largest |value| that any traced operation produced.
    Integer array arguments become arrays of _Traced ints; others, such as
    slices and Python int bounds, pass as they are.  An object built under
    the patch, such as an _InterceptWords, keeps its traced arrays, so its
    methods can be traced in turn."""
    args = [
        _traced_array(a) if isinstance(a, np.ndarray) and a.dtype.kind in "iuO" else a
        for a in args
    ]
    exact, _Traced.top = geometry._exact_dtype, 0
    geometry._exact_dtype = lambda bound: np.dtype(object)
    try:
        result = kernel(*args)
    finally:
        geometry._exact_dtype = exact
    return result, _Traced.top
