"""traced_max: the largest intermediate an array kernel computes.

A kernel picks each array's dtype from a bound it proves, through
numberfield._exact_dtype.  traced_max runs the kernel with that function
patched to give object dtype, under every name a richlines module binds it
to, on inputs whose integers are _Traced ints.  Every + - * // % abs and
unary minus that a _Traced int takes part in records the largest |result|
so far and yields a _Traced int, so the record covers every value that the
same code, in the picked dtype, would have had to hold.

Limits: the tracer sees only Python operators on the elements.  It does
not see inside ufuncs that skip them (np.gcd, for one, whose results are at
most their inputs), nor arithmetic on plain Python ints, such as the
bounds themselves.  Comparisons yield bools and record nothing.
"""

import sys

import numpy as np

from richlines import numberfield


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
    """(result, top): kernel(*args) with _exact_dtype giving object dtype in
    every richlines module that binds it, and the largest |value| that any
    traced operation produced.  Integer array arguments become arrays of
    _Traced ints; others, such as slices and Python int bounds, pass as they
    are.  An object built under the patch, such as an _InterceptWords, keeps
    its traced arrays.  A kernel that never asks for a dtype fails the call:
    nothing would say its arrays were traced."""
    args = [
        _traced_array(a) if isinstance(a, np.ndarray) and a.dtype.kind in "iuO" else a
        for a in args
    ]
    exact, asked = numberfield._exact_dtype, []

    def widest(bound):
        asked.append(bound)
        return np.dtype(object)

    bindings = [
        (module, name)
        for key, module in list(sys.modules.items())
        if key == "richlines" or key.startswith("richlines.")
        for name, value in vars(module).items()
        if value is exact
    ]
    _Traced.top = 0
    for module, name in bindings:
        setattr(module, name, widest)
    try:
        result = kernel(*args)
    finally:
        for module, name in bindings:
            setattr(module, name, exact)
    assert asked, f"{getattr(kernel, '__qualname__', kernel)} asked for no dtype"
    return result, _Traced.top
