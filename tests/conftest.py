"""Helpers shared by more than one test module."""
import numpy as np


def dense(m, size=10, exact=False):
    """The sparse Gaussian-integer matrix ``m`` of ``dkp_eup.algebra``,
    {(row, col): (re, im)}, as a size x size complex128 array; or, if
    ``exact``, as its real 2size x 2size form, each entry the block
    [[re, -im], [im, re]] of Python ints, whose arithmetic is exact at any
    size and whose products and sums are those of the complex matrices."""
    if exact:
        out = np.zeros((2 * size, 2 * size), dtype=object)
        for (i, j), (re, im) in m.items():
            out[2 * i:2 * i + 2, 2 * j:2 * j + 2] = [[re, -im], [im, re]]
        return out
    out = np.zeros((size, size), dtype=np.complex128)
    for (i, j), (re, im) in m.items():
        out[i, j] = complex(re, im)
    return out
