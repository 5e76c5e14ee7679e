"""repr's text of every value of a float64 array, at numpy speed.

`repr_rows` gives the bytes of `','.join(map(repr, row)) + '\n'` for each
row of a 2-D array without a Python call per value: numpy computes the
shortest round-trip digits of a chunk of values at once (`_shortest_digits`)
and lays out their text in a byte matrix (`_format_cells`); repr formats
only the values that computation cannot decide.
"""

from __future__ import annotations

import numpy as np

__all__ = ["repr_rows"]

# An array is formatted in chunks of this many cells, taken in row-major
# order whatever its width, so the work arrays stay small at any size.
_CHUNK_CELLS = 1 << 13
_POW10 = np.array([float(10 ** k) for k in range(23)])  # exact: 5**22 < 2**53
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_POW10_HI = _POW10 * _VELTKAMP - (_POW10 * _VELTKAMP - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_MANTISSA = (1 << 52) - 1
_EXPONENT = 0x7FF << 52
# Closer than this to a round-trip boundary or a tie, in units of the 17th
# significant digit, a value is left to repr.
_MARGIN = 1e-9


def _digit_quads():
    """Each of 0..9999 as its four ASCII digits packed in one uint32, and
    its count of trailing zero digits (4 for 0)."""
    d = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    text = (d + ord("0")).astype(np.uint8).view(np.uint32)[:, 0]
    zeros = np.cumprod(d[:, ::-1] == 0, axis=1).sum(axis=1).astype(np.int8)
    return text, zeros


_QUAD_TEXT, _QUAD_ZEROS = _digit_quads()


def _shortest_digits(x, fw, iw):
    """repr's digits of each value of the 1-D array `x`, as (C, E, slow):
    the value is ±C·10^(E−16) with C an int64 of 17 digits (0 for ±0.0)
    whose trailing zeros are the digits repr leaves out, and `slow` marks
    the values left to repr itself (their C is 0).  `fw` and `iw` are work
    arrays, float64 and int64, of 8 and 3 rows of at least x.size; C and E
    are views of `iw`.

    For |x| in [1e-4, 1e15) the product y = |x|·10^(16−E), E the decimal
    exponent of |x|, is formed exactly as hi + lo by Dekker's TwoProduct,
    10^q being exact for q ≤ 22; so y = I + f with I an integer of 17
    digits and f in [0, 1), both exact.  A decimal n·10^(E−16) reads back
    to x iff |n − y| < h, where h, half the spacing of x scaled alike, is
    exact too.  repr gives the nearest multiple of the largest of 100, 10
    and 1 that lies that close: the shortest, since a shorter decimal is a
    multiple of 100, and one multiple of 100 at most lies within h < 11.2.
    C stays below 10^17: rounding up to 10^(E+1) would take x =
    fl(10^(E+1)) < 10^(E+1), and fl(10^j) > 10^j for j from −3 to −1.
    Left to repr: values outside that range, a power-of-two significand
    (its spacing is half as wide below), and values within _MARGIN of a
    round-trip boundary or of a tie between two candidates, which these
    float64 sums (exact to ~1e-14) cannot decide.
    """
    n = x.size
    a, s, hi, lo, t, u, h, v = (w[:n] for w in fw)
    E, I, K = (w[:n] for w in iw)
    np.abs(x, out=a)
    zero = a == 0
    fast = (a >= 1e-4) & (a < 1e15)
    fast &= np.bitwise_and(a.view(np.int64), _MANTISSA, out=I) != 0
    np.copyto(a, 0.3, where=~fast)         # keeps the arithmetic finite
    np.floor(np.log10(a, out=t), out=t)
    np.copyto(E, t, casting="unsafe")
    np.subtract(16, E, out=I)
    np.take(_POW10, I, out=s)
    np.take(_POW10_HI, I, out=h)
    np.take(_POW10_LO, I, out=v)
    # TwoProduct: hi + lo = a·s, with t + u = a and h + v = s split in halves
    np.multiply(a, _VELTKAMP, out=t)
    np.subtract(t, a, out=u)
    t -= u
    np.subtract(a, t, out=u)
    np.multiply(a, s, out=hi)
    np.multiply(t, h, out=lo)
    lo -= hi
    t *= v
    lo += t
    h *= u
    lo += h
    u *= v
    lo += u
    # y = I + f, f in u
    np.floor(lo, out=t)
    np.subtract(lo, t, out=u)
    np.copyto(I, hi, casting="unsafe")
    np.copyto(K, t, casting="unsafe")
    I += K
    fast &= (I >= 10 ** 16) & (I < 10 ** 17)
    # h = 2**(e-53)·s for a in [2**e, 2**(e+1))
    np.bitwise_and(a.view(np.int64), _EXPONENT, out=K)
    np.multiply(K.view(np.float64), 2.0 ** -53, out=h)
    h *= s
    # y modulo 100 in hi, modulo 10 in lo (to ~1e-14; either end of the
    # period gives the same candidate below)
    np.floor_divide(I, 100, out=K)
    K *= -100
    K += I
    np.add(K, u, out=hi)
    np.multiply(hi, 0.1, out=lo)
    np.floor(lo, out=lo)
    lo *= -10.0
    lo += hi
    # the distances to the nearest multiples of 100 and of 10
    np.subtract(100.0, hi, out=t)
    np.minimum(t, hi, out=t)
    np.subtract(10.0, lo, out=s)
    np.minimum(s, lo, out=s)
    ok100, ok10 = t < h, s < h
    t -= h
    s -= h
    slow = ~(fast | zero) | (np.abs(t, out=t) <= _MARGIN) | (np.abs(s, out=s) <= _MARGIN)
    # the unit chosen in s (1 + 9·ok10 + 90·ok100: the 17-digit candidate
    # always round-trips, h being > 0.55) and y modulo it in t
    np.multiply(ok10, 9.0, out=s)
    s += 1.0
    np.multiply(ok100, 90.0, out=v)
    s += v
    np.subtract(lo, u, out=t)
    t *= ok10
    t += u
    np.subtract(hi, lo, out=v)
    v *= ok100
    t += v
    np.multiply(s, 0.5, out=v)
    up = t > v
    v -= t
    slow |= np.abs(v, out=v) <= _MARGIN
    # C = y − (y mod unit), plus the unit when rounding up
    u -= t
    np.rint(u, out=u)
    s *= up
    u += s
    np.copyto(K, u, casting="unsafe")
    I += K
    I[slow | zero] = 0
    E[zero] = 0
    return I, E, slow


def _digit_groups(C, Q, iw):
    """Write the 17 digits of each C into the five uint32 columns `Q` as
    '000' and the first digit, then four groups of four; return each C's
    count of significant digits (trailing zeros dropped, 0 for 0).  `iw`:
    two int64 work rows; C is overwritten."""
    n = C.size
    top, group = (w[:n] for w in iw)
    tz = np.zeros(n, np.int8)
    trailing = np.ones(n, bool)            # all digits so far are zeros
    for j in (4, 3, 2, 1):
        np.floor_divide(C, 10 ** 4, out=top)
        np.multiply(top, -10 ** 4, out=group)
        group += C
        Q[:, j] = _QUAD_TEXT[group]
        tz += _QUAD_ZEROS[group] * trailing
        trailing &= group == 0
        C, top = top, C
    Q[:, 0] = _QUAD_TEXT[C]
    tz += trailing & (C == 0)
    return 17 - tz


def _format_cells(x, first, nx, work) -> bytes:
    """repr's text of each value of the 1-D array `x`, the cells from
    `first` on of a field nx wide, each followed by `,`, or by `\n` at the
    end of a row.  `work` holds the work arrays of `repr_rows`.

    The text is laid out in a uint8 matrix, a row per value and a column
    per decimal position from 10^p_hi down to 10^p_lo (with the point
    between 10^0 and 10^-1), a sign column before them and the separator
    after; a boolean matrix keeps each value's own characters, and the
    kept bytes, in order, are the text."""
    fw, iw = work
    n = x.size
    C, E, slow = _shortest_digits(x, fw, iw[:3])
    known = E[~slow]
    e0, e1 = (int(known.min()), int(known.max())) if known.size else (-1, -1)
    E[slow] = e0
    p_hi, p_lo = max(e1, 0), min(e0 - 16, -1)
    reprs = None
    if slow.any():
        reprs = np.array([repr(v) for v in x[slow].tolist()], dtype="S")
        p_lo = min(p_lo, p_hi + 3 - reprs.itemsize)
    nint, ncols = p_hi + 1, p_hi - p_lo + 1
    width = ncols + 3
    # each row's digits at bytes pad..pad+16 of its groups, '0' around:
    # the digit of 10^p of a value E is at byte pad + E − p
    lead = max(0, -(-(p_hi - e0 - 3) // 4))
    pad = 4 * lead + 3
    nq = max(lead + 5, -(-(pad + e1 - p_lo + 1) // 4))
    Q = np.full((n, nq), _QUAD_TEXT[0])
    nd = _digit_groups(C, Q[:, lead:lead + 5], iw[2:])
    D = Q.view(np.uint8)
    if e0 == e1:
        win = D[:, pad + e0 - p_hi:][:, :ncols]
    else:
        windows = np.lib.stride_tricks.sliding_window_view(D, ncols, axis=1)
        win = windows[np.arange(n), pad + E - p_hi]
    M = np.empty((n, width), np.uint8)
    M[:, 0] = ord("-")
    M[:, 1:1 + nint] = win[:, :nint]
    M[:, 1 + nint] = ord(".")
    M[:, 2 + nint:-1] = win[:, nint:]
    M[:, -1] = ord(",")
    M[(nx - 1 - first) % nx::nx, -1] = ord("\n")
    # the columns a value keeps depend only on its E, digit count nd and
    # sign: the digits of 10^max(E, 0) down to 10^min(E − nd + 1, −1)
    pos = np.concatenate((np.arange(p_hi, -1, -1), [-0.5], np.arange(-1, p_lo - 1, -1)))
    e, digits = np.arange(e0, e1 + 1)[:, None, None], np.arange(18)[:, None]
    table = np.empty((e1 - e0 + 1, 18, 2, width), bool)
    table[..., 0] = [False, True]
    table[..., 1:-1] = ((pos <= np.maximum(e, 0))
                        & (pos >= np.minimum(e - digits + 1, -1)))[:, :, None]
    table[..., -1] = True
    row = iw[2, :n]
    np.subtract(E, e0, out=row)
    row *= 18
    row += nd
    row *= 2
    row += np.signbit(x)
    keep = np.take(table.reshape(-1, width), row, axis=0)
    if reprs is not None:
        w = reprs.itemsize
        block = reprs.view(np.uint8).reshape(-1, w)
        rows = np.flatnonzero(slow)
        M[rows, :w] = block
        keep[rows, :-1] = False
        keep[rows, :w] = block != 0
    return M[keep].tobytes()


def repr_rows(values: np.ndarray):
    """The text of the C-contiguous 2-D float64 array `values`, a line of
    `','.join(map(repr, row))` per row, as bytes chunks of _CHUNK_CELLS
    cells at most."""
    nx = values.shape[1]
    cells = values.reshape(-1)
    size = min(cells.size, _CHUNK_CELLS)
    work = (np.empty((8, size)), np.empty((4, size), np.int64))
    for first in range(0, cells.size, size):
        yield _format_cells(cells[first:first + size], first, nx, work)
