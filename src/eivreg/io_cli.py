"""CSV ingestion, report serialization, and the command-line interface.

Three subcommands tie the package together: ``fit`` reads a dataset and
reports the closed-form estimates (optionally certified by the oracle suite),
``simulate`` runs a seeded consistency sweep, and ``verify`` asserts the full
invariant suite over randomly generated instances. Numbers are serialized as
shortest round-trip decimals, and fixed seeds give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import os
import re
import stat
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import __version__, invariants
from .estimators import FitResult, fit, legacy_means
from .exceptions import (
    DimensionMismatchError,
    ExcessiveSkipsError,
    NotPositiveDefiniteError,
    ParseError,
    UnidentifiableError,
    ValidationError,
)
from .model_core import ModelKind, ModelSpec, ObservedData, _require_count, _symmetrized
from .oracle import perturbation_probe
from .simulate import (
    ConsistencyReport,
    ErrorKind,
    SyntheticTruth,
    consistency_experiment,
    default_mean_grid,
    generate_dataset,
    random_truth,
)

# 2: the fit report's oracle section no longer carries perturbation_violations
SCHEMA_VERSION = 2

RESIDUAL_SCALE_NOTE = (
    "ad hoc scale diagnostic (mean squared residual per entry); "
    "not a derived estimator of the error variance"
)
LEGACY_MEANS_NOTE = (
    "known-incorrect for the intercept model (omits the mean-shift term); "
    "shown for comparison only"
)


# ---------------------------------------------------------------------------
# dataset and matrix files
# ---------------------------------------------------------------------------

class _InputFile:
    """A file the command reads by path, opened once per pass over it. Its
    SHA-256 is taken from the bytes the passes read; a file that cannot be
    read again (a pipe) is read whole at once and kept for the later passes."""

    def __init__(self, path):
        self.path = path
        self._digest = hashlib.sha256()
        self._hashed = 0  # bytes from the start that the digest holds
        self._complete = False
        self._kept = None
        if not stat.S_ISREG(os.stat(path).st_mode):
            with open(path, "rb") as handle:
                self._kept = handle.read()
            self._digest.update(self._kept)
            self._complete = True

    def open(self):
        """A binary stream of the file from its start."""
        if self._kept is not None:
            return io.BytesIO(self._kept)
        return io.BufferedReader(_HashingReader(self, open(self.path, "rb", buffering=0)))

    def checksum(self) -> str:
        """``sha256:`` and the hex digest of the whole file, which is read to
        its end here only where no pass has."""
        if not self._complete:
            with self.open() as handle:
                while handle.read(1 << 16):
                    pass
        return "sha256:" + self._digest.hexdigest()

    def _read(self, offset: int, data) -> None:
        """Hash the bytes past ``_hashed`` of ``data``, read at ``offset``;
        an empty read at ``_hashed`` is the end of the file."""
        if not data:
            self._complete |= offset == self._hashed
        elif offset + len(data) > self._hashed:
            self._digest.update(data[self._hashed - offset:])
            self._hashed = offset + len(data)


class _HashingReader(io.RawIOBase):
    """A raw binary file that shows each read to its ``_InputFile``."""

    def __init__(self, source: _InputFile, raw):
        self._source = source
        self._raw = raw
        self._offset = 0

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self._raw.readinto(buffer)
        self._source._read(self._offset, memoryview(buffer)[:count])
        self._offset += count
        return count

    def close(self) -> None:
        self._raw.close()
        super().close()


def _input_file(path) -> _InputFile:
    return path if isinstance(path, _InputFile) else _InputFile(path)


def _csv_rows(source: _InputFile):
    """Rows of a UTF-8 CSV file, a leading byte-order mark dropped; a file
    that is not UTF-8 fails with a ``ValidationError`` naming it."""
    path = source.path
    try:
        with io.TextIOWrapper(source.open(), encoding="utf-8-sig", newline="") as handle:
            yield from csv.reader(handle)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: not readable as CSV ({exc})") from None


# What float() strips from a cell's ends: whitespace but the ASCII information
# separators (\x1c-\x1f), which str.strip also strips
_FLOAT_PADDING = re.compile(r"^[^\S\x1c-\x1f]+|[^\S\x1c-\x1f]+\Z")


def _parse_cells(path, rows, columns) -> np.ndarray:
    """Parse rows of CSV cells into a float matrix, one column per label.

    Each row must have one cell per column, and each cell must parse with
    ``float`` as a finite real. The first failure raises, naming its 1-based
    row, the ``repr`` of its column label (a header name or an index) and
    the cell, less the padding ``float`` ignores.
    """
    values = np.empty((len(rows), len(columns)))
    for i, row in enumerate(rows, start=1):
        if len(row) != len(columns):
            raise DimensionMismatchError(
                f"{path}: row {i} has {len(row)} cells, expected {len(columns)}"
            )
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                value = float("nan")
            if not np.isfinite(value):
                shown = _FLOAT_PADDING.sub("", cell)
                raise ParseError(f"{path}: row {i}, column {columns[j]!r}: {shown!r} "
                                 "is not a finite real", row=i, column=columns[j])
            values[i - 1, j] = value
    return values


# The exact block reader multiplies or divides a decimal's digits m (an integer
# below 2^63) by 10^|q| in a long double and rounds that to a double. Up to
# |q| = 27, m and 10^|q| (= 2^|q| 5^|q|, 5^27 < 2^63) are exact in the x87
# 64-bit and the IEEE quad 113-bit significand, and the long double is m 10^q
# correctly rounded. Past 27 the rounded power adds at most one more rounding,
# so the long double lies within 2 units of its last place (ulps) of m 10^q.
# IBM double-double (nmant 105) does not round its division correctly. Both
# formats keep the low 64 bits of the significand in the first 8 of their
# 16 little-endian bytes; a double drops the lowest nmant - 52 of them.
_EXACT_LONGDOUBLE = (np.finfo(np.longdouble).nmant in (63, 112)
                     and np.dtype(np.longdouble).itemsize == 16 and sys.byteorder == "little")
_DROPPED_BITS = np.finfo(np.longdouble).nmant - 52
# 10^j rounded once (strtold); with m < 2^63 and -307 <= q <= 289, m 10^q is
# 0 or a normal double's magnitude
_POW10 = np.array([f"1e{j}" for j in range(308)], dtype=np.longdouble)
# A block's transient arrays take about eight times its bytes. On 2*10^5 rows a
# CLI fit's peak RSS was 0.75 MB above np.loadtxt's at 128 kB; it was 0.4 MB
# more at 256 kB and 7.7 MB more at 1 MB, and 64 kB took 6 ms longer.
_BLOCK_BYTES = 1 << 17
# e, E and line ends become separators of the integer fields; a byte outside
# the grammar becomes "x", which no integer field holds
_TO_FIELDS = bytes.maketrans(b"eE\n", b",,,").translate(
    bytes(b if chr(b) in "0123456789+-.,eE\n" else ord("x") for b in range(256)))


def _header_row(handle):
    """The first CSV record of a binary file, a leading byte-order mark dropped;
    None for an empty file. Leaves ``handle`` at the first byte after it."""
    def lines():
        for i, line in enumerate(handle):
            yield line.decode("utf-8-sig" if i == 0 else "utf-8")

    return next(csv.reader(lines()), None)


def _decimal_block(block: bytes, ncols: int) -> np.ndarray:
    """Rows of ``ncols`` decimals from ``block``, whole rows each ending in a
    line feed, with ``float()``'s bits; a ValueError where a byte or a cell is
    outside the grammar, or a row has another length.

    Every mantissa and exponent is read as an int64 by one ``np.fromstring``.
    Each value is its digits times 10^q in the long double, rounded to a
    double. A cell whose mantissa is past int64 (19 significant digits or
    more), whose q lies outside [-307, 289] (a double below about 1e-291 or
    above about 1e306 in 17 digits), or whose long double lies within its
    error of a midpoint between two doubles (where a second rounding could
    differ from one), is read by ``float()`` on its own text; where that is
    more than a quarter of the block, numpy's strtod reads the whole block
    instead.
    """
    if b"\r" in block and block.count(b"\r") != block.count(b"\r\n"):
        raise ValueError("a carriage return that ends no row")
    if b" " in block or b"\t" in block or b"\r" in block:
        raw = np.frombuffer(block, np.uint8)
        kept = np.flatnonzero((raw != ord(" ")) & (raw != ord("\t")) & (raw != ord("\r")))
        edge = (raw[kept] == ord(",")) | (raw[kept] == ord("\n"))
        if (np.diff(kept) > 1)[~edge[:-1] & ~edge[1:]].any():
            raise ValueError("a space inside a cell")
        block = block.translate(None, b" \t\r")
    if not block:
        return np.empty((0, ncols))
    fields = block.translate(_TO_FIELDS)
    if b"x" in fields:
        raise ValueError("a byte outside the decimal grammar")
    raw = np.frombuffer(block, np.uint8)
    chars = np.frombuffer(fields, np.uint8)
    # every separator, exponent marker and dot, in order
    marks = np.flatnonzero((chars == ord(",")) | (chars == ord(".")))
    kind = raw[marks]
    dot = kind == ord(".")
    exp = (kind == ord("e")) | (kind == ord("E"))
    if (dot[:-1] & dot[1:]).any() or (exp[:-1] & (dot[1:] | exp[1:])).any():
        raise ValueError("a second dot or exponent after an exponent")
    gap = np.diff(marks, prepend=-1) - 1  # bytes since the previous mark
    leading_dot = dot & (gap == 0)
    if leading_dot.any():  # fromstring would read ".-5" as -5
        after = raw[marks[leading_dot] + 1]
        if ((after == ord("+")) | (after == ord("-"))).any():
            raise ValueError("a sign after a dot")
    cell_end = np.flatnonzero(~(dot | exp))
    digits = gap[cell_end]
    if not digits.all() and (block.startswith(b"\n") or b"\n\n" in block):
        return _decimal_block(b"".join(line + b"\n" for line in block.split(b"\n") if line),
                              ncols)
    ends = marks[cell_end]
    exp_at = np.flatnonzero(exp)
    # fromstring reads a bare sign as 0, so every mantissa and exponent must
    # end in a digit, or in a dot after one
    token_ends = np.concatenate([ends, marks[exp_at]]) if len(exp_at) else ends
    undigit = raw[token_ends - 1] - ord("0") > 9
    if undigit.any():
        dotted = token_ends[undigit]
        if ((raw[dotted - 1] != ord(".")) | (raw[dotted - 2] - ord("0") > 9)).any():
            raise ValueError("a sign or dot without a digit")
    ncells = len(cell_end)
    row_end = kind[cell_end[ncols - 1::ncols]]
    if (ncells % ncols or (row_end != ord("\n")).any()
            or np.count_nonzero(kind == ord("\n")) != len(row_end)):
        raise ValueError("a row of another length")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # a field numpy stops at
        ints = np.fromstring(fields.replace(b".", b""), dtype=np.int64, sep=",")
    if len(ints) != ncells + len(exp_at):  # fromstring drops a field it cannot read
        raise ValueError("a cell that is not a decimal")
    q = -digits * dot[cell_end - 1]  # minus the digits after the dot
    m = ints
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    if len(exp_at):
        cells = np.searchsorted(cell_end, exp_at)
        is_exponent = np.zeros(len(ints), dtype=bool)
        is_exponent[cells + np.arange(len(cells)) + 1] = True
        m = ints[~is_exponent]
        q[cells] = np.clip(ints[is_exponent], -1 << 40, 1 << 40) - gap[exp_at] * dot[exp_at - 1]
    m = np.abs(m).view(np.uint64)  # the sign is applied last, so that -0 is -0.0
    # fromstring saturates a field past int64 to one of its bounds
    inside = (q >= -307) & (q <= 289) & (m < (1 << 63) - 1)
    quotient = m.astype(np.longdouble)
    scale = _POW10[np.abs(np.clip(q, -307, 289))]
    np.divide(quotient, scale, out=quotient, where=q < 0)
    np.multiply(quotient, scale, out=quotient, where=q > 0)
    del scale
    values = quotient.astype(np.float64)
    np.negative(values, out=values, where=raw[starts] == ord("-"))
    # the second rounding can differ from a single one only where a midpoint
    # between two doubles lies within the long double's error: its dropped
    # bits are that close to half of the double's last place
    off = quotient.view(np.int64)[::2] & ((1 << _DROPPED_BITS) - 1)
    del quotient
    off -= 1 << (_DROPPED_BITS - 1)
    np.abs(off, out=off)
    ulps = np.where((q < -27) | (q > 27), 2, 0)
    redo = np.flatnonzero(~inside | (off <= ulps))
    if len(redo) > ncells // 4:  # such as subnormals: numpy's strtod costs less on them all
        values = np.fromstring(block.replace(b"\n", b","), sep=",")
    elif len(redo):
        values[redo] = [float(block[s:e]) for s, e in zip(starts[redo].tolist(),
                                                          ends[redo].tolist())]
    return values.reshape(-1, ncols)


# The float writer prints each double as float.__repr__ does: the fewest
# significant digits (at most 17) that read back as it, the nearest of them
# where there is a choice, in fixed notation from 1e-4 up to 1e16 and with an
# exponent elsewhere. For a double x = m 2^q (m its 53-bit significand) of
# decimal exponent e, S = |x| 10^(16-e) is a real in [1e16, 1e17), and the
# decimals that read back as x are those within h = S / (2m) of S, in units of
# S's last digit. The long double holds S to within one rounding, u S with
# u = 2^-(nmant + 1) (S < 2^57: at most 1/128 on x87, 1/256 or less in most
# of the range), or 3 u S where 10^|16-e| is itself rounded (|16-e| > 27);
# float64 adds below 2^-40 to each distance. A digit count, a rounding
# direction or a bound that such an error could flip is left to float.__repr__.
_REPR_ROUNDING = 2.0 ** -(np.finfo(np.longdouble).nmant + 1)
_TEN = 10 ** np.arange(19, dtype=np.uint64)  # 10^j at j
# a biased exponent of 0 (zeros, subnormals) or 0x7FF (infinities, NaN), less
# one in uint64, is at least this
_SPECIAL_EXPONENT = np.uint64(0x7FE)
# The writer lays each value out in little-endian words: a line feed, the
# sign and the leading digit (or the "0" before a fraction) | digits 1-8 |
# digits 9-16 before the dot | the dot, up to 3 zeros and the leading digit |
# digits 1-8 | digits 9-16 after it | the exponent; a byte left NUL is no
# character. A chunk leaves out the words none of its values uses, and fits
# the first four in one where no value has a second digit before its dot.
# A chunk's float64 arrays are 64 kB: at 2^14 values, 128 kB arrays were
# mapped and faulted in anew chunk after chunk in a fresh process (7,326
# minor faults writing a 2*10^4-row fit report, against 2,623).
_REPR_CHUNK = 1 << 13
# at j, the mask that keeps the first j bytes of a little-endian word
_FIRST_BYTES = np.array([(1 << 8 * j) - 1 for j in range(9)], dtype=np.uint64)


def _ascii8(value: np.ndarray) -> np.ndarray:
    """The eight ASCII digits of each ``value`` below 10^8 as a little-endian
    word, the leading one in its first byte: the halves go to 32-bit lanes,
    their hundreds to 16-bit lanes and their tens to bytes, each split by a
    multiply and shift that divides exactly in that range."""
    u = np.uint64
    high = value // u(10**4)
    x = high | ((value - high * u(10**4)) << u(32))
    y = ((x * u(10486)) >> u(20)) & u(0x0000007F0000007F)
    x = y | ((x - u(100) * y) << u(16))
    y = ((x * u(103)) >> u(10)) & u(0x000F000F000F000F)
    return (y | ((x - u(10) * y) << u(8))) + u(0x3030303030303030)


def _scaled(magnitude: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """magnitude * 10^(16 - exponent) in the long double, one rounding of
    the exact product or quotient (as ``_decimal_block`` forms m 10^q)."""
    k = 16 - exponent
    scale = _POW10[np.minimum(np.abs(k), 307)]
    scaled = np.multiply(magnitude, scale, dtype=np.longdouble)
    down = np.flatnonzero(k < 0)
    if len(down):
        scaled[down] = np.divide(magnitude[down], scale[down], dtype=np.longdouble)
    return scaled


def _shortest_digits(values: np.ndarray):
    """The 17 digits (trailing zeros included), decimal exponent and count
    of significant digits of ``float.__repr__`` for each of a contiguous
    float64 array, and where they are left to ``repr`` itself; see the notes
    above ``_REPR_ROUNDING``."""
    u = np.uint64
    bits = values.view(u)
    trailing = bits & u((1 << 52) - 1)  # the significand less its leading 1
    special = ((bits >> u(52)) & u(0x7FF)) - u(1) >= _SPECIAL_EXPONENT
    magnitude = np.abs(values)
    np.copyto(magnitude, 1.0, where=special)
    exponent = np.log10(magnitude)
    exponent = np.floor(exponent, out=exponent).astype(np.int64)
    s = _scaled(magnitude, exponent)
    whole = s.astype(u)
    frac = (s - whole).astype(np.float64)
    del s
    k = np.abs(16 - exponent)
    half = whole.astype(np.float64)
    error = half * (_REPR_ROUNDING * (1 + 2 * (k > 27)))
    error += 2.0**-40
    half /= (trailing | u(1 << 52)).astype(np.float64)
    half *= 0.5
    # a power of two has a narrower gap below it than above; a rounded log10
    # can miss the exponent next to a power of ten
    fallback = special | (trailing == 0) | (k > 307) | (whole < _TEN[16]) | (whole >= _TEN[17])

    # 17 digits round S to an integer, 16 to a multiple of 10, which must be
    # within h of S; 15 or fewer are rarer and found below. Their digits are
    # the one multiple of 100 within h (< 12) of S, so the test of the
    # distance to the nearest multiple of 100 settles them too, and no two tie
    tens = whole // u(10)
    lo1 = (whole - tens * u(10)) + frac  # S less the multiple of 10 below it
    lo2 = (whole - whole // u(100) * u(100)) + frac
    near1 = np.minimum(lo1, 10 - lo1)
    near2 = np.minimum(lo2, 100 - lo2)
    sixteen = near1 < half
    # within the error of h, or of a tie between two multiples of 10 or (for
    # 17 digits) two integers
    unsure = np.minimum(np.abs(near1 - half), np.abs(near2 - half))
    np.minimum(unsure, np.abs(lo1 - 5), out=unsure)
    np.minimum(unsure, np.abs(frac - 0.5) + sixteen, out=unsure)
    fallback |= unsure <= error
    up1 = lo1 > 5
    digits = whole + (frac > 0.5)
    digits += sixteen * ((tens + up1) * u(10) - digits)  # modulo 2^64
    level = sixteen.astype(np.int64)  # trailing zeros of the digits
    shorter = np.flatnonzero(near2 < half)
    if len(shorter):
        level[shorter], digits[shorter] = _short_digits(whole[shorter], frac[shorter],
                                                        half[shorter])
    # where log10 rounds down just below a power of ten, S rounds up to 1e17
    fallback |= digits == _TEN[17]
    return digits, exponent, 17 - level, fallback


def _short_digits(whole, frac, half):
    """Trailing zeros and digits of the values whose S lies within h of a
    multiple of 100: the most zeros j for which the multiple of 10^j nearest
    S is within h of it, and that multiple."""
    level = np.full(len(whole), 2)
    more = np.arange(len(whole))
    for j in range(3, 17):
        rest = whole[more] % _TEN[j]
        near = np.minimum(rest + frac[more], (_TEN[j] - rest) - frac[more])
        more = more[near < half[more]]
        if not len(more):
            break
        level[more] = j
    rest = whole % _TEN[level]
    up = (_TEN[level] - rest) - frac < rest + frac
    return level, whole - rest + up * _TEN[level]


def _repr_rows(values, digits, exponent, count, fallback) -> bytes:
    """Lay out ``count`` significant digits of the 17 in ``digits`` with the
    sign, dot and exponent ``float.__repr__`` gives them, each value after a
    line feed; the values at ``fallback`` are written by ``repr``."""
    u = np.uint64
    fixed = (exponent >= -4) & (exponent <= 15)
    small = fixed & (exponent < 0)
    # the last digit before the dot (-1: none), and the end of those after it,
    # which in fixed notation is at least one "0"
    before = exponent * fixed
    before -= small * (before + 1)
    end = count + fixed * np.maximum(before + 2 - count, 0)
    high = digits // u(10**8)
    lead = high // u(10**8)
    mid = _ascii8(high - lead * u(10**8))
    low = _ascii8(digits - high * u(10**8))
    lead += u(ord("0"))
    head = (u(ord("\n")) | (values.view(u) >> u(63)) * u(ord("-") << 8)
            | (lead + small * (u(ord("0")) - lead)) << u(16))
    dot = (u(ord(".")) * (fixed | (count > 1))
           | (u(0x303030) & _FIRST_BYTES[(-1 - exponent) * small]) << u(8)
           | (lead << u(32)) * small)
    mid &= _FIRST_BYTES[np.clip(end - 1, 0, 8)]
    low &= _FIRST_BYTES[np.clip(end - 9, 0, 8)]
    top = int(before.max())
    if top < 1:  # no value has a second digit before its dot
        words = [head | dot << u(24), mid, low]
    else:
        mid_before = _FIRST_BYTES[np.clip(before, 0, 8)]
        low_before = _FIRST_BYTES[np.clip(before - 8, 0, 8)]
        words = [head, mid & mid_before, low & low_before, dot, mid & ~mid_before,
                 low & ~low_before]
        if top < 9:
            del words[2]
    sci = np.flatnonzero(~fixed)
    if len(sci):  # "e", the sign, and two or three digits
        size = np.abs(exponent[sci]).view(u)
        hundreds = size // u(100)
        tens = size // u(10)
        words.append(np.zeros(len(values), u))
        words[-1][sci] = (u(0x2B65) + u(0x200) * (exponent[sci] < 0)
                          | (hundreds + u(ord("0"))) * (hundreds > 0) << u(16)
                          | (tens - hundreds * u(10) + u(ord("0"))) << u(24)
                          | (size - tens * u(10) + u(ord("0"))) << u(32))
    redo = np.flatnonzero(fallback)
    texts = list(map(repr, values[redo].tolist()))
    longest = max(map(len, texts), default=0)
    words += [np.zeros(len(values), u)] * (longest // 8 + 1 - len(words))
    # a bytearray under the rows saves bytes.translate a copy of them
    buffer = bytearray(8 * len(words) * len(values))
    rows = np.stack(words, axis=1, out=np.frombuffer(buffer, u).reshape(len(values), -1))
    if len(redo):
        width = 8 * len(words)
        lines = "".join(["\n" + text.ljust(width - 1, "\0") for text in texts])
        rows.view(np.uint8)[redo] = np.frombuffer(lines.encode(), np.uint8).reshape(-1, width)
    del rows
    return buffer.translate(None, b"\0")


def _float_lines(values: np.ndarray) -> str:
    """``"\\n".join(map(float.__repr__, values))`` for a float64 array,
    formed in chunks of ``_REPR_CHUNK`` values."""
    if not _EXACT_LONGDOUBLE:
        return "\n".join(map(float.__repr__, values.tolist()))
    values = np.ascontiguousarray(values, dtype=np.float64)
    chunks = (values[start:start + _REPR_CHUNK] for start in range(0, len(values), _REPR_CHUNK))
    lines = b"".join(_repr_rows(chunk, *_shortest_digits(chunk)) for chunk in chunks)
    return str(memoryview(lines)[1:], "ascii")  # decoded past the first line feed


def _float_items(items):
    """A list of floats (float subclasses included) as a float64 array; None
    when it is empty or holds anything else."""
    if not items or not all(issubclass(kind, float) for kind in set(map(type, items))):
        return None
    return np.array(items, dtype=np.float64)


def _decimal_rows(handle, ncols: int) -> np.ndarray:
    """The rest of a binary file as rows of ``ncols`` decimals, read in blocks
    cut at line ends; blank rows are skipped."""
    rows = np.empty((0, ncols))
    count = 0
    tail = b""
    while True:
        data = handle.read(_BLOCK_BYTES)
        block = tail + data
        if data:
            cut = block.rfind(b"\n") + 1
            block, tail = block[:cut], block[cut:]
        elif block:
            block += b"\n"  # a last row without a line end
        if block:
            values = _decimal_block(block, ncols)
            if count + len(values) > len(rows):
                # grown in place where realloc can, as loadtxt grows its result
                rows.resize((max(2 * len(rows), count + len(values)), ncols), refcheck=False)
            rows[count:count + len(values)] = values
            count += len(values)
        if not data:
            break
    rows.resize((count, ncols), refcheck=False)
    return rows


def _holds_information_separator(source: _InputFile) -> bool:
    """Whether a file holds an ASCII information separator (``\\x1c``-``\\x1f``),
    which ``str.isspace`` and so ``np.loadtxt`` strip from a cell but
    ``float()`` rejects."""
    with source.open() as handle:
        return any(any(byte in chunk for byte in b"\x1c\x1d\x1e\x1f")
                   for chunk in iter(lambda: handle.read(1 << 20), b""))


def _parse_dataset_fast(source: _InputFile):
    """Header cells and body values of a dataset, the body parsed in bulk;
    ``(None, None)`` unless the body is at least 2 rows of finite values,
    one per header cell.

    Where the long double rounds exactly (``_EXACT_LONGDOUBLE``: x86-64 and
    aarch64 Linux), the body must be ASCII decimals. A cell is an optional
    sign, digits with at most one dot, and an optional ``e``/``E`` exponent,
    padded by spaces or tabs; rows end in LF or CRLF, and blank rows are
    skipped. Every value has the bits ``float()`` gives its text. Elsewhere
    ``np.loadtxt`` reads the body, with ``comments=None`` so that a ``#`` row
    or cell fails here instead of being dropped or truncated. Whatever is
    declined here (a decode error, quoted cells, ``1_000``, ``nan``, blank
    rows holding commas) is left to the per-cell scan, which accepts it or
    reports it.
    """
    try:
        if _EXACT_LONGDOUBLE:
            with source.open() as handle:
                header = _header_row(handle)
                if not header:
                    return None, None
                values = _decimal_rows(handle, len(header))
        elif _holds_information_separator(source):
            return None, None
        else:
            with io.TextIOWrapper(source.open(), encoding="utf-8-sig", newline="") as handle:
                header = next(csv.reader(handle), None)
                if header is None:
                    return None, None
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # a body with no rows
                    values = np.loadtxt(handle, delimiter=",", ndmin=2, comments=None)
    except (ValueError, csv.Error):  # the per-cell scan reports a csv.Error
        return None, None
    if len(values) < 2 or values.shape[1] != len(header) or not np.isfinite(values).all():
        return None, None
    return header, values


def read_dataset(path, p: int | None = None, r: int | None = None) -> ObservedData:
    """Read a CSV dataset: one observation per row, predictor columns first.

    The header row names the columns; when ``p`` and ``r`` are not given they
    are inferred from the ``x1*``/``x2*`` name prefixes. A cell is anything
    Python's ``float()`` reads as finite: surrounding spaces, quotes, ``1_000``
    and non-ASCII digits included, and ``1e-400`` reads as 0.0. Blank rows
    are skipped; there are no comments, so a ``#`` in a cell is an error.
    A file of plain ASCII decimals (sign, digits, dot, exponent; LF or CRLF
    rows) is read in bulk, with ``float()``'s bits: on x86-64 and aarch64
    Linux in long-double arithmetic, whatever the number of digits, for
    values from about 1e-291 to 1e306 in magnitude, and by numpy's strtod
    outside that range; by ``np.loadtxt`` elsewhere. Any other file is
    scanned again cell by cell, which decides what is accepted and where an
    error points. ``path`` may also be a command's ``_InputFile``, whose
    checksum then comes from the bytes read here.
    """
    source = _input_file(path)
    path = source.path
    header, values = _parse_dataset_fast(source)
    if values is None:
        reader = _csv_rows(source)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty dataset file") from None
        rows = [row for row in reader if any(cell.strip() for cell in row)]
    header = [name.strip() for name in header]

    if p is None and r is None:
        p = sum(name.startswith("x1") for name in header)
        r = sum(name.startswith("x2") for name in header)
        ordered = all(name.startswith("x1") for name in header[:p]) and all(
            name.startswith("x2") for name in header[p:]
        )
        if p == 0 or r == 0 or p + r != len(header) or not ordered:
            raise ValidationError(
                f"{path}: cannot infer p and r from header {header}; "
                "name the predictor block x1*, then the response block x2*, "
                "or pass --p and --r"
            )
    elif p is None or r is None:
        raise ValidationError("pass both p and r, or neither")
    else:
        _require_count("p", p, 1)
        _require_count("r", r, 1)

    if len(header) != p + r:
        raise DimensionMismatchError(
            f"{path}: file has {len(header)} columns, expected p + r = {p + r}"
        )
    if values is None:
        if len(rows) < 2:
            raise ValidationError(f"{path}: need at least 2 observation rows, got {len(rows)}")
        values = _parse_cells(path, rows, header)
    return ObservedData(x1=values[:, :p].T, x2=values[:, p:].T)


def read_sigma0(path, size: int) -> np.ndarray:
    """Read a covariance shape as a plain numeric CSV square matrix (no header).

    Symmetry is enforced by averaging with the transpose; asymmetry beyond
    1e-8 relative fails.
    """
    rows = [row for row in _csv_rows(_InputFile(path)) if any(cell.strip() for cell in row)]
    if len(rows) != size or any(len(row) != size for row in rows):
        raise DimensionMismatchError(
            f"{path}: covariance shape must be {size}x{size} to match p + r"
        )
    matrix = _parse_cells(path, rows, range(1, size + 1))
    with np.errstate(over="ignore"):  # a difference past the double range is asymmetric
        asymmetry = float(np.max(np.abs(matrix - matrix.T)))
    if asymmetry > 1e-8 * float(np.max(np.abs(matrix))):
        raise ValidationError(f"{path}: covariance shape is asymmetric beyond 1e-8 relative")
    return _symmetrized(matrix)


# ---------------------------------------------------------------------------
# report assembly and serialization
# ---------------------------------------------------------------------------

def _matrix_payload(matrix) -> dict:
    matrix = np.asarray(matrix, dtype=float)
    return {
        "rows": int(matrix.shape[0]),
        "cols": int(matrix.shape[1]),
        "data": matrix.tolist(),
    }


def build_fit_report(
    result: FitResult,
    input_path,
    emit_means: bool = False,
    legacy=None,
    oracle_report=None,
) -> dict:
    """Assemble the structured fit report (JSON-ready, plain Python values);
    the model's kind, sigma0, p, r and n are read from ``result``."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "input_checksum": _input_file(input_path).checksum(),
        "model": {
            "kind": result.kind.value,
            "p": result.b_hat.shape[1],
            "r": result.b_hat.shape[0],
            "n": result.u1_hat.shape[1],
            "sigma0": "identity" if result.sigma0 is None else "provided",
        },
        "estimates": {
            "b_hat": _matrix_payload(result.b_hat),
            "alpha_hat": [float(v) for v in result.alpha_hat],
        },
        "objectives": {
            "olse": float(result.olse_objective),
            "glse": float(result.glse_objective),
        },
        "residual_scale": {
            "value": float(result.residual_scale),
            "note": RESIDUAL_SCALE_NOTE,
        },
        "diagnostics": {
            "eigengap": float(result.eigenstructure.eigengap),
            "g11_condition": float(result.eigenstructure.g11_condition),
            "degenerate": bool(result.eigenstructure.degenerate),
        },
    }
    if emit_means:
        report["means"] = {
            "u1_hat": _matrix_payload(result.u1_hat),
            "u2_hat": _matrix_payload(result.u2_hat),
        }
    if legacy is not None:
        report["legacy_means"] = {
            "u1_hat": _matrix_payload(legacy),
            "note": LEGACY_MEANS_NOTE,
        }
    if oracle_report is not None:
        report["oracle"] = asdict(oracle_report)
    return report


def report_to_json(report: dict) -> str:
    """What ``json.dumps`` writes for ``report`` with ``indent=2``, and a newline, byte for byte.

    Each list of finite floats is written by the vectorized float writer
    (``_float_lines``) instead of the encoder's per-element loop; json writes
    every other value and every key.
    """
    parts = []
    _json_parts(report, "", parts)
    parts.append("\n")
    return "".join(parts)


def _json_parts(value, indent: str, parts: list) -> None:
    """Append what ``json.dumps(indent=2)`` writes for ``value`` nested at ``indent``."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        parts.append(json.dumps(value))
        return
    inner = indent + "  "
    if isinstance(value, dict):
        for i, (key, item) in enumerate(value.items()):
            # json's own conversion of a str, int, float, bool or None key
            parts += (",\n" if i else "{\n", inner, json.dumps({key: 0})[1:-4], ": ")
            _json_parts(item, inner, parts)
        parts += ("\n", indent, "}")
        return
    floats = _float_items(value)
    if floats is not None and np.isfinite(floats).all():  # json writes float.__repr__
        parts += ("[\n", inner, _float_lines(floats).replace("\n", ",\n" + inner))
    else:  # an int, bool, str, None, container or non-finite item
        for i, item in enumerate(value):
            parts += (",\n" if i else "[\n", inner)
            _json_parts(item, inner, parts)
    parts += ("\n", indent, "]")


def _flatten(prefix: str, value, writer, out) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), item, writer, out)
    elif isinstance(value, (list, tuple)):
        text = _float_list_csv(prefix, value)
        if text is not None:
            out.write(text)
            return
        for index, item in enumerate(value):
            _flatten(f"{prefix}.{index}", item, writer, out)
    else:
        writer.writerow([prefix, repr(float(value)) if isinstance(value, float) else value])


def _float_list_csv(prefix: str, values):
    """The rows ``csv.writer`` writes for a list of floats under ``prefix``,
    in one join; None when the key needs quoting or an item is not a float."""
    if any(char in prefix for char in ',"\r\n'):
        return None
    floats = _float_items(values)
    if floats is None:  # an int, bool, str or list item, which csv writes its own way
        return None
    return "".join(map("{}.{},{}\n".format, itertools.repeat(prefix), itertools.count(),
                       _float_lines(floats).split("\n")))


def report_to_csv(report: dict) -> str:
    """Flatten a report to ``key,value`` rows with dotted key paths."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    _flatten("", report, writer, buffer)
    return buffer.getvalue()


def consistency_table(report: ConsistencyReport) -> str:
    """Tabular view of a consistency sweep: one CSV row per sample size."""
    errors = _float_lines(np.array([report.b_error_median, report.u1_rmse_corrected,
                                    report.u1_rmse_legacy]).T.ravel()).split("\n")
    return "n,b_error_median,u1_rmse_corrected,u1_rmse_legacy\n" + "".join(
        map("{},{},{},{}\n".format, report.n_grid, errors[0::3], errors[1::3], errors[2::3]))


def consistency_summary(report: ConsistencyReport, extra: dict) -> str:
    """The sweep's JSON summary: the versions, ``extra``, then ``report``'s fields."""
    return report_to_json({"schema_version": SCHEMA_VERSION, "tool_version": __version__,
                           **extra, **asdict(report)})


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

def run_verify_suite(seed: int, instances: int) -> dict:
    """Run ``invariants.check_fit`` on seeded random instances, alternating
    between the intercept and no-intercept models across p in 1..4, r in 1..3,
    n in 10..60. Each table row counts the instances an invariant covered and
    keeps its worst deviation-to-limit ratio (above 1 fails); the first
    failing instance, if any, is kept for reproduction.
    """
    _require_count("instances", instances, 1)
    checks = {name: {"checked": 0, "max_ratio": 0.0} for name in invariants.NAMES}
    first_failure = None
    for index in range(instances):
        kind = ModelKind.INTERCEPT if index % 2 == 0 else ModelKind.NO_INTERCEPT
        data = generate_dataset(random_truth(seed, index, kind))
        spec = ModelSpec(kind=kind)
        for name, ratio in invariants.check_fit(fit(data, spec)).items():
            entry = checks[name]
            entry["checked"] += 1
            entry["max_ratio"] = max(entry["max_ratio"], ratio)
            if ratio > 1.0 and first_failure is None:
                first_failure = dict(invariant=name, ratio=ratio, seed=seed, index=index,
                                     kind=kind.value, p=data.p, r=data.r, n=data.n,
                                     x1=data.x1.tolist(), x2=data.x2.tolist())

    return {
        "seed": seed,
        "instances": instances,
        "checks": checks,
        "first_failure": first_failure,
    }


def format_verify_table(suite: dict) -> str:
    lines = [f"{'invariant':<28}{'instances':>10}{'max_ratio':>14}  result"]
    all_passed = True
    for name, entry in suite["checks"].items():
        passed = entry["max_ratio"] <= 1.0
        all_passed = all_passed and passed
        lines.append(
            f"{name:<28}{entry['checked']:>10}{entry['max_ratio']:>14.3e}"
            f"  {'PASS' if passed else 'FAIL'}"
        )
    verdict = "all invariants passed" if all_passed else "INVARIANT FAILURES DETECTED"
    lines.append("")
    lines.append(
        f"{verdict} ({suite['instances']} instances, seed {suite['seed']}, "
        "ratios are deviation over tolerance)"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors (2 is reserved
    for unidentifiable/not-positive-definite failures)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_kind_flags(parser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--intercept", action="store_true",
                       help="fit the intercept model")
    group.add_argument("--no-intercept", dest="no_intercept", action="store_true",
                       help="fit the no-intercept model (intercept known to be zero)")


def _kind_from_args(args) -> ModelKind:
    return ModelKind.INTERCEPT if args.intercept else ModelKind.NO_INTERCEPT


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="eivreg",
        description="Closed-form estimators for the multivariate "
                    "errors-in-variables regression model.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    fit_parser = subparsers.add_parser("fit", help="fit a dataset and report estimates")
    fit_parser.add_argument("--input", required=True, help="dataset CSV path")
    fit_parser.add_argument("--p", type=int, default=None, help="predictor dimension")
    fit_parser.add_argument("--r", type=int, default=None, help="response dimension")
    _add_kind_flags(fit_parser)
    fit_parser.add_argument("--sigma0", default=None,
                            help="known error-covariance shape, (p+r)x(p+r) numeric CSV")
    fit_parser.add_argument("--emit-means", action="store_true",
                            help="include the fitted mean matrices in the report")
    fit_parser.add_argument("--legacy-means", action="store_true",
                            help="also report the legacy mean estimate "
                                 "(incorrect for the intercept model)")
    fit_parser.add_argument("--verify", action="store_true",
                            help="run the oracle suite and embed its report")
    fit_parser.add_argument("--output", default=None, help="write the report here")
    fit_parser.add_argument("--format", choices=("json", "csv"), default="json")
    fit_parser.set_defaults(handler=_cmd_fit)

    sim_parser = subparsers.add_parser("simulate", help="run a seeded consistency sweep")
    sim_parser.add_argument("--p", type=int, required=True)
    sim_parser.add_argument("--r", type=int, required=True)
    sim_parser.add_argument("--sigma", type=float, required=True,
                            help="error standard deviation (0 gives noise-free data)")
    sim_parser.add_argument("--error", choices=("gaussian", "uniform"), default="gaussian")
    sim_parser.add_argument("--n-grid", required=True,
                            help="comma-separated strictly increasing sample sizes")
    sim_parser.add_argument("--reps", type=int, required=True)
    sim_parser.add_argument("--seed", type=int, required=True)
    _add_kind_flags(sim_parser)
    sim_parser.add_argument("--output", default=None,
                            help="write the table here and the JSON summary beside it")
    sim_parser.set_defaults(handler=_cmd_simulate)

    verify_parser = subparsers.add_parser("verify",
                                          help="assert the invariant suite on random instances")
    verify_parser.add_argument("--seed", type=int, required=True)
    verify_parser.add_argument("--instances", type=int, required=True)
    verify_parser.set_defaults(handler=_cmd_verify)
    return parser


def _write_output(text: str, output) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_fit(args) -> int:
    source = _InputFile(args.input)
    data = read_dataset(source, args.p, args.r)
    kind = _kind_from_args(args)
    sigma0 = read_sigma0(args.sigma0, data.p + data.r) if args.sigma0 else None
    spec = ModelSpec(kind=kind, sigma0=sigma0)
    result = fit(data, spec)
    oracle_report = perturbation_probe(result) if args.verify else None
    legacy = legacy_means(data, spec, result) if args.legacy_means else None
    report = build_fit_report(result, source, args.emit_means, legacy, oracle_report)
    text = report_to_json(report) if args.format == "json" else report_to_csv(report)
    _write_output(text, args.output)
    return 3 if oracle_report is not None and not oracle_report.passed else 0


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValidationError(f"--n-grid must be comma-separated integers, got {text!r}") from None


def _cmd_simulate(args) -> int:
    kind = _kind_from_args(args)
    _require_count("--p", args.p, 1)
    _require_count("--r", args.r, 1)
    if not (np.isfinite(args.sigma) and args.sigma >= 0):
        raise ValidationError(f"--sigma must be finite and >= 0, got {args.sigma}")
    grid = _parse_grid(args.n_grid)
    _require_count("seed", args.seed, 0)
    rng = np.random.default_rng([args.seed, 0])
    b = rng.standard_normal((args.r, args.p))
    alpha = rng.standard_normal(args.r) if kind is ModelKind.INTERCEPT else np.zeros(args.r)
    # template means in [0, 2] per row: nonzero row means make the legacy
    # estimate's defect visible in the intercept model
    template = SyntheticTruth(
        u1=default_mean_grid(args.p, 64, offset=1.0),
        b=b,
        alpha=alpha,
        sigma2=args.sigma * args.sigma,
        error_kind=ErrorKind(args.error),
    )
    report = consistency_experiment(template, grid, args.reps, args.seed, kind=kind)
    table = consistency_table(report)
    summary = consistency_summary(report, {
        "p": args.p,
        "r": args.r,
        "sigma": float(args.sigma),
        "error": args.error,
        "kind": kind.value,
    })
    if args.output is None:
        sys.stdout.write(table + summary)
    else:
        _write_output(table, args.output)
        _write_output(summary, args.output + ".json")
    return 0


def _cmd_verify(args) -> int:
    suite = run_verify_suite(args.seed, args.instances)
    sys.stdout.write(format_verify_table(suite))
    if suite["first_failure"] is not None:
        sys.stdout.write("first failing instance for reproduction:\n")
        sys.stdout.write(report_to_json(suite["first_failure"]))
        return 3
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except (ValidationError, OSError) as exc:  # parse, dimension, and file errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UnidentifiableError, NotPositiveDefiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExcessiveSkipsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
