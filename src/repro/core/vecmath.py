"""Elementwise libm-exact vector math for the batched radio core.

The golden-file discipline (``tests/test_scenario.py``) pins experiment
results *byte for byte*, and the scalar physics in :mod:`repro.radio`
computes its transcendentals through the C library via :mod:`math`.
NumPy's SIMD ufuncs (``np.log10``, ``np.power``, ``np.hypot``,
``np.arctan2``, ...) are faster but round differently in the last ulp on
many inputs, so a naive numpy port of the radio formulas would silently
shift every RSRP mean.

So every transcendental here is an ``np.frompyfunc`` wrapper around the
:mod:`math` builtin itself (``log10``, ``log2``, ``hypot``, ``atan2``,
``pow``), evaluated per element through libm with no Python frame in
between.  Everything else is numpy operations that compute exactly what
the scalar Python operators compute:

* ``+``, ``-``, ``*``, ``/``, comparisons, ``np.maximum``/``minimum``,
  ``np.where`` are single IEEE-754 operations;
* ``np.remainder`` and ``np.floor_divide`` on float64 run numpy's
  ``npy_divmod``, the same algorithm as CPython's float ``%`` and ``//``:
  ``fmod``, then a sign fix (and for ``//`` the snapped quotient
  ``(v - fmod(v, g)) / g``), never ``floor(v / g)``;
* ``math.degrees(x)`` is ``x * (180.0 / pi)`` with that constant
  rounded once, which :data:`_RAD_TO_DEG` reproduces.

``batch == scalar`` therefore holds bitwise by construction;
``tests/test_radio_batch.py`` checks each kernel against the scalar
expression it replaces, on random values and on signed zeros, exact
multiples and their neighbours, infinities, NaN and subnormals.

Only the batched kernels should import this module; scalar code keeps
calling :mod:`math` directly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "angle_difference_deg",
    "as_float_array",
    "bearing_deg",
    "exp10",
    "hypot",
    "log2",
    "log10",
    "powf",
    "shadow_grid_index",
]

_log10 = np.frompyfunc(math.log10, 1, 1)
_log2 = np.frompyfunc(math.log2, 1, 1)
_hypot = np.frompyfunc(math.hypot, 2, 1)
_atan2 = np.frompyfunc(math.atan2, 2, 1)
_pow = np.frompyfunc(math.pow, 2, 1)

#: The factor ``math.degrees`` multiplies by (CPython's ``radToDeg``).
_RAD_TO_DEG = 180.0 / math.pi

#: Bounds of the float64 values that cast to int64 exactly.
_INT64_LOW = -(2.0**63)
_INT64_END = 2.0**63


def as_float_array(values) -> np.ndarray:
    """``values`` as a float64 ndarray (no copy when already one)."""
    return np.asarray(values, dtype=np.float64)


def _apply(ufunc, *arrays) -> np.ndarray:
    out = ufunc(*(as_float_array(a) for a in arrays))
    return out.astype(np.float64)


def log10(values) -> np.ndarray:
    """Elementwise ``math.log10`` (bitwise equal to the scalar path)."""
    return _apply(_log10, values)


def log2(values) -> np.ndarray:
    """Elementwise ``math.log2``."""
    return _apply(_log2, values)


def exp10(values) -> np.ndarray:
    """Elementwise ``10.0 ** x`` — the :func:`repro.core.units.dbm_to_mw` kernel.

    Evaluated as ``math.pow(10.0, x)``: for a finite ``x`` both call the
    same libm ``pow``, and both return ``inf``/``0.0``/``nan`` for
    ``+inf``/``-inf``/``nan``.
    """
    return _apply(_pow, 10.0, values)


def hypot(x, y) -> np.ndarray:
    """Elementwise ``math.hypot`` — the :meth:`Point.distance_to` kernel."""
    return _apply(_hypot, x, y)


def powf(base, exponent) -> np.ndarray:
    """Elementwise ``base ** exponent`` through libm ``pow``, broadcasting both.

    ``math.pow`` reaches the same libm ``pow`` as Python's ``**`` for
    finite operands.  A negative base with a fractional exponent raises
    ``ValueError``, where ``**`` returned a complex number; the radio
    core only calls this with the exponent 2.0.
    """
    return _apply(_pow, base, exponent)


def bearing_deg(dx, dy) -> np.ndarray:
    """Elementwise :meth:`Point.bearing_to` for displacement components.

    ``math.degrees(math.atan2(dx, dy)) % 360.0``: libm ``atan2`` per
    element, then the ``math.degrees`` product and Python's ``%``.
    """
    return np.remainder(_apply(_atan2, dx, dy) * _RAD_TO_DEG, 360.0)


def angle_difference_deg(a, b) -> np.ndarray:
    """Elementwise smallest signed angular difference ``a - b``.

    ``(a - b + 180.0) % 360.0 - 180.0``, as
    ``antenna._angle_difference_deg`` computes it, in [-180, 180).
    """
    return np.remainder(as_float_array(a) - b + 180.0, 360.0) - 180.0


def shadow_grid_index(values, grid_m: float) -> np.ndarray:
    """Elementwise ``int(v // grid_m)`` as an int64 array.

    Python's float floor-division is *not* ``floor(v / grid_m)``: it
    corrects the quotient through ``fmod``, and ``np.floor_divide`` runs
    the same correction, so the indices match the shadow-grid keys of
    :meth:`Environment._shadow_standard_normal` exactly.

    Raises:
        ValueError: for a NaN, infinite or out-of-int64-range quotient,
            which ``int()`` rejects too.
    """
    quotient = np.floor_divide(as_float_array(values), grid_m)
    if not ((quotient >= _INT64_LOW) & (quotient < _INT64_END)).all():
        raise ValueError(f"no shadow-grid index for a quotient outside int64 (grid {grid_m} m)")
    return quotient.astype(np.int64)
