"""Deterministic random test fields.

All randomness in the package flows through one counter-based 64-bit
generator (Philox4x64-10, as shipped by numpy) keyed by an integer seed.
Counter-based generation makes runs reproducible bit-for-bit on one
platform and statistically identical everywhere else.

The canonical random input is a "seeded band-limited field": independent
unit normals on the low Fourier modes (|k_index| <= band per axis, k = 0
excluded), transformed to physical space, then damped by the envelope
exp(-|x|^2/8) so that every margin precondition (boundary decay, finite
weighted norms) holds, and finally normalized to unit L^2 norm.
"""

from __future__ import annotations

import numpy as np

from .errors import real
from .field import Grid, ScalarField, require_grid

DEFAULT_SEED = 42


def generator(seed: int = DEFAULT_SEED) -> np.random.Generator:
    """Counter-based PRNG used for every random draw in the package."""
    return np.random.Generator(np.random.Philox(
        real("seed", seed, 0, np.inf, ends="[)", integer=True)))


def band_limited_field(grid: Grid, seed: int = DEFAULT_SEED, band: int = 8,
                       envelope: bool = True) -> ScalarField:
    """Random smooth field: normal coefficients on modes |m| <= band, m != 0.

    Coefficients are drawn in a fixed traversal order (all mode pairs of the
    half-spectrum, real then imaginary part), so the field is a pure function
    of (grid, seed, band), for a band below the Nyquist mode n/2.
    """
    rng = generator(seed)
    n = require_grid(grid).n
    real("band", band, 0, n // 2, ends="[)", integer=True)
    spec = np.zeros((n, n), dtype=complex)
    for mx in range(-band, band + 1):
        for my in range(-band, band + 1):
            if mx == 0 and my == 0:
                continue
            # fill each Hermitian pair once, keyed by the lexicographically
            # positive representative
            if (mx, my) < (-mx, -my):
                continue
            re, im = rng.standard_normal(2)
            c = complex(re, im)
            spec[mx % n, my % n] = c
            spec[(-mx) % n, (-my) % n] = np.conj(c)
    values = np.fft.ifft2(spec).real * n  # unit-variance-ish amplitude
    if envelope:
        xx, yy = grid.meshes()
        values = values * np.exp(-(xx**2 + yy**2) / 8.0)
    field = ScalarField(grid, values)
    norm = float(np.sqrt(np.sum(values**2) * grid.h**2))
    if norm > 0:
        field = ScalarField(grid, values / norm)
    return field
