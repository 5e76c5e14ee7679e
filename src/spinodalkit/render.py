"""Binary PPM (P6) rendering of composition fields.

Pixel mapping follows the red=Al / green=Ti color convention:
(R, G, B) = (round(255*(1-x)), round(255*x), 0) with x clamped to [0, 1]
and round-half-up, one pixel per cell.  P6 is bit-exact and trivially
diffable, which is the point.
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarField2D, _write_whole

__all__ = ["render_ppm"]


def render_ppm(f: ScalarField2D, path) -> None:
    """The image of `f`, written whole or not at all (`_write_whole`)."""
    x = np.clip(f.values, 0.0, 1.0)
    pixels = np.zeros((f.spec.ny, f.spec.nx, 3), dtype=np.uint8)
    pixels[..., 0] = np.floor(255.0 * (1.0 - x) + 0.5)
    pixels[..., 1] = np.floor(255.0 * x + 0.5)
    _write_whole(path, [f"P6\n{f.spec.nx} {f.spec.ny}\n255\n".encode("ascii"),
                        pixels.tobytes()])
