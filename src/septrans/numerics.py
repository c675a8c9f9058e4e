"""Small shared numerical helpers: finite differences and grid parsing."""

from __future__ import annotations

from typing import Callable


def central_diff(f: Callable[[float], float], x: float, h: float | None = None) -> float:
    """First derivative by the 4th-order central stencil.

    Step defaults to 1e-6*max(1,|x|), which balances truncation against
    roundoff for smooth double-precision integrands.
    """
    if h is None:
        h = 1e-6 * max(1.0, abs(x))
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def second_diff(f: Callable[[float], float], x: float, h: float | None = None) -> float:
    """Second derivative by the 4th-order five-point stencil."""
    if h is None:
        h = 1e-4 * max(1.0, abs(x))
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x)
            + 16 * f(x - h) - f(x - 2 * h)) / (12 * h * h)


def richardson_diff(f: Callable[[float], float], x: float, h: float,
                    order: int = 1) -> float:
    """5-point central difference in x with one Richardson extrapolation step.

    order=1 gives f', order=2 gives f''.  Used for derivative fallbacks in s
    where analytic integrand derivatives are not supplied.
    """
    if order == 1:
        d1 = (f(x + h) - f(x - h)) / (2 * h)
        d2 = (f(x + h / 2) - f(x - h / 2)) / h
        return (4 * d2 - d1) / 3.0
    elif order == 2:
        d1 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
        d2 = (f(x + h / 2) - 2 * f(x) + f(x - h / 2)) / (h * h / 4)
        return (4 * d2 - d1) / 3.0
    raise ValueError("order must be 1 or 2")


def parse_grid(spec: str) -> list[float]:
    """Parse an 'a:b:n' grid spec into n evenly spaced points from a to b."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("grid spec must be a:b:n, got %r" % spec)
    a, b = float(parts[0]), float(parts[1])
    n = int(parts[2])
    if n < 2 or not (b > a):
        raise ValueError("grid spec needs b > a and n >= 2, got %r" % spec)
    return [a + (b - a) * i / (n - 1) for i in range(n)]
