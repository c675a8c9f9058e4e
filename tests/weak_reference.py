"""pendula_weak's perturbation by its definition, which the tests use to
certify the closed-form integrand that the model carries.

The loops of the unperturbed (uncoupled) separatrix sheet, straightened so
that the s = 0 loop lies on q2 = 0, are loop_family(t, s); the loop with
parameter s passes the section point kappa(s) at t = 0, with kappa(0) =
(pi, 0).  The perturbation is H* = 1 - cos(h(q1) - q1 + q2), with the
coupling profile h that models._weak_h evaluates at a float, here on
arrays, and H*(O) = 0.  t may be an ndarray, and s a float or an (M, 1)
column.
"""

import math

import numpy as np


def xi1(u):
    """4 atan(e^u), the pendulum's separatrix angle at time u."""
    # far from the loop's centre exp overflows to inf, whose arctan is the
    # exact limit
    with np.errstate(over="ignore"):
        return 4.0 * np.arctan(np.exp(u))


class WeakReference:
    """loop_family, kappa, h_star and h_star_at_O of pendula_weak at lam,
    and integrand, their composition H*(loop) - H*(O)."""
    h_star_at_O = 0.0

    def __init__(self, lam: float):
        self.lam = lam

    def h_jet(self, q1):
        """(h, h') at each entry of q1.  On the half cell [0, pi], h = 4
        atan(u) and h' = lam t^(lam-1) (1 + t^2) / (1 + u^2), with u =
        t^lam and t = tan(q1/4); h(2pi - r) = 2pi - h(r) and h(q1 + 2pi) =
        h(q1) + 2pi extend h to the whole line, where h' is even in the
        distance to the nearest multiple of 2pi."""
        two_pi = 2.0 * math.pi
        n = np.floor(q1 / two_pi)
        r = q1 - n * two_pi
        t = np.tan(np.abs(np.minimum(r, two_pi - r)) / 4.0)
        v = t ** (self.lam - 1.0)
        u = v * t
        hb = 4.0 * np.arctan(u)
        return (np.where(r <= math.pi, hb, two_pi - hb) + n * two_pi,
                self.lam * v * (1.0 + t * t) / (1.0 + u * u))

    def loop_family(self, t, s):
        """The phase point (q1, q2, p1, p2) of the loop s at time t."""
        lam = self.lam
        with np.errstate(over="ignore"):    # sech = 1 / inf = 0 far out
            B, b = 1.0 / np.cosh(lam * t), 1.0 / np.cosh(t - s)
        q1 = xi1(t - s)
        q2 = xi1(lam * t) - xi1(lam * (t - s))
        p2 = 2.0 * lam * B
        return (q1, q2, 2.0 * b + self.h_jet(q1)[1] * p2, p2)

    def kappa(self, s: float):
        return (xi1(-s), math.pi - xi1(-self.lam * s))

    def h_star(self, q1, q2, p1, p2):
        return 1.0 - np.cos(self.h_jet(q1)[0] - q1 + q2)

    def integrand(self, t, s):
        return self.h_star(*self.loop_family(t, s)) - self.h_star_at_O
