"""Values and matrices that several test modules build the same way.

Not a test module: pytest collects nothing here.
"""

import numpy as np

TIMES4 = (1.0, 2.0, 3.0, 4.0)


def ar_sigma(p, rho=0.4):
    """The p x p AR(1) correlation matrix rho^|i - j|."""
    idx = np.arange(p)
    return rho ** np.abs(np.subtract.outer(idx, idx))


def spd(rng, p, jitter=0.5):
    """A random p x p SPD matrix G G' + jitter p I."""
    g = rng.standard_normal((p, p))
    return g @ g.T + jitter * p * np.eye(p)
