import numpy as np


def random_s3_phases(rng: np.random.Generator, balanced: bool = True
                     ) -> tuple[float, float, complex, complex]:
    """Random (phi1, phi2, a, c) with (a, c) Haar on the unit sphere of C^2.

    ``balanced`` forces phi2 = -phi1, the family whose coefficients admit
    the q-parametrization.
    """
    phi1 = float(rng.uniform(0, 2 * np.pi))
    phi2 = -phi1 if balanced else float(rng.uniform(0, 2 * np.pi))
    v = rng.normal(size=4)
    v = v / np.linalg.norm(v)
    return phi1, phi2, complex(v[0], v[1]), complex(v[2], v[3])
