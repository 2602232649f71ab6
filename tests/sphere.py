"""A sphere constraint for the tests: h(q) = ||q - center|| - radius."""
import numpy as np

from seqmp.manifolds import Manifold


class Sphere(Manifold):
    """h(q) = ||q - center|| - radius."""

    def __init__(self, radius=1.0, center=None, dim=3, name="sphere"):
        super().__init__(dim, 1, name)
        self.radius = float(radius)
        self.center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)

    def h(self, q):
        return np.array([np.linalg.norm(q - self.center) - self.radius])

    def jacobian(self, q):
        d = q - self.center
        n = np.linalg.norm(d)
        if n == 0.0:
            return np.zeros((1, self.ambient_dim))
        return (d / n)[None, :]
