"""depthlab: finite-size experiments on depth, gradient descent, and SQ hardness."""

__version__ = "0.1.0"
