"""Mean-dimension toolkit: exact spin-cube analysis, Monte Carlo influence
estimation, random feature models with closed-form interaction order, ridge
and gradient training harnesses, and the matching high-dimensional theory.

Only numpy loads with the package. scipy is imported on first use by the
closed-form ridge alone, for its Cholesky solve."""

__version__ = "0.1.0"
