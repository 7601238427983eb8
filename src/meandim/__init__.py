"""Mean-dimension toolkit: exact spin-cube analysis, Monte Carlo influence
estimation, random feature models with closed-form interaction order, ridge
and gradient training harnesses, and the matching high-dimensional theory.

numpy is the only runtime dependency; scipy serves the test suite alone,
as an oracle."""

__version__ = "0.1.0"
