"""Mean-dimension toolkit: exact spin-cube analysis, Monte Carlo influence
estimation, random feature models with closed-form interaction order, ridge
and gradient training harnesses, and the matching high-dimensional theory.

Only numpy loads with the package. The routines that need scipy import it
on first use: closed-form ridge, the kappa quadrature of smooth
activations, the replica solver and the binary ce loss of the MLP trainer."""

__version__ = "0.1.0"
