"""Kinetic opinion formation on (-1, 1): Fokker-Planck dynamics with variable
diffusion, its binary-interaction Monte Carlo counterpart, and numerical
verification of the entropy-method convergence machinery."""

__version__ = "0.1.0"
