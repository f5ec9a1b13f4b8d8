"""Mixture-of-experts CTR models with cross-expert de-correlation.

A desk-scale numpy library: multi-embedding MoE forward/backward, the
correlation- and covariance-based de-correlation losses, cross-expert
correlation metrics, and a small training stack with a CLI.
"""

__version__ = "0.1.0"
