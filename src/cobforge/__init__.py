"""Exact-arithmetic toolkit for Milnor numbers of blow-up modifications,
generator plans in unitary cobordism, and the simple-polytope truncations
underlying their toric models.

The top level re-exports the API the README documents; every other name is
imported from its submodule (``cobforge.polytope``, ``cobforge.chern``, ...).
"""

from .arith import binomial_mod_p, prime_power_check
from .chern import TruncatedPoly, milnor_projectivisation
from .milnor import L_kn, s_dkn, s_kn, witness_k
from .planner import construct_plan, milnor_novikov_check, verify_plan

__all__ = [
    "L_kn",
    "TruncatedPoly",
    "binomial_mod_p",
    "construct_plan",
    "milnor_novikov_check",
    "milnor_projectivisation",
    "prime_power_check",
    "s_dkn",
    "s_kn",
    "verify_plan",
    "witness_k",
]

__version__ = "0.1.0"
