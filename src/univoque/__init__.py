"""Exact arithmetic for expansions of 1 in real bases and univoque numbers."""

from .approximator import approximate
from .characterization import classify
from .expansions import (greedy_expansion, kl_constant, quasi_greedy_expansion,
                         solve_base)
from .words import ep_sequence

__all__ = [
    "approximate", "classify", "ep_sequence", "greedy_expansion",
    "kl_constant", "quasi_greedy_expansion", "solve_base",
]
