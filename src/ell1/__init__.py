"""Sparse recovery by l1 minimization.

Eight solvers for the basis pursuit family (equality-constrained and
Lagrangian forms), robust variants built on an extended [A, I] dictionary,
synthetic instance generators, and a benchmark harness with a CLI.
"""

__version__ = "0.1.0"

# every kernel is numpy; the flag stays for the run records that carry it
# (perfbench environment)
kernels_compiled = False
