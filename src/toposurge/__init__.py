"""Executable topological surgery plus the hole-drilling predator-prey flow.

Two halves that meet in the middle: combinatorial surgery on curves and
triangulated surfaces (with certifying invariants), and the three-species
system whose trajectories carry out the same surgery on nested shells when
a parameter crosses B/A = 1.
"""

__version__ = "0.1.0"
