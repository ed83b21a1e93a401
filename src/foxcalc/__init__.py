"""Exact Fox calculus on free products and free Lie algebras.

Group side: reduced words, the integral group ring, Fox derivatives,
Schreier transversals and membership criteria modulo a normal subgroup.
Lie side: Lyndon-basis free Lie algebras, PBW rewriting in the universal
envelope, Lie Fox derivatives, constructive decomposition theorems and
Freiheitssatz verifiers.  All arithmetic is exact (int / Fraction).

The package namespace exports nothing; import the submodules.  Each of them
imports only modules listed before it here: words, lincomb, linalg, lattice,
magnus, group_ring, transversal, fox_group, lie_core, assoc_env, fox_lie,
freiheit, cli.
"""

__version__ = "0.1.0"
