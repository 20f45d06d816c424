"""Finite-stage computations around Stone duality.

Subpackages:

- ``terms``      Boolean terms as postfix token tuples, and the concrete grammar
- ``boolalg``    finitely presented Boolean algebras and their spectra
- ``profinite``  sequential towers of finite sets and relation graphs
- ``interval``   exact dyadic machinery for the unit interval
- ``zhomology``  integer chain complexes, Smith normal form, Cech cohomology
- ``cli``        command-line front end
- ``record``     the decorator that makes the frozen value classes
"""

__version__ = "0.1.0"
