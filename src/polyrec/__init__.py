"""Exact-arithmetic toolkit for polynomial recurrence verification.

Modules:

- :mod:`polyrec.intpoly`   integer-valued polynomials on the binomial basis
- :mod:`polyrec.lattice`   canonical integer-lattice algebra (Hermite form)
- :mod:`polyrec.keyengine` verified witness-lattice constructions
- :mod:`polyrec.ipstruct`  finite subset-sum combinatorics and window verdicts
- :mod:`polyrec.dynamics`  recurrence on finite measure-preserving systems
- :mod:`polyrec.spectral`  rational-phase unitary families and projections
- :mod:`polyrec.runners`   one runner per scenario kind
- :mod:`polyrec.cli`       scenario loader, checker and certificate verifier
"""

__version__ = "0.1.0"
