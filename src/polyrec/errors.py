"""Exception hierarchy shared across the package.

``InputError`` covers malformed or out-of-bounds inputs; the CLI maps these
to exit code 2.  ``CheckFailed`` covers verifications that ran to completion
and failed, carrying a concrete witness; the CLI reports these as failing
verdicts (exit code 1).  ``SWEEP_CAP`` is the default ``--cap``, and
:func:`charge` is the one place that raises ``SweepCapExceeded`` past it.
"""


class PolyrecError(Exception):
    """Base class for every error raised by this package."""


class InputError(PolyrecError):
    """Invalid input: wrong shape, wrong values, or over a configured cap."""


class ArityMismatch(InputError):
    """Vector/variable counts do not line up."""


class NotIntegerValued(InputError):
    """A rational polynomial does not take integer values on integer points."""


class RankDeficientBasis(InputError):
    """A key-lemma hypothesis lattice is not of full rank."""


class NonzeroConstantTerm(InputError):
    """A polynomial required to vanish at the origin does not."""


class CapExceeded(InputError):
    """A configured size cap would be exceeded; the request is refused."""


class SweepCapExceeded(CapExceeded):
    """A request would pass ``--cap``, the work budget of every sweep and
    search (README); raised by :func:`charge` only."""


# Default ``--cap``, the work budget of every sweep and search (README); larger
# instances are refused loudly rather than silently truncated.
SWEEP_CAP = 10**6


def charge(amount: int, cap: int, what: str) -> None:
    """Refuse work of ``amount`` units over ``cap``: raises
    :class:`SweepCapExceeded` reading "WHAT, cap is CAP".  Each site charges
    its own work; charges are not summed."""
    if amount > cap:
        raise SweepCapExceeded(f"{what}, cap is {cap}")


class WeightsNotNormalized(InputError):
    """Point weights are not positive rationals summing exactly to 1."""


class NotBijective(InputError):
    """A map on the point set is not a bijection."""


class NotMeasurePreserving(InputError):
    """A bijection moves mass: weight(T(x)) != weight(x) for some x."""


class NotCommuting(InputError):
    """Two system maps disagree on composition order at some point."""


class UnknownPoint(InputError):
    """A referenced point id is not part of the system."""


class DimMismatch(InputError):
    """Operator dimensions disagree."""


class CheckFailed(PolyrecError):
    """A semantic verification failed; carries the witness found."""

    def __init__(self, witness=None, message=None):
        self.witness = witness
        super().__init__(message or f"check failed, witness: {witness!r}")


class HypothesisFailed(CheckFailed):
    """The claimed divisibility hypothesis fails at a concrete point."""


class SaturationFailed(CheckFailed):
    """A point of Z^n maps outside the rational span of the witness group."""


class VerificationFailed(CheckFailed):
    """A certificate or invariant failed its check: a tampered certificate
    read by ``verify-certificate``, or a bug caught by a post-check."""
