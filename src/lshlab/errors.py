"""Exception hierarchy shared across the laboratory.

Every rejection carries enough context to reproduce the failure; nothing is
reported as a silent NaN or infinity.  One witness rule: every error is built
as ``LabError(message, witness=None)``, ``witness`` being the point where the
failure was found (a quadrature node, a grid point, a probe) or None, and an
inconclusive report keeps it as ``quantities["witness"]``.
"""

from __future__ import annotations


class LabError(Exception):
    """Base class for all laboratory errors; ``witness`` is the point that caused it."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidParameter(LabError):
    """Input rejected by a precondition (out-of-range parameter, dim mismatch)."""


class EvaluationFailure(LabError):
    """Pointwise evaluation failed (overflow in exp, undefined value)."""


class QuadratureFailure(LabError):
    """An integral could not be computed (non-finite integrand, divergence)."""


class SubharmonicityError(LabError):
    """A field construction was rejected by the numerical subharmonicity test."""


class TypeConditionViolation(LabError):
    """The Euclidean-regularity sup diverges (or exceeds the overflow guard)."""


class ConfigError(LabError):
    """Campaign configuration could not be read, parsed or validated, or its
    outputs could not be written."""
