"""Exception hierarchy.

Every error raised on purpose by this package derives from HopfkitError,
so callers can catch one type.  Verification *failures* are never raised:
they are reported as entries in a CheckReport.
"""


class HopfkitError(Exception):
    pass


class DivisionByZero(HopfkitError, ZeroDivisionError):
    """Division by the zero scalar (or zero polynomial)."""


class NotAScalar(HopfkitError, TypeError):
    """A value that is not an int, Fraction, GaussRat or Scalar was used
    as a coefficient."""


class InvalidArgument(HopfkitError, ValueError):
    """An argument outside its allowed values, such as a side or a kind."""


SIDES = ("left", "right")


def check_choice(what, value, allowed=SIDES):
    """Raise InvalidArgument unless value is one of allowed (a side by
    default); the one guard in front of every side= and form= switch."""
    if value not in allowed:
        raise InvalidArgument(f"{what} must be one of {allowed}, not {value!r}")


def check_sizes(**sizes):
    """Raise ConfigError on a negative size, a window, degree or bound
    (None is unset): it leaves an empty run that would pass vacuously.
    The one guard in front of every size of a report."""
    for what, value in sizes.items():
        if value is not None and value < 0:
            raise ConfigError(f"{what} must be >= 0, got {value}")


def check_element(what, e, pres):
    """Raise PresentationMismatch unless e is an element of pres; the one
    guard in front of every map that reads terms as bare exponent tuples."""
    if getattr(e, "pres", None) is not pres:
        raise PresentationMismatch(
            f"{what} takes an element of {pres.name}, not {e!r}")


class UnknownStructure(HopfkitError, KeyError):
    """No built-in Hopf structure has the requested name."""


class UnknownGenerator(HopfkitError):
    """A word or expression uses a name that is not a generator."""


class NegativePowerOfNonInvertible(HopfkitError):
    """Negative exponent on a generator that has no declared inverse."""


class PresentationMismatch(HopfkitError):
    """Elements of different presented algebras were combined."""


class IncompleteRewriteSystem(HopfkitError):
    """A disordered generator pair has no applicable rewrite rule."""


class NonConfluentRules(HopfkitError):
    """An overlap ambiguity g_k g_j g_i reduces to two distinct normal forms."""


class RewriteLimitExceeded(HopfkitError):
    """Normalizing a word took more rewrite steps than the engine allows."""


class RelationNotPreserved(HopfkitError):
    """A generator table does not kill a defining relation, or a rule
    does not keep the degree of a grading.

    Carries the offending relation as a string in args[0].
    """


class WindowOverflow(HopfkitError):
    """An element escaped the declared finite basis window."""


class NotInvertible(HopfkitError):
    """Inverse requested for an element with no inverse in this ring/window."""


class StarUndefined(HopfkitError):
    """Involution requested on a structure that only carries tau."""


class AntipodeNotInvertible(HopfkitError):
    """S(S^-1 g) != g for a generator g, with S^-1 = * S *; args carry g."""


class CounitLawViolated(HopfkitError):
    """(eps x id) Delta g != g or (id x eps) Delta g != g; args carry g."""


class NotCoalgebraMorphism(HopfkitError):
    """(pi x pi) Delta != Delta_K pi; args carry the witness generator."""


class NotModuleMorphism(HopfkitError):
    """pi does not intertwine the module structures; args carry the witness."""


class NotCorepresentation(HopfkitError, ValueError):
    """A corepresentation matrix breaks the coaction or the counit law."""


class TauIncompatible(HopfkitError):
    """pi tau != tau_K pi; args carry the witness generator."""


class NotGroupLike(HopfkitError):
    """Translation element k fails Delta(k) = k (x) k."""


class NotTauReal(HopfkitError):
    """Translation element k fails tau(k) = k."""


class SideMismatch(HopfkitError):
    """Left/right objects mixed in a sesquilinear form or induction."""


class UnknownSuite(HopfkitError):
    """run_suite called with a name outside the suite registry."""


class ConfigError(HopfkitError):
    """Bad key, value or file in CLI configuration."""


class ExprSyntaxError(HopfkitError):
    """Parse error; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ScalarDivisionOnly(HopfkitError):
    """Division of algebra elements is only defined by nonzero scalars."""
