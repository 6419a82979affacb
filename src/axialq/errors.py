"""Exception types shared across the package."""


class AxialError(Exception):
    """Base class for all errors raised by axialq."""


class InvariantViolation(AxialError):
    """An internal postcondition failed; signals bad input or a bug."""


# -- algebra construction / element arithmetic --

class CommutativityViolation(AxialError):
    pass


class NotIdempotent(AxialError):
    pass


class AlgebraMismatch(AxialError):
    pass


# -- axis analysis --

class NotSemisimple(AxialError):
    pass


class NotPrimitiveAxis(AxialError):
    pass


class NotSpanning(AxialError):
    pass


class NotBasisOfAxes(AxialError):
    pass


class Inconsistent(AxialError):
    """No invariant normalized bilinear form exists for the given axes."""


# -- idempotent construction / capacity --

class FormValueOne(AxialError):
    """(a, b) = 1 for distinct axes a, b: the x-construction is undefined."""


class SameAxis(AxialError):
    pass


class RecursionBasisFailure(AxialError):
    """Projected axes fail to span the 0-eigenspace during unit recursion."""


class ResidualNonzero(AxialError):
    """Capacity run terminated without exhausting the unit."""


class NotUnit(AxialError):
    pass


# -- constructions --

class DegenerateForm(AxialError):
    pass


class NotInvolution(AxialError):
    pass


class BadProductOrder(AxialError):
    """Some product of two listed involutions has order > 3."""


class ConjugacyClosureError(AxialError):
    """c^d is not in the involution set, so the Matsuo product is undefined."""


# -- file handling --

class ParseError(AxialError):
    pass
