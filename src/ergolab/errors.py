"""Exception hierarchy shared across the package."""


class ErgolabError(Exception):
    pass


class ValidationError(ErgolabError):
    """A candidate system fails one of its defining invariants."""


class NonProbabilityWeights(ValidationError):
    pass


class MeasureNotPreserved(ValidationError):
    def __init__(self, action, axis, state):
        self.action = action
        self.axis = axis
        self.state = state
        super().__init__(
            f"generator (action={action}, axis={axis}) does not preserve "
            f"the weight of state {state}"
        )


class NonCommuting(ValidationError):
    def __init__(self, first, second, state):
        self.first = first
        self.second = second
        self.state = state
        super().__init__(
            f"generators {first} and {second} disagree at state {state} "
            f"when composed in the two orders"
        )


class DimensionMismatch(ErgolabError):
    pass


class ZeroWeightCell(ErgolabError):
    """A conditional construction hit a cell of measure zero.

    Signals un-normalized support; restrict to positive-weight states first.
    """


class BudgetExceeded(ErgolabError):
    def __init__(self, size, budget):
        self.size = size
        self.budget = budget
        super().__init__(f"basis-tuple budget exceeded: {size} > {budget} (n^d)")


class NotMeasurable(ErgolabError):
    pass


class InvarianceViolated(ErgolabError):
    pass


class UndecidableResonance(ErgolabError):
    """A rotation entry is only known in floating point, so membership of an
    integer combination in Z cannot be decided exactly."""


class InternalInvariantViolation(ErgolabError):
    """An identity that is a theorem for valid inputs failed.  Always a bug."""
