"""Exception types shared across the package."""


class VpshellError(Exception):
    """Base class for all errors raised by this package."""


class CycleDetected(VpshellError):
    """A cover (i, j) with j <= i; every directed cycle has one."""


class NotBounded(VpshellError):
    """The poset has no unique minimum or no unique maximum."""


class NotGraded(VpshellError):
    """Some cover does not raise the longest-path rank by exactly one."""


class DuplicateElement(VpshellError):
    """Two elements of a poset share one key."""


class UnknownElement(VpshellError):
    """A cover names a key, or an index, that is not an element."""


class InvalidPartition(VpshellError):
    """Blocks (or a labeling) do not partition the ground set."""


class SizeMismatch(VpshellError):
    """A label set's cardinality differs from its block's cardinality."""


class DimensionMismatch(VpshellError):
    """Two elements live in posets with different (n, s) parameters."""


class BottomHasNoAtom(VpshellError):
    """The formal bottom element has no atom word."""


class MalformedWord(VpshellError):
    """An atom word is not a concatenation of permutations of 1..n."""


class NotACover(VpshellError):
    """The pair of elements is not a cover relation."""


class EqualWords(VpshellError):
    """Two atom words are identical, so no first difference exists."""


class MissingLabels(VpshellError):
    """No labels were given and the poset has none, or a cover has none."""


class NotSaturated(VpshellError):
    """A chain has a step that is not a cover relation."""


class NotDecreasing(VpshellError):
    """A maximal chain whose label word is not weakly decreasing."""


class IncompatibleData(VpshellError):
    """Decomposition data that cannot be reassembled into a chain."""


class InvalidIndex(VpshellError):
    """A counting index outside the admissible range."""


class ResourceLimit(VpshellError):
    """An enumeration would exceed the configured budget."""


class OracleMismatch(VpshellError):
    """Two independent counting routes disagree."""
