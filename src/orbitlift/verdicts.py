"""The regularity verdicts a certificate can give, and their order.

They live apart from `regcheck`, which re-exports them, so that the
catalog can name them without loading numpy.
"""

UNBOUNDED = "unbounded-derivative-detected"
LIPSCHITZ = "lipschitz"
DIFFABLE = "differentiable-bounded-derivative"
C1 = "C1"
TWICE = "twice-differentiable"
INCONCLUSIVE = "inconclusive"

#: Partial order used for "at least X" checks; failures rank below lipschitz.
VERDICT_RANK = {
    UNBOUNDED: -1,
    INCONCLUSIVE: 0,
    LIPSCHITZ: 1,
    DIFFABLE: 2,
    C1: 3,
    TWICE: 4,
}
