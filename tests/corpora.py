"""Fixed graph lists that several test modules use as input."""

from fractions import Fraction

from wlcheck import generators as gen
from wlcheck import harness


def hierarchy_graphs():
    """100 G(12, 3/10) graphs (seeds 0..99), then the family corpus: denser
    and larger random graphs than the standard corpus's, whatever seed
    count a suite runs with."""
    gnp = [gen.random_gnp(12, Fraction(3, 10), seed) for seed in range(100)]
    return gnp + harness.family_corpus().graphs
