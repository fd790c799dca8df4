"""Adaptive measurement scheduling for Ramsey-style magnetometry.

The top level is the closed-loop API (grid, prior, update, statistics,
policy step, simulated outcome, closed alpha-series): the names that
code outside the package imports from here.  Import everything else,
the oracles included, from its module.
"""

__version__ = "0.1.0"

from .bayes import FieldGrid, bayes_update, entropy, gaussian_distribution, mean, variance
from .fourier import alpha_series_closed
from .policies import PolicyConfig, PolicyState, next_params
from .simulate import sample_outcome
