"""The names of the generative models and of their variants.

They are kept apart from :mod:`ptdep.simulate`, which re-exports them, so
that the CLI's parser offers them as choices without loading the simulator.
"""

import math

MODEL_KINDS = ("linear", "parabolic", "sinusoidal", "circular", "checkerboard", "independent")

THETA_FULL = (0.0, 2.0 * math.pi)
THETA_UNIT = (0.0, 1.0)
CHECKER_PATTERNS = ("verbatim", "balanced")
