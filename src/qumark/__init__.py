"""Fuzzy watermarking of bit streams through conjugate-basis qubit rewrites.

A secret subset of a message's qubits is rewritten in a basis dissimilar to
the writing basis. Anyone reading the message sees those positions flip at a
predictable rate, and only the holder of the index set can check that the
flips sit exactly where, and exactly as often as, the mark dictates.

The package re-exports the public names of every library module, as each
module's own __all__ declares them. The command line, qumark.cli, stays out
so that importing the library loads no argparse.
"""

from . import attacks, carrier, fileformats, keys, qstate, stats, watermark
from .attacks import *  # noqa: F403
from .carrier import *  # noqa: F403
from .errors import QumarkError
from .fileformats import *  # noqa: F403
from .keys import *  # noqa: F403
from .qstate import *  # noqa: F403
from .stats import *  # noqa: F403
from .watermark import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["QumarkError"]
for _module in (attacks, carrier, fileformats, keys, qstate, stats, watermark):
    __all__ += _module.__all__
del _module
