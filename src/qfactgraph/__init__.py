"""q-factorization graphs of Drinfeld polynomials for quantum affine type A.

Build, validate and analyze the directed graphs attached to
factorizations of Drinfeld polynomials into Kirillov-Reshetikhin
strings, and certify primality of the associated simple modules.

The public API is each module's ``__all__`` (every exception class of
``errors``), re-exported here unchanged.
"""

from .dynkin import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .families import *  # noqa: F401,F403
from .fgraph import *  # noqa: F401,F403
from .lweight import *  # noqa: F401,F403
from .primality import *  # noqa: F401,F403
from .redsets import *  # noqa: F401,F403

__version__ = "0.1.0"
