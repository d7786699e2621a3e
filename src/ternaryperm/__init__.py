"""Ternary permutations of the nonzero vectors of GF(2)^n.

A ternary permutation orders all 2**n - 1 nonzero n-bit words so that at
every even position the word XORs with its two neighbours to zero.  Such
orderings exist for every n >= 2 except 3 and 4.  This package constructs
them (base cases plus a two-dimension lift), verifies claimed ones,
searches for them exhaustively, and proves the two impossible cases.
"""

from ._version import VERSION as __version__
from .catalog import *
from .catalog import __all__ as _catalog
from .lifting import *
from .lifting import __all__ as _lifting
from .search import *
from .search import __all__ as _search
from .sequences import *
from .sequences import __all__ as _sequences
from .words import *
from .words import __all__ as _words

__all__ = ["__version__", *_catalog, *_lifting, *_search, *_sequences, *_words]
