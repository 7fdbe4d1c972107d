"""Exact association schemes, m-schemes, and deterministic scheme-driven
polynomial factoring over finite fields."""

# cli is left to be imported on use, so that `python -m mschemes.cli` runs
# it once as __main__ rather than over a copy already in sys.modules
from . import assoc, factor, gf, linalg, mscheme

__all__ = ["assoc", "cli", "factor", "gf", "linalg", "mscheme"]
__version__ = "0.1.0"
