"""Symbolic computation in twisted virtual braid groups.

Subpackages build on each other in order: words (atom/word algebra),
perms (concrete finite quotients), conj (bar-conjugation of decorated
generators), present (presentation registry), homs (named quotient maps),
rs (coset-transversal rewriting of kernel words), abelian (integer Smith
form and abelian invariants), suite (verification checks, loaded on first
use of ``run_suite``), cli.
"""

from .words import Atom, Word, parse_word, format_word, reduce, free_reduce
from .present import build_presentation
from .homs import make_hom, image, in_kernel
from .rs import make_context, rewrite_tau, split
from .abelian import abelian_invariants, invariants_text

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Word",
    "parse_word",
    "format_word",
    "reduce",
    "free_reduce",
    "build_presentation",
    "make_hom",
    "image",
    "in_kernel",
    "make_context",
    "rewrite_tau",
    "split",
    "abelian_invariants",
    "invariants_text",
    "run_suite",
]


def __getattr__(name):
    # no library call uses the suite, so importing the package skips it
    if name == "run_suite":
        from .suite import run_suite

        return run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
