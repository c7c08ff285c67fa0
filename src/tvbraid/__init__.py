"""Symbolic computation in twisted virtual braid groups.

Subpackages build on each other in order: words (atom/word algebra),
perms (concrete finite quotients), conj (bar-conjugation of decorated
generators), present (presentation registry), homs (named quotient maps),
rs (coset-transversal rewriting of kernel words), abelian (integer Smith
form and abelian invariants), suite (verification checks), cli.

``import tvbraid`` registers ``_record`` and the seven layers in
``sys.modules`` and runs none of them: each layer compiles and runs on
first use, as do the layers it imports.  The suite is not registered; it
loads on first use of ``run_suite``.  So a CLI call runs only the layers
of its subcommand: ``normalize`` runs ``_record`` and ``words``,
``present`` adds ``conj`` and ``present``, ``abelianize`` adds
``abelian`` to those, ``image`` and ``kernel`` add ``perms`` and
``homs``, ``rewrite`` adds ``perms``, ``homs`` and ``rs``, and
``verify`` runs every layer and the suite.
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: public name -> the module that defines it
_EXPORTS = {
    "Atom": "words",
    "Word": "words",
    "parse_word": "words",
    "format_word": "words",
    "reduce": "words",
    "free_reduce": "words",
    "build_presentation": "present",
    "make_hom": "homs",
    "image": "homs",
    "in_kernel": "homs",
    "make_context": "rs",
    "rewrite_tau": "rs",
    "split": "rs",
    "abelian_invariants": "abelian",
    "invariants_text": "abelian",
    "run_suite": "suite",
}

__all__ = list(_EXPORTS)


def _register(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


# in dependency order, as the eager imports ran
for _name in ("_record", "words", "perms", "conj", "present", "homs", "rs", "abelian"):
    globals()[_name] = _register(_name)
del _name


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
