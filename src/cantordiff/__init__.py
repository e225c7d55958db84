"""Exact interval-union arithmetic and certified finite-stage analysis
of the difference set between a Cantor set's complement and the set.

Each public name is imported from the module that defines it; importing
the package loads none of its modules.
"""

__version__ = "0.1.0"
