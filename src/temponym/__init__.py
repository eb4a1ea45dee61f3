"""Temporally-aware name-gender inference over SSA yearly name data."""

__version__ = "0.1.0"
__all__ = ["__version__"]
