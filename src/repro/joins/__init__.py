"""Single-node index nested loops join (the small-delta regime's algorithm)."""

from .nested_loops import index_nested_loops_join

__all__ = ["index_nested_loops_join"]
