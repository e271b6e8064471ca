"""Small shared utilities (graph algorithms, text similarity, LRU)."""

from repro.util.lru import LRU, LRUStats
from repro.util.toposort import CycleError, is_dag, topological_sort
from repro.util.text import jaccard, levenshtein, name_similarity

__all__ = [
    "LRU", "LRUStats", "CycleError", "is_dag", "topological_sort",
    "jaccard", "levenshtein", "name_similarity",
]
