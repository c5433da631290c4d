"""Interacting particle systems on sparse random graphs and their local limits.

Import rule: at top level a module imports numpy and only what its own hot
path runs.  Every other scipy submodule (``optimize``, ``special``,
``sparse.csgraph``, and ``sparse`` outside ``dynamics``) is imported inside
the one function that calls it, so a process that never calls them never
pays their load time or memory.  ``dynamics`` keeps ``scipy.sparse`` at top
level because every run's neighbour sums use it: importing it lazily would
only move its load from set-up into the first run.
"""
