"""Experiment harness: one entry point per table/figure of the paper.

See DESIGN.md's per-experiment index. Each experiment module exposes
``run_*`` functions returning plain result structures, and the
``__main__`` CLI prints the paper-shaped reports.

The package re-exports nothing: import each name from the module that
defines it (``repro.experiments.engine``, ``.runner``, ``.validate``, ...),
so a worker that runs one spec loads only the run path.
"""
