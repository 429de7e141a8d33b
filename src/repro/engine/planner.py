"""The vector engine's plan: ``fuse-product-select`` run alone.

Re-exported from :mod:`repro.engine.optimizer`, where every rewrite lives.
"""

from .optimizer import count_fusions, plan_program

__all__ = ["plan_program", "count_fusions"]
