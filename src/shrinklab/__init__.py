"""shrinklab: a desk-scale lab for studying LLM compression trade-offs.

Compress a tiny byte-level transformer with composable passes (quantization,
attention-head pruning, 2:4 sparsity, distillation), meter the time and
energy of the compressed models, and score quality against resource cost
with a single lower-is-better number.
"""

__version__ = "0.1.0"
