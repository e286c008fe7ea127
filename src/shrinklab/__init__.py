"""shrinklab: a desk-scale lab for studying LLM compression trade-offs.

Compress a tiny byte-level transformer with composable passes (quantization,
attention-head pruning, 2:4 sparsity, distillation), meter the time and
energy of the compressed models, and score quality against resource cost
with a single lower-is-better number.
"""
from .errors import (BelowRandomFloor, DomainError, FormatError, ParseError,
                     ShapeError, SourceError, StateError)
from .scoring import (BALANCED, BUILTIN_PROFILES, ENERGY_FOCUS, QUALITY_EXPONENT,
                      RUNTIME_FOCUS, Direction, MetricRecord, OptResult,
                      ResourceRatios, WeightProfile, aggregate_quality,
                      metric_ratio, opt_score, rank_methods,
                      ratio_higher_better, ratio_lower_better)
from .model import (ModelConfig, TinyLM, detokenize, forward, generate,
                    init_model, load_model, mean_nll, perplexity, save_model,
                    tokenize, zero_model)
from .compress import (DistillRef, HeadConcentrationReport, Prune24,
                       PruneHeads, Quantize, QuantizedTensor, compose,
                       dequantize, head_concentration, prune_2_4, prune_heads,
                       prune_model_2_4, quantize_model, quantize_tensor)
from .distill import (CrossEntropy, DistillConfig, ForwardKLD, GradCheckReport,
                      ReverseKLD, TrainResult, backward, forward_kld_loss,
                      grad_check, reverse_kld_loss, seqkd_corpus, train_student)
from .meter import (CounterFile, PowerModel, ResourceRecord, SyntheticClock,
                    carbon_estimate, counter_delta, measure)

__version__ = "0.1.0"
