"""surfreal: a surface-realization toolkit for the shallow task.

Pipeline: gold or parsed CoNLL-U -> shuffled shallow datasets (and
synthetic data from unlabeled parses) -> linearized seq2seq pairs ->
restricted beam-search realization over pluggable scorers -> BLEU-4
evaluation with an error taxonomy and length-bucket breakdown.
"""

from .conllu_io import ConlluError, DataError, UdSentence, UdToken, parse_conllu, serialize_conllu
from .deptree import DepTree, ShallowSentence, build_tree, shallow_transform, strip_alignment
from .evalsuite import ErrorCategory, EvalReport, bleu4, classify_output, detokenize, evaluate
from .linearizer import LinearSeq, append_form_list, emit_training_pairs, linearize
from .ngram import NGramModel, train_ngram
from .realizer import (
    FormLexicon,
    NGramScorer,
    OracleScorer,
    RealizationResult,
    Scorer,
    beam_realize,
    build_form_lexicon,
)
from .synthpipe import FilterPolicy, SynthStats, build_synthetic_dataset, build_vocab

__version__ = "0.1.0"

__all__ = [
    "ConlluError", "DataError", "UdSentence", "UdToken", "parse_conllu", "serialize_conllu",
    "DepTree", "ShallowSentence", "build_tree", "shallow_transform", "strip_alignment",
    "LinearSeq", "linearize", "append_form_list", "emit_training_pairs",
    "FilterPolicy", "SynthStats", "build_vocab", "build_synthetic_dataset",
    "NGramModel", "train_ngram",
    "FormLexicon", "Scorer", "NGramScorer", "OracleScorer", "RealizationResult",
    "beam_realize", "build_form_lexicon",
    "ErrorCategory", "EvalReport", "bleu4", "classify_output", "detokenize", "evaluate",
    "__version__",
]
