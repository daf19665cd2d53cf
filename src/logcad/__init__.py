"""Context-aware phrase description generation.

Given a phrase, the sentence it occurs in (local context), and a pre-trained
phrase embedding (global context), generate a natural-language description.
Ships the LOG-CaD model, the Global / Local / I-Attention baselines, the
Wikipedia/Wikidata dataset extraction pipeline, and a BLEU evaluation harness,
all on a small reverse-mode autodiff tensor core.
"""

__version__ = "0.1.0"
