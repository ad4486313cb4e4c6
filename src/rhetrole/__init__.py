"""Rhetorical-role sentence classification for legal judgments.

Sentences are embedded by an interchangeable provider (hashed bag-of-words
or precomputed vectors), classified by a linear head trained with
class-weighted cross-entropy, and scored with macro precision/recall/F1.
"""

__version__ = "0.1.0"
