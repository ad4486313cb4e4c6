"""Label constants shared by the benchmark's parent and its generators.

Kept free of numpy so that the parent process stays small.
"""

# Canonical label order of the program (its corpus module fixes it).
LABELS = (
    "Facts",
    "Ruling by Lower Court",
    "Argument",
    "Statute",
    "Precedent",
    "Ratio of the decision",
    "Ruling by Present Court",
)

# Per-label sentence counts of the paper's task data, in label order; the
# task-shaped corpora draw labels with these proportions.
TASK_COUNTS = (2622, 483, 939, 902, 1787, 4211, 341)
