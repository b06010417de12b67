"""Supervised learning with an automatically constructed training set (§3).

No external ML library is used: :mod:`repro.ml.svm` implements a
linear-kernel SVM from scratch (exact primal Newton), which is the model
class the paper trains over per-path similarity features. The training set
comes for free from the data itself (:mod:`repro.ml.trainingset`): names
whose first and last tokens are both rare are assumed unique, pairs of their
references are positives, and cross-name pairs are negatives.
"""

from repro.ml.svm import LinearSVM
from repro.ml.model import PathWeightModel
from repro.ml.trainingset import TrainingPair, TrainingSet, build_training_set
from repro.ml.validation import cross_validate, classification_report

__all__ = [
    "LinearSVM",
    "PathWeightModel",
    "TrainingPair",
    "TrainingSet",
    "build_training_set",
    "cross_validate",
    "classification_report",
]
