"""§5 timing: "We first build a training set ... then SVM with linear
kernel is applied. The whole process takes 62.1 seconds."

Reports the phase breakdown of the session's fit (training-set
construction, pair-feature computation, SVM training incl. the C search)
and times the two cheap phases as kernels. Absolute numbers are not
comparable (the paper timed a 2006 workstation against full DBLP; we run a
scaled world), but the breakdown shows the same profile: feature
computation dominates, SVM training itself is cheap.
"""

import numpy as np

from repro.eval.reporting import format_table
from repro.ml.svm import LinearSVM
from repro.ml.trainingset import build_training_set


def test_training_phase_breakdown(benchmark, distinct, db_truth, report):
    db, _ = db_truth
    fit = distinct.fit_report_
    table = format_table(
        ["phase", "seconds"],
        [
            ["training-set construction (rare names)", fit.seconds_training_set],
            ["pair feature computation (propagation)", fit.seconds_features],
            ["SVM training (incl. C selection)", fit.seconds_svm],
            ["total", fit.seconds_total],
        ],
        title=(
            "Training pipeline timing (paper: whole process 62.1 s on full "
            f"DBLP; {fit.n_training_pairs} pairs from {fit.n_rare_names} rare names)"
        ),
    )
    report(
        "training_time",
        table,
        data={
            "seconds_training_set": round(fit.seconds_training_set, 3),
            "seconds_features": round(fit.seconds_features, 3),
            "seconds_svm": round(fit.seconds_svm, 3),
            "seconds_total": round(fit.seconds_total, 3),
            "n_training_pairs": fit.n_training_pairs,
            "n_rare_names": fit.n_rare_names,
        },
    )

    result = benchmark(build_training_set, db)
    assert result.n_positive == 1000
    assert result.n_negative == 1000


def test_svm_training_kernel(benchmark, distinct):
    """Time one SVM fit at the selected C on the actual training features."""
    features = distinct._training_features(distinct.training_set_)
    labels = np.asarray(distinct.training_set_.labels(), dtype=float)
    cost = distinct.resem_model_.metadata["C"]

    def kernel():
        return LinearSVM(C=cost).fit(features.resemblance, labels)

    svm = benchmark.pedantic(kernel, rounds=1, iterations=1)
    assert svm.accuracy(features.resemblance, labels) > 0.7
