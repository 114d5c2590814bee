"""The classification stack on a synthetic gait-feature dataset.

Runs KNN, k-means, and the backprop MLP on separable clusters, validates
with stratified 5-fold cross-validation, and compares two classifiers'
fold accuracies with one-way ANOVA.
"""

import numpy as np

from gaitforge.learn import (
    Dataset, anova_single_factor, biometric_metrics, confusion_and_accuracy,
    kfold_cv, kmeans, knn_classify, knn_trainer, mlp_trainer,
)
from gaitforge.tables import fixture_path

data = Dataset.from_csv(fixture_path("synthetic_gait_features.csv"))
print(f"dataset: {len(data)} rows, {data.features.shape[1]} features, "
      f"classes {data.class_names}")

query = data.features[0]
print(f"\nKNN (k=3) on the first row: predicts "
      f"{data.class_names[knn_classify(data, 3, query)]} "
      f"(true {data.class_names[data.labels[0]]})")

centroids, assignments = kmeans(data.features, k=4, seed=0)
print(f"k-means found {len(centroids)} clusters; sizes "
      f"{np.bincount(assignments).tolist()}")

knn_cv = kfold_cv(data, knn_trainer(3), folds=5, seed=42)
mlp_cv = kfold_cv(
    data, mlp_trainer((6, 10, 4), eta=0.5, epochs=150, seed=42), folds=5, seed=42
)
print(f"\n5-fold CV, KNN: folds {knn_cv.fold_accuracies} "
      f"mean {knn_cv.mean:.2f} sigma {knn_cv.sigma:.3f}")
print(f"5-fold CV, MLP: folds {[round(a, 1) for a in mlp_cv.fold_accuracies]} "
      f"mean {mlp_cv.mean:.2f} sigma {mlp_cv.sigma:.3f}")

anova = anova_single_factor([knn_cv.fold_accuracies, mlp_cv.fold_accuracies])
print(f"\nANOVA across the two fold sets: F = {anova.f:.4f}, p = {anova.p:.4f}")

# confusion-matrix style report on a held-out style split
predict = knn_trainer(3)(data)
preds = predict(data.features)
cm, per_class, error = confusion_and_accuracy(preds, data.labels, data.n_classes)
rates = biometric_metrics(cm)
print(f"\nresubstitution error {error:.3f}; "
      f"macro TAR {100 * rates.tar:.2f}%, macro FAR {100 * rates.far:.2f}%")
