import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from gaitforge.learn import (
    LOCKSTEP_FOLDS,
    MAX_WEIGHTS,
    AnovaResult,
    ConfusionMatrix,
    Dataset,
    LayerSizeError,
    StratificationError,
    UndefinedClassError,
    accuracy_from_counts,
    anova_from_summary,
    anova_single_factor,
    biometric_metrics,
    confusion_and_accuracy,
    cv_aggregate,
    f_survival,
    kfold_cv,
    kfold_indices,
    kmeans,
    kmeans_sse,
    knn_classify,
    knn_trainer,
    mlp_classify,
    mlp_gradients,
    mlp_init,
    mlp_predict,
    mlp_train_lockstep,
    mlp_train_raw,
    mlp_trainer,
    truncate_percent,
)
from gaitforge.tables import write_rows


def two_blobs(n_per=20, seed=0, centers=((10.0, 10.0), (-10.0, -10.0))):
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for label, center in enumerate(centers):
        feats.append(rng.normal(center, 1.0, size=(n_per, 2)))
        labels += [label] * n_per
    return Dataset(np.vstack(feats), np.array(labels), ("a", "b")[:len(centers)])


# ---------------------------------------------------------------------------
# KNN
# ---------------------------------------------------------------------------

def test_knn_k1_returns_training_label():
    data = two_blobs()
    for i in (0, 5, 25):
        assert knn_classify(data, 1, data.features[i]) == data.labels[i]


def test_knn_separates_blobs():
    train = two_blobs(seed=1)
    test = two_blobs(n_per=10, seed=2)
    preds = [knn_classify(train, 3, q) for q in test.features]
    assert np.all(np.array(preds) == test.labels)


def test_knn_k_equals_n_gives_majority_class():
    feats = np.vstack([np.zeros((7, 2)), np.ones((3, 2)) * 100])
    labels = np.array([0] * 7 + [1] * 3)
    data = Dataset(feats, labels, ("maj", "min"))
    assert knn_classify(data, len(data), np.array([100.0, 100.0])) == 0


def test_knn_validation():
    data = two_blobs()
    with pytest.raises(ValueError):
        knn_classify(data, 0, data.features[0])
    with pytest.raises(ValueError):
        knn_classify(Dataset(np.empty((0, 2)), np.empty(0, dtype=int), ("a",)),
                     1, np.zeros(2))


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def test_kmeans_k_equals_points():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    centroids, assign = kmeans(x, 3, seed=0)
    assert kmeans_sse(x, centroids, assign) == pytest.approx(0.0, abs=1e-12)


def test_kmeans_two_blobs():
    rng = np.random.default_rng(3)
    x = np.vstack([
        rng.normal((10, 10), 0.5, size=(30, 2)),
        rng.normal((-10, -10), 0.5, size=(30, 2)),
    ])
    centroids, assign = kmeans(x, 2, seed=0)
    dists = sorted(
        min(np.linalg.norm(c - np.array(m)) for c in centroids)
        for m in ((10, 10), (-10, -10))
    )
    assert dists[-1] < 1.0
    assert len(np.unique(assign)) == 2


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 3))
    a = kmeans(x, 4, seed=9)
    b = kmeans(x, 4, seed=9)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_kmeans_sse_monotone_non_increasing():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(80, 2))
    _, _, history = kmeans(x, 5, seed=1, return_history=True)
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_kmeans_k_exceeding_distinct_points():
    x = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError):
        kmeans(x, 3)


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([[0.0], [1.0], [1.0], [0.0]])


def test_xor_trains_to_four_of_four():
    model = mlp_train_raw(XOR_X, XOR_Y, (2, 4, 1), eta=0.5, epochs=20000, seed=0)
    for x, y in zip(XOR_X, XOR_Y):
        out = mlp_predict(model, x)[0]
        assert (out > 0.5) == (y[0] > 0.5)


def test_zero_weights_sigmoid_outputs_half():
    model = mlp_init((3, 2), seed=0)
    model.weights[0][:] = 0.0
    model.biases[0][:] = 0.0
    assert np.allclose(mlp_predict(model, np.array([4.0, -2.0, 1.0])), 0.5)


def test_single_layer_is_logistic_of_inputs():
    model = mlp_init((2, 2), seed=0)
    model.weights[0][:] = np.eye(2)
    model.biases[0][:] = 0.0
    x = np.array([0.3, -1.2])
    assert np.allclose(mlp_predict(model, x), 1.0 / (1.0 + np.exp(-x)))


def test_epoch_validation_and_single_epoch_updates():
    with pytest.raises(ValueError):
        mlp_train_raw(XOR_X, XOR_Y, (2, 4, 1), eta=0.5, epochs=0)
    before = mlp_init((2, 4, 1), seed=3)
    after = mlp_train_raw(XOR_X, XOR_Y, (2, 4, 1), eta=0.5, epochs=1, seed=3)
    delta = sum(
        float(np.sum(np.abs(a - b)))
        for a, b in zip(before.weights, after.weights)
    )
    assert delta > 0.0


def test_gradients_match_central_differences():
    rng = np.random.default_rng(7)
    model = mlp_init((3, 4, 2), seed=13)  # 20 weights
    x = rng.normal(size=3)
    y = rng.uniform(size=2)
    gw, gb = mlp_gradients(model, x, y)

    def cost():
        out = mlp_predict(model, x)
        return 0.5 * float(np.sum((out - y) ** 2))

    h = 1e-6
    for l in range(len(model.weights)):
        for idx in np.ndindex(model.weights[l].shape):
            orig = model.weights[l][idx]
            model.weights[l][idx] = orig + h
            up = cost()
            model.weights[l][idx] = orig - h
            down = cost()
            model.weights[l][idx] = orig
            fd = (up - down) / (2 * h)
            assert abs(fd - gw[l][idx]) <= 1e-4 * max(1e-6, abs(fd))
        for j in range(model.layers[l + 1]):
            orig = model.biases[l][j]
            model.biases[l][j] = orig + h
            up = cost()
            model.biases[l][j] = orig - h
            down = cost()
            model.biases[l][j] = orig
            fd = (up - down) / (2 * h)
            assert abs(fd - gb[l][j]) <= 1e-4 * max(1e-6, abs(fd))


def test_training_deterministic_given_seed():
    a = mlp_train_raw(XOR_X, XOR_Y, (2, 3, 1), eta=0.4, epochs=50, seed=21)
    b = mlp_train_raw(XOR_X, XOR_Y, (2, 3, 1), eta=0.4, epochs=50, seed=21)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_dataset_training_and_dimension_checks():
    data = two_blobs(n_per=15)
    model = mlp_train_raw(data.features, np.eye(2)[data.labels], (2, 6, 2), eta=0.3,
                          epochs=150, seed=2)
    preds = [mlp_classify(model, x) for x in data.features]
    assert np.mean(np.array(preds) == data.labels) > 0.9
    with pytest.raises(LayerSizeError, match="2,6,3 do not fit the data's 2 inputs and 2 outputs"):
        mlp_trainer((2, 6, 3), eta=0.3, epochs=1)(data)
    with pytest.raises(ValueError):
        mlp_predict(model, np.zeros(5))


def reference_train(inputs, targets, layers, eta, epochs, seed):
    """Per-sample backpropagation of one network with 1-d products, the
    loop lockstep training must reproduce bit for bit."""
    model = mlp_init(layers, seed=seed)
    for _ in range(epochs):
        for x, y in zip(inputs, targets):
            acts = [x]
            for w, b in zip(model.weights, model.biases):
                acts.append(1.0 / (1.0 + np.exp(-(acts[-1] @ w + b))))
            delta = (acts[-1] - y) * (acts[-1] * (1.0 - acts[-1]))
            grads = []
            for l in range(len(model.weights) - 1, -1, -1):
                grads.append((l, np.outer(acts[l], delta), delta))
                if l > 0:
                    delta = (model.weights[l] @ delta) * (acts[l] * (1.0 - acts[l]))
            for l, gw, gb in grads:
                model.weights[l] -= eta * gw
                model.biases[l] -= eta * gb
    return model


def same_bits(a, b) -> bool:
    return all(np.array_equal(u.view(np.int64), v.view(np.int64))
               for u, v in zip(a.weights + a.biases, b.weights + b.biases))


@pytest.mark.parametrize("sizes", [(160, 160), (161, 159), (160,) * 5,
                                   (159, 161, 160, 161, 159)])
@pytest.mark.parametrize("hidden", [(8,), (5, 3)])
def test_lockstep_training_equals_one_network_at_a_time(sizes, hidden):
    rng = np.random.default_rng(len(sizes) + sum(sizes) + len(hidden))
    inputs = [rng.normal(0.0, 1.5, (n, 6)) for n in sizes]
    targets = [np.eye(4)[rng.integers(0, 4, n)] for n in sizes]
    layers = (6, *hidden, 4)
    models = mlp_train_lockstep(inputs, targets, layers, eta=0.5, epochs=6, seed=11)
    assert len(models) == len(sizes)
    for model, x, y in zip(models, inputs, targets):
        assert same_bits(model, reference_train(x, y, layers, 0.5, 6, seed=11))


def test_one_network_training_equals_the_reference_loop():
    model = mlp_train_raw(XOR_X, XOR_Y, (2, 4, 1), eta=0.5, epochs=300, seed=0)
    assert same_bits(model, reference_train(XOR_X, XOR_Y, (2, 4, 1), 0.5, 300, seed=0))


def test_weight_limit_is_checked_before_any_weight_exists():
    assert MAX_WEIGHTS == 10_000_000
    x, y = np.zeros((2, 6)), np.zeros((2, 4))
    tracemalloc.start()
    try:
        with pytest.raises(LayerSizeError, match=r"1 x \(6,1000000,4\) networks need 11000004"):
            mlp_train_raw(x, y, (6, 1_000_000, 4), eta=0.5, epochs=1)
        # one (6,500000,4) network holds 5,500,004 numbers; two in lockstep are too many
        with pytest.raises(LayerSizeError, match=r"2 x \(6,500000,4\) networks need 11000008"):
            mlp_train_lockstep([x, x], [y, y], (6, 500_000, 4), eta=0.5, epochs=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("layers", [(5, 8, 4), (6, 8, 3)], ids=["input", "output"])
def test_layer_sizes_that_do_not_fit_the_data_raise_layer_size_error(layers):
    x, y = np.zeros((2, 6)), np.zeros((2, 4))
    sizes = ",".join(map(str, layers))
    message = f"^layer sizes {sizes} do not fit the data's 6 inputs and 4 outputs$"
    with pytest.raises(LayerSizeError, match=message):
        mlp_train_lockstep([x, x], [y, y], layers, eta=0.5, epochs=1)


def test_saturated_sigmoid_trains_and_predicts_without_warnings():
    # a log-energy column near 800 drives exp(-z) past the float range, where
    # the activation is exactly 0.0; no RuntimeWarning may escape
    rng = np.random.default_rng(5)
    feats = np.column_stack([rng.normal(size=20), 800.0 + rng.normal(size=20)])
    data = Dataset(feats, np.arange(20) % 2, ("a", "b"))
    init = mlp_init((2, 4, 2), seed=5)
    assert np.any(feats @ init.weights[0] + init.biases[0] < -710.0)
    trainer = mlp_trainer((2, 4, 2), eta=0.5, epochs=3, seed=5)
    assert len(kfold_cv(data, trainer, folds=2, seed=1).fold_accuracies) == 2
    assert trainer(data)(feats).shape == (20,)


def test_saturated_sigmoid_in_library_calls_without_warnings():
    # mlp_predict and mlp_gradients called on their own, outside training
    # and the predictors mlp_trainer returns
    model = mlp_init((2, 4, 2), seed=5)
    x = [0.0, 800.0]
    assert np.any(np.asarray(x) @ model.weights[0] + model.biases[0] < -710.0)
    out = mlp_predict(model, x)
    assert out.shape == (2,) and np.all(np.isfinite(out))
    grads_w, grads_b = mlp_gradients(model, x, [1.0, 0.0])
    assert all(np.all(np.isfinite(g)) for g in grads_w + grads_b)


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def test_fold_aggregation_example():
    mean, var, sigma = cv_aggregate([90.0, 87.0, 86.0, 89.0, 90.0])
    assert abs(mean - 88.4) < 1e-12
    assert abs(var - 3.3) < 1e-12
    assert abs(sigma - math.sqrt(3.3)) < 1e-12


def test_folds_partition_index_set():
    data = two_blobs(n_per=17, seed=6)
    folds = kfold_indices(data.labels, 5, seed=1)
    flat = np.concatenate(folds)
    assert len(flat) == len(data)
    assert len(np.unique(flat)) == len(data)


def test_perfect_classifier_scores_100():
    data = two_blobs(n_per=20, seed=7)
    result = kfold_cv(data, knn_trainer(3), folds=5, seed=3)
    assert result.fold_accuracies == [100.0] * 5
    assert result.mean == 100.0
    assert result.sigma == 0.0


def test_stratification_error():
    feats = np.random.default_rng(0).normal(size=(7, 2))
    labels = np.array([0, 0, 0, 0, 0, 1, 1])  # class 1 smaller than fold count
    data = Dataset(feats, labels, ("a", "b"))
    with pytest.raises(StratificationError, match="^class 'b' has 2 members; needs >= 5$"):
        kfold_cv(data, knn_trainer(1), folds=5)
    # on bare integer labels the class is its label
    with pytest.raises(StratificationError, match="^class 1 has 2 members; needs >= 5$"):
        kfold_indices(labels, 5)


def test_mlp_trainer_in_cv_runs():
    data = two_blobs(n_per=10, seed=8)
    result = kfold_cv(data, mlp_trainer((2, 4, 2), eta=0.5, epochs=60), folds=2, seed=4)
    assert len(result.fold_accuracies) == 2


@pytest.mark.parametrize("folds", [5, LOCKSTEP_FOLDS + 3])
def test_lockstep_cv_equals_fold_by_fold_cv(folds):
    data = two_blobs(n_per=16, seed=9)
    data.features[::3] *= -1.0   # overlap the blobs so folds score differently
    trainer = mlp_trainer(None, eta=0.5, epochs=8, seed=2)
    calls = []

    def one_fold(train):   # no fit_folds attribute: the per-fold path
        calls.append(len(train))
        return trainer(train)

    lockstep = kfold_cv(data, trainer, folds=folds, seed=6)
    fold_by_fold = kfold_cv(data, one_fold, folds=folds, seed=6)
    assert len(calls) == folds
    assert lockstep == fold_by_fold


def test_huge_fold_count_fails_before_allocating_folds():
    data = two_blobs(n_per=10, seed=8)
    tracemalloc.start()
    try:
        with pytest.raises(StratificationError, match="class 'a' has 10 members; needs >= 2000000"):
            kfold_cv(data, knn_trainer(1), folds=2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


# ---------------------------------------------------------------------------
# confusion matrix and accuracies
# ---------------------------------------------------------------------------

def test_individual_class_accuracy_rows():
    printed = [
        ((99, 39, 38, 360), 85.63, 2),
        ((90, 48, 6, 389), 89.86, 2),
        ((128, 10, 33, 381), 92.2, 1),
        ((106, 32, 52, 362), 84.7, 1),
    ]
    for counts, expected, decimals in printed:
        acc_pct = 100.0 * accuracy_from_counts(*counts)
        assert abs(truncate_percent(acc_pct, decimals) - expected) <= 0.01


def test_all_correct_predictions():
    preds = [0, 1, 2, 0, 1, 2]
    cm, per_class, error = confusion_and_accuracy(preds, preds, 3)
    assert np.array_equal(np.diag(cm.counts), [2, 2, 2])
    assert cm.counts.sum() == np.trace(cm.counts)
    assert np.all(per_class == 1.0)
    assert error == 0.0


def test_error_complements_trace():
    truths = [0, 0, 1, 1, 2, 2]
    preds = [0, 1, 1, 1, 0, 2]
    cm, _, error = confusion_and_accuracy(preds, truths, 3)
    assert error == pytest.approx(1.0 - np.trace(cm.counts) / cm.counts.sum())


def test_confusion_counts_match_the_per_sample_loop():
    rng = np.random.default_rng(12)
    for n_classes in (2, 5):
        truths = rng.integers(0, n_classes, size=200)
        preds = rng.integers(0, n_classes, size=200)
        expected = np.zeros((n_classes, n_classes), dtype=int)
        for t, p in zip(truths, preds):
            expected[t, p] += 1
        cm, _, _ = confusion_and_accuracy(preds, truths, n_classes)
        assert cm.counts.dtype == expected.dtype
        assert np.array_equal(cm.counts, expected)


def test_label_out_of_range():
    with pytest.raises(ValueError):
        confusion_and_accuracy([0, 3], [0, 1], 3)


# ---------------------------------------------------------------------------
# biometric metrics
# ---------------------------------------------------------------------------

KMEAN_CM = np.array([
    [17, 0, 2, 1],
    [0, 17, 3, 0],
    [1, 2, 15, 2],
    [0, 1, 0, 19],
])
ANN_CM = np.array([
    [20, 0, 0, 0],
    [1, 19, 0, 0],
    [1, 1, 18, 0],
    [2, 0, 1, 17],
])


def test_kmean_table_rates():
    m = biometric_metrics(ConfusionMatrix(KMEAN_CM))
    assert 100.0 * m.tar == pytest.approx(85.00, abs=0.01)
    assert 100.0 * m.far == pytest.approx(14.79, abs=0.01)


def test_ann_table_rates():
    m = biometric_metrics(ConfusionMatrix(ANN_CM))
    assert 100.0 * m.tar == pytest.approx(92.50, abs=0.01)
    assert 100.0 * m.far == pytest.approx(6.73, abs=0.01)


def test_perfect_diagonal():
    m = biometric_metrics(ConfusionMatrix(np.eye(4, dtype=int) * 10))
    assert m.tar == 1.0
    assert m.far == 0.0


def test_tar_plus_frr_is_one_exactly():
    m = biometric_metrics(ConfusionMatrix(KMEAN_CM))
    assert np.all(m.per_class_tar + m.per_class_frr == 1.0)


def test_zero_row_is_undefined():
    cm = ConfusionMatrix(np.array([[5, 0], [0, 0]]))
    with pytest.raises(UndefinedClassError):
        biometric_metrics(cm)


# ---------------------------------------------------------------------------
# ANOVA
# ---------------------------------------------------------------------------

def test_identical_groups():
    res = anova_single_factor([[5.0, 5.0, 5.0], [5.0, 5.0, 5.0]])
    assert res.f == 0.0
    assert res.p == 1.0


def test_recomputation_from_group_summaries():
    res = anova_from_summary([5, 5], [79.0, 86.8], [6.5, 3.3])
    assert res.ss_between == pytest.approx(152.1, abs=1e-9)
    assert res.ss_within == pytest.approx(39.2, abs=1e-9)
    assert res.df_between == 1
    assert res.df_within == 8
    assert res.f == pytest.approx(31.04, abs=0.01)
    assert 0.0 < res.p < 0.01


def test_two_group_f_equals_pooled_t_squared():
    g1 = [79.2, 80.1, 76.5, 81.0, 78.2]
    g2 = [86.0, 88.1, 85.2, 87.9, 86.8]
    res = anova_single_factor([g1, g2])
    n1, n2 = len(g1), len(g2)
    m1, m2 = np.mean(g1), np.mean(g2)
    sp2 = ((n1 - 1) * np.var(g1, ddof=1) + (n2 - 1) * np.var(g2, ddof=1)) / (n1 + n2 - 2)
    t = (m1 - m2) / math.sqrt(sp2 * (1 / n1 + 1 / n2))
    assert res.f == pytest.approx(t * t, rel=1e-12)


@pytest.mark.parametrize("d1", range(1, 6))
def test_f_survival_matches_scipy_fdtrc(d1):
    # F from 1e-6 to 1e6: survivals from just below 1 down to about 1e-170
    fs = np.geomspace(1e-6, 1e6, 97)
    for d2 in range(2, 60):
        want = special.fdtrc(d1, d2, fs)
        got = np.array([f_survival(d1, d2, float(f)) for f in fs])
        assert np.all(np.abs(got - want) <= 1e-12 * want), d2
        assert f_survival(d1, d2, 0.0) == 1.0 == special.fdtrc(d1, d2, 0.0)
        assert f_survival(d1, d2, math.inf) == 0.0 == special.fdtrc(d1, d2, math.inf)


def test_report_writes_an_infinite_f_as_null_and_a_finite_f_whole():
    # groups with no spread of their own that differ: F is infinite
    spread_free = anova_single_factor([[50.0, 50.0], [100.0, 100.0]])
    assert spread_free.f == math.inf
    assert spread_free.as_dict()["F"] is None and spread_free.as_dict()["p"] == 0.0
    finite = anova_single_factor([[79.2, 80.1, 76.5], [86.0, 88.1, 85.2]])
    assert finite.as_dict()["F"] == finite.f and math.isfinite(finite.f)


def test_anova_preconditions():
    with pytest.raises(ValueError):
        anova_single_factor([[1.0, 2.0]])
    with pytest.raises(ValueError):
        anova_single_factor([[1.0], [2.0, 3.0]])


# ---------------------------------------------------------------------------
# dataset CSV
# ---------------------------------------------------------------------------

def test_dataset_csv_roundtrip(tmp_path):
    data = two_blobs(n_per=5)
    path = tmp_path / "d.csv"
    names = [data.class_names[lab] for lab in data.labels]
    write_rows(path, "f0,f1,label", "%.6f,%.6f,%s",
               [(*row, name) for row, name in zip(data.features.tolist(), names)])
    again = Dataset.from_csv(path)
    assert again.class_names == data.class_names
    assert np.array_equal(again.labels, data.labels)
    # each feature comes back as the float its six-decimal text spells
    assert again.features.tolist() == [[float("%.6f" % v) for v in row]
                                       for row in data.features.tolist()]
    assert np.max(np.abs(again.features - data.features)) <= 5e-7


def test_dataset_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1\n1,2\n")
    with pytest.raises(ValueError, match="label"):
        Dataset.from_csv(path)
    path.write_text("f0,label\nx,a\n")
    with pytest.raises(ValueError, match="line 2"):
        Dataset.from_csv(path)
