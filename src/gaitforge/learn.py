"""Classification and validation stack.

Small, self-contained learners (KNN, k-means, an MLP trained by per-sample
backpropagation) plus the validation machinery used to score them:
stratified k-fold cross-validation, confusion-matrix accuracies, the
biometric TAR/FAR/FRR rates, and one-way ANOVA. Everything stochastic is
seeded and deterministic.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence

import numpy as np

from .records import Record
from .tables import read_csv


class Dataset(Record):
    """Feature rows (n, d) with integer labels (n,) indexing ``class_names``."""

    __slots__ = ("features", "labels", "class_names")

    def __init__(self, features, labels, class_names: tuple[str, ...]):
        self.features = np.asarray(features, dtype=float)
        self.labels = np.asarray(labels, dtype=int)
        self.class_names = class_names
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise ValueError("features must be (n, d) with one label per row")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= len(self.class_names)
        ):
            raise ValueError("labels must index class_names")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, idx) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], self.class_names)

    @classmethod
    def from_csv(cls, path) -> "Dataset":
        """Feature columns and a final ``label``; classes in order of first
        use. A file with no feature column raises ``ValueError("{path}: line
        1: ...")``."""
        values, names = read_csv(path, ("label",), labelled=True)
        if not values:
            raise ValueError(f"{path}: line 1: expected at least one feature column before 'label'")
        class_names = tuple(dict.fromkeys(names))
        return cls(np.array(values).reshape(len(names), -1),
                   [class_names.index(n) for n in names], class_names)


# ---------------------------------------------------------------------------
# KNN
# ---------------------------------------------------------------------------

def knn_classify(train: Dataset, k: int, query) -> int:
    """Majority vote among the k nearest training rows (Euclidean).

    Vote ties break toward the candidate class with the smallest summed
    distance among those neighbors, then the lowest class id.
    """
    if len(train) == 0:
        raise ValueError("empty training set")
    if not 1 <= k <= len(train):
        raise ValueError(f"k must lie in [1, {len(train)}]")
    q = np.asarray(query, dtype=float)
    dists = np.sqrt(np.sum((train.features - q) ** 2, axis=1))
    order = np.argsort(dists, kind="stable")[:k]
    votes: dict[int, int] = {}
    sums: dict[int, float] = {}
    for i in order:
        lab = int(train.labels[i])
        votes[lab] = votes.get(lab, 0) + 1
        sums[lab] = sums.get(lab, 0.0) + float(dists[i])
    return min(votes, key=lambda lab: (-votes[lab], sums[lab], lab))


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def kmeans(data, k: int, seed: int = 0, return_history: bool = False):
    """Lloyd iterations from a seeded k-means++ start.

    Returns (centroids, assignments), plus the per-iteration SSE when
    ``return_history`` is set. Iteration stops at an assignment fixpoint or
    after 100 rounds; the within-cluster SSE never increases along the way.
    """
    x = np.asarray(data, dtype=float)
    distinct = np.unique(x, axis=0)
    if k > len(distinct):
        raise ValueError(f"k={k} exceeds the {len(distinct)} distinct points")
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centroids = [x[rng.integers(len(x))]]
    while len(centroids) < k:
        d2 = np.min(
            [np.sum((x - c) ** 2, axis=1) for c in centroids], axis=0
        )
        total = d2.sum()
        if total == 0.0:
            # remaining mass sits on already-chosen points; take any new one
            for row in distinct:
                if not any(np.array_equal(row, c) for c in centroids):
                    centroids.append(row)
                    break
            continue
        centroids.append(x[rng.choice(len(x), p=d2 / total)])
    centroids = np.array(centroids)

    assignments = np.full(len(x), -1)
    sse_history = []
    for _ in range(100):
        d = np.linalg.norm(x[:, None, :] - centroids[None, :, :], axis=2)
        new_assign = np.argmin(d, axis=1)
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for j in range(k):
            members = x[assignments == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
        sse_history.append(kmeans_sse(x, centroids, assignments))
    if return_history:
        return centroids, assignments, sse_history
    return centroids, assignments


def kmeans_sse(data, centroids, assignments) -> float:
    x = np.asarray(data, dtype=float)
    return float(sum(
        np.sum((x[assignments == j] - c) ** 2) for j, c in enumerate(centroids)
    ))


# ---------------------------------------------------------------------------
# MLP with per-sample backpropagation
# ---------------------------------------------------------------------------

# Weights and thresholds of all the networks one training loop holds at once
# (80 MB of float64). Lockstep training keeps k networks, so k counts.
MAX_WEIGHTS = 10_000_000


class LayerSizeError(ValueError):
    """The layer sizes do not fit the data, or the networks trained at once
    would hold more than MAX_WEIGHTS numbers."""


def _sigmoid(z):
    # exp(-z) overflows to inf for z below about -709, where the sigmoid is
    # 0.0 with or without the warning; its callers enter np.errstate(over="ignore")
    return 1.0 / (1.0 + np.exp(-z))


class MlpModel(Record):
    """``weights[l]`` has shape (layers[l], layers[l+1])."""

    __slots__ = ("layers", "weights", "biases")

    def __init__(self, layers: tuple[int, ...], weights: list[np.ndarray],
                 biases: list[np.ndarray]):
        for l, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (layers[l], layers[l + 1]) or b.shape != (layers[l + 1],):
                raise ValueError("weight/bias shapes inconsistent with layer sizes")
        self.layers, self.weights, self.biases = layers, weights, biases


def mlp_init(layers: Sequence[int], seed: int = 42) -> MlpModel:
    rng = np.random.default_rng(seed)
    layers = tuple(int(n) for n in layers)
    weights = [rng.uniform(-1.0, 1.0, size=(a, b)) for a, b in zip(layers, layers[1:])]
    biases = [rng.uniform(-1.0, 1.0, size=b) for b in layers[1:]]
    return MlpModel(layers=layers, weights=weights, biases=biases)


# The stacked functions below run k networks side by side: weights[l] is
# (k, a, b), biases[l] is (k, b), and an input or target row per network is
# (k, a). np.matmul of a (1, a) row by an (a, b) matrix, or of a matrix by a
# (b, 1) column, takes the same BLAS gemv call as the 1-d product, and every
# other step is elementwise, so each network's numbers are bit for bit those
# it would get alone. (np.einsum sums in another order and is not.)

def _forward(weights, biases, x) -> list[np.ndarray]:
    activations = [x]
    for w, b in zip(weights, biases):
        activations.append(_sigmoid(np.matmul(activations[-1][:, None, :], w)[:, 0] + b))
    return activations


def _gradients(weights, biases, x, target) -> tuple[list[np.ndarray], list[np.ndarray]]:
    acts = _forward(weights, biases, x)
    # a * (1 - a) is the sigmoid's slope at activation a; regrouping the
    # product changes its rounding and so the trained weights
    delta = (acts[-1] - target) * (acts[-1] * (1.0 - acts[-1]))
    grads_w: list[np.ndarray] = [None] * len(weights)
    grads_b: list[np.ndarray] = [None] * len(biases)
    for l in range(len(weights) - 1, -1, -1):
        grads_w[l] = acts[l][:, :, None] * delta[:, None, :]
        grads_b[l] = delta
        if l > 0:
            delta = np.matmul(weights[l], delta[:, :, None])[:, :, 0] * (acts[l] * (1.0 - acts[l]))
    return grads_w, grads_b


def _stacked(model: MlpModel):
    return [w[None] for w in model.weights], [b[None] for b in model.biases]


def mlp_predict(model: MlpModel, x) -> np.ndarray:
    """Output-layer activations for one input vector; argmax is the class."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.layers[0],):
        raise ValueError(f"expected input of size {model.layers[0]}, got {x.shape}")
    with np.errstate(over="ignore"):
        return _forward(*_stacked(model), x[None])[-1][0]


def mlp_gradients(model: MlpModel, x, target) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of the squared-error cost 0.5*||out - target||^2 for one
    sample, layer by layer: the one-network slice of the gradient that
    training uses."""
    x = np.asarray(x, dtype=float)[None]
    target = np.asarray(target, dtype=float)[None]
    with np.errstate(over="ignore"):
        grads_w, grads_b = _gradients(*_stacked(model), x, target)
    return [g[0] for g in grads_w], [g[0] for g in grads_b]


def mlp_train_lockstep(inputs: Sequence, targets: Sequence, layers: Sequence[int],
                       eta: float, epochs: int, seed: int = 42) -> list[MlpModel]:
    """Per-sample gradient descent of k networks at once, network f on the
    (input, target) pairs ``inputs[f]``, ``targets[f]``.

    Every network starts from ``mlp_init(layers, seed)``. Its weights and
    thresholds move against the gradient after every sample, in data order,
    for ``epochs`` passes; a network with fewer samples sits out the last
    steps of each pass. Each network ends bit for bit where training it
    alone would, so k fold models cost about one loop, not k. Layer sizes
    whose first is not the input width or whose last is not the target
    width, or networks over MAX_WEIGHTS, raise :class:`LayerSizeError`
    before any weight exists.
    """
    if not (math.isfinite(eta) and eta > 0.0):
        raise ValueError(f"learning rate must be finite and positive, got {eta}")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if len(inputs) != len(targets):
        raise ValueError("need one target set per input set")
    xs = [np.asarray(x, dtype=float) for x in inputs]
    ys = [np.asarray(y, dtype=float) for y in targets]
    for x, y in zip(xs, ys):
        if x.ndim != 2 or y.ndim != 2 or len(x) != len(y):
            raise ValueError("inputs and targets must be matching 2-d arrays")
    layers = tuple(int(n) for n in layers)
    if min(layers) < 1:
        raise ValueError(f"layer sizes must be >= 1, got {layers}")
    sizes = ",".join(str(n) for n in layers)
    for x, y in zip(xs, ys):
        if x.shape[1] != layers[0] or y.shape[1] != layers[-1]:
            raise LayerSizeError(f"layer sizes {sizes} do not fit the data's "
                                 f"{x.shape[1]} inputs and {y.shape[1]} outputs")
    k = len(xs)
    count = k * sum(a * b + b for a, b in zip(layers, layers[1:]))
    if count > MAX_WEIGHTS:
        raise LayerSizeError(f"{k} x ({sizes}) networks need {count} weights and "
                             f"thresholds, over the limit of {MAX_WEIGHTS}")

    # longest sets first, so the networks that still have a sample at step
    # i are the first live[i]: a view of the stacks, updated in place
    order = sorted(range(k), key=lambda f: -len(xs[f]))
    sizes = [len(xs[f]) for f in order]
    x = np.zeros((max(sizes, default=0), k, layers[0]))
    y = np.zeros((len(x), k, layers[-1]))
    for j, f in enumerate(order):
        x[:sizes[j], j] = xs[f]
        y[:sizes[j], j] = ys[f]
    live = np.searchsorted(-np.array(sizes), -np.arange(len(x))).tolist()
    init = mlp_init(layers, seed=seed)
    weights = [np.repeat(w[None], k, axis=0) for w in init.weights]
    biases = [np.repeat(b[None], k, axis=0) for b in init.biases]
    views = {m: ([w[:m] for w in weights], [b[:m] for b in biases]) for m in set(live)}
    with np.errstate(over="ignore"):   # see _sigmoid
        for _ in range(epochs):
            for i, m in enumerate(live):
                ws, bs = views[m]
                gw, gb = _gradients(ws, bs, x[i, :m], y[i, :m])
                for l in range(len(ws)):
                    ws[l] -= eta * gw[l]
                    bs[l] -= eta * gb[l]
    models: list[MlpModel] = [None] * k
    for j, f in enumerate(order):
        models[f] = MlpModel(layers, [w[j].copy() for w in weights],
                             [b[j].copy() for b in biases])
    return models


def mlp_train_raw(inputs, targets, layers: Sequence[int], eta: float,
                  epochs: int, seed: int = 42) -> MlpModel:
    """Per-sample gradient descent on raw (input, target) pairs: the
    one-network case of :func:`mlp_train_lockstep`. Deterministic for a
    fixed seed."""
    return mlp_train_lockstep([inputs], [targets], layers, eta, epochs, seed=seed)[0]


def mlp_classify(model: MlpModel, x) -> int:
    return int(np.argmax(mlp_predict(model, x)))


# ---------------------------------------------------------------------------
# Cross validation
# ---------------------------------------------------------------------------

class StratificationError(ValueError):
    """A class has fewer members than the fold count."""


class CvResult(namedtuple("CvResult", "fold_accuracies mean variance sigma")):
    """A cross-validation run: the list of per-fold accuracies in percent,
    and their mean, variance (n-1 denominator) and standard deviation
    ``sigma``, as floats."""

    __slots__ = ()


def cv_aggregate(fold_accuracies: Sequence[float]) -> tuple[float, float, float]:
    """Mean, variance (n-1 denominator) and standard deviation of per-fold
    accuracy estimates."""
    e = np.asarray(fold_accuracies, dtype=float)
    var = float(e.var(ddof=1)) if len(e) > 1 else 0.0
    return float(e.mean()), var, math.sqrt(var)


def kfold_indices(labels, folds: int, seed: int = 42) -> list[np.ndarray]:
    """Stratified fold assignment: per class, a seeded shuffle dealt
    round-robin into folds, so every sample is tested exactly once."""
    labels = np.asarray(labels)
    classes, counts = np.unique(labels, return_counts=True)
    # before any per-fold list exists, so a huge fold count costs nothing
    small = np.nonzero(counts < folds)[0]
    if small.size:
        cls, count = classes[small[0]], counts[small[0]]
        raise StratificationError(f"class {cls} has {count} members; needs >= {folds}")
    rng = np.random.default_rng(seed)
    fold_members: list[list[int]] = [[] for _ in range(folds)]
    for cls in classes:
        idx = np.nonzero(labels == cls)[0]
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            fold_members[pos % folds].append(int(i))
    return [np.array(sorted(m)) for m in fold_members]


# Most fold models kfold_cv trains in one lockstep loop: each holds its own
# copy of the training rows, so this bounds that memory at this many copies.
LOCKSTEP_FOLDS = 10


def kfold_cv(data: Dataset, trainer: Callable[[Dataset], Callable], folds: int = 5,
             seed: int = 42) -> CvResult:
    """k-fold cross-validation of a trainer.

    ``trainer(train_set)`` must return a predictor mapping a feature matrix
    to integer labels. The folds are trained in groups of up to
    LOCKSTEP_FOLDS training sets: a trainer with a ``fit_folds(train_sets)``
    attribute, which returns one predictor per set, gets each group in one
    call; any other trainer is called once per set of the group. Accuracies
    are percentages per fold; the aggregate uses the n-1 variance. A class
    with members but fewer than ``folds`` raises :class:`StratificationError`
    that quotes its name from ``class_names``.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    # kfold_indices would name a too-small class by its label index; name it
    # as the data file spells it
    for name, count in zip(data.class_names, np.bincount(data.labels, minlength=data.n_classes)):
        if 0 < count < folds:
            raise StratificationError(f"class {name!r} has {count} members; needs >= {folds}")
    test_folds = kfold_indices(data.labels, folds, seed=seed)
    all_idx = np.arange(len(data))

    def train_set(test_idx):
        train_mask = np.ones(len(data), dtype=bool)
        train_mask[test_idx] = False
        return data.subset(all_idx[train_mask])

    fit_folds = getattr(trainer, "fit_folds", None) or (lambda sets: [trainer(s) for s in sets])
    groups = [test_folds[g:g + LOCKSTEP_FOLDS] for g in range(0, folds, LOCKSTEP_FOLDS)]
    predictors = (p for group in groups for p in fit_folds([train_set(t) for t in group]))
    accuracies = []
    for test_idx, predict in zip(test_folds, predictors):
        preds = np.asarray(predict(data.features[test_idx]))
        acc = 100.0 * float(np.mean(preds == data.labels[test_idx]))
        accuracies.append(acc)
    mean, var, sigma = cv_aggregate(accuracies)
    return CvResult(fold_accuracies=accuracies, mean=mean, variance=var, sigma=sigma)


def knn_trainer(k: int) -> Callable[[Dataset], Callable]:
    def trainer(train: Dataset):
        def predict(features):
            return np.array([knn_classify(train, k, row) for row in np.atleast_2d(features)])
        return predict
    return trainer


def mlp_trainer(layers: Sequence[int] | None, eta: float, epochs: int,
                seed: int = 42) -> Callable[[Dataset], Callable]:
    """A trainer for :func:`kfold_cv`. Without ``layers`` the network is
    (features, 8, classes). Its ``fit_folds`` attribute trains the models of
    several training sets in one :func:`mlp_train_lockstep` loop, on one-hot
    targets of the dataset's classes; layer sizes that do not fit the data
    raise :class:`LayerSizeError` there."""
    def predictor(model: MlpModel):
        def predict(features):
            return np.array([mlp_classify(model, row) for row in np.atleast_2d(features)])
        return predict

    def fit_folds(train_sets: Sequence[Dataset]) -> list[Callable]:
        first = train_sets[0]
        arch = tuple(int(n) for n in layers or (first.features.shape[1], 8, first.n_classes))
        models = mlp_train_lockstep([t.features for t in train_sets],
                                    [np.eye(t.n_classes)[t.labels] for t in train_sets],
                                    arch, eta, epochs, seed=seed)
        return [predictor(model) for model in models]

    def trainer(train: Dataset):
        return fit_folds([train])[0]

    # a function attribute, so that functools.wraps copies it onto wrappers
    trainer.fit_folds = fit_folds
    return trainer


# ---------------------------------------------------------------------------
# Confusion matrix, accuracies, biometric rates
# ---------------------------------------------------------------------------

class ConfusionMatrix(Record):
    """``counts`` is (K, K); rows true class, columns predicted."""

    __slots__ = ("counts",)

    def __init__(self, counts):
        self.counts = np.asarray(counts, dtype=int)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ValueError("confusion matrix must be square")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def one_vs_rest(self, cls: int) -> tuple[int, int, int, int]:
        tp = int(self.counts[cls, cls])
        fp = int(self.counts[:, cls].sum()) - tp
        fn = int(self.counts[cls, :].sum()) - tp
        tn = self.total - tp - fp - fn
        return tp, fp, fn, tn


def accuracy_from_counts(tp: int, fp: int, fn: int, tn: int) -> float:
    """Per-class accuracy (TP + TN) / (TP + FP + FN + TN), as a fraction."""
    return (tp + tn) / (tp + fp + fn + tn)


def truncate_percent(value_pct: float, decimals: int) -> float:
    """Drop digits past ``decimals`` without rounding.

    The source accuracy tables truncate their percentages (e.g. 84.78 is
    printed as 84.7), so reproducing them needs truncation, not rounding.
    """
    factor = 10.0 ** decimals
    return math.floor(value_pct * factor + 1e-9) / factor


def confusion_and_accuracy(preds, truths, n_classes: int):
    """Confusion matrix, per-class one-vs-rest accuracy, and the overall
    misclassification error (misclassified / total)."""
    preds = np.asarray(preds, dtype=int)
    truths = np.asarray(truths, dtype=int)
    if preds.shape != truths.shape:
        raise ValueError("predictions and truths must have equal length")
    if np.any(preds < 0) or np.any(preds >= n_classes) or np.any(truths < 0) or np.any(truths >= n_classes):
        raise ValueError("label out of range")
    counts = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(counts, (truths, preds), 1)
    cm = ConfusionMatrix(counts)
    per_class = np.array([
        accuracy_from_counts(*cm.one_vs_rest(c)) for c in range(n_classes)
    ])
    error = 1.0 - np.trace(counts) / counts.sum()
    return cm, per_class, float(error)


class UndefinedClassError(ValueError):
    """A class has no test samples, so its acceptance rate is undefined."""


class BiometricMetrics(namedtuple("BiometricMetrics", "per_class_tar per_class_far "
                                                      "per_class_frr tar far frr")):
    """TAR, FAR and FRR per class, as arrays, and their macro averages
    ``tar``, ``far`` and ``frr``, as floats; all are fractions."""

    __slots__ = ()


def biometric_metrics(cm: ConfusionMatrix) -> BiometricMetrics:
    """Verification-style rates from a confusion matrix.

    Per class, TAR is the diagonal over the true-class row total and FAR
    the off-diagonal hits in the predicted-class column over that column's
    total (zero when nothing was predicted as the class). FRR = 1 - TAR
    exactly.
    """
    counts = cm.counts
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    if np.any(row_sums == 0):
        raise UndefinedClassError("a class has no test samples")
    diag = np.diag(counts)
    tar = diag / row_sums
    far = np.where(col_sums > 0, (col_sums - diag) / np.maximum(col_sums, 1), 0.0)
    frr = 1.0 - tar
    return BiometricMetrics(
        per_class_tar=tar, per_class_far=far, per_class_frr=frr,
        tar=float(tar.mean()), far=float(far.mean()), frr=float(frr.mean()),
    )


# ---------------------------------------------------------------------------
# One-way ANOVA
# ---------------------------------------------------------------------------

_LENTZ_TINY = 1e-300      # stands in for a zero Lentz denominator
_CF_EPS = 1e-16           # relative step at which the fraction has converged
_CF_MAX_TERMS = 10_000


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta I_x(a, b),
    by modified Lentz (Numerical Recipes 3rd ed., section 6.4). It
    converges quickly for x < (a + 1) / (a + b + 2)."""
    def nonzero(v):
        return v if abs(v) >= _LENTZ_TINY else _LENTZ_TINY

    c = 1.0
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _CF_MAX_TERMS):
        # the even and then the odd term of the fraction
        for aa in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 / nonzero(1.0 + aa * d)
            c = nonzero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta ({a}, {b}, {x}) did not converge")


def f_survival(d1: float, d2: float, f: float) -> float:
    """P(X > f) for X ~ F(d1, d2), i.e. I_w(d2/2, d1/2) with w = d2/(d2 + d1 f).

    Takes the place of scipy's ``special.fdtrc``: for d1 in 1..5 and d2 in
    2..59 the two agree to about 1.3e-13 relative, far below the six
    decimals an ANOVA report prints. The lgamma prefactor loses digits as
    the degrees of freedom grow (about 1e-9 relative at d2 = 1e6).
    """
    if math.isnan(f) or f < 0.0:
        return math.nan
    if f == 0.0:
        return 1.0
    if math.isinf(d1 * f):
        return 0.0   # below 1e-150 for any d2 >= 1
    a, b = d2 / 2.0, d1 / 2.0
    # w and 1 - w, each without cancellation
    den = d2 + d1 * f
    w, w1 = d2 / den, d1 * f / den
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(w) + b * math.log(w1))
    if w < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, w) / a
    return 1.0 - front * _beta_continued_fraction(b, a, w1) / b


class AnovaResult(namedtuple("AnovaResult", "ss_between ss_within df_between df_within "
                                            "ms_between ms_within f p")):
    """A one-way ANOVA table: the between- and within-group sums of squares,
    degrees of freedom (ints) and mean squares, the statistic ``f`` and its
    p-value ``p``; all but the degrees of freedom are floats."""

    __slots__ = ()

    def as_dict(self) -> dict:
        """The fields by their report names; an infinite F (groups with no
        spread of their own that differ) is None, as JSON has no infinity."""
        return {
            "ss_between": self.ss_between, "ss_within": self.ss_within,
            "df_between": self.df_between, "df_within": self.df_within,
            "ms_between": self.ms_between, "ms_within": self.ms_within,
            "F": self.f if math.isfinite(self.f) else None, "p": self.p,
        }


def _anova_from_moments(ns, means, variances) -> AnovaResult:
    ns = np.asarray(ns, dtype=float)
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    grand = float(np.sum(ns * means) / np.sum(ns))
    ss_between = float(np.sum(ns * (means - grand) ** 2))
    ss_within = float(np.sum((ns - 1.0) * variances))
    df_between = len(ns) - 1
    df_within = int(np.sum(ns)) - len(ns)
    ms_between = ss_between / df_between
    ms_within = ss_within / df_within if df_within > 0 else 0.0
    if ms_within == 0.0:
        if ss_between == 0.0:
            f, p = 0.0, 1.0
        else:
            f, p = math.inf, 0.0
    else:
        f = ms_between / ms_within
        p = f_survival(df_between, df_within, f)
    return AnovaResult(ss_between, ss_within, df_between, df_within,
                       ms_between, ms_within, f, p)


def anova_single_factor(groups: Sequence[Sequence[float]]) -> AnovaResult:
    """Standard one-way variance decomposition over raw groups.

    F compares the between-group to the within-group mean square; its
    p-value comes from the F-distribution survival function. Identical
    groups degenerate to F = 0, p = 1.
    """
    if len(groups) < 2:
        raise ValueError("need at least 2 groups")
    arrays = [np.asarray(g, dtype=float) for g in groups]
    if any(len(g) < 2 for g in arrays):
        raise ValueError("every group needs at least 2 samples")
    ns = [len(g) for g in arrays]
    means = [float(g.mean()) for g in arrays]
    variances = [float(g.var(ddof=1)) for g in arrays]
    return _anova_from_moments(ns, means, variances)


def anova_from_summary(counts: Sequence[int], means: Sequence[float],
                       variances: Sequence[float]) -> AnovaResult:
    """One-way ANOVA from per-group (count, mean, sample variance) rows, for
    when only the group summaries are available."""
    if len(counts) < 2 or not (len(counts) == len(means) == len(variances)):
        raise ValueError("need matching summaries for at least 2 groups")
    return _anova_from_moments(counts, means, variances)
