"""Built-in probabilistic base learners: a CART-style tree and discrete AdaBoost.

The classifier contract used across the package: `fit(X, y, sample_weight=None)`
returning self, `predict_proba(X)` returning the positive-class probability
per row (a scalar for a single 1-D row), and an `n_features_in_` attribute set
by fit. Any object honoring it can serve as an ensemble base learner.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DecisionTreeClassifier",
    "AdaBoostClassifier",
    "LearnerSpec",
    "LEARNER_REGISTRY",
    "learner_to_doc",
    "learner_from_doc",
]

# Stage weight assigned on a perfect round: 0.5 * ln(1e10).
_PERFECT_ROUND_ODDS = 1e10


# A tree node document holding any of these keys is a split node.
_SPLIT_KEYS = frozenset(("feature", "threshold", "left", "right"))


def _doc_field(doc, key, what, convert=None):
    """doc[key], passed through `convert`; a missing or bad field raises ValueError."""
    try:
        value = doc[key]
        return value if convert is None else convert(value)
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"malformed {what} document: missing or invalid {key!r}") from err


def _check_finite(X):
    finite = np.isfinite(X)
    if not finite.all():
        row, col = (int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(
            f"feature values must be finite: row {row}, column {col} holds {X[row, col]}"
        )


def _check_training_inputs(X, y, sample_weight):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be a 2-D matrix, got ndim={X.ndim}")
    if X.shape[0] == 0:
        raise ValueError("training data must be nonempty")
    _check_finite(X)
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise ValueError(f"y must have shape ({X.shape[0]},), got {y.shape}")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    y = y.astype(np.int64)
    if sample_weight is None:
        w = np.ones(X.shape[0], dtype=np.float64)
    else:
        w = np.asarray(sample_weight, dtype=np.float64)
        if w.shape != (X.shape[0],):
            raise ValueError(f"sample_weight must have shape ({X.shape[0]},)")
        if (w < 0).any() or not np.isfinite(w).all():
            raise ValueError("sample weights must be nonnegative finite reals")
        if w.sum() <= 0:
            raise ValueError("sample weights must not all be zero")
    return X, y, w


def _check_predict_input(X, n_features, fitted):
    if not fitted:
        raise ValueError("model has not been fitted")
    X = np.asarray(X, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[np.newaxis, :]
    if X.ndim != 2:
        raise ValueError(f"expected a feature row or matrix, got ndim={X.ndim}")
    if X.shape[1] != n_features:
        raise ValueError(f"model expects {n_features} features, got {X.shape[1]}")
    _check_finite(X)
    return X, single


class DecisionTreeClassifier:
    """Binary classification tree grown by greedy weighted-Gini splits.

    Candidate thresholds are midpoints between consecutive distinct sorted
    feature values. A split is accepted only if it strictly beats
    min_impurity_decrease; ties go to the lowest feature index, then the
    lowest threshold, so training is fully deterministic. Leaves predict the
    weighted positive fraction of their training samples.

    A fitted tree is held as parallel per-node lists in preorder, the order
    of its JSON document: `feature_` and `threshold_` (-1 and 0.0 at a leaf),
    `left_` and `right_` (child node ids, -1 at a leaf; a split node's left
    child is the next node), and `probability_` and `count_` (a leaf's
    weighted positive fraction and training row count, 0.0 and 0 at a split
    node). They hold what the document holds, no more, so a tree read back
    from its document has the lists it was fitted with.
    """

    def __init__(self, max_depth=10, min_samples_split=2, min_impurity_decrease=0.0):
        if max_depth is not None:
            max_depth = int(max_depth)
            if max_depth < 1:
                raise ValueError(f"max_depth must be >= 1 or None, got {max_depth}")
        min_samples_split = int(min_samples_split)
        if min_samples_split < 1:
            raise ValueError(f"min_samples_split must be >= 1, got {min_samples_split}")
        min_impurity_decrease = float(min_impurity_decrease)
        if min_impurity_decrease < 0:
            raise ValueError("min_impurity_decrease must be nonnegative")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_impurity_decrease = min_impurity_decrease
        self.feature_ = self.threshold_ = self.left_ = self.right_ = None
        self.probability_ = self.count_ = None
        self.n_features_in_ = None

    @staticmethod
    def _gini(w_pos, w_total):
        p = w_pos / w_total
        return 1.0 - p * p - (1.0 - p) * (1.0 - p)

    def _best_split(self, X, y, w, rows, parent_gini):
        """(decrease, feature, threshold) of the best split, or None."""
        w_rows = w[rows]
        y_rows = y[rows]
        w_total = w_rows.sum()
        w_pos_total = w_rows[y_rows == 1].sum()
        best = None
        best_gain = self.min_impurity_decrease
        for f in range(X.shape[1]):
            col = X[rows, f]
            order = np.argsort(col, kind="stable")
            sv = col[order]
            cuts = np.flatnonzero(sv[:-1] != sv[1:])
            if cuts.size == 0:
                continue
            sw = w_rows[order]
            swp = sw * y_rows[order]
            cum_w = np.cumsum(sw)[cuts]
            cum_wp = np.cumsum(swp)[cuts]
            right_w = w_total - cum_w
            right_wp = w_pos_total - cum_wp
            valid = (cum_w > 0) & (right_w > 0)
            if not valid.any():
                continue
            with np.errstate(invalid="ignore", divide="ignore"):
                pl = cum_wp / cum_w
                pr = right_wp / right_w
                child = (
                    cum_w * (1.0 - pl * pl - (1.0 - pl) * (1.0 - pl))
                    + right_w * (1.0 - pr * pr - (1.0 - pr) * (1.0 - pr))
                ) / w_total
            gain = np.where(valid, parent_gini - child, -np.inf)
            j = int(np.argmax(gain))
            if gain[j] > best_gain:
                best_gain = float(gain[j])
                pos = cuts[j]
                best = (f, (sv[pos] + sv[pos + 1]) / 2.0)
        return None if best is None else (best_gain, best[0], best[1])

    def _reset_nodes(self):
        self.feature_, self.threshold_, self.left_, self.right_ = [], [], [], []
        self.probability_, self.count_ = [], []

    def _add_node(self, feature, threshold, probability, count, right_of):
        """Append a node in preorder and return its id.

        A split node's left child is the node after it, so only a right child
        has to be linked back to its parent (`right_of`, or -1).
        """
        node = len(self.feature_)
        self.feature_.append(feature)
        self.threshold_.append(threshold)
        self.left_.append(-1 if feature < 0 else node + 1)
        self.right_.append(-1)
        self.probability_.append(probability)
        self.count_.append(count)
        if right_of >= 0:
            self.right_[right_of] = node
        return node

    def fit(self, X, y, sample_weight=None):
        X, y, w = _check_training_inputs(X, y, sample_weight)
        self.n_features_in_ = X.shape[1]
        self._reset_nodes()
        # Depth-first worklist of (rows, depth, parent id if a right child);
        # popping the left child first lays the nodes out in preorder.
        work = [(np.arange(X.shape[0]), 0, -1)]
        while work:
            rows, depth, right_of = work.pop()
            w_rows = w[rows]
            w_total = w_rows.sum()
            w_pos = w_rows[y[rows] == 1].sum()
            stop = (
                (self.max_depth is not None and depth >= self.max_depth)
                or rows.size < self.min_samples_split
                or w_pos == 0.0
                or w_pos == w_total
            )
            found = None if stop else self._best_split(X, y, w, rows, self._gini(w_pos, w_total))
            if found is None:
                self._add_node(-1, 0.0, float(w_pos / w_total), int(rows.size), right_of)
                continue
            _, feature, threshold = found
            node = self._add_node(feature, float(threshold), 0.0, 0, right_of)
            goes_left = X[rows, feature] <= threshold
            work.append((rows[~goes_left], depth + 1, node))
            work.append((rows[goes_left], depth + 1, -1))
        return self

    def predict_proba(self, X):
        X, single = _check_predict_input(X, self.n_features_in_, self.feature_ is not None)
        out = np.empty(X.shape[0], dtype=np.float64)
        # One contiguous array per feature makes each node's gather a 1-D take.
        columns = X.T.copy()
        feature, threshold, left, right = self.feature_, self.threshold_, self.left_, self.right_
        probability = self.probability_
        # Worklist of (node id, rows that reach it); no empty row set is pushed.
        work = [(0, np.arange(X.shape[0]))]
        while work:
            node, rows = work.pop()
            f = feature[node]
            if f < 0:
                out[rows] = probability[node]
                continue
            goes_left = columns[f][rows] <= threshold[node]
            left_rows = rows[goes_left]
            if left_rows.size:
                work.append((left[node], left_rows))
            if left_rows.size < rows.size:
                work.append((right[node], rows[~goes_left]))
        return float(out[0]) if single else out

    def to_json_doc(self):
        if self.feature_ is None:
            raise ValueError("cannot serialize an unfitted tree")
        # Children follow their parent in preorder, so walking the nodes
        # backwards finds both child documents already built.
        docs = [None] * len(self.feature_)
        for node in range(len(docs) - 1, -1, -1):
            feature = self.feature_[node]
            if feature < 0:
                docs[node] = {"probability": self.probability_[node], "count": self.count_[node]}
            else:
                docs[node] = {
                    "feature": feature,
                    "threshold": self.threshold_[node],
                    "left": docs[self.left_[node]],
                    "right": docs[self.right_[node]],
                }
        return {
            "kind": "tree",
            "params": {
                "max_depth": self.max_depth,
                "min_samples_split": self.min_samples_split,
                "min_impurity_decrease": self.min_impurity_decrease,
            },
            "n_features": self.n_features_in_,
            "root": docs[0],
        }

    @classmethod
    def from_json_doc(cls, doc):
        if _doc_field(doc, "kind", "tree") != "tree":
            raise ValueError(f"expected a tree document, got kind={doc.get('kind')!r}")
        model = _doc_field(doc, "params", "tree", lambda params: cls(**params))
        model.n_features_in_ = _doc_field(doc, "n_features", "tree", int)
        model._reset_nodes()
        n_features = model.n_features_in_
        # Preorder walk of the nested nodes: (node document, parent id if a
        # right child).
        work = [(_doc_field(doc, "root", "tree"), -1)]
        try:
            while work:
                node_doc, right_of = work.pop()
                if not isinstance(node_doc, dict):
                    raise ValueError(f"node {node_doc!r} is not an object")
                if _SPLIT_KEYS.isdisjoint(node_doc):
                    model._add_node(-1, 0.0, float(node_doc["probability"]),
                                    int(node_doc["count"]), right_of)
                    continue
                feature = int(node_doc["feature"])
                if not 0 <= feature < n_features:
                    raise ValueError(f"feature {feature} outside [0, {n_features})")
                node = model._add_node(feature, float(node_doc["threshold"]), 0.0, 0, right_of)
                work.append((node_doc["right"], node))
                work.append((node_doc["left"], -1))
        except KeyError as err:
            raise ValueError(f"malformed tree document: a node has no {err} field") from err
        except (TypeError, ValueError) as err:
            raise ValueError(f"malformed tree document: {err}") from err
        return model


class AdaBoostClassifier:
    """Discrete two-class AdaBoost over depth-limited trees.

    Each round fits a weak tree on the current sample weights, scores its
    weighted error, and multiplies misclassified weights by exp(stage weight)
    with stage weight = learning_rate * 0.5 * ln((1 - err) / err). A round
    with err >= 0.5 ends boosting early; a perfect round gets the capped
    stage weight 0.5 * ln(1e10) and boosting continues. Probabilities come
    from the stage-weight-normalized vote margin m in [-1, 1] mapped through
    1 / (1 + exp(-2 m)).
    """

    def __init__(self, n_estimators=10, weak_learner_depth=1, learning_rate=1.0):
        n_estimators = int(n_estimators)
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        weak_learner_depth = int(weak_learner_depth)
        if weak_learner_depth < 1:
            raise ValueError(f"weak_learner_depth must be >= 1, got {weak_learner_depth}")
        learning_rate = float(learning_rate)
        if not learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.n_estimators = n_estimators
        self.weak_learner_depth = weak_learner_depth
        self.learning_rate = learning_rate
        self.stages_ = None
        self.errors_ = None
        self.sample_weight_ = None
        self.n_features_in_ = None

    def fit(self, X, y, sample_weight=None):
        X, y, w = _check_training_inputs(X, y, sample_weight)
        if not (y == 1).any() or not (y == 0).any():
            raise ValueError("boosting requires both classes in the training data")
        w = w / w.sum()
        stages = []
        errors = []
        for _ in range(self.n_estimators):
            weak = DecisionTreeClassifier(max_depth=self.weak_learner_depth)
            weak.fit(X, y, sample_weight=w)
            predicted = weak.predict_proba(X) >= 0.5
            miss = predicted != (y == 1)
            err = float(w[miss].sum())
            if err >= 0.5:
                break
            if err == 0.0:
                stage_weight = self.learning_rate * 0.5 * math.log(_PERFECT_ROUND_ODDS)
            else:
                stage_weight = self.learning_rate * 0.5 * math.log((1.0 - err) / err)
            stages.append((stage_weight, weak))
            errors.append(err)
            if miss.any():
                w = w.copy()
                w[miss] *= math.exp(stage_weight)
                w = w / w.sum()
        self.stages_ = stages
        self.errors_ = errors
        self.sample_weight_ = w
        self.n_features_in_ = X.shape[1]
        return self

    def decision_margin(self, X):
        """Stage-weight-normalized vote in [-1, 1]; 0 for an empty vote."""
        X, single = _check_predict_input(X, self.n_features_in_, self.stages_ is not None)
        margin = np.zeros(X.shape[0], dtype=np.float64)
        total = 0.0
        for stage_weight, weak in self.stages_:
            vote = np.where(weak.predict_proba(X) >= 0.5, 1.0, -1.0)
            margin += stage_weight * vote
            total += stage_weight
        if total > 0:
            margin /= total
        return float(margin[0]) if single else margin

    def predict_proba(self, X):
        margin = self.decision_margin(X)
        if isinstance(margin, np.ndarray):
            return 1.0 / (1.0 + np.exp(-2.0 * margin))
        return 1.0 / (1.0 + math.exp(-2.0 * margin))

    def to_json_doc(self):
        if self.stages_ is None:
            raise ValueError("cannot serialize an unfitted booster")
        return {
            "kind": "adaboost",
            "params": {
                "n_estimators": self.n_estimators,
                "weak_learner_depth": self.weak_learner_depth,
                "learning_rate": self.learning_rate,
            },
            "n_features": self.n_features_in_,
            "stages": [
                {"weight": weight, "tree": weak.to_json_doc()}
                for weight, weak in self.stages_
            ],
        }

    @classmethod
    def from_json_doc(cls, doc):
        if _doc_field(doc, "kind", "adaboost") != "adaboost":
            raise ValueError(
                f"expected an adaboost document, got kind={doc.get('kind')!r}"
            )
        model = _doc_field(doc, "params", "adaboost", lambda params: cls(**params))
        model.n_features_in_ = _doc_field(doc, "n_features", "adaboost", int)
        model.stages_ = [
            (
                _doc_field(stage, "weight", "adaboost stage", float),
                DecisionTreeClassifier.from_json_doc(_doc_field(stage, "tree", "adaboost stage")),
            )
            for stage in _doc_field(doc, "stages", "adaboost", list)
        ]
        model.errors_ = None
        model.sample_weight_ = None
        return model


LEARNER_REGISTRY = {
    "tree": DecisionTreeClassifier,
    "adaboost": AdaBoostClassifier,
}


@dataclass(frozen=True)
class LearnerSpec:
    """Named base-learner recipe resolvable through LEARNER_REGISTRY."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in LEARNER_REGISTRY:
            valid = " | ".join(sorted(LEARNER_REGISTRY))
            raise ValueError(f"unknown base learner {self.name!r}; valid: {valid}")

    def create(self):
        return LEARNER_REGISTRY[self.name](**self.params)


def learner_to_doc(model):
    """Serialize any learner exposing to_json_doc."""
    to_doc = getattr(model, "to_json_doc", None)
    if to_doc is None:
        raise ValueError(
            f"{type(model).__name__} does not support JSON serialization "
            f"(no to_json_doc method)"
        )
    return to_doc()


def learner_from_doc(doc):
    """Rebuild a learner from its JSON document, dispatching on doc["kind"]."""
    kind = _doc_field(doc, "kind", "learner")
    if not isinstance(kind, str) or kind not in LEARNER_REGISTRY:
        raise ValueError(f"unknown learner document kind {kind!r}")
    return LEARNER_REGISTRY[kind].from_json_doc(doc)
