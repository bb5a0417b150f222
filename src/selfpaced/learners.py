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

from .core import _non_finite_cell

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


# Rows per block of the batch descent in `DecisionTreeClassifier.predict_proba`.
# On depth-10 trees, 8192 was as fast as or faster than 4096, 16384 and 32768
# rows on 500,000 x 2, 11,000 x 2 and 200,000 x 32 inputs; one block of all
# 500,000 rows took about twice as long.
_DESCENT_BLOCK = 8192

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
    bad = _non_finite_cell(X)
    if bad is not None:
        raise ValueError(
            f"feature values must be finite: row {bad[0]}, column {bad[1]} holds {X[bad]}"
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


def _sums_are_exact(w):
    """True when every sum over a subset of `w` is exact in float64.

    That holds for integer weights below 2**53 in total, such as the unit
    weights of an ensemble member: then a difference of two running sums
    equals a node's own `np.cumsum`, and any order of addition equals the
    pairwise `.sum()`. Other weights, such as AdaBoost's normalized ones,
    are summed node by node in the order a per-node fit would use.
    """
    return bool((w == np.floor(w)).all()) and w.sum() < 2.0 ** 53


def _node_totals(w, y, rows, sizes, exact):
    """Each node's weight and positive-class weight.

    `rows` holds the nodes' rows one segment per node, in row order, so the
    numbers equal `w[r].sum()` and `w[r][y[r] == 1].sum()` of the node's rows.
    """
    ends = np.cumsum(sizes)
    starts = ends - sizes
    w_rows = w[rows]
    positive = y[rows] == 1
    if exact:
        total = np.concatenate(([0.0], np.cumsum(w_rows)))
        pos = np.concatenate(([0.0], np.cumsum(np.where(positive, w_rows, 0.0))))
        return total[ends] - total[starts], pos[ends] - pos[starts]
    total, pos = [], []
    for start, end in zip(starts.tolist(), ends.tolist()):
        total.append(w_rows[start:end].sum())
        pos.append(w_rows[start:end][positive[start:end]].sum())
    return np.array(total), np.array(pos)


def _prefix_at(values, starts, node, cuts, exact):
    """`np.cumsum` of each node's segment of `values`, read at `cuts`.

    Segments start at `starts` and run to the next start; `node` holds the
    segment of each cut.
    """
    if exact:
        running = np.cumsum(values)
        return running[cuts] - np.concatenate(([0.0], running))[starts][node]
    ends = np.append(starts[1:], values.size)
    return np.concatenate([
        np.cumsum(values[start:end]) for start, end in zip(starts.tolist(), ends.tolist())
    ])[cuts]


def _keys(n_rows, n_keys):
    """A key of -1 per row, in the narrowest signed type that holds n_keys - 1.

    Stable sorts of keys up to 16 bits wide run as numpy's radix sort.
    """
    return np.full(n_rows, -1, dtype=np.min_scalar_type(-n_keys))


def _regroup(rows, key):
    """The rows whose key is nonnegative, stably sorted by key."""
    keys = key[rows]
    kept = keys >= 0
    return rows[kept][np.argsort(keys[kept], kind="stable")]


class DecisionTreeClassifier:
    """Binary classification tree grown by greedy weighted-Gini splits.

    Candidate thresholds are midpoints between consecutive distinct sorted
    feature values, or the lower value where the midpoint rounds up to the
    upper one or overflows. A split is accepted only if it strictly beats
    min_impurity_decrease; ties go to the lowest feature index, then the
    lowest threshold, so training is fully deterministic. Leaves predict the
    weighted positive fraction of their training samples.

    The tree grows one depth at a time. Each feature is sorted once per fit,
    and one pass per feature and depth scores every cut of every open node.
    The nodes, thresholds and leaf values equal, bit for bit, those of a
    search that sorts each node's rows on its own.

    A fitted tree is held as parallel per-node lists in breadth-first order,
    the order the fit creates its nodes in: `feature_` and `threshold_` (-1
    and 0.0 at a leaf), `children_` (a split node's left child c, whose right
    sibling is c + 1; -1 at a leaf), and `probability_` and `count_` (a
    leaf's weighted positive fraction and training row count, 0.0 and 0 at a
    split node). They hold what the JSON document holds, no more, so a tree
    read back from its document has the lists it was fitted with.

    A batch of rows descends the tree one level at a time over node arrays
    built from the lists; a single row walks the lists.
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
        self.feature_ = self.threshold_ = self.children_ = None
        self.probability_ = self.count_ = None
        self._descent = None
        self.n_features_in_ = None

    def _best_splits(self, columns, by_value, w, wy, sizes, w_total, w_pos, exact):
        """Best (feature, threshold) of each open node, feature -1 for none.

        `by_value[f]` holds the open nodes' rows, one segment per node in
        `sizes`, ordered by feature f's value and then by row index. One pass
        per feature scores every cut of every node, as a per-node search
        over the node's own sorted rows would.
        """
        ends = np.cumsum(sizes)
        starts = ends - sizes
        node_of = np.repeat(np.arange(sizes.size), sizes)
        # Neighbouring positions in one node: a cut can fall between them.
        same_node = np.ones(ends[-1] - 1, dtype=bool)
        same_node[ends[:-1] - 1] = False
        p = w_pos / w_total
        parent_gini = 1.0 - p * p - (1.0 - p) * (1.0 - p)
        best_gain = np.full(sizes.size, self.min_impurity_decrease)
        best_feature = np.full(sizes.size, -1)
        best_threshold = np.zeros(sizes.size)
        for f, rows in enumerate(by_value):
            values = columns[f][rows]
            cuts = np.flatnonzero((values[:-1] != values[1:]) & same_node)
            if cuts.size == 0:
                continue
            node = node_of[cuts]
            left_w = _prefix_at(w[rows], starts, node, cuts, exact)
            left_wp = _prefix_at(wy[rows], starts, node, cuts, exact)
            total = w_total[node]
            right_w = total - left_w
            right_wp = w_pos[node] - left_wp
            valid = (left_w > 0) & (right_w > 0)
            with np.errstate(invalid="ignore", divide="ignore"):
                pl = left_wp / left_w
                pr = right_wp / right_w
                child = (
                    left_w * (1.0 - pl * pl - (1.0 - pl) * (1.0 - pl))
                    + right_w * (1.0 - pr * pr - (1.0 - pr) * (1.0 - pr))
                ) / total
            gain = np.where(valid, parent_gini[node] - child, -np.inf)
            # Per node with cuts: its first cut, its top gain (NaN if any cut
            # has NaN, as argmax would pick), and whether the top strictly
            # beats the best of the lower features.
            first = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
            top = np.maximum.reduceat(gain, first)
            better = top > best_gain[node[first]]
            if not better.any():
                continue
            n_cuts = np.diff(np.append(first, cuts.size))
            hit = np.flatnonzero((gain == np.repeat(top, n_cuts)) & np.repeat(better, n_cuts))
            # The first cut at the top of each node, the one argmax picks.
            hit_node = node[hit]
            j = hit[np.concatenate(([True], hit_node[1:] != hit_node[:-1]))]
            winner = node[j]
            best_gain[winner] = gain[j]
            best_feature[winner] = f
            lower, upper = values[cuts[j]], values[cuts[j] + 1]
            with np.errstate(over="ignore"):
                middle = (lower + upper) / 2.0
            # A midpoint that rounds up to the upper value, or overflows, would
            # send every row to one side; the lower value splits as the cut does.
            best_threshold[winner] = np.where(
                (lower <= middle) & (middle < upper), middle, lower
            )
        return best_feature, best_threshold

    def fit(self, X, y, sample_weight=None):
        X, y, w = _check_training_inputs(X, y, sample_weight)
        n_rows = X.shape[0]
        self.n_features_in_ = X.shape[1]
        exact = _sums_are_exact(w)
        wy = w * y
        columns = X.T.copy()
        # The tree grows one depth at a time. The nodes of a depth own one
        # segment each, in node order, of `by_row` (their rows in row order)
        # and of each `by_value[f]` (their rows by feature f's value, ties by
        # row index). A node's rows thus sit as a per-node stable argsort
        # would put them, and sorting once per fit suffices.
        by_row = np.arange(n_rows)
        by_value = [np.argsort(column, kind="stable") for column in columns]
        # Nodes in breadth-first order; a split node's children are
        # `children[node]` and the node after it.
        feature, threshold, probability, count, children = [-1], [0.0], [0.0], [0], [-1]
        ids = np.zeros(1, dtype=np.int64)  # the nodes of this depth
        sizes = np.array([n_rows])
        depth = 0
        while True:
            w_total, w_pos = _node_totals(w, y, by_row, sizes, exact)
            with np.errstate(invalid="ignore", divide="ignore"):
                leaf_probability = w_pos / w_total
            grow = (sizes >= self.min_samples_split) & (w_pos != 0.0) & (w_pos != w_total)
            if self.max_depth is not None and depth >= self.max_depth:
                grow[:] = False
            split_feature = np.full(ids.size, -1)
            split_threshold = np.zeros(ids.size)
            if grow.any():
                # Drop the rows of the nodes that stop here.
                key = _keys(n_rows, ids.size)
                key[by_row] = np.repeat(np.where(grow, np.cumsum(grow) - 1, -1), sizes)
                by_row = by_row[key[by_row] >= 0]
                by_value = [_regroup(rows, key) for rows in by_value]
                split_feature[grow], split_threshold[grow] = self._best_splits(
                    columns, by_value, w, wy, sizes[grow], w_total[grow], w_pos[grow], exact
                )
            split = split_feature >= 0
            n_split = int(split.sum())
            first_child = len(feature) + 2 * np.arange(n_split)
            for node, value, size in zip(
                ids[~split].tolist(), leaf_probability[~split].tolist(), sizes[~split].tolist()
            ):
                probability[node], count[node] = value, size
            for node, f, t, child in zip(
                ids[split].tolist(), split_feature[split].tolist(),
                split_threshold[split].tolist(), first_child.tolist(),
            ):
                feature[node], threshold[node], children[node] = f, t, child
            if n_split == 0:
                break
            for node_list, blank in zip(
                (feature, threshold, probability, count, children), (-1, 0.0, 0.0, 0, -1)
            ):
                node_list += [blank] * (2 * n_split)
            # Send each row of a split node to its left (even) or right (odd)
            # child; children follow their parents' order.
            node_of = np.repeat(np.flatnonzero(grow), sizes[grow])
            moving = split[node_of]
            rows, node_of = by_row[moving], node_of[moving]
            goes_left = X[rows, split_feature[node_of]] <= split_threshold[node_of]
            key = _keys(n_rows, 2 * n_split)
            key[rows] = 2 * (np.cumsum(split) - 1)[node_of] + ~goes_left
            by_row = _regroup(rows, key)
            sizes = np.bincount(key[rows], minlength=2 * n_split)
            ids = first_child[0] + np.arange(2 * n_split)
            depth += 1
        self.feature_, self.threshold_, self.children_ = feature, threshold, children
        self.probability_, self.count_ = probability, count
        self._build_descent()
        return self

    def _build_descent(self):
        """Build the node arrays that the batch descent of `predict_proba` reads.

        A row at a node moves to `child + 1 - goes_left`. A leaf gets feature
        0, threshold +inf and itself as child, so a row that reaches it goes
        "left" and stays. A NaN threshold, which only a read document can
        hold, sends every row right, as no value is `<= nan`.
        """
        feature = np.array(self.feature_, dtype=np.intp)
        leaf = feature < 0
        threshold = np.array(self.threshold_, dtype=np.float64)
        threshold[leaf] = np.inf
        child = np.array(self.children_, dtype=np.intp)
        child[leaf] = np.flatnonzero(leaf)
        feature[leaf] = 0
        # Breadth-first order: the last node is one of the deepest.
        depth = [0] * feature.size
        for node, first in enumerate(self.children_):
            if first >= 0:
                depth[first] = depth[first + 1] = depth[node] + 1
        probability = np.array(self.probability_, dtype=np.float64)
        self._descent = feature, threshold, child, probability, depth[-1]

    def predict_proba(self, X):
        X, single = _check_predict_input(X, self.n_features_in_, self.feature_ is not None)
        if X.shape[0] == 1:
            # One row costs less as a walk over the lists than as one array
            # pass per level.
            row = X[0].tolist()
            feature, threshold, children = self.feature_, self.threshold_, self.children_
            node = 0
            while feature[node] >= 0:
                child = children[node]
                # Not `>`: no value is <= a NaN threshold, so a row goes right.
                node = child if row[feature[node]] <= threshold[node] else child + 1
            score = self.probability_[node]
            return score if single else np.array([score])
        # Every row descends one level per pass, in blocks of rows; `flat`
        # holds a block row after row, so row i's feature f is at
        # base[i] + f. A row at a leaf stays there.
        feature, threshold, child, probability, depth = self._descent
        n_rows, n_features = X.shape
        out = np.empty(n_rows, dtype=np.float64)
        base = np.arange(0, min(n_rows, _DESCENT_BLOCK) * n_features, n_features)
        for start in range(0, n_rows, _DESCENT_BLOCK):
            flat = X[start:start + _DESCENT_BLOCK].ravel()
            size = min(_DESCENT_BLOCK, n_rows - start)
            offsets = base[:size]
            node = np.zeros(size, dtype=np.intp)
            for _ in range(depth):
                goes_left = flat.take(offsets + feature.take(node)) <= threshold.take(node)
                node = child.take(node) + 1
                node -= goes_left
            out[start:start + size] = probability.take(node)
        return out

    def to_json_doc(self):
        if self.feature_ is None:
            raise ValueError("cannot serialize an unfitted tree")
        # Children follow their parent in breadth-first order, so walking the
        # nodes backwards finds both child documents already built.
        docs = [None] * len(self.feature_)
        for node in range(len(docs) - 1, -1, -1):
            feature = self.feature_[node]
            if feature < 0:
                docs[node] = {"probability": self.probability_[node], "count": self.count_[node]}
            else:
                docs[node] = {
                    "feature": feature,
                    "threshold": self.threshold_[node],
                    "left": docs[self.children_[node]],
                    "right": docs[self.children_[node] + 1],
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
        n_features = model.n_features_in_
        feature, threshold, children, probability, count = [], [], [], [], []
        # The node documents in breadth-first order: node i is queue[i], and
        # a split node appends its children as it is read.
        queue = [_doc_field(doc, "root", "tree")]
        try:
            for node_doc in queue:
                if not isinstance(node_doc, dict):
                    raise ValueError(f"node {node_doc!r} is not an object")
                if _SPLIT_KEYS.isdisjoint(node_doc):
                    feature.append(-1)
                    threshold.append(0.0)
                    children.append(-1)
                    probability.append(float(node_doc["probability"]))
                    count.append(int(node_doc["count"]))
                    continue
                f = int(node_doc["feature"])
                if not 0 <= f < n_features:
                    raise ValueError(f"feature {f} outside [0, {n_features})")
                feature.append(f)
                threshold.append(float(node_doc["threshold"]))
                children.append(len(queue))
                probability.append(0.0)
                count.append(0)
                queue.append(node_doc["left"])
                queue.append(node_doc["right"])
        except KeyError as err:
            raise ValueError(f"malformed tree document: a node has no {err} field") from err
        except (TypeError, ValueError) as err:
            raise ValueError(f"malformed tree document: {err}") from err
        model.feature_, model.threshold_, model.children_ = feature, threshold, children
        model.probability_, model.count_ = probability, count
        model._build_descent()
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
