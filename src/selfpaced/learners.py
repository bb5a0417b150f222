"""Built-in probabilistic base learners: a CART-style tree and discrete AdaBoost.

The classifier contract used across the package: `fit(X, y, sample_weight=None)`
returning self, `predict_proba(X)` returning the positive-class probability
per row (a scalar for a single 1-D row), and an `n_features_in_` attribute set
by fit. Any object honoring it can serve as an ensemble base learner.
The built-in ones, sharing `_BuiltIn`, also score a checked float64 matrix
through a private `_score_rows(X, ranks=None)`, which ensembles and boosters
call without a second check, and fit checked arrays through `_fit(X, y, w)`.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from .core import _ColumnRanks, _check_features, _check_predict_input, _integer, _labels, _number

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


# Rows per block of the batch descent in `_descend`.
# On depth-10 trees, 8192 was as fast as or faster than 4096, 16384 and 32768
# rows on 500,000 x 2, 11,000 x 2 and 200,000 x 32 inputs; one block of all
# 500,000 rows took about twice as long.
_DESCENT_BLOCK = 8192

# A tree scores a batch from shared column ranks through its leaf table (see
# `DecisionTreeClassifier._score_rows`) when the batch has at least
# _TABLE_CELLS rows and the table at most _TABLE_CELLS cells, so that the
# table's build costs less than a descent of the batch. Ten depth-10 spe
# trees with tables of 760 to 16,100 cells scored 65,536 rows in 15-19 ms
# with ranks and table builds, against 42-43 ms by descent; at 16,384 rows,
# the trees of 5,900-16,100 cells broke even (15 against 14 ms). With the
# tables built, 500,000 rows took 69-71 ms against 250-289 ms. Ranks are
# shared only where two or more trees score a matrix: ranking both columns
# of 500,000 x 2 rows took 33 ms, against 25-29 ms for one tree's descent.
_TABLE_CELLS = 1 << 16

# A tree node document holding any of these keys is a split node.
_SPLIT_KEYS = frozenset(("feature", "threshold", "left", "right"))


def _doc_field(doc, key, what, convert=None):
    """doc[key], passed through `convert`; a missing or bad field raises ValueError."""
    try:
        value = doc[key]
        return value if convert is None else convert(value)
    except KeyError as err:
        raise ValueError(f"malformed {what} document: missing {key!r}") from err
    except (TypeError, ValueError) as err:
        raise ValueError(f"malformed {what} document: invalid {key!r}: {err}") from err


def _check_training_inputs(X, y, sample_weight):
    X = np.asarray(X, dtype=np.float64)
    _check_features(X)
    if X.shape[0] == 0:
        raise ValueError("training data must be nonempty")
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise ValueError(f"y must have shape ({X.shape[0]},), got {y.shape}")
    y = _labels(y)
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


def _params(learner):
    """Every constructor parameter of `learner`, in signature order, as it holds it."""
    return {key: getattr(learner, key) for key in inspect.signature(type(learner)).parameters}


class _BuiltIn:
    """The public contract and the document head, shared by the built-in learners.

    A subclass sets `kind`, its document's kind, and holds its algorithm:
    `_fit`, `_score_rows` and the document body (`_doc_body`, `_read_body`).
    A learner is fitted once `_fit` or `from_json_doc` sets `n_features_in_`.
    """

    n_features_in_ = None

    def fit(self, X, y, sample_weight=None):
        return self._fit(*_check_training_inputs(X, y, sample_weight))

    def predict_proba(self, X):
        X, single = _check_predict_input(X, self.n_features_in_, self.n_features_in_ is not None)
        scores = self._score_rows(X)
        return float(scores[0]) if single else scores

    def to_json_doc(self):
        if self.n_features_in_ is None:
            raise ValueError(f"cannot serialize an unfitted {type(self).__name__}")
        return {"kind": self.kind, "params": _params(self), "n_features": self.n_features_in_,
                **self._doc_body()}

    @classmethod
    def from_json_doc(cls, doc):
        kind = _doc_field(doc, "kind", cls.kind)
        if kind != cls.kind:
            raise ValueError(f"{cls.kind} document expected, got kind={kind!r}")
        model = _doc_field(doc, "params", cls.kind, lambda params: cls(**params))
        n_features = _doc_field(doc, "n_features", cls.kind, lambda n: _integer(n, "n_features"))
        model._read_body(doc, n_features)
        model.n_features_in_ = n_features
        return model


class DecisionTreeClassifier(_BuiltIn):
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
    the order the fit creates its nodes in: `feature_` (-1 at a leaf),
    `children_` (a split node's left child c, whose right sibling is c + 1;
    -1 at a leaf), `value_` (a split node's threshold, a leaf's weighted
    positive fraction) and `count_` (a leaf's training row count, 0 at a
    split node). They hold what the JSON document holds, no more, so a tree
    read back from its document has the lists it was fitted with.

    A batch of rows descends the tree one level at a time over node arrays
    built from the lists; a single row walks the lists. A batch whose column
    ranks an ensemble shares looks each row's leaf up in a table instead.
    """

    kind = "tree"

    def __init__(self, max_depth=10, min_samples_split=2, min_impurity_decrease=0.0):
        if max_depth is not None:
            max_depth = _integer(max_depth, "max_depth", 1)
        min_samples_split = _integer(min_samples_split, "min_samples_split", 1)
        min_impurity_decrease = _number(min_impurity_decrease, "min_impurity_decrease")
        if not 0 <= min_impurity_decrease < math.inf:
            raise ValueError("min_impurity_decrease must be nonnegative")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_impurity_decrease = min_impurity_decrease
        self.feature_ = self.children_ = self.value_ = self.count_ = None
        self._descent = self._table = None

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
            if not exact:
                # Summed apart, `total - left_w` can stay above 0 when every row
                # right of the cut weighs 0; the cut would leave a weightless child.
                weighted = np.where(w[rows] > 0, np.arange(rows.size), -1)
                valid &= cuts < np.maximum.reduceat(weighted, starts)[node]
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

    def _fit(self, X, y, w):
        """Fit on checked inputs: a float64 matrix, 0/1 int64 labels and weights."""
        n_rows = X.shape[0]
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
        # Nodes in breadth-first order, appended a depth at a time; a split
        # node's children are `children[node]` and the node after it.
        feature, children, value, count = [], [], [], []
        sizes = np.array([n_rows])  # rows per node of this depth
        depth = 0
        while True:
            w_total, w_pos = _node_totals(w, y, by_row, sizes, exact)
            with np.errstate(invalid="ignore", divide="ignore"):
                # Summed apart from the total, the positive weight can exceed it
                # by an ulp when the weights span many orders of magnitude.
                leaf_probability = np.minimum(w_pos / w_total, 1.0)
            grow = (sizes >= self.min_samples_split) & (w_pos != 0.0) & (w_pos != w_total)
            if self.max_depth is not None and depth >= self.max_depth:
                grow[:] = False
            split_feature = np.full(sizes.size, -1)
            split_threshold = np.zeros(sizes.size)
            if grow.any():
                # Drop the rows of the nodes that stop here.
                key = _keys(n_rows, sizes.size)
                key[by_row] = np.repeat(np.where(grow, np.cumsum(grow) - 1, -1), sizes)
                by_row = by_row[key[by_row] >= 0]
                by_value = [_regroup(rows, key) for rows in by_value]
                split_feature[grow], split_threshold[grow] = self._best_splits(
                    columns, by_value, w, wy, sizes[grow], w_total[grow], w_pos[grow], exact
                )
            split = split_feature >= 0
            n_split = int(split.sum())
            # The next depth's nodes follow this depth's, in their parents' order.
            first_child = len(feature) + sizes.size + 2 * (np.cumsum(split) - 1)
            feature += split_feature.tolist()
            children += np.where(split, first_child, -1).tolist()
            value += np.where(split, split_threshold, leaf_probability).tolist()
            count += np.where(split, 0, sizes).tolist()
            if n_split == 0:
                break
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
            depth += 1
        self.feature_, self.children_, self.value_, self.count_ = feature, children, value, count
        self._build_descent()
        self.n_features_in_ = X.shape[1]
        return self

    def _build_descent(self):
        """Build the node arrays that the batch descent of `_score_rows` reads.

        A row at a node moves to `child + 1 - goes_left`. A leaf gets feature
        0, threshold +inf and itself as child, so a row that reaches it goes
        "left" and stays. A NaN threshold, which only a read document can
        hold, sends every row right, as no value is `<= nan`.
        """
        feature = np.array(self.feature_, dtype=np.intp)
        leaf = feature < 0
        value = np.array(self.value_, dtype=np.float64)
        threshold = np.where(leaf, np.inf, value)
        child = np.array(self.children_, dtype=np.intp)
        child[leaf] = np.flatnonzero(leaf)
        feature[leaf] = 0
        # Breadth-first order: the last node is one of the deepest.
        depth = [0] * feature.size
        for node, first in enumerate(self.children_):
            if first >= 0:
                depth[first] = depth[first + 1] = depth[node] + 1
        self._descent = feature, threshold, child, value, depth[-1]
        self._table = None

    def _score_rows(self, X, ranks=None):
        """Scores of a checked matrix; `ranks`, if given, is a `_ColumnRanks` of X."""
        if X.shape[0] == 1:
            # One row costs less as a walk over the lists than as one array
            # pass per level.
            row = X[0].tolist()
            feature, children, value = self.feature_, self.children_, self.value_
            node = 0
            while feature[node] >= 0:
                child = children[node]
                # Not `>`: no value is <= a NaN threshold, so a row goes right.
                node = child if row[feature[node]] <= value[node] else child + 1
            return np.array([value[node]])
        table = None if ranks is None or X.shape[0] < _TABLE_CELLS else self._leaf_table()
        if table is None:
            return _descend(X, *self._descent)
        # A row's code on feature f is the number of the tree's f-cuts below
        # its value: in a block, rows at sorted positions below
        # searchsorted(values, cut[j], "right") are <= cut[j]. Its leaf sits
        # in the table cell at the sum of its codes times their strides.
        # A cell number is below _TABLE_CELLS, so it fits 16 bits.
        used, cuts, strides, leaf = table
        columns = [ranks.column(f) for f in used]
        levels = [(np.arange(cut.size + 1) * stride).astype(np.uint16)
                  for cut, stride in zip(cuts, strides)]
        out = np.empty(X.shape[0], dtype=np.float64)
        for block, (start, stop) in enumerate(ranks.blocks):
            index = np.zeros(stop - start, dtype=np.uint16)
            for column, cut, level in zip(columns, cuts, levels):
                values, rank = column[block]
                bounds = np.searchsorted(values, cut, side="right")
                code = np.repeat(level, np.diff(bounds, prepend=0, append=values.size))
                index += code.take(rank)
            out[start:stop] = leaf[index]
        return out

    def _leaf_table(self):
        """(features, cuts, strides, leaf probability per cell) of the leaf
        table, or None when it would hold more than _TABLE_CELLS cells.

        A cell holds one combination of a code per feature. A feature's cuts
        are its distinct non-NaN thresholds; no value is <= NaN, so a NaN
        threshold needs no code to decide. Planned and built on first use and
        kept on the tree, outside its document; an over-cap tree keeps only
        the plan.
        """
        if self._table is None:
            feature = np.array(self.feature_)
            value = np.array(self.value_)
            used = np.unique(feature[feature >= 0]).tolist()
            cuts = [np.unique(value[(feature == f) & ~np.isnan(value)]) for f in used]
            shape = [cut.size + 1 for cut in cuts]
            strides = [math.prod(shape[axis + 1:]) for axis in range(len(shape))]
            cells, leaf = math.prod(shape), None
            if cells <= _TABLE_CELLS:
                # Cell c is decided as its representative row decides: on each
                # feature, the cut its code names, or +inf past the last cut.
                # Every value with that code falls on the same side of every cut.
                grid = np.empty((cells, len(used)))
                axes = np.meshgrid(*(np.append(cut, np.inf) for cut in cuts), indexing="ij")
                for axis, values in enumerate(axes):
                    grid[:, axis] = values.ravel()
                feature, threshold, child, value, depth = self._descent
                leaf = _descend(grid, np.searchsorted(used, feature), threshold, child,
                                value, depth)
            self._table = used, cuts, strides, cells, leaf
        used, cuts, strides, _, leaf = self._table
        return None if leaf is None else (used, cuts, strides, leaf)

    def _doc_body(self):
        # Children follow their parent in breadth-first order, so walking the
        # nodes backwards finds both child documents already built.
        docs = [None] * len(self.feature_)
        for node in range(len(docs) - 1, -1, -1):
            feature = self.feature_[node]
            if feature < 0:
                docs[node] = {"probability": self.value_[node], "count": self.count_[node]}
            else:
                docs[node] = {
                    "feature": feature,
                    "threshold": self.value_[node],
                    "left": docs[self.children_[node]],
                    "right": docs[self.children_[node] + 1],
                }
        return {"root": docs[0]}

    def _read_body(self, doc, n_features):
        feature, children, value, count = nodes = [], [], [], []
        # The node documents in breadth-first order: node i is queue[i], and
        # a split node appends its children as it is read.
        queue = [_doc_field(doc, "root", self.kind)]
        try:
            for node_doc in queue:
                if not isinstance(node_doc, dict):
                    raise ValueError(f"node {node_doc!r} is not an object")
                if _SPLIT_KEYS.isdisjoint(node_doc):
                    probability = float(node_doc["probability"])
                    if not 0.0 <= probability <= 1.0:
                        raise ValueError(f"leaf probability {probability} outside [0, 1]")
                    feature.append(-1)
                    children.append(-1)
                    value.append(probability)
                    count.append(_integer(node_doc["count"], "count", 0))
                    continue
                f = _integer(node_doc["feature"], "feature")
                if not 0 <= f < n_features:
                    raise ValueError(f"feature {f} outside [0, {n_features})")
                feature.append(f)
                children.append(len(queue))
                value.append(float(node_doc["threshold"]))
                count.append(0)
                queue.append(node_doc["left"])
                queue.append(node_doc["right"])
        except KeyError as err:
            raise ValueError(f"malformed tree document: a node has no {err} field") from err
        except (TypeError, ValueError) as err:
            raise ValueError(f"malformed tree document: {err}") from err
        self.feature_, self.children_, self.value_, self.count_ = nodes
        self._build_descent()


def _descend(X, feature, threshold, child, value, depth):
    """Scores of the rows of X, each descending the node arrays one level per pass.

    The rows go in blocks; `flat` holds a block row after row, so row i's
    feature f is at base[i] + f. A row stays at a leaf: its value is the score.
    """
    n_rows, n_features = X.shape
    out = np.empty(n_rows, dtype=np.float64)
    base = np.arange(min(n_rows, _DESCENT_BLOCK)) * n_features
    for start in range(0, n_rows, _DESCENT_BLOCK):
        flat = X[start:start + _DESCENT_BLOCK].ravel()
        size = min(_DESCENT_BLOCK, n_rows - start)
        offsets = base[:size]
        node = np.zeros(size, dtype=np.intp)
        for _ in range(depth):
            goes_left = flat.take(offsets + feature.take(node)) <= threshold.take(node)
            node = child.take(node) + 1
            node -= goes_left
        out[start:start + size] = value.take(node)
    return out


def _stage_weight(value):
    """A document's stage weight: finite and nonnegative, as a fit writes it."""
    weight = float(value)
    if not 0.0 <= weight < math.inf:
        raise ValueError(f"stage weight must be finite and nonnegative, got {weight}")
    return weight


class AdaBoostClassifier(_BuiltIn):
    """Discrete two-class AdaBoost over depth-limited trees.

    Each round fits a weak tree on the current sample weights, scores its
    weighted error, and multiplies misclassified weights by exp(stage weight)
    with stage weight = learning_rate * 0.5 * ln((1 - err) / err). A round
    with err >= 0.5 ends boosting early; a perfect round gets the capped
    stage weight 0.5 * ln(1e10) and boosting continues. Probabilities come
    from the stage-weight-normalized vote margin m in [-1, 1] mapped through
    1 / (1 + exp(-2 m)).
    """

    kind = "adaboost"

    def __init__(self, n_estimators=10, weak_learner_depth=1, learning_rate=1.0):
        n_estimators = _integer(n_estimators, "n_estimators", 1)
        weak_learner_depth = _integer(weak_learner_depth, "weak_learner_depth", 1)
        learning_rate = _number(learning_rate, "learning_rate")
        if not 0 < learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.n_estimators = n_estimators
        self.weak_learner_depth = weak_learner_depth
        self.learning_rate = learning_rate
        self.stages_ = self.errors_ = self.sample_weight_ = None

    def _fit(self, X, y, w):
        if not (y == 1).any() or not (y == 0).any():
            raise ValueError("boosting requires both classes in the training data")
        w = w / w.sum()
        stages = []
        errors = []
        total = 0.0
        for _ in range(self.n_estimators):
            weak = DecisionTreeClassifier(max_depth=self.weak_learner_depth)
            weak._fit(X, y, w)
            predicted = weak._score_rows(X) >= 0.5
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
            # The vote is divided by the stage weights' sum, which must stay
            # finite. The missed rows, err < 0.5 of the weight, are scaled by
            # exp(stage weight), so the weights' new sum is finite if that is.
            total += stage_weight
            if miss.any():
                w = w.copy()
                try:
                    w[miss] *= math.exp(stage_weight)
                except OverflowError:
                    total = math.inf
                w = w / w.sum()
            if not math.isfinite(total):
                raise ValueError(f"learning_rate {self.learning_rate} overflows the boosting "
                                 "weights; use a smaller learning_rate")
        self.stages_ = stages
        self.errors_ = errors
        self.sample_weight_ = w
        self.n_features_in_ = X.shape[1]
        return self

    def decision_margin(self, X):
        """Stage-weight-normalized vote in [-1, 1]; 0 for an empty vote."""
        X, single = _check_predict_input(X, self.n_features_in_, self.n_features_in_ is not None)
        margin = self._margin_rows(X)
        return float(margin[0]) if single else margin

    def _margin_rows(self, X, ranks=None):
        if ranks is None and len(self.stages_) > 1:
            # The weak trees score the same rows, so they share one rank view.
            ranks = _ColumnRanks(X)
        margin = np.zeros(X.shape[0], dtype=np.float64)
        total = 0.0
        for stage_weight, weak in self.stages_:
            vote = np.where(weak._score_rows(X, ranks) >= 0.5, 1.0, -1.0)
            margin += stage_weight * vote
            total += stage_weight
        if total > 0:
            margin /= total
        return margin

    def _score_rows(self, X, ranks=None):
        # The margin takes at most 2**stages distinct values. Each goes
        # through `math.exp`, whose bits do not depend on the SIMD code numpy
        # dispatches to, as `np.exp`'s do.
        margin = self._margin_rows(X, ranks)
        distinct = np.unique(margin)
        table = np.array([1.0 / (1.0 + math.exp(-2.0 * m)) for m in distinct.tolist()])
        return table[np.searchsorted(distinct, margin)]

    def _doc_body(self):
        return {"stages": [{"weight": weight, "tree": weak.to_json_doc()}
                           for weight, weak in self.stages_]}

    def _read_body(self, doc, n_features):
        self.stages_ = [
            (_doc_field(stage, "weight", self.kind, _stage_weight),
             DecisionTreeClassifier.from_json_doc(_doc_field(stage, "tree", self.kind)))
            for stage in _doc_field(doc, "stages", self.kind, list)
        ]


LEARNER_REGISTRY = {cls.kind: cls for cls in (DecisionTreeClassifier, AdaBoostClassifier)}


class _FrozenParams(dict):
    """A dict whose writers raise; it pickles and copies as a fresh one."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a LearnerSpec's params are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class LearnerSpec:
    """Named base-learner recipe resolvable through LEARNER_REGISTRY.

    A spec holds every constructor parameter of its learner, in signature
    order, as the learner it builds holds it: those not given take the
    constructor's default, and `learning_rate=1` is held as 1.0. The params
    are a read-only copy, checked when the spec is made by building one
    learner: an unknown parameter, or a value the learner refuses, raises
    ValueError.
    """

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in LEARNER_REGISTRY:
            valid = " | ".join(sorted(LEARNER_REGISTRY))
            raise ValueError(f"unknown base learner {self.name!r}; valid: {valid}")
        accepted = inspect.signature(LEARNER_REGISTRY[self.name]).parameters
        for key in self.params:
            if key not in accepted:
                raise ValueError(f"base learner {self.name!r} has no parameter {key!r}; "
                                 f"valid: {' | '.join(accepted)}")
        learner = LEARNER_REGISTRY[self.name](**self.params)
        object.__setattr__(self, "params", _FrozenParams(_params(learner)))

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
