"""Reference decision tree: the per-node split search, and a predict that
splits each node's row set in two.

These are the fit and the predict `DecisionTreeClassifier` used before it
grew and scored level by level. They are kept as oracles: for the same
inputs the library's fit must lay out the same nodes, and its predict must
give the same scores, bit for bit.
"""
from collections import deque

import numpy as np

from selfpaced.learners import (
    DecisionTreeClassifier,
    _check_predict_input,
    _check_training_inputs,
)


def reference_predict_proba(tree, X):
    """Score rows of `tree` with a worklist of (node, rows that reach it)."""
    X, single = _check_predict_input(X, tree.n_features_in_, tree.feature_ is not None)
    out = np.empty(X.shape[0], dtype=np.float64)
    columns = X.T.copy()
    work = [(0, np.arange(X.shape[0]))]
    while work:
        node, rows = work.pop()
        f = tree.feature_[node]
        if f < 0:
            out[rows] = tree.value_[node]
            continue
        goes_left = columns[f][rows] <= tree.value_[node]
        left_rows = rows[goes_left]
        if left_rows.size:
            work.append((tree.children_[node], left_rows))
        if left_rows.size < rows.size:
            work.append((tree.children_[node] + 1, rows[~goes_left]))
    return float(out[0]) if single else out


class ReferenceTree(DecisionTreeClassifier):
    """A tree fitted one node at a time, each node sorting its own rows."""

    predict_proba = reference_predict_proba

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
            # A cut must leave a row of positive weight on each side.
            valid = (cum_w > 0) & (right_w > 0) & (cuts < np.flatnonzero(sw > 0)[-1])
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
                lower, upper = sv[cuts[j]], sv[cuts[j] + 1]
                with np.errstate(over="ignore"):
                    middle = (lower + upper) / 2.0
                best = (f, middle if lower <= middle < upper else lower)
        return None if best is None else (best_gain, best[0], best[1])

    def fit(self, X, y, sample_weight=None):
        X, y, w = _check_training_inputs(X, y, sample_weight)
        self.n_features_in_ = X.shape[1]
        nodes = ([], [], [], [])
        self.feature_, self.children_, self.value_, self.count_ = nodes
        # First-in first-out queue of (rows, depth): nodes are laid out in
        # breadth-first order, and a node's id is its place in that order.
        work = deque([(np.arange(X.shape[0]), 0)])
        while work:
            rows, depth = work.popleft()
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
                with np.errstate(invalid="ignore", divide="ignore"):
                    probability = float(min(w_pos / w_total, 1.0))
                for node_list, value in zip(nodes, (-1, -1, probability, int(rows.size))):
                    node_list.append(value)
                continue
            _, feature, threshold = found
            # The queued nodes come first, then this node's children.
            first_child = len(self.feature_) + 1 + len(work)
            for node_list, value in zip(nodes, (feature, first_child, float(threshold), 0)):
                node_list.append(value)
            goes_left = X[rows, feature] <= threshold
            work.append((rows[goes_left], depth + 1))
            work.append((rows[~goes_left], depth + 1))
        return self
