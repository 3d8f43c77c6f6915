"""Binary recursive partitioning regression tree with cost-complexity pruning.

Growth is greedy least-squares: each node takes the (variable, threshold)
pair minimizing total child SSE, with candidate thresholds at midpoints of
consecutive distinct sorted values.  Routing sends x <= threshold left.
Pruning produces the nested weakest-link subtree sequence; each subtree's
out-of-sample cost is estimated by seeded k-fold cross-validation and the
minimum-cost subtree is selected regardless of size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import finite_data, is_finite_number
from .report import write_csv

_SSE_EPS = 1e-12
_PAD_RATIO = 2


@dataclass
class TreeNode:
    """Internal node (two children) or leaf; every node keeps its training stats."""

    prediction: float          # mean of targets routed here
    sample_count: int
    sse: float                 # SSE of this node as a leaf
    split_variable: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_dict(self) -> dict:
        d = {
            "prediction": self.prediction,
            "sample_count": self.sample_count,
            "sse": self.sse,
        }
        if not self.is_leaf:
            d.update(
                split_variable=self.split_variable,
                threshold=self.threshold,
                left=self.left.to_dict(),
                right=self.right.to_dict(),
            )
        return d

    @classmethod
    def from_dict(cls, d: dict, n_inputs: int) -> "TreeNode":
        """The tree a `to_dict` body describes; ValueError names a malformed node field."""
        if not isinstance(d, dict):
            raise ValueError(f"cart tree node is {d!r}, not an object")

        def need(name, ok, want="a finite number"):
            if not ok:
                raise ValueError(f"cart tree {name} is {d[name]!r}, not {want}")

        need("prediction", is_finite_number(d["prediction"]))
        need("sample_count", type(d["sample_count"]) is int and d["sample_count"] >= 0,
             "a non-negative integer")
        need("sse", is_finite_number(d["sse"]))
        node = cls(d["prediction"], d["sample_count"], d["sse"])
        if "split_variable" in d:
            var = d["split_variable"]
            need("split_variable", type(var) is int and 0 <= var < n_inputs,
                 f"an integer in [0, {n_inputs})")
            need("threshold", is_finite_number(d["threshold"]))
            node.split_variable, node.threshold = var, d["threshold"]
            node.left = cls.from_dict(d["left"], n_inputs)
            node.right = cls.from_dict(d["right"], n_inputs)
        return node


def _node_stats(y) -> tuple[float, float]:
    """(mean, SSE) summed in sorted order, so sample order cannot leak in."""
    ys = np.sort(y)
    mean = float(ys.sum() / ys.shape[0])
    return mean, float(np.sum((ys - mean) ** 2))


def _level_splits(X, y, rank, groups, min_leaf):
    """(SSE, variable, threshold) of the best split of every node in `groups`.

    `groups` holds each open node's sample indices (nodes of one depth), `rank[j]` every sample's
    position in (x_j, y) order.  Per variable, the nodes' samples are laid out
    as one padded (nodes, width) array, each row sorted by (x, y) and padded
    with x = inf, y = 0: `cumsum` along a row is sequential, so a row's sums
    carry the same bits as a lone node's.  The node totals keep numpy's
    pairwise `sum` and the BLAS dot per node, which padding would reorder.
    A split keeps each side >= min_leaf samples and falls between distinct x;
    ties go to the lowest variable, then the lowest threshold.  A node with
    no allowed split gets variable -1.
    """
    n, d = X.shape
    sizes = np.array([g.shape[0] for g in groups])
    m, width = sizes.shape[0], int(sizes.max())
    samples = np.concatenate(groups)
    owner = np.repeat(np.arange(m), sizes)
    col = np.arange(samples.shape[0]) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    order = samples[np.argsort(owner * n + rank[:, samples], axis=1)]  # (d, samples)
    xs = np.full((d, m, width), np.inf)
    xs[:, owner, col] = X[order, np.arange(d)[:, None]]
    ys = np.zeros((d, m, width))
    ys[:, owner, col] = y[order]
    cs = np.cumsum(ys, axis=2)[..., :-1]
    cs2 = np.cumsum(ys * ys, axis=2)[..., :-1]
    targets = [y[g] for g in groups]
    total1 = np.array([t.sum() for t in targets])[:, None]
    total2 = np.array([t @ t for t in targets])[:, None]
    i = np.arange(1, width)  # left child takes the first i sorted samples
    size = sizes[:, None]
    valid = (i >= min_leaf) & (i <= size - min_leaf) & (xs[..., :-1] < xs[..., 1:])
    with np.errstate(divide="ignore", invalid="ignore"):  # padding past a row's end
        left = cs2 - cs ** 2 / i
        right = (total2 - cs2) - (total1 - cs) ** 2 / (size - i)
    totals = np.where(valid, left + right, np.inf)
    k = np.argmin(totals, axis=2)  # first minimum = lowest threshold
    k_sse = np.take_along_axis(totals, k[..., None], axis=2)[..., 0]
    k_any = valid.any(axis=2)
    best = np.full(m, np.nan)
    var = np.full(m, -1)
    at = np.zeros(m, dtype=int)
    for j in range(d):  # a later variable must be strictly better
        take = k_any[j] & ((var < 0) | (k_sse[j] < best))
        best[take], var[take], at[take] = k_sse[j][take], j, k[j][take]
    rows = np.arange(m)
    threshold = 0.5 * (xs[var, rows, at] + xs[var, rows, at + 1])
    return zip(best.tolist(), var.tolist(), threshold.tolist())


def _padded_runs(sizes):
    """(start, stop) runs over descending node sizes, each padded to its first
    size with at most _PAD_RATIO cells per sample, so a depth of one large node
    and many small ones costs memory in proportion to its samples."""
    start = 0
    while start < len(sizes):
        stop, total = start, 0
        while stop < len(sizes) and (
                (stop + 1 - start) * sizes[start] <= _PAD_RATIO * (total + sizes[stop])):
            total += sizes[stop]
            stop += 1
        yield start, stop
        start = stop


def grow(X, y, min_leaf: int = 5) -> TreeNode:
    """Greedy least-squares tree, grown one depth at a time.

    A node stays a leaf on zero SSE, on fewer than 2 * min_leaf samples, or
    when no split lowers its SSE.  The open nodes of a depth are searched
    together, widest first, in a few numpy passes (`_level_splits`).  Each
    node's split depends only on its own samples, so the tree is the one
    depth-first growth would build.
    """
    X, y = finite_data(X, y)
    if X.ndim == 1:
        X = X[:, None]
    if y.shape[0] == 0:
        raise ValueError("grow needs at least one sample")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be >= 1, got {min_leaf}")
    n, d = X.shape
    rank = np.empty((d, n), dtype=int)
    for j in range(d):
        # value-keyed, so sample order cannot matter
        rank[j, np.lexsort((y, X[:, j]))] = np.arange(n)

    def node(idx):
        mean, sse = _node_stats(y[idx])
        return TreeNode(mean, int(idx.shape[0]), sse)

    root_idx = np.arange(n)
    root = node(root_idx)
    level = [(root, root_idx)]
    while level:
        level = [(t, idx) for t, idx in level
                 if not (idx.shape[0] < 2 * min_leaf or t.sse <= _SSE_EPS)]
        level.sort(key=lambda item: item[1].shape[0], reverse=True)
        found = []
        for start, stop in _padded_runs([idx.shape[0] for _, idx in level]):
            found += _level_splits(X, y, rank, [idx for _, idx in level[start:stop]], min_leaf)
        children = []
        for (t, idx), (sse, var, thr) in zip(level, found):
            if var < 0 or sse >= t.sse - _SSE_EPS:
                continue
            mask = X[idx, var] <= thr
            left, right = idx[mask], idx[~mask]  # ascending, the node totals' summation order
            t.split_variable, t.threshold = var, thr
            t.left, t.right = node(left), node(right)
            children += [(t.left, left), (t.right, right)]
        level = children
    return root


def predict_batch(tree: TreeNode, X) -> np.ndarray:
    """Predictions for the rows of X; a 1-D X is one row.

    The first call flattens the tree and keeps the flat form on its root,
    outside the dataclass fields, so a tree must not change once it has
    predicted.  Every row then moves down one level per step (`_PruneView.path`).
    """
    view = getattr(tree, "_view", None)
    if view is None:
        view = tree._view = _PruneView(tree)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] < view.n_inputs:
        raise ValueError(f"X has {X.shape[1]} columns; the tree splits on {view.n_inputs}")
    for at in view.path(X):
        pass
    return view.prediction.take(at)


def count_leaves(tree: TreeNode) -> int:
    if tree.is_leaf:
        return 1
    return count_leaves(tree.left) + count_leaves(tree.right)


# ---------------------------------------------------------------------------
# the flat form: prediction and cost-complexity pruning
# ---------------------------------------------------------------------------

class _PruneView:
    """A tree flattened in preorder, for prediction and non-destructive
    weakest-link pruning.

    Node i's subtree is the index range [i, end[i]), and a parent's index is
    below its children's.  Routing reads per-slot arrays: node i owns slots 2i
    and 2i + 1, which both hold its `var`, `threshold` and `prediction`;
    `child[2i + 1]` is its left child's slot and `child[2i]` its right
    child's, so `x <= threshold` adds the 1, and a leaf is its own child.  The
    view keeps the nodes' field values, not the nodes, so a root can hold its
    own view without a reference cycle.  Nodes are never detached; a
    collapsed node records in `dead_alpha` the critical alpha at which it
    turned into a leaf, so the subtree at any penalty can be rebuilt
    (`snapshot`) or evaluated (`predict_pruned`) afterwards.
    """

    def __init__(self, root: TreeNode):
        self.stats: list[tuple] = []  # (prediction, sample_count, sse)
        self.split: list[tuple] = []  # (split_variable, threshold); (0, 0.0) for a leaf
        self.parent: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.end: list[int] = []
        self.depth = self.n_inputs = 0

        def walk(node, parent, level):
            i = len(self.stats)
            self.stats.append((node.prediction, node.sample_count, node.sse))
            self.split.append((0, 0.0))
            self.parent.append(parent)
            self.left.append(i)
            self.right.append(i)
            self.end.append(-1)
            self.depth = max(self.depth, level)
            if not node.is_leaf:
                self.split[i] = (node.split_variable, node.threshold)
                self.n_inputs = max(self.n_inputs, node.split_variable + 1)
                self.left[i] = walk(node.left, i, level + 1)
                self.right[i] = walk(node.right, i, level + 1)
            self.end[i] = len(self.stats)
            return i

        walk(root, -1, 0)
        var, threshold = zip(*self.split)
        self.var = np.repeat(np.array(var, dtype=np.intp), 2)
        self.threshold = np.repeat(np.array(threshold, dtype=float), 2)
        self.prediction = np.repeat(np.array([s[0] for s in self.stats], dtype=float), 2)
        self.child = 2 * np.column_stack((self.right, self.left)).ravel()
        self.dead_alpha = np.full(len(self.stats), np.inf)

    def path(self, X):
        """Each row's slot (twice its node) at depth 0, 1, ..., `depth` of the full
        tree, as a generator of index arrays; a row that reaches a leaf stays on
        it.  NaN compares false, so it goes right."""
        n, d = X.shape
        x = X.ravel()
        at = np.zeros(n, dtype=np.intp)
        yield at
        if n > 1:  # a one-row batch reads from offset 0
            offset = np.arange(n) * d
        for _ in range(self.depth):
            col = self.var.take(at)
            if n > 1:
                col += offset
            at = self.child.take(at + (x.take(col) <= self.threshold.take(at)))
            yield at

    def alphas(self) -> tuple[list[float], list[int]]:
        """Critical alphas, strictly increasing from 0 for the full tree, and the
        surviving subtree's leaf count at each.

        `g` holds every live link's weakest-link value, with inf for leaves,
        collapsed nodes and everything under them, so a collapse clears its
        subtree with one slice.  `leaves` and `sse` hold each node's live leaf
        count and leaf SSE, summed as left + right exactly as a fresh walk
        would, so a collapse refreshes only the collapsed nodes' ancestors.
        """
        left, right = self.left, self.right
        own = [s[2] for s in self.stats]  # each node's SSE as a leaf
        leaves = [1] * len(own)
        sse = list(own)
        g = np.full(len(own), np.inf)

        def refresh(i):
            leaves[i], sse[i] = leaves[left[i]] + leaves[right[i]], sse[left[i]] + sse[right[i]]
            g[i] = (own[i] - sse[i]) / (leaves[i] - 1)

        for i in reversed(range(len(own))):  # children before parents
            if left[i] != i:
                refresh(i)
        seq, counts = [0.0], [leaves[0]]
        while g[0] < np.inf:  # the root is still an internal node
            g_min = g.min()
            alpha = float(max(g_min, np.nextafter(seq[-1], np.inf)))  # strictly increasing
            # collapse every minimal link, absorbing follow-ups that fall to the
            # same level so recorded alphas stay strictly increasing
            while hit := (g <= g_min + _SSE_EPS).nonzero()[0].tolist():
                for i in hit:  # a collapse, then a walk up its live ancestors
                    self.dead_alpha[i] = alpha
                    g[i:self.end[i]] = np.inf
                    leaves[i], sse[i] = 1, own[i]
                    p = self.parent[i]
                    while p >= 0 and g[p] < np.inf:
                        refresh(p)
                        p = self.parent[p]
            seq.append(alpha)
            counts.append(leaves[0])
        return seq, counts

    def snapshot(self, alpha: float) -> TreeNode:
        """New nodes for the subtree surviving at penalty alpha."""

        def walk(i):
            if self.left[i] == i or self.dead_alpha[i] <= alpha:
                return TreeNode(*self.stats[i])
            return TreeNode(*self.stats[i], *self.split[i], walk(self.left[i]), walk(self.right[i]))

        return walk(0)

    def predict_pruned(self, X, penalties) -> np.ndarray:
        """(len(penalties), n) predictions of the subtree surviving at each penalty.

        A sample takes the prediction of the shallowest node on its path that
        has collapsed at that penalty, or of its leaf when none has.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        penalties = np.asarray(penalties, dtype=float)[:, None]
        chosen = np.full((penalties.shape[0], X.shape[0]), -1)  # shallowest collapsed slot met
        for at in self.path(X):
            chosen = np.where((chosen < 0) & (self.dead_alpha[at >> 1] <= penalties), at, chosen)
        return self.prediction[np.where(chosen < 0, at, chosen)]


class PrunedEntry:
    """One subtree of the weakest-link sequence: its critical alpha, the tree,
    its leaf count and its cross-validated cost.

    `tree` may also be the `_PruneView` the subtree survives in at `alpha`;
    the entry then builds the tree the first time `.tree` is read, so a ladder
    shares one view instead of holding a copy of the tree per entry.
    """

    def __init__(self, alpha: float, tree, terminal_count: int,
                 cv_cost: float = float("nan")):
        self.alpha, self.terminal_count, self.cv_cost = alpha, terminal_count, cv_cost
        self._tree = tree

    @property
    def tree(self) -> TreeNode:
        if isinstance(self._tree, _PruneView):
            self._tree = self._tree.snapshot(self.alpha)
        return self._tree


def prune_sequence(tree: TreeNode, X, y, folds: int = 10, seed: int = 0,
                   min_leaf: int = 5) -> list[PrunedEntry]:
    """Weakest-link sequence with cross-validated cost per subtree.

    Fold assignment is seeded.  Each fold grows its own tree and its own
    alpha ladder; the master sequence is scored at the geometric mean of
    consecutive master alphas (the conventional representative value).
    cv_cost is held-out mean squared error.  Non-finite or mismatched (X, y),
    fewer than two samples (no fold split can hold any out), or `folds`
    outside [2, samples] is a ValueError, raised before any fold is grown.
    """
    X, y = finite_data(X, y)
    n = y.shape[0]
    if n < 2:
        raise ValueError(f"cross-validated pruning needs at least 2 samples, got {n}")
    if not 2 <= folds <= n:
        raise ValueError(f"folds must be in [2, {n}] for {n} samples, got {folds}")
    if X.ndim == 1:
        X = X[:, None]
    view = _PruneView(tree)
    alphas, counts = view.alphas()
    reps = [
        float(np.sqrt(alphas[k] * alphas[k + 1])) if k + 1 < len(alphas) else alphas[k]
        for k in range(len(alphas))
    ]
    assignment = np.random.default_rng(seed).permutation(n) % folds
    cv_sse = np.zeros(len(alphas))
    for f in range(folds):
        test = assignment == f
        fold_view = _PruneView(grow(X[~test], y[~test], min_leaf=min_leaf))
        fold_view.alphas()
        sq = (fold_view.predict_pruned(X[test], reps) - y[test]) ** 2
        cv_sse += np.cumsum(sq, axis=1)[:, -1]  # summed in sample order
    return [PrunedEntry(alpha, view, count, float(cost / n))
            for alpha, count, cost in zip(alphas, counts, cv_sse)]


def select_min_cost(sequence: list[PrunedEntry]) -> TreeNode:
    """Subtree with minimal cross-validated cost; ties go to the smaller tree."""
    if not sequence:
        raise ValueError("pruned sequence is empty")
    best = min(sequence, key=lambda e: (e.cv_cost, e.terminal_count))
    return best.tree


def write_relative_error_csv(path, sequence: list[PrunedEntry]) -> None:
    """Pruning curve: cv cost per subtree, normalized by the root-only tree's cost."""
    root_cost = sequence[-1].cv_cost
    write_csv(path, ["terminal_nodes", "alpha", "cv_cost", "relative_error"],
              ([e.terminal_count, repr(e.alpha), repr(e.cv_cost),
                repr(e.cv_cost / root_cost if root_cost > 0 else float("nan"))] for e in sequence))
