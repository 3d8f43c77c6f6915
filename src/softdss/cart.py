"""Binary recursive partitioning regression tree with cost-complexity pruning.

Growth is greedy least-squares: each node takes the (variable, threshold)
pair minimizing total child SSE, with candidate thresholds at midpoints of
consecutive distinct sorted values.  Routing sends x <= threshold left.
Pruning produces the nested weakest-link subtree sequence; each subtree's
out-of-sample cost is estimated by seeded k-fold cross-validation and the
minimum-cost subtree is selected regardless of size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_SSE_EPS = 1e-12


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
    def from_dict(cls, d: dict) -> "TreeNode":
        node = cls(d["prediction"], d["sample_count"], d["sse"])
        if "split_variable" in d:
            node.split_variable = d["split_variable"]
            node.threshold = d["threshold"]
            node.left = cls.from_dict(d["left"])
            node.right = cls.from_dict(d["right"])
        return node


def _clone(node: TreeNode | None) -> TreeNode | None:
    if node is None:
        return None
    return TreeNode(
        node.prediction,
        node.sample_count,
        node.sse,
        node.split_variable,
        node.threshold,
        _clone(node.left),
        _clone(node.right),
    )


def _node_stats(y) -> tuple[float, float]:
    """(mean, SSE) summed in sorted order, so sample order cannot leak in."""
    ys = np.sort(y)
    mean = float(ys.sum() / ys.shape[0])
    return mean, float(np.sum((ys - mean) ** 2))


def _best_split(X, y, min_leaf):
    """Minimal total-child-SSE split, ties to lowest variable then lowest threshold."""
    n = y.shape[0]
    total1, total2 = y.sum(), float(y @ y)
    best = None  # (sse, var, threshold)
    for j in range(X.shape[1]):
        order = np.lexsort((y, X[:, j]))  # value-keyed, so sample order cannot matter
        xs, ys = X[order, j], y[order]
        cs = np.cumsum(ys)
        cs2 = np.cumsum(ys * ys)
        i = np.arange(1, n)  # left child takes the first i sorted samples
        valid = (i >= min_leaf) & (i <= n - min_leaf) & (xs[:-1] < xs[1:])
        if not np.any(valid):
            continue
        left = cs2[:-1] - cs[:-1] ** 2 / i
        right = (total2 - cs2[:-1]) - (total1 - cs[:-1]) ** 2 / (n - i)
        totals = np.where(valid, left + right, np.inf)
        k = int(np.argmin(totals))  # first minimum = lowest threshold
        if best is None or totals[k] < best[0]:
            best = (float(totals[k]), j, 0.5 * (xs[k] + xs[k + 1]))
    return best


def grow(X, y, min_leaf: int = 5) -> TreeNode:
    """Greedy best-first tree; stops on zero SSE, size, or no improving split."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if y.shape[0] == 0:
        raise ValueError("grow needs at least one sample")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be >= 1, got {min_leaf}")

    def build(idx):
        yi = y[idx]
        mean, sse = _node_stats(yi)
        node = TreeNode(mean, int(idx.shape[0]), sse)
        if idx.shape[0] < 2 * min_leaf or node.sse <= _SSE_EPS:
            return node
        found = _best_split(X[idx], yi, min_leaf)
        if found is None or found[0] >= node.sse - _SSE_EPS:
            return node
        _, var, thr = found
        mask = X[idx, var] <= thr
        node.split_variable = var
        node.threshold = thr
        node.left = build(idx[mask])
        node.right = build(idx[~mask])
        return node

    return build(np.arange(y.shape[0]))


def predict_batch(tree: TreeNode, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.empty(X.shape[0])
    stack = [(tree, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.shape[0] == 0:
            continue
        if node.is_leaf:
            out[idx] = node.prediction
        else:
            mask = X[idx, node.split_variable] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
    return out


def count_leaves(tree: TreeNode) -> int:
    if tree.is_leaf:
        return 1
    return count_leaves(tree.left) + count_leaves(tree.right)


def subtree_sse(tree: TreeNode) -> float:
    """Training SSE of the subtree's leaves."""
    if tree.is_leaf:
        return tree.sse
    return subtree_sse(tree.left) + subtree_sse(tree.right)


# ---------------------------------------------------------------------------
# cost-complexity pruning
# ---------------------------------------------------------------------------

@dataclass
class PrunedEntry:
    alpha: float
    tree: TreeNode
    terminal_count: int
    cv_cost: float = field(default=float("nan"))


class _PruneView:
    """Non-destructive weakest-link pruner over a fixed tree.

    Nodes are never detached; a collapsed node records the critical alpha at
    which it turned into a leaf, so the subtree for any penalty level can be
    reconstructed (or just evaluated) afterwards.
    """

    def __init__(self, root: TreeNode):
        self.root = root
        self.dead_alpha: dict[int, float] = {}

    def _is_leaf(self, node):
        return node.is_leaf or id(node) in self.dead_alpha

    def _links(self):
        """(g, node, n_leaves, subtree_sse) for every live internal node, one pass."""
        out = []

        def walk(node):
            if self._is_leaf(node):
                return 1, node.sse
            ll, ls = walk(node.left)
            rl, rs = walk(node.right)
            leaves, sse = ll + rl, ls + rs
            out.append(((node.sse - sse) / (leaves - 1), node))
            return leaves, sse

        walk(self.root)
        return out

    def alphas(self) -> list[float]:
        """Critical alphas, strictly increasing, starting at 0 for the full tree."""
        seq = [0.0]
        while not self._is_leaf(self.root):
            links = self._links()
            g_min = min(g for g, _ in links)
            alpha = float(g_min)
            if alpha <= seq[-1]:  # pathological equality: keep strict ordering
                alpha = float(np.nextafter(seq[-1], np.inf))
            # collapse every minimal link, absorbing follow-ups that fall to the
            # same level so recorded alphas stay strictly increasing
            while True:
                hit = [n for g, n in links if g <= g_min + _SSE_EPS]
                if not hit:
                    break
                for node in hit:
                    self.dead_alpha[id(node)] = alpha
                if self._is_leaf(self.root):
                    break
                links = [(g, n) for g, n in self._links() if g <= g_min + _SSE_EPS]
            seq.append(alpha)
        return seq

    def snapshot(self, alpha: float) -> TreeNode:
        """Deep copy of the subtree surviving at penalty alpha."""

        def walk(node):
            if node.is_leaf or self.dead_alpha.get(id(node), np.inf) <= alpha:
                return TreeNode(node.prediction, node.sample_count, node.sse)
            out = TreeNode(
                node.prediction, node.sample_count, node.sse,
                node.split_variable, node.threshold,
            )
            out.left = walk(node.left)
            out.right = walk(node.right)
            return out

        return walk(self.root)

    def predict_paths(self, X) -> list[list[tuple[float, float]]]:
        """Per sample: the root-to-leaf chain of (collapse_alpha, prediction)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        paths = []
        for x in X:
            chain = []
            node = self.root
            while True:
                chain.append((self.dead_alpha.get(id(node), np.inf), node.prediction))
                if node.is_leaf:
                    break
                node = node.left if x[node.split_variable] <= node.threshold else node.right
            paths.append(chain)
        return paths


def prune_sequence(tree: TreeNode, X, y, folds: int = 10, seed: int = 0,
                   min_leaf: int = 5) -> list[PrunedEntry]:
    """Weakest-link sequence with cross-validated cost per subtree.

    Fold assignment is seeded.  Each fold grows its own tree and its own
    alpha ladder; the master sequence is scored at the geometric mean of
    consecutive master alphas (the conventional representative value).
    cv_cost is held-out mean squared error.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y = np.asarray(y, dtype=float)
    view = _PruneView(tree)
    alphas = view.alphas()
    reps = [
        float(np.sqrt(alphas[k] * alphas[k + 1])) if k + 1 < len(alphas) else alphas[k]
        for k in range(len(alphas))
    ]
    n = y.shape[0]
    folds = max(2, min(folds, n))
    assignment = np.random.default_rng(seed).permutation(n) % folds
    cv_sse = np.zeros(len(alphas))
    for f in range(folds):
        test = assignment == f
        if not np.any(test) or np.all(test):
            continue
        fold_view = _PruneView(grow(X[~test], y[~test], min_leaf=min_leaf))
        fold_view.alphas()
        paths = fold_view.predict_paths(X[test])
        yt = y[test]
        for k, rep in enumerate(reps):
            se = 0.0
            for chain, target in zip(paths, yt):
                for dead, pred in chain:  # shallowest collapsed ancestor wins
                    if dead <= rep:
                        break
                else:
                    pred = chain[-1][1]
                se += (pred - target) ** 2
            cv_sse[k] += se
    entries = []
    for k, alpha in enumerate(alphas):
        snap = view.snapshot(alpha)
        entries.append(PrunedEntry(alpha, snap, count_leaves(snap), cv_sse[k] / n))
    return entries


def select_min_cost(sequence: list[PrunedEntry]) -> TreeNode:
    """Subtree with minimal cross-validated cost; ties go to the smaller tree."""
    if not sequence:
        raise ValueError("pruned sequence is empty")
    best = min(sequence, key=lambda e: (e.cv_cost, e.terminal_count))
    return best.tree


def write_relative_error_csv(path, sequence: list[PrunedEntry]) -> None:
    """Pruning curve: cv cost per subtree, normalized by the root-only tree's cost."""
    import csv

    root_cost = sequence[-1].cv_cost
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["terminal_nodes", "alpha", "cv_cost", "relative_error"])
        for e in sequence:
            rel = e.cv_cost / root_cost if root_cost > 0 else float("nan")
            writer.writerow([e.terminal_count, repr(e.alpha), repr(e.cv_cost), repr(rel)])
