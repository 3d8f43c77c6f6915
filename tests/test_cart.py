"""Tree growth vs exhaustive split search and the recursive grow, pruning
sequence, selection, routing."""

import numpy as np
import pytest

from softdss import cart, tace
from softdss.bench import BenchConfig
from softdss.cart import (
    TreeNode,
    count_leaves,
    grow,
    predict_batch,
    prune_sequence,
    select_min_cost,
)


def walk_predict(tree, x):
    """Root-to-leaf walk for one sample (test oracle)."""
    node = tree
    while not node.is_leaf:
        node = node.left if x[node.split_variable] <= node.threshold else node.right
    return node.prediction


def brute_force_root_split(X, y, min_leaf):
    """Exhaustive enumeration of every (variable, midpoint threshold) pair."""
    best = None
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        for k in range(values.shape[0] - 1):
            thr = 0.5 * (values[k] + values[k + 1])
            left = X[:, j] <= thr
            nl = int(left.sum())
            if nl < min_leaf or y.shape[0] - nl < min_leaf:
                continue
            sse = float(np.sum((y[left] - y[left].mean()) ** 2)) + float(
                np.sum((y[~left] - y[~left].mean()) ** 2)
            )
            if best is None or sse < best[0] - 1e-12:
                best = (sse, j, thr)
    return best


def grow_recursive_oracle(X, y, min_leaf=5):
    """Depth-first grow with a per-node split search, one node at a time (test oracle).

    Same rules as `grow`: the split minimizing total child SSE over every
    variable's midpoints between consecutive distinct (x, y)-sorted values,
    each side >= min_leaf samples, ties to the lowest variable then the lowest
    threshold; a node stays a leaf on zero SSE, size, or no improving split.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim == 1:
        X = X[:, None]

    def stats(yi):
        ys = np.sort(yi)
        mean = float(ys.sum() / ys.shape[0])
        return mean, float(np.sum((ys - mean) ** 2))

    def best_split(Xi, yi):
        n = yi.shape[0]
        total1, total2 = yi.sum(), float(yi @ yi)
        best = None  # (sse, var, threshold)
        for j in range(Xi.shape[1]):
            order = np.lexsort((yi, Xi[:, j]))
            xs, ys = Xi[order, j], yi[order]
            cs = np.cumsum(ys)
            cs2 = np.cumsum(ys * ys)
            i = np.arange(1, n)  # left child takes the first i sorted samples
            valid = (i >= min_leaf) & (i <= n - min_leaf) & (xs[:-1] < xs[1:])
            if not np.any(valid):
                continue
            left = cs2[:-1] - cs[:-1] ** 2 / i
            right = (total2 - cs2[:-1]) - (total1 - cs[:-1]) ** 2 / (n - i)
            totals = np.where(valid, left + right, np.inf)
            k = int(np.argmin(totals))
            if best is None or totals[k] < best[0]:
                best = (float(totals[k]), j, 0.5 * (xs[k] + xs[k + 1]))
        return best

    def build(idx):
        yi = y[idx]
        mean, sse = stats(yi)
        node = TreeNode(mean, int(idx.shape[0]), sse)
        if idx.shape[0] < 2 * min_leaf or node.sse <= cart._SSE_EPS:
            return node
        found = best_split(X[idx], yi)
        if found is None or found[0] >= node.sse - cart._SSE_EPS:
            return node
        _, var, thr = found
        mask = X[idx, var] <= thr
        node.split_variable = var
        node.threshold = thr
        node.left = build(idx[mask])
        node.right = build(idx[~mask])
        return node

    return build(np.arange(y.shape[0]))


def walk_leaves(node):
    if node.is_leaf:
        yield node
    else:
        yield from walk_leaves(node.left)
        yield from walk_leaves(node.right)


def reference_ladder(root):
    """Weakest-link alphas by a full re-walk of the tree after every collapse (test oracle).

    Returns the alphas and, per collapsed node id, the alpha it collapsed at.
    """
    dead = {}

    def links():
        out = []

        def walk(node):
            if node.is_leaf or id(node) in dead:
                return 1, node.sse
            ll, ls = walk(node.left)
            rl, rs = walk(node.right)
            leaves, sse = ll + rl, ls + rs
            out.append(((node.sse - sse) / (leaves - 1), node))
            return leaves, sse

        walk(root)
        return out

    seq = [0.0]
    while not (root.is_leaf or id(root) in dead):
        current = links()
        g_min = min(g for g, _ in current)
        alpha = g_min if g_min > seq[-1] else float(np.nextafter(seq[-1], np.inf))
        while current:
            for g, node in current:
                if g <= g_min + 1e-12:
                    dead[id(node)] = alpha
            current = [(g, node) for g, node in links() if g <= g_min + 1e-12]
        seq.append(alpha)
    return seq, dead


def cut_tree(node, dead, alpha):
    """`node.to_dict()` with every node `dead` at or below alpha made a leaf (test oracle)."""
    d = {"prediction": node.prediction, "sample_count": node.sample_count, "sse": node.sse}
    if node.is_leaf or dead.get(id(node), np.inf) <= alpha:
        return d
    return {**d, "split_variable": node.split_variable, "threshold": node.threshold,
            "left": cut_tree(node.left, dead, alpha), "right": cut_tree(node.right, dead, alpha)}


def reference_cv_cost(tree, X, y, folds, seed, min_leaf):
    """Cross-validated cost per master alpha, one held-out sample at a time (test oracle)."""
    alphas, _ = reference_ladder(tree)
    reps = [np.sqrt(a * b) for a, b in zip(alphas, alphas[1:])] + [alphas[-1]]
    assignment = np.random.default_rng(seed).permutation(y.shape[0]) % folds
    cv_sse = np.zeros(len(alphas))
    for f in range(folds):
        test = assignment == f
        fold_tree = grow(X[~test], y[~test], min_leaf=min_leaf)
        _, dead = reference_ladder(fold_tree)
        for k, rep in enumerate(reps):
            se = 0.0
            for x, target in zip(X[test], y[test]):
                node = fold_tree
                while not (node.is_leaf or dead.get(id(node), np.inf) <= rep):
                    node = node.left if x[node.split_variable] <= node.threshold else node.right
                se += (node.prediction - target) ** 2
            cv_sse[k] += se
    return alphas, cv_sse / y.shape[0]


class TestGrow:
    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(0).uniform(size=(20, 2))
        tree = grow(X, np.full(20, 3.5), min_leaf=1)
        assert tree.is_leaf
        assert tree.prediction == 3.5

    def test_step_function_one_split(self):
        x = np.linspace(-1, 1, 40)[:, None]
        y = (x[:, 0] >= 0).astype(float)
        tree = grow(x, y, min_leaf=1)
        assert not tree.is_leaf
        assert tree.split_variable == 0
        assert abs(tree.threshold) < 0.05
        assert tree.left.is_leaf and tree.right.is_leaf
        assert tree.left.prediction == 0.0
        assert tree.right.prediction == 1.0

    def test_root_split_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(8, 31))
            X = rng.uniform(size=(n, 2))
            y = rng.uniform(size=n)
            tree = grow(X, y, min_leaf=2)
            oracle = brute_force_root_split(X, y, min_leaf=2)
            if oracle is None:
                assert tree.is_leaf
                continue
            _, var, thr = oracle
            assert tree.split_variable == var
            assert tree.threshold == pytest.approx(thr, abs=1e-12)

    def test_leaf_predictions_are_means(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(200, 3))
        y = rng.uniform(size=200)
        tree = grow(X, y, min_leaf=5)
        preds = predict_batch(tree, X)
        for leaf in walk_leaves(tree):
            members = preds == leaf.prediction
            # mean of the samples routed to a leaf equals its prediction
            assert abs(y[members].mean() - leaf.prediction) < 1e-12

    def test_tree_sse_not_worse_than_root(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(100, 2))
        y = rng.uniform(size=100)
        tree = grow(X, y, min_leaf=5)
        root_sse = float(np.sum((y - y.mean()) ** 2))
        assert sum(leaf.sse for leaf in walk_leaves(tree)) <= root_sse

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(60, 2))
        y = rng.uniform(size=60)
        tree_a = grow(X, y, min_leaf=3)
        perm = rng.permutation(60)
        tree_b = grow(X[perm], y[perm], min_leaf=3)
        assert tree_a.to_dict() == tree_b.to_dict()

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(80, 2))
        y = rng.uniform(size=80)
        tree = grow(X, y, min_leaf=7)
        for leaf in walk_leaves(tree):
            assert leaf.sample_count >= 7

    def test_zero_sse_tree_memorizes(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(40, 2))
        y = rng.uniform(size=40)
        tree = grow(X, y, min_leaf=1)
        np.testing.assert_allclose(predict_batch(tree, X), y, rtol=0, atol=1e-12)


class TestGrowMatchesRecursiveOracle:
    """The level-wise grow builds, bit for bit, the tree of the recursive one."""

    @pytest.mark.parametrize("min_leaf", [1, 2, 5, 20])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_random_data(self, quantized, min_leaf):
        rng = np.random.default_rng(20 + min_leaf)
        X = rng.uniform(size=(300, 3))
        y = np.sin(5 * X[:, 0]) + X[:, 1] * X[:, 2] + rng.normal(scale=0.1, size=300)
        if quantized:  # ties in x and in y, and (x, y) pairs repeated
            X, y = np.round(4 * X), np.round(2 * y)
        want = grow_recursive_oracle(X, y, min_leaf)
        assert count_leaves(want) > 1
        assert grow(X, y, min_leaf).to_dict() == want.to_dict()

    def test_one_dimensional_x(self):
        rng = np.random.default_rng(30)
        x = rng.uniform(size=80)
        y = np.cos(6 * x) + rng.normal(scale=0.05, size=80)
        assert grow(x, y, 3).to_dict() == grow_recursive_oracle(x, y, 3).to_dict()

    def test_fewer_than_two_min_leaf_samples(self):
        rng = np.random.default_rng(31)
        X, y = rng.uniform(size=(9, 2)), rng.uniform(size=9)
        tree = grow(X, y, 5)
        assert tree.is_leaf
        assert tree.to_dict() == grow_recursive_oracle(X, y, 5).to_dict()

    def test_constant_target(self):
        X = np.random.default_rng(32).uniform(size=(40, 2))
        y = np.full(40, -1.25)
        assert grow(X, y, 1).to_dict() == grow_recursive_oracle(X, y, 1).to_dict()

    def test_lopsided_tree(self):
        # every split peels a few samples off one end, so nodes of one depth differ widely in size
        x = np.linspace(0.0, 1.0, 150)
        y = x ** 2
        tree = grow(x, y, 1)
        assert tree.to_dict() == grow_recursive_oracle(x, y, 1).to_dict()
        assert count_leaves(tree) == 150

    def test_padding_bounded_on_a_lopsided_tree(self, monkeypatch):
        # exp(30 x) splits one end off the wide node at every depth: without runs,
        # a depth of one wide node and many small ones pads to dozens of cells per sample
        x = np.linspace(0.0, 1.0, 3000)
        y = np.exp(30 * x)
        ratios = []
        search = cart._level_splits

        def recording(X, y, rank, groups, min_leaf):
            sizes = [g.shape[0] for g in groups]
            ratios.append(len(sizes) * max(sizes) / sum(sizes))
            return search(X, y, rank, groups, min_leaf)

        monkeypatch.setattr(cart, "_level_splits", recording)
        tree = grow(x, y, 5)
        monkeypatch.undo()
        assert max(ratios) <= 2.0
        assert tree.to_dict() == grow_recursive_oracle(x, y, 5).to_dict()

    def test_default_cells_with_fold_trees(self, monkeypatch):
        """Full trees, fold trees and every ladder entry of the six default bench cells."""
        config = BenchConfig()
        master = tace.normalize(tace.generate(config.data_seed, config.n, jitter=config.jitter))
        min_leaf, folds = config.cart.min_leaf, config.cart.folds
        level_wise = cart.grow

        def ladder(grower, X, y, seed):
            grown = []

            def recording(*args, **kwargs):
                grown.append(grower(*args, **kwargs))
                return grown[-1]

            monkeypatch.setattr(cart, "grow", recording)
            tree = recording(X, y, min_leaf=min_leaf)
            seq = prune_sequence(tree, X, y, folds=folds, seed=seed, min_leaf=min_leaf)
            monkeypatch.setattr(cart, "grow", level_wise)
            entries = [(e.alpha, e.terminal_count, e.cv_cost, e.tree.to_dict()) for e in seq]
            return [t.to_dict() for t in grown], entries

        for name in sorted(config.datasets):
            for seed in config.seeds:
                train, _ = tace.split(master, config.datasets[name], seed)
                trees, entries = ladder(level_wise, train.x, train.y, seed)
                want_trees, want_entries = ladder(grow_recursive_oracle, train.x, train.y, seed)
                assert len(trees) == folds + 1
                assert trees == want_trees
                assert entries == want_entries


class TestPredict:
    def test_single_leaf(self):
        leaf = TreeNode(0.7, 10, 0.0)
        assert predict_batch(leaf, [123.0, -5.0])[0] == 0.7

    def test_step_tree_routing(self):
        x = np.linspace(-1, 1, 40)[:, None]
        y = (x[:, 0] >= 0).astype(float)
        tree = grow(x, y, min_leaf=1)
        np.testing.assert_array_equal(predict_batch(tree, [[-1.0], [1.0]]), [0.0, 1.0])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(50, 3))
        y = rng.uniform(size=50)
        tree = grow(X, y, min_leaf=4)
        Q = rng.uniform(size=(30, 3))
        batch = predict_batch(tree, Q)
        for i in range(30):
            assert batch[i] == walk_predict(tree, Q[i])

    @pytest.mark.parametrize("seed", range(6))
    def test_flat_descent_matches_walk(self, seed):
        """Random grown trees, with queries on the thresholds, outside [0, 1], at
        +-inf and at nan (which goes right, as `<=` is false)."""
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(1, 5))
        X = rng.uniform(size=(int(rng.integers(20, 300)), d))
        y = rng.normal(size=X.shape[0]) + X @ rng.normal(size=d)
        tree = grow(X, y, min_leaf=int(rng.integers(1, 6)))
        Q = rng.uniform(-0.5, 1.5, size=(400, d))
        thresholds = [t for t in cart._PruneView(tree).threshold.tolist() if t != 0.0]
        specials = np.array([np.inf, -np.inf, np.nan] + thresholds[:8])
        mask = rng.random(Q.shape) < 0.3
        Q[mask] = rng.choice(specials, size=int(mask.sum()))
        want = np.array([walk_predict(tree, q) for q in Q])
        np.testing.assert_array_equal(predict_batch(tree, Q), want)
        for q, w in zip(Q[:40], want):
            (one,) = predict_batch(tree, q[None, :])  # a one-row batch
            assert one == w
            (flat,) = predict_batch(tree, q)  # a 1-D input is one row
            assert flat == w
        assert predict_batch(tree, Q[:0]).shape == (0,)

    def test_prediction_leaves_tree_fields_unchanged(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(80, 3))
        y = rng.uniform(size=80)
        tree = grow(X, y, min_leaf=3)
        before = tree.to_dict()
        twin = TreeNode.from_dict(before, 3)
        assert twin == tree
        Q = rng.uniform(size=(50, 3))
        got = predict_batch(tree, Q)
        assert tree.to_dict() == before
        assert tree == twin  # the cached flat form is not a field
        np.testing.assert_array_equal(predict_batch(twin, Q), got)
        np.testing.assert_array_equal(predict_batch(tree, Q), got)  # from the cache

    def test_too_few_columns_rejected(self):
        """A split on variable 2 must not read the next row's first value."""
        tree = TreeNode(0.5, 10, 1.0, 2, 0.5, TreeNode(0.0, 5, 0.0), TreeNode(1.0, 5, 0.0))
        np.testing.assert_array_equal(predict_batch(tree, [[0, 0, 0.4], [0, 0, 0.6]]), [0.0, 1.0])
        with pytest.raises(ValueError, match="2 columns; the tree splits on 3"):
            predict_batch(tree, [[0.0, 0.0], [0.9, 0.9]])


class TestPruneSequence:
    def _data(self, n=120, seed=8):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, 2))
        y = np.sin(4 * X[:, 0]) + 0.3 * X[:, 1] + rng.normal(scale=0.1, size=n)
        return X, y

    def test_first_entry_full_last_entry_root(self):
        X, y = self._data()
        tree = grow(X, y, min_leaf=5)
        seq = prune_sequence(tree, X, y, folds=5, seed=0)
        assert seq[0].alpha == 0.0
        assert seq[0].terminal_count == count_leaves(tree)
        assert seq[0].tree.to_dict() == tree.to_dict()
        assert seq[-1].terminal_count == 1

    def test_alphas_strictly_increasing_counts_non_increasing(self):
        X, y = self._data()
        tree = grow(X, y, min_leaf=5)
        seq = prune_sequence(tree, X, y, folds=5, seed=0)
        alphas = [e.alpha for e in seq]
        counts = [e.terminal_count for e in seq]
        assert all(a < b for a, b in zip(alphas, alphas[1:]))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_subtrees_nested_predictions(self):
        # deeper subtrees refine, never contradict, their pruned ancestors
        X, y = self._data()
        tree = grow(X, y, min_leaf=5)
        seq = prune_sequence(tree, X, y, folds=5, seed=0)
        for entry in seq:
            for leaf in walk_leaves(entry.tree):
                assert leaf.sample_count >= 5

    def test_seeded_folds_reproducible(self):
        X, y = self._data()
        tree = grow(X, y, min_leaf=5)
        a = prune_sequence(tree, X, y, folds=5, seed=3)
        b = prune_sequence(tree, X, y, folds=5, seed=3)
        assert [e.cv_cost for e in a] == [e.cv_cost for e in b]


    @pytest.mark.parametrize("bad", ["X", "y", "rows"])
    def test_bad_data_rejected_before_any_fold(self, bad, monkeypatch):
        X, y = self._data()
        tree = grow(X, y, min_leaf=5)
        X, y = X.copy(), y.copy()
        if bad == "X":
            X[4, 0] = np.nan
        elif bad == "y":
            y[7] = np.inf
        else:
            y = y[:-1]
        message = {
            "X": "^X holds non-finite values",
            "y": "^y holds non-finite values",
            "rows": r"^X has shape \(120, 2\) but y has shape \(119,\)",
        }[bad]
        monkeypatch.setattr(cart, "grow", lambda *a, **k: pytest.fail("a fold tree was grown"))
        with pytest.raises(ValueError, match=message):
            prune_sequence(tree, X, y, folds=5, seed=0)

    @pytest.mark.parametrize("folds", [0, 1, 41])
    def test_folds_outside_two_to_samples_rejected(self, folds, monkeypatch):
        # no silent clamp: folds 0, 1 and 2 used to give the same costs
        X, y = self._data(n=40)
        tree = grow(X, y, min_leaf=5)
        monkeypatch.setattr(cart, "grow", lambda *a, **k: pytest.fail("a fold tree was grown"))
        message = rf"^folds must be in \[2, 40\] for 40 samples, got {folds}$"
        with pytest.raises(ValueError, match=message):
            prune_sequence(tree, X, y, folds=folds, seed=0)

    @pytest.mark.parametrize("seed,quantized,min_leaf", [
        (0, False, 5), (1, False, 2), (2, True, 3), (3, True, 1),
    ])
    def test_matches_full_rewalk_oracle(self, seed, quantized, min_leaf):
        # quantized targets tie many links, so several collapse at one alpha
        X, y = self._data(n=150, seed=seed)
        if quantized:
            y = np.round(3 * (y - y.min()))
        tree = grow(X, y, min_leaf=min_leaf)
        seq = prune_sequence(tree, X, y, folds=5, seed=seed, min_leaf=min_leaf)
        alphas, cv_cost = reference_cv_cost(tree, X, y, 5, seed, min_leaf)
        assert [e.alpha for e in seq] == alphas
        assert [e.cv_cost for e in seq] == pytest.approx(list(cv_cost), rel=1e-12, abs=0)
        _, dead = reference_ladder(tree)
        for entry in seq:
            assert entry.terminal_count == count_leaves(entry.tree)
            assert entry.tree.to_dict() == cut_tree(tree, dead, entry.alpha)

    @pytest.mark.parametrize("n,constant", [(40, True), (1, False)],
                             ids=["constant-y", "one-sample"])
    def test_one_leaf_ladder(self, n, constant):
        X, y = self._data(n=n)
        if constant:
            y = np.full(n, 0.25)
        tree = grow(X, y, min_leaf=5)
        assert tree.is_leaf
        if n == 1:
            # no fold split of one sample holds any out, so no cost can be measured
            with pytest.raises(ValueError, match="at least 2 samples, got 1"):
                prune_sequence(tree, X, y, folds=5, seed=0)
            return
        (entry,) = prune_sequence(tree, X, y, folds=5, seed=0)
        assert entry.alpha == 0.0
        assert entry.terminal_count == 1
        assert entry.tree.is_leaf and entry.tree.to_dict() == tree.to_dict()
        assert np.isfinite(entry.cv_cost)


class TestLazyLadderTrees:
    def test_snapshot_only_for_the_selected_entry(self, monkeypatch):
        rng = np.random.default_rng(12)
        X = rng.uniform(size=(150, 2))
        y = np.sin(5 * X[:, 0]) + rng.normal(scale=0.2, size=150)
        tree = grow(X, y, min_leaf=3)
        calls = []
        snapshot = cart._PruneView.snapshot

        def counting(view, alpha):
            calls.append(alpha)
            return snapshot(view, alpha)

        monkeypatch.setattr(cart._PruneView, "snapshot", counting)
        seq = prune_sequence(tree, X, y, folds=5, seed=3)
        assert len(seq) > 2 and calls == []
        best = select_min_cost(seq)
        assert len(calls) == 1
        entry = min(seq, key=lambda e: (e.cv_cost, e.terminal_count))
        assert calls == [entry.alpha] and entry.tree is best  # built once, then kept
        assert count_leaves(best) == entry.terminal_count


class TestSelectMinCost:
    def test_single_entry(self):
        from softdss.cart import PrunedEntry

        leaf = TreeNode(1.0, 5, 0.0)
        assert select_min_cost([PrunedEntry(0.0, leaf, 1, 0.5)]) is leaf

    def test_tie_prefers_smaller(self):
        from softdss.cart import PrunedEntry

        big = TreeNode(0.0, 10, 0.0, 0, 0.5, TreeNode(0.0, 5, 0.0), TreeNode(1.0, 5, 0.0))
        small = TreeNode(0.5, 10, 0.0)
        seq = [PrunedEntry(0.0, big, 2, 0.25), PrunedEntry(1.0, small, 1, 0.25)]
        assert select_min_cost(seq) is small

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_min_cost([])

    def test_selected_tree_generalizes(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(200, 2))
        y = np.where(X[:, 0] > 0.5, 1.0, 0.0) + rng.normal(scale=0.4, size=200)
        tree = grow(X, y, min_leaf=2)
        seq = prune_sequence(tree, X, y, folds=10, seed=1)
        best = select_min_cost(seq)
        # the noisy step function overfits unpruned; CV must cut it back
        assert count_leaves(best) < count_leaves(tree)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(size=(60, 2))
        y = rng.uniform(size=60)
        tree = grow(X, y, min_leaf=5)
        back = TreeNode.from_dict(tree.to_dict(), 2)
        Q = rng.uniform(size=(40, 2))
        np.testing.assert_array_equal(predict_batch(back, Q), predict_batch(tree, Q))
