"""Greedy CART regression tree.

Split search is exact: every midpoint between consecutive distinct sorted
values of every candidate feature is scored by the weighted sum of squared
errors of the two children, with ties broken toward the smallest feature
index and then the smallest threshold. Each column is sorted once per fit,
not per node. Randomness enters only through optional per-node feature
subsampling (used by the forest), driven by a seeded generator.

``fit_tree`` grows one tree node by node; ``grow_trees`` grows a forest's
trees in lockstep, searching one node of every tree per step in one set of
array calls, and yields the same trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..dataio import finite_float, json_field
from ..rng import SplitMix64, sample_many


class ModelError(ValueError):
    pass


read_field = partial(json_field, error=ModelError)  # a model file's field


class EmptyTrainingSet(ModelError):
    pass


class NonFiniteTarget(ModelError):
    pass


class NonFiniteFeature(ModelError):
    pass


class WidthMismatch(ModelError):
    pass


@dataclass(frozen=True)
class Node:
    feature: int | None = None
    threshold: float | None = None
    left: "Node | None" = None
    right: "Node | None" = None
    value: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.value is not None

    def to_dict(self) -> dict:
        if self.is_leaf:
            return {"leaf": self.value}
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Node":
        if isinstance(data, dict) and "leaf" in data:
            return cls(value=read_field(data, "leaf", finite_float))
        return cls(
            feature=read_field(data, "feature", int),
            threshold=read_field(data, "threshold", finite_float),
            left=read_field(data, "left", cls.from_dict),
            right=read_field(data, "right", cls.from_dict),
        )


@dataclass(frozen=True)
class RegressionTree:
    root: Node
    max_depth: int
    n_features: int
    # Model files record it; every tree grown here may have one-row leaves.
    min_samples_leaf: int = 1

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._predict(check_prediction_data(X, self.n_features))

    def _predict(self, X: np.ndarray) -> np.ndarray:
        """``predict`` on an ``X`` already checked by
        ``check_prediction_data``."""
        out = np.empty(X.shape[0], dtype=np.float64)
        self._fill(self.root, X, np.arange(X.shape[0]), out)
        return out

    def _fill(self, node: Node, X, idx, out) -> None:
        if node.is_leaf:
            out[idx] = node.value
            return
        go_left = X[idx, node.feature] <= node.threshold
        self._fill(node.left, X, idx[go_left], out)
        self._fill(node.right, X, idx[~go_left], out)

    def to_dict(self) -> dict:
        return {
            "root": self.root.to_dict(),
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "n_features": self.n_features,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RegressionTree":
        """Read what :meth:`to_dict` writes; a node that splits on a
        feature outside ``[0, n_features)`` raises :class:`ModelError`."""
        tree = cls(
            root=read_field(data, "root", Node.from_dict),
            max_depth=read_field(data, "max_depth", int),
            min_samples_leaf=read_field(data, "min_samples_leaf", int),
            n_features=read_field(data, "n_features", int),
        )
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                if not 0 <= node.feature < tree.n_features:
                    raise ModelError(
                        f"a node splits on feature {node.feature}, "
                        f"outside [0, {tree.n_features})"
                    )
                stack += (node.left, node.right)
        return tree


def read_trees(data: dict, n_features: int) -> tuple[RegressionTree, ...]:
    """The ``trees`` field of an ensemble's file; a tree that reads other
    than the ensemble's ``n_features`` columns raises :class:`ModelError`."""
    trees = read_field(data, "trees", lambda ts: tuple(map(RegressionTree.from_dict, ts)))
    for tree in trees:
        if tree.n_features != n_features:
            raise ModelError(
                f"field 'trees': a tree reads {tree.n_features} features, "
                f"the model {n_features}"
            )
    return trees


def sort_columns(X: np.ndarray) -> np.ndarray:
    """Row order of every column of ``X``: a p x n array whose row ``f`` is
    the stable ascending ``argsort`` of column ``f``. This is what
    ``fit_tree``'s ``order=`` takes."""
    return np.argsort(X.T, axis=1, kind="stable")


def check_features(X: np.ndarray) -> None:
    """Raise ``NonFiniteFeature`` naming the first NaN or infinite cell."""
    bad = ~np.isfinite(X)
    if bad.any():
        row, column = np.argwhere(bad)[0]
        raise NonFiniteFeature(
            f"features contain a non-finite value at row {row}, column {column}"
        )


def check_training_data(X, y) -> tuple[np.ndarray, np.ndarray]:
    """``X`` and ``y`` as float64 arrays, after the checks every fitter
    makes, in this order: ``X`` is 2-D, ``y`` is 1-D, their row counts
    agree, there is a row, ``y`` is finite, ``X`` is finite."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ModelError("X must be 2-dimensional")
    if y.ndim != 1:
        raise ModelError("y must be 1-dimensional")
    if X.shape[0] != y.shape[0]:
        raise ModelError("X and y row counts differ")
    if X.shape[0] == 0:
        raise EmptyTrainingSet("no training rows")
    if not np.all(np.isfinite(y)):
        raise NonFiniteTarget("target contains non-finite values")
    check_features(X)
    return X, y


def check_prediction_data(X, n_features: int) -> np.ndarray:
    """``X`` as a row-major float64 array, after checking that it has
    ``n_features`` columns and only finite values. Row-major because the
    SVR kernel's matrix products round differently on other layouts of
    the same values."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise WidthMismatch(f"expected {n_features} features, got {X.shape}")
    check_features(X)
    return X


def fit_tree(
    X,
    y,
    max_depth: int,
    features_per_node: int | None = None,
    seed: int = 0,
    *,
    order: np.ndarray | None = None,
    fitted: np.ndarray | None = None,
) -> RegressionTree:
    """Fit a CART regression tree. A node is a leaf when it is at
    ``max_depth``, holds fewer than two rows, has a constant target or
    has no valid cut (one between two distinct values).

    ``features_per_node`` limits the split search at every node to a seeded
    random draw of that many features (the regression-forest convention);
    ``None`` searches every feature.

    Columns are sorted once per fit, never per node (SLIQ-style presorted
    attribute lists): each node holds, for every feature, its rows in that
    feature's ascending order, and each child receives the parent's lists
    filtered by a stable partition. ``order`` is ``sort_columns(X)``,
    passed in by a caller that fits many trees on the same ``X``.

    ``fitted``, a float64 array of ``len(y)``, receives each training row's
    leaf value: bit for bit ``tree.predict(X)``, since the fit routes rows
    by the same ``x <= threshold`` tests, without routing them again.
    """
    X, y = check_training_data(X, y)
    if max_depth < 0:
        raise ModelError("max_depth must be >= 0")
    if features_per_node is not None and features_per_node < 1:
        raise ModelError(f"features_per_node must be >= 1, got {features_per_node!r}")

    n, n_features = X.shape
    if order is None:
        order = sort_columns(X)
    elif order.shape != (n_features, n):
        raise ModelError(f"order must have shape {(n_features, n)}, got {order.shape}")
    if fitted is not None and fitted.shape != (n,):
        raise ModelError(f"fitted must have shape {(n,)}, got {fitted.shape}")
    rng = SplitMix64(seed)
    # Column f of X is values[f * n : (f + 1) * n].
    values = np.ascontiguousarray(X.T).ravel()
    starts = np.arange(n_features, dtype=np.intp) * n
    in_left = np.zeros(n, dtype=bool)

    def leaf(idx: np.ndarray, target: np.ndarray) -> Node:
        value = _mean(target)
        if fitted is not None:
            fitted[idx] = value
        return Node(value=value)

    def build(idx: np.ndarray, rows: np.ndarray | None, depth: int) -> Node:
        # idx: the node's rows, increasing; rows: p x idx.size, row f holds
        # them in ascending order of feature f (None at max_depth).
        target = y[idx]
        if depth >= max_depth or idx.size < 2 or (target == target[0]).all():
            return leaf(idx, target)
        if features_per_node is not None and features_per_node < n_features:
            feats = sorted(rng.sample(list(range(n_features)), features_per_node))
            found = _best_split(values, starts[feats], rows[feats], idx, y, target)
        else:
            feats = range(n_features)
            found = _best_split(values, starts, rows, idx, y, target)
        if found is None:
            return leaf(idx, target)
        local_feature, threshold, go_left = found
        left_idx = idx[go_left]
        n_left = left_idx.size
        if n_left == 0 or n_left == idx.size:
            return leaf(idx, target)
        if depth + 1 >= max_depth:  # both children are leaves
            left_rows = right_rows = None
        else:
            # Boolean indexing keeps C order, so each feature's list stays
            # sorted.
            in_left[left_idx] = True
            sel = in_left[rows]
            in_left[left_idx] = False
            left_rows = rows[sel].reshape(n_features, n_left)
            right_rows = rows[~sel].reshape(n_features, -1)
        return Node(
            feature=feats[local_feature],
            threshold=threshold,
            left=build(left_idx, left_rows, depth + 1),
            right=build(idx[~go_left], right_rows, depth + 1),
        )

    root = build(np.arange(n), order, 0)
    # build refers to itself; dropping the name breaks that cycle, so its
    # arrays are freed now rather than at the next garbage collection.
    del build, leaf
    return RegressionTree(root=root, max_depth=max_depth, n_features=n_features)


def grow_trees(
    values: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    features_per_node: int | None,
    seeds,
) -> list[Node]:
    """Grow one tree per leading index, all of them in lockstep, and
    return their roots: the forest's learner for trees with few rows.

    Tree ``t`` trains on ``values[t]`` (p x n: row ``f`` is feature ``f``
    of its n rows) and targets ``y[t]``; every row of ``values`` is
    sorted once, by one stable ``argsort``. A tree that draws a
    feature subset per node (``features_per_node`` below p) draws it from
    ``SplitMix64(seeds[t])`` at each searched node in depth-first order,
    so each step takes the next depth-first node of every unfinished
    tree. One step searches all the nodes it takes in one set of array
    calls and partitions the chosen ones into children in another.

    Every tree is bitwise the one ``fit_tree`` grows from the same data,
    order and seed: a node's arithmetic does not depend on the nodes it is
    batched with.
    """
    growth = _Growth(values, y, max_depth)
    p = values.shape[1]
    draws = features_per_node is not None and features_per_node < p
    rngs = [SplitMix64(seed) for seed in seeds] if draws else None
    # Per tree, the nodes still to search: a stack in depth-first order.
    pending = {t: [t] for t in np.flatnonzero(growth.root_searchable()).tolist()}
    while pending:
        ids = [stack.pop() for stack in pending.values()]
        feats = None
        if rngs is not None:
            feats = np.sort(sample_many([rngs[t] for t in pending], p, features_per_node), axis=1)
        pending = {t: stack for t, stack in pending.items() if stack}
        for tree, left, search_left, search_right in growth.step(np.array(ids), feats):
            # Right first, so that the left child is searched next.
            if search_right:
                pending.setdefault(tree, []).append(left + 1)
            if search_left:
                pending.setdefault(tree, []).append(left)
    return growth.roots()


# A node joins a step's group of larger nodes while padding the group's
# nodes to its largest wastes at most _PAD_CELLS cells (rows x candidate
# features) in all: below that, per-call overhead outweighs the padded
# arithmetic. A group also holds at most _GROUP_CELLS cells of row lists
# (nodes x lists x padded rows), which bounds a step's memory.
_PAD_CELLS = 2048
_GROUP_CELLS = 1 << 16


class _Growth:
    """The nodes of a batch of trees over one shared layout.

    Rows are numbered across trees: row ``r`` of tree ``t`` is ``t * n +
    r``. Tree ``t`` owns ``p + 1`` lists of its row numbers: list ``f < p``
    holds them in ascending order of feature ``f``, list ``p`` in index
    order. A node owns the same segment ``[start, start + size)`` of each
    of its tree's lists, and splitting it stably partitions that segment,
    left rows first, so every list stays in order within every node. Node
    ``t`` is tree ``t``'s root; a split node's children get consecutive
    ids, left first, above every id before them.

    A step lays its nodes out as ``(node, list, cell)`` arrays padded to
    its largest node. A node's padded cells repeat its last row, so they
    hold finite values, and every padded cut joins two equal values and is
    invalid.
    """

    def __init__(self, values, y, max_depth):
        n_trees, p, n = values.shape
        self.n_trees, self.p, self.n = n_trees, p, n
        self.max_depth = max_depth
        # Feature f of row t * n + r is values[t * (p - 1) * n + f * n + (t * n + r)].
        self.values = np.ascontiguousarray(values, dtype=np.float64).ravel()
        self.y = np.ascontiguousarray(y, dtype=np.float64).ravel()
        lists = np.empty(n_trees * (p + 1) * n + 1, dtype=np.intp)
        shaped = lists[:-1].reshape(n_trees, p + 1, n)
        shaped[:, p] = np.arange(n_trees * n).reshape(n_trees, n)
        for t in range(n_trees):  # one tree at a time bounds the argsort's memory
            np.add(np.argsort(values[t], axis=1, kind="stable"), t * n, out=shaped[t, :p])
        self.lists = lists
        # Partition writes of padded cells land in this last, unused slot.
        self.spill = lists.size - 1
        # Where tree t's lists start, and where its feature values start
        # relative to its row numbers.
        self.list_at = (np.arange(n_trees) * ((p + 1) * n))[:, None] + np.arange(p + 1) * n
        self.shift_at = (np.arange(n_trees) * ((p - 1) * n))[:, None] + np.arange(p) * n
        self.goes_left = np.zeros(n_trees * n, dtype=bool)
        self.left_sizes = np.arange(1, n, dtype=np.float64)
        # Every node holds a row, so a tree has at most 2n - 1 nodes.
        capacity = n_trees * (2 * n - 1)
        self.cells = np.arange(capacity)
        self.cells32 = np.arange(n, dtype=np.int32)
        self.tree = np.empty(capacity, dtype=np.intp)
        self.start = np.zeros(capacity, dtype=np.intp)
        self.size = np.empty(capacity, dtype=np.intp)
        self.depth = np.zeros(capacity, dtype=np.intp)
        self.left = np.full(capacity, -1, dtype=np.intp)
        self.feature = np.zeros(capacity, dtype=np.intp)
        self.threshold = np.zeros(capacity, dtype=np.float64)
        self.tree[:n_trees] = self.cells[:n_trees]
        self.size[:n_trees] = n
        self.count = n_trees

    def root_searchable(self) -> np.ndarray:
        """Which roots are not leaves before any search: not at max depth,
        big enough to split, and with a non-constant target."""
        y = self.y.reshape(self.n_trees, self.n)
        return (self.max_depth > 0) & (self.n >= 2) & (y != y[:, :1]).any(axis=1)

    def step(self, ids: np.ndarray, feats: np.ndarray | None) -> list:
        """Search the nodes ``ids`` (candidate features ``feats[i]`` for
        node ``ids[i]``, or every feature if None) and split those with a
        valid cut. Returns (tree, left child id, whether the left child
        needs a search, whether the right one does) per split node."""
        size = self.size[ids]
        n_feats = self.p if feats is None else feats.shape[1]
        by_size = np.argsort(-size, kind="stable")
        sizes = size[by_size].tolist()
        split, first, waste = [], 0, 0
        for i, m in enumerate(sizes):
            waste += (sizes[first] - m) * n_feats
            if i > first and (
                waste > _PAD_CELLS or (i + 1 - first) * sizes[first] * (self.p + 1) > _GROUP_CELLS
            ):
                group = by_size[first:i]
                split += self._split(ids[group], None if feats is None else feats[group])
                first, waste = i, 0
        group = by_size[first:]
        return split + self._split(ids[group], None if feats is None else feats[group])

    def _split(self, ids, feats):
        p = self.p
        tree, start, size = self.tree[ids], self.start[ids], self.size[ids]
        nodes = self.cells[: ids.size]
        width = int(size.max())
        cells = self.cells[:width]
        last = size - 1
        at = (np.minimum(cells, last[:, None]) + start[:, None])[:, None, :]
        lists = self.list_at[tree]
        every = self.lists[lists[:, :, None] + at]
        # Feature f of row g is at g + shift[f].
        shift = self.shift_at[tree]
        if feats is None:
            feats = self.cells[:p]
            rows = every[:, :p]
        else:
            rows, shift = every[nodes[:, None], feats], shift[nodes[:, None], feats]
        xs = self.values[rows + shift[:, :, None]]
        ys = self.y[rows]
        # cumsum adds in sequence, so each node's prefix sums are its own,
        # bit for bit, up to its last row; its totals are read there.
        s1 = ys.cumsum(axis=2)
        s2 = (ys * ys).cumsum(axis=2)
        total1, total2 = s1[nodes, :, last][:, :, None], s2[nodes, :, last][:, :, None]
        s1, s2 = s1[:, :, :-1], s2[:, :, :-1]
        k = self.left_sizes[: width - 1]
        # Right sizes; a padded cut gets 1 so that it divides by no zero.
        rest = np.maximum(size[:, None] - k, 1.0)[:, None, :]
        cost = (s2 - (s1**2) / k) + ((total2 - s2) - ((total1 - s1) ** 2) / rest)
        # Per node, cuts in (feature, position) order.
        cost = np.where(xs[:, :, :-1] < xs[:, :, 1:], cost, np.inf).reshape(ids.size, -1)

        lowest = cost.min(axis=1)
        best = cost.argmin(axis=1)
        near = cost <= (lowest + 1e-9 * (1.0 + np.abs(lowest)))[:, None]
        rivals = near.sum(axis=1)
        hit = lowest < np.inf
        if hit.all():
            hit = nodes
        else:
            hit = np.flatnonzero(hit)
            rivals, best = rivals[hit], best[hit]
        local, cut = np.divmod(best, width - 1)
        above = xs[hit, local, cut + 1]
        threshold = (xs[hit, local, cut] + above) / 2.0
        tied = np.flatnonzero(rivals > 1)
        if tied.size:
            b = hit[tied]
            local[tied], cut[tied], threshold[tied], above[tied] = self._settle(
                b, near[b], xs, every[:, p], shift, size[b]
            )

        # The left rows are those up to the threshold: a prefix of the
        # chosen feature's list, cut + 1 rows long unless the midpoint left
        # [below, above) (two adjacent floats, or a sum that overflowed).
        n_left = cut + 1
        size = size[hit]
        if ((threshold >= above) | (threshold < xs[hit, local, cut])).any():
            n_left = np.minimum((xs[hit, local] <= threshold[:, None]).sum(axis=1), size)
            split = (n_left > 0) & (n_left < size)
            size, n_left, local, threshold = size[split], n_left[split], local[split], threshold[split]
            hit = hit[split]
        ids, tree, start = ids[hit], tree[hit], start[hit]
        self.feature[ids] = feats[hit, local] if feats.ndim == 2 else feats[local]
        self.threshold[ids] = threshold

        in_left = cells < n_left[:, None]
        in_node = (cells < size[:, None])[:, None, :]
        sorted_rows = rows[hit, local]
        self.goes_left[sorted_rows] = in_left
        deep = self.depth[ids] + 1
        search = deep < self.max_depth
        # Children that are leaves for sure need only their index-order
        # list, for their means.
        moved = slice(None) if search.any() else slice(p, None)
        every, lists = every[hit, moved], lists[hit, moved]
        # A cell's new place in its segment: the left rows in their order,
        # then the right rows in theirs. Padded cells come after a node's
        # real ones, so they do not move its real cells' places. Arithmetic
        # on the mask, in int32, is far faster than np.where on a mask this
        # irregular.
        moves_left = self.goes_left[every]
        before = moves_left.cumsum(axis=2, dtype=np.int32)
        right = self.cells32[:width] - before + n_left.astype(np.int32)[:, None, None]
        slot = right + moves_left * (before - 1 - right)
        self.lists[np.where(in_node, slot + (lists + start[:, None])[:, :, None], self.spill)] = every

        search_left = search_right = search
        if moved.start is None:
            # Leaves before any search: too small, or with a constant
            # target. Each child is a run of cells in the chosen feature's
            # order, and the right one runs to the padded end.
            ys = self.y[sorted_rows]
            differs = (ys != ys[:, :1]) & in_left
            search_left = search & (n_left >= 2) & differs.any(axis=1)
            differs = (ys != ys[:, -1:]) > in_left
            search_right = search & (size - n_left >= 2) & differs.any(axis=1)
        first = self.count
        self.count += 2 * ids.size
        left = self.cells[first : self.count : 2]
        self.left[ids] = left
        self.tree[first : self.count] = np.repeat(tree, 2)
        self.depth[first : self.count] = np.repeat(deep, 2)
        self.start[first : self.count : 2] = start
        self.start[first + 1 : self.count : 2] = start + n_left
        self.size[first : self.count : 2] = n_left
        self.size[first + 1 : self.count : 2] = size - n_left
        return list(zip(tree.tolist(), left.tolist(), search_left.tolist(), search_right.tolist()))

    def _settle(self, nodes, near, xs, in_order, shift, size):
        """(local feature, cut, threshold, value above the cut) for each of
        ``nodes``, which all have several near-minimal cuts (``near``, in
        (feature, position) order per node).

        Different features can induce the *same* partition (e.g. both
        split off one extreme row); their prefix-sum costs then differ only
        by rounding. A node whose near cuts all induce one partition keeps
        its first, as ``_rescore`` would; the others re-score their near
        cuts exactly (``_rescore_many``), over their rows in index order
        (``in_order``).
        """
        which, flat = np.nonzero(near)
        feature, cut = np.divmod(flat, xs.shape[2] - 1)
        b = nodes[which]
        above = xs[b, feature, cut + 1]
        threshold = (xs[b, feature, cut] + above) / 2.0
        rows = in_order[b]
        # Each near cut's left rows among its node's rows in index order.
        # Padded cells repeat the last row, so they agree wherever the real
        # cells do.
        goes_left = self.values[shift[b, feature][:, None] + rows] <= threshold[:, None]
        counts = near.sum(axis=1)
        chosen = np.cumsum(counts) - counts
        same = (goes_left == np.repeat(goes_left[chosen], counts, axis=0)).all(axis=1)
        several = ~np.logical_and.reduceat(same, chosen)
        if several.any():
            cuts = np.repeat(several, counts)
            node = which[cuts]
            best = _rescore_many(
                goes_left[cuts], self.y[rows[cuts]], size[node], node, feature[cuts], threshold[cuts]
            )
            chosen[several] = np.flatnonzero(cuts)[best]
        return feature[chosen], cut[chosen], threshold[chosen], above[chosen]

    def roots(self) -> list[Node]:
        """Every tree's root, after setting each leaf to the mean of its
        targets in index order."""
        count = self.count
        in_order = self.lists[:-1].reshape(self.n_trees, self.p + 1, self.n)[:, self.p].ravel()
        targets = self.y[in_order]
        leaves = np.flatnonzero(self.left[:count] < 0)
        value = np.zeros(count, dtype=np.float64)
        # ``_mean`` is a pairwise sum, whose blocking depends on length, so
        # only leaves of one length are summed together.
        leaves = leaves[np.argsort(self.size[leaves], kind="stable")]
        sizes = self.size[leaves]
        ends = (np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist() + [leaves.size]
        first = 0
        for end in ends:
            group, m = leaves[first:end], int(sizes[first])
            first = end
            cells = (self.tree[group] * self.n + self.start[group])[:, None] + self.cells[:m]
            value[group] = targets[cells].sum(axis=1) / m

        feature = self.feature[:count].tolist()
        threshold = self.threshold[:count].tolist()
        left = self.left[:count].tolist()
        value = value.tolist()
        nodes: list[Node | None] = [None] * count
        for i in range(count - 1, -1, -1):
            child = left[i]
            if child < 0:
                nodes[i] = Node(value=value[i])
            else:
                nodes[i] = Node(
                    feature=feature[i],
                    threshold=threshold[i],
                    left=nodes[child],
                    right=nodes[child + 1],
                )
        return nodes[: self.n_trees]


def _mean(a: np.ndarray) -> float:
    """``float(a.mean())`` bit for bit (the same pairwise sum, one IEEE
    division) without ``ndarray.mean``'s Python-level wrapper."""
    return float(a.sum()) / a.size


def _best_split(values, starts, rows, idx, y, target):
    """Best (local feature, threshold, left mask over ``idx``) by weighted
    children SSE, or None.

    ``rows`` holds, per candidate feature, the node's rows in ascending
    order of that feature, whose values start at ``starts`` in ``values``;
    ``target`` is ``y[idx]``. Prefix sums give left/right SSE for every
    cut position of every candidate at once; invalid cuts (between equal
    adjacent values) are masked out and ties resolve to the smallest
    feature index then the smallest threshold.
    """
    m = idx.size
    xs = values[rows + starts[:, None]]
    ys = y[rows]

    s1 = ys.cumsum(axis=1)
    s2 = (ys * ys).cumsum(axis=1)
    total1 = s1[:, -1:]
    total2 = s2[:, -1:]

    k = np.arange(1, m, dtype=np.float64)  # left sizes 1..m-1
    left_sse = s2[:, :-1] - (s1[:, :-1] ** 2) / k
    right_sse = (total2 - s2[:, :-1]) - ((total1 - s1[:, :-1]) ** 2) / (m - k)
    cost = left_sse + right_sse

    cost = np.where(xs[:, :-1] < xs[:, 1:], cost, np.inf)

    lowest = float(cost.min())
    if not math.isfinite(lowest):
        return None

    # Different features can induce the *same* partition (e.g. both split
    # off one extreme row); their prefix-sum costs then differ only by
    # rounding, so every near-minimal cut is re-scored exactly (_rescore).
    tolerance = 1e-9 * (1.0 + abs(lowest))
    features, positions = np.nonzero(cost <= lowest + tolerance)
    if features.size == 1:  # no rival cut to rank against
        feature, position = int(features[0]), positions[0]
        threshold = float((xs[feature, position] + xs[feature, position + 1]) / 2.0)
        return feature, threshold, values[starts[feature] + idx] <= threshold
    thresholds = (xs[features, positions] + xs[features, positions + 1]) / 2.0
    goes_left = values[starts[features][:, None] + idx] <= thresholds[:, None]
    k = _rescore(goes_left, features, thresholds, target)
    return int(features[k]), float(thresholds[k]), goes_left[k]


def _rescore_many(goes_left, target, size, node, features, thresholds) -> np.ndarray:
    """For each node, which of its near-minimal cuts is best by its exact
    children SSE; ties go to the smallest feature, then the smallest
    threshold, then the first cut. One cut index per node, in node order.

    Row ``j`` of ``goes_left`` marks cut ``j``'s left rows among its
    node's rows in index order, whose targets are row ``j`` of ``target``;
    only its first ``size[j]`` cells are the node's, and ``node`` is
    nondecreasing. Each side of a cut is scored as ``_rescore`` scores it:
    the sum of ``(v - mean) ** 2`` over its rows in index order, with the
    mean a sum over its length. Pairwise sums depend on length, so a side
    is summed together only with sides of the same length.

    This pays off over the many small tied nodes of a lockstep step; for
    one node at a time ``_rescore`` is faster (11 trees of 2,000 rows grown
    through ``fit_tree`` took 1.37 s with this function, 0.98 s without).
    """
    cuts, width = goes_left.shape
    cells = np.arange(width)
    real = cells < size[:, None]
    n_left = (goes_left & real).sum(axis=1)
    # Each cut's targets: its left rows, then its right rows, each in
    # index order.
    order = np.argsort(np.where(real, ~goes_left, 2), axis=1, kind="stable")
    sides = np.take_along_axis(target, order, axis=1).ravel()
    # Side s < cuts is cut s's left side, side cuts + s its right one.
    start = np.concatenate((np.arange(cuts) * width, np.arange(cuts) * width + n_left))
    length = np.concatenate((n_left, size - n_left))
    by_length = np.argsort(length, kind="stable")
    length = length[by_length]
    bounds = [0] + (np.flatnonzero(np.diff(length)) + 1).tolist() + [length.size]
    sse = np.empty(2 * cuts)
    for a, z in zip(bounds[:-1], bounds[1:]):
        pick, m = by_length[a:z], int(length[a])
        v = sides[start[pick][:, None] + cells[:m]]
        sse[pick] = ((v - (v.sum(axis=1) / m)[:, None]) ** 2).sum(axis=1)
    best = np.lexsort((thresholds, features, sse[:cuts] + sse[cuts:], node))
    return best[np.flatnonzero(np.diff(node[best], prepend=-1))]


def _rescore(goes_left, features, thresholds, target) -> int:
    """Which of one node's near-minimal cuts is best by its exact children
    SSE; ties go to the smallest feature, then the smallest threshold.

    Row ``k`` of ``goes_left`` marks cut ``k``'s left rows among the
    node's rows in index order, whose targets are ``target``. The direct
    formula over rows in index order is bitwise identical for identical
    partitions, so each distinct partition is scored once, and none when
    all cuts induce one partition (the first then wins).
    """
    keys = [go_left.tobytes() for go_left in goes_left]
    if keys.count(keys[0]) == len(keys):
        return 0
    scored: dict[bytes, float] = {}
    best = None
    for k, (key, go_left, feature, threshold) in enumerate(
        zip(keys, goes_left, features.tolist(), thresholds.tolist())
    ):
        sse = scored.get(key)
        if sse is None:
            left = target[go_left]
            right = target[~go_left]
            sse = float(((left - _mean(left)) ** 2).sum()) + float(
                ((right - _mean(right)) ** 2).sum()
            )
            scored[key] = sse
        if best is None or (sse, feature, threshold) < best[:3]:
            best = (sse, feature, threshold, k)
    return best[3]
