"""Greedy CART regression tree.

Split search is exact: every midpoint between consecutive distinct sorted
values of every candidate feature is scored by the weighted sum of squared
errors of the two children, with ties broken toward the smallest feature
index and then the smallest threshold. Each column is sorted once per fit,
not per node. Randomness enters only through optional per-node feature
subsampling (used by the forest), driven by a seeded generator.

Every tree grows in a ``_Growth``, the one learner behind ``fit_tree``,
boosting and the forest: a batch of trees grown in lockstep, each step
searching a set of nodes in one set of array calls. ``_Growth.grow`` steps
trees that draw no features (gradient boosting's) level by level: one
step searches every pending node of every tree. ``grow_depth_first``
steps trees that draw features (a forest's) depth first: one step
searches the next node of every tree. A tree is the same whichever trees
grow with it.

An ensemble's trees, or one tree, are one ``TreeTable``: flat node arrays
over all of their nodes, built once when the model is fitted or read.
Prediction moves every (tree, row) pair down one level per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..dataio import finite_float, integer, json_field
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


@dataclass(frozen=True, slots=True, eq=False)
class TreeTable:
    """The trees of an ensemble, or the one tree ``fit_tree`` grows, as
    flat node arrays over all of their nodes. Tree ``t``'s nodes run from
    ``roots[t]`` up to the next tree's root, its root first, and a child's
    id is above its parent's. A split node ``i`` sends a row whose value
    of feature ``feature[i]`` is ``<= threshold[i]`` to node ``left[i]``
    and any other row to ``left[i] + 1``; a leaf has ``left[i] == -1`` and
    predicts ``value[i]``. ``feature`` and ``threshold`` are 0 at a leaf,
    ``value`` is 0 at a split node. No tree is deeper than ``max_depth``:
    no fitter grows one and :func:`read_trees` rejects one."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    max_depth: int
    n_features: int

    def __len__(self) -> int:
        return self.roots.size

    def predict(self, X) -> np.ndarray:
        """A one-tree table's prediction for each row of ``X``."""
        if len(self) != 1:
            raise ModelError(f"predict needs a table of one tree, this one holds {len(self)}")
        (values,) = self.leaf_values(check_prediction_data(X, self.n_features))
        return values

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Tree ``t``'s prediction for row ``r`` of ``X`` at ``[t, r]``.
        ``X`` is as ``check_prediction_data`` returns it: row-major, so
        feature ``f`` of row ``r`` is ``X.ravel()[r * p + f]``. Every
        (tree, row) pair moves down one level per step until all of them
        are at leaves; ``X`` is finite, so ``x > threshold`` is exactly
        ``not x <= threshold``, the fit's test."""
        rows, p = X.shape
        cells = X.ravel()
        at = np.arange(rows) * p
        node = np.repeat(self.roots[:, None], rows, axis=1)
        for _ in range(self.max_depth):
            left = self.left[node]
            split = left >= 0
            if not split.any():
                break
            right = cells[at + self.feature[node]] > self.threshold[node]
            node = np.where(split, left + right, node)
        return self.value[node]

    def to_list(self) -> list[dict]:
        """Each tree as a model file holds it: nested nodes under
        ``root``, with the table's ``max_depth`` and ``n_features``."""
        feature, threshold, left, value = (
            a.tolist() for a in (self.feature, self.threshold, self.left, self.value)
        )
        # Children come after their parent, so each is built before it.
        nodes: list = [None] * len(left)
        for i in range(len(left) - 1, -1, -1):
            child = left[i]
            if child < 0:
                nodes[i] = {"leaf": value[i]}
            else:
                nodes[i] = {
                    "feature": feature[i],
                    "threshold": threshold[i],
                    "left": nodes[child],
                    "right": nodes[child + 1],
                }
        return [
            {
                "root": nodes[root],
                "max_depth": self.max_depth,
                # Every tree grown here may have one-row leaves.
                "min_samples_leaf": 1,
                "n_features": self.n_features,
            }
            for root in self.roots.tolist()
        ]


def _one_tree(feature, threshold, left, value, max_depth, n_features) -> TreeTable:
    """The table of one tree's node lists."""
    feature, left = (np.array(a, dtype=np.intp) for a in (feature, left))
    threshold, value = (np.array(a, dtype=np.float64) for a in (threshold, value))
    return TreeTable(feature, threshold, left, value, np.zeros(1, np.intp), max_depth, n_features)


def join_tables(tables, max_depth: int, n_features: int) -> TreeTable:
    """One table of the trees of ``tables``, in order."""
    sizes = np.array([table.left.size for table in tables], dtype=np.intp)
    counts = np.array([len(table) for table in tables], dtype=np.intp)
    offsets = np.cumsum(sizes) - sizes
    feature, threshold, left, value, roots = (
        np.concatenate([np.empty(0, dtype)] + [getattr(table, name) for table in tables])
        for name, dtype in (
            ("feature", np.intp), ("threshold", np.float64), ("left", np.intp),
            ("value", np.float64), ("roots", np.intp),
        )
    )
    left = np.where(left >= 0, left + np.repeat(offsets, sizes), -1)
    roots += np.repeat(offsets, counts)
    return TreeTable(feature, threshold, left, value, roots, max_depth, n_features)


def _read_nodes(root) -> tuple[list, list, list, list, int]:
    """The node lists (feature, threshold, left, value) of the nested
    nodes under ``root`` and the tree's height, read without recursion, so
    that a tree of any depth reads. A malformed node raises
    :class:`ModelError` naming its path from the root, as
    ``field 'left': field 'right': ...``."""
    feature, threshold, left, value = [0], [0.0], [-1], [0.0]
    parent, depth = [-1], [0]
    stack = [(root, 0)]
    while stack:
        data, i = stack.pop()
        try:
            if isinstance(data, dict) and "leaf" in data:
                value[i] = read_field(data, "leaf", finite_float)
                continue
            feature[i] = read_field(data, "feature", integer)
            threshold[i] = read_field(data, "threshold", finite_float)
            below = read_field(data, "left", _node), read_field(data, "right", _node)
        except ModelError as exc:
            path, node = [], i
            while parent[node] >= 0:
                path.append("left" if left[parent[node]] == node else "right")
                node = parent[node]
            raise ModelError("".join(f"field {side!r}: " for side in reversed(path)) + str(exc))
        child = left[i] = len(left)
        feature += [0, 0]
        threshold += [0.0, 0.0]
        left += [-1, -1]
        value += [0.0, 0.0]
        parent += [i, i]
        depth += [depth[i] + 1] * 2
        stack += ((below[1], child + 1), (below[0], child))
    return feature, threshold, left, value, max(depth)


def _node(data):
    """A child node's JSON, read later by ``_read_nodes``."""
    return data


def _read_tree(data: dict, t: int) -> TreeTable:
    """Tree ``t`` of a model file, as :meth:`TreeTable.to_list` writes it;
    a node that splits on a feature outside ``[0, n_features)``, a tree
    deeper than its ``max_depth`` or a ``min_samples_leaf`` other than 1
    raises :class:`ModelError`."""
    feature, threshold, left, value, height = read_field(data, "root", _read_nodes)
    max_depth = read_field(data, "max_depth", integer)
    min_samples_leaf = read_field(data, "min_samples_leaf", integer)
    n_features = read_field(data, "n_features", integer)
    for f, child in zip(feature, left):
        if child >= 0 and not 0 <= f < n_features:
            raise ModelError(f"a node splits on feature {f}, outside [0, {n_features})")
    if height > max_depth:
        raise ModelError(f"a tree {height} levels deep has max_depth {max_depth}")
    if min_samples_leaf != 1:
        raise ModelError(f"tree {t} has min_samples_leaf {min_samples_leaf}, not 1")
    return _one_tree(feature, threshold, left, value, max_depth, n_features)


def read_trees(data: dict, n_features: int) -> TreeTable:
    """The ``trees`` field of an ensemble's file as one table; a tree that
    reads other than the ensemble's ``n_features`` columns, or whose
    ``max_depth`` differs from the first tree's, raises
    :class:`ModelError`."""
    trees = read_field(data, "trees", lambda ts: [_read_tree(tr, t) for t, tr in enumerate(ts)])
    for t, tree in enumerate(trees):
        if tree.n_features != n_features:
            raise ModelError(
                f"field 'trees': a tree reads {tree.n_features} features, "
                f"the model {n_features}"
            )
        if tree.max_depth != trees[0].max_depth:
            raise ModelError(
                f"field 'trees': tree {t} has max_depth {tree.max_depth}, "
                f"tree 0 has {trees[0].max_depth}"
            )
    return join_tables(trees, trees[0].max_depth if trees else 0, n_features)


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
    agree, there is a row, there is a column, ``y`` is finite, ``X`` is
    finite."""
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
    if X.shape[1] == 0:
        raise ModelError("X has 0 columns")
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
    X, y, max_depth: int, features_per_node: int | None = None, seed: int = 0
) -> TreeTable:
    """Fit a CART regression tree, as a one-tree table. A node is a leaf
    when it is at ``max_depth``, holds fewer than two rows, has a constant
    target or has no valid cut (one between two distinct values).

    ``features_per_node`` limits the split search at every node to a seeded
    random draw of that many features (the regression-forest convention);
    ``None``, or at least every feature, searches every feature. The tree
    is one :class:`_Growth`: grown level by level when it searches every
    feature, or depth first when it draws, so that the draws follow the
    depth-first order of its nodes.
    """
    X, y = check_training_data(X, y)
    if max_depth < 0:
        raise ModelError("max_depth must be >= 0")
    if features_per_node is not None and features_per_node < 1:
        raise ModelError(f"features_per_node must be >= 1, got {features_per_node!r}")

    p = X.shape[1]
    values = X.T[None]
    if features_per_node is None or features_per_node >= p:
        nodes = _Growth(values, max_depth).grow(y[None])
    else:
        widths, draws = np.array([p]), np.array([features_per_node])
        nodes = grow_depth_first(values, y[None], max_depth, [seed], widths, draws)
    return _tables([nodes], 1, max_depth, [p])[0]


def grow_depth_first(values, y, max_depth, seeds, widths, draws, n_rows=None) -> tuple:
    """Grow one tree per leading index in lockstep and return their
    :meth:`_Growth.nodes`.

    Tree ``t`` trains on targets ``y[t]`` and the first ``widths[t]`` rows
    of ``values[t]`` (p x n: row ``f`` is feature ``f`` of its n rows),
    the rest zero padding; ``n_rows`` is as :class:`_Growth` takes it.
    Each searched node draws ``draws[t]`` features from
    ``SplitMix64(seeds[t])``, in depth-first order; ``widths`` and
    ``draws`` are integer arrays of one entry per tree. A tree that draws
    all of its features searches them as :meth:`_Growth.grow` searches
    every feature. A tree that draws fewer than the most must be narrower
    than ``values``: its draws are padded with its first padding row,
    which has no valid cut. Each step takes the next depth-first node of
    every unfinished tree, and every tree is the one it would be grown
    alone.
    """
    growth = _Growth(values, max_depth, n_rows=n_rows)
    rngs = [SplitMix64(seed) for seed in seeds]
    # Per tree, the nodes still to search: a stack in depth-first order.
    pending = {t: [t] for t in np.flatnonzero(growth.plant(y)).tolist()}
    while pending:
        ids = [stack.pop() for stack in pending.values()]
        trees = list(pending)
        drawn = sample_many([rngs[t] for t in trees], widths[trees], draws[trees])
        pending = {t: stack for t, stack in pending.items() if stack}
        split = growth.step(np.array(ids), np.sort(drawn, axis=1))
        for tree, left, search_left, search_right in zip(*(a.tolist() for a in split)):
            # Right first, so that the left child is searched next.
            if search_right:
                pending.setdefault(tree, []).append(left + 1)
            if search_left:
                pending.setdefault(tree, []).append(left)
    return growth.nodes()


# A node joins a step's group of larger nodes while padding the group's
# nodes to its largest wastes at most _PAD_CELLS cells (rows x candidate
# features) in all: below that, per-call overhead outweighs the padded
# arithmetic. A group also holds at most _GROUP_CELLS cells of row lists
# (nodes x lists x padded rows), which bounds a step's memory: its arrays
# take about 100 bytes a cell. At 2^13 cells, 200 lockstep boosters of
# additives24.csv's msc splits fitted in 1.07-1.71 s against 1.19-1.67 s
# at 2^16 (CPU time, four runs each), and a 200-repeat rf evaluate, which
# grows three forests together, peaked at 35.5 MB against 38.5 MB
# (ru_maxrss).
_PAD_CELLS = 2048
_GROUP_CELLS = 1 << 13

# A node of at least _WIDE rows is searched alone, and so is each node of a
# step or group of fewer than _FEW: for those, a node's own slice of the
# lists, read and partitioned in place, costs less than the padded gather
# and scatter of a group. With 32 and 5, a 2,000 x 24 booster (35 depth-4
# trees), an 11-tree forest of 2,000 x 24 and a 24-row booster fitted in
# 0.99, 1.06 and 1.23 times the time of the recursive learner they
# replaced, and a 16-repeat gb and a 12-repeat rf evaluate of
# additives24.csv in 1.02 and 0.99 times that of the lockstep growth before
# (CPU time, best of 6-20 runs alternating with the parent's in one
# process, 2-vCPU host).
_WIDE = 32
_FEW = 5

# The most bytes one _Growth may hold; a forest or a set of boosters
# larger than this grows in chunks.
_CHUNK_BYTES = 1 << 26


def _costs(xs, ys, last, k, rest) -> np.ndarray:
    """The cost of every cut of every node, by the weighted sum of squared
    errors of its two children, as nodes x features x cells: the cut at
    cell ``j`` puts the first ``j + 1`` cells left, and is inf where it is
    invalid. ``xs`` and ``ys`` hold each node's feature values and targets
    in each feature's order, padded by repeating its last row; ``last`` is
    each node's last real cell, or None when no node is padded; ``k`` and
    ``rest`` are the left and right sizes of each node's cuts, at least 1.
    ``ys`` is overwritten."""
    # cumsum adds in sequence, so each node's prefix sums are its own, bit
    # for bit, up to its last row; its totals are read there.
    s1 = ys.cumsum(axis=2)
    ys *= ys
    s2 = ys.cumsum(axis=2)
    if last is None:
        total1, total2 = s1[:, :, -1:], s2[:, :, -1:]
    else:
        nodes = np.arange(xs.shape[0])
        total1, total2 = s1[nodes, :, last][:, :, None], s2[nodes, :, last][:, :, None]
    # cost = (s2 - s1**2 / k) + ((total2 - s2) - (total1 - s1)**2 / rest),
    # evaluated in that order, in as few buffers as it needs.
    cost = s1 * s1
    cost /= k
    np.subtract(s2, cost, cost)
    right = total1 - s1
    right *= right
    right /= rest
    np.subtract(total2, s2, s1)
    s1 -= right
    cost += s1
    # Lists are sorted, so a cut between unequal values is valid. Padded
    # cells repeat their node's last row, so no padded cut is, and no cut
    # follows the last cell.
    cost[:, :, -1] = np.inf
    cost[:, :, :-1][xs[:, :, :-1] == xs[:, :, 1:]] = np.inf
    return cost


class _Growth:
    """The nodes of a batch of trees over one shared layout.

    Tree ``t`` trains on the first ``n_rows[t]`` of the n columns of
    ``values[t]`` (all n by default); the rest are padding, in no node.
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

    Trees are grown on targets given to :meth:`plant`. With ``replant``,
    the sorted lists are kept, so that the same rows can grow a new set of
    trees on new targets (a boosting round) without sorting again.
    """

    def __init__(self, values, max_depth, replant=False, n_rows=None):
        n_trees, p, n = values.shape
        self.n_trees, self.p, self.n = n_trees, p, n
        self.max_depth = max_depth
        self.n_rows = np.full(n_trees, n) if n_rows is None else np.asarray(n_rows)
        # Feature f of row t * n + r is values[t * (p - 1) * n + f * n + (t * n + r)].
        self.values = np.ascontiguousarray(values, dtype=np.float64).ravel()
        lists = np.empty(n_trees * (p + 1) * n + 1, dtype=np.intp)
        by_tree = lists[:-1].reshape(n_trees, p + 1, n)
        by_tree[:, p] = np.arange(n_trees * n).reshape(n_trees, n)
        # One tree at a time bounds the argsort's memory. A tree's padding
        # rows, past its own, belong to no node.
        for t, m in enumerate(self.n_rows.tolist()):
            order = np.argsort(values[t, :, :m], axis=1, kind="stable")
            np.add(order, t * n, out=by_tree[t, :p, :m])
        self.lists, self.by_tree = lists, by_tree
        self.sorted_lists = lists.copy() if replant else None
        # Partition writes of padded cells land in this last, unused slot.
        self.spill = lists.size - 1
        # Where tree t's lists start, and where its feature values start
        # relative to its row numbers.
        self.list_at = (np.arange(n_trees) * ((p + 1) * n))[:, None] + np.arange(p + 1) * n
        self.shift_at = (np.arange(n_trees) * ((p - 1) * n))[:, None] + np.arange(p) * n
        self.goes_left = np.zeros(n_trees * n, dtype=bool)
        # A cut after cell j of a node of m rows leaves j + 1 rows left and
        # m - j - 1 right; right_sizes[n - m:] holds those, with 1 for the
        # cut after the last cell, which is never valid.
        self.left_sizes = np.arange(1, n + 1, dtype=np.float64)
        self.right_sizes = np.maximum(self.left_sizes[::-1] - 1.0, 1.0)
        # Every node holds a row, so a tree has at most 2n - 1 nodes.
        capacity = n_trees * (2 * n - 1)
        self.cells = np.arange(capacity)
        self.features = np.arange(p)
        self.cells32 = np.arange(n, dtype=np.int32)
        self.tree = np.empty(capacity, dtype=np.intp)
        self.start = np.zeros(capacity, dtype=np.intp)
        self.size = np.empty(capacity, dtype=np.intp)
        self.depth = np.zeros(capacity, dtype=np.intp)
        self.left = np.full(capacity, -1, dtype=np.intp)
        self.feature = np.zeros(capacity, dtype=np.intp)
        self.threshold = np.zeros(capacity, dtype=np.float64)
        self.tree[:n_trees] = self.cells[:n_trees]
        self.size[:n_trees] = self.n_rows
        self.count = 0

    def plant(self, y) -> np.ndarray:
        """Start one tree per set of rows, its root holding them all, on
        targets ``y`` (trees x n). Returns which roots are not leaves
        before any search: not at max depth, big enough to split, and with
        a non-constant target."""
        if self.count:  # a replant: partitions moved the lists
            np.copyto(self.lists, self.sorted_lists)
            self.left[: self.count] = -1
            self.feature[: self.count] = 0
            self.threshold[: self.count] = 0.0
        self.count = self.n_trees
        self.y = np.ascontiguousarray(y, dtype=np.float64).ravel()
        y = self.y.reshape(self.n_trees, self.n)
        varies = ((y != y[:, :1]) & (self.cells[: self.n] < self.n_rows[:, None])).any(axis=1)
        return (self.max_depth > 0) & (self.n_rows >= 2) & varies

    def grow(self, y, fitted: np.ndarray | None = None) -> tuple:
        """Plant trees on targets ``y`` and grow them level by level: each
        step searches every pending node of every tree. Returns the
        trees' :meth:`nodes`; ``fitted`` (trees x n), if given, receives
        each training row's leaf value.

        Only for trees that draw no features per node: then no generator
        ties a node to a depth-first order, and each tree is the one
        :func:`grow_depth_first` grows when it draws every feature.
        """
        ids = np.flatnonzero(self.plant(y))
        while ids.size:
            _, left, search_left, search_right = self.step(ids, None)
            ids = np.concatenate((left[search_left], left[search_right] + 1))
        return self.nodes(fitted)

    def step(self, ids: np.ndarray, feats: np.ndarray | None) -> tuple:
        """Search the nodes ``ids`` (candidate features ``feats[i]`` for
        node ``ids[i]``, or every feature if None) and split those with a
        valid cut. Returns, as arrays over the split nodes: the tree, the
        left child's id, whether the left child needs a search and whether
        the right one does."""
        one_group = self.cells[: ids.size]
        if ids.size < _FEW:
            groups = [one_group]
        else:
            size = self.size[ids]
            n_feats = self.p if feats is None else feats.shape[1]
            widest, total = int(size.max()), int(size.sum())
            if (
                widest < _WIDE
                and (widest * ids.size - total) * n_feats <= _PAD_CELLS
                and widest * ids.size * (self.p + 1) <= _GROUP_CELLS
            ):
                groups = [one_group]
            else:
                groups = self._groups(size, n_feats)
        split, alone = [], []
        for g in groups:
            if g.size >= _FEW:
                split.append(self._split(ids[g], None if feats is None else feats[g]))
            else:  # a group of few nodes splits them one at a time
                for i in g.tolist():
                    alone += self._split_one(int(ids[i]), None if feats is None else feats[i])
        if alone or not split:
            columns = zip(*alone) if alone else ((),) * 4
            dtypes = (np.intp, np.intp, bool, bool)
            split.append(tuple(np.array(c, dtype=d) for c, d in zip(columns, dtypes)))
        return split[0] if len(split) == 1 else tuple(map(np.concatenate, zip(*split)))

    def _groups(self, size, n_feats) -> list:
        """Positions in ``size`` (the sizes of a step's nodes) grouped by
        size, largest first, under the padding and memory bounds."""
        by_size = np.argsort(-size, kind="stable")
        sizes = size[by_size].tolist()
        groups, first, waste = [], 0, 0
        for i, m in enumerate(sizes):
            waste += (sizes[first] - m) * n_feats
            if i > first and (
                sizes[first] >= _WIDE
                or waste > _PAD_CELLS
                or (i + 1 - first) * sizes[first] * (self.p + 1) > _GROUP_CELLS
            ):
                groups.append(by_size[first:i])
                first, waste = i, 0
        groups.append(by_size[first:])
        return groups

    def _split(self, ids, feats):
        """:meth:`step` on a group of at least ``_FEW`` nodes, laid out
        padded to the largest."""
        p = self.p
        tree, start, size = self.tree[ids], self.start[ids], self.size[ids]
        nodes = self.cells[: ids.size]
        width = int(size.max())
        cells = self.cells[:width]
        # Each node's rows in each list's order, padded to the group's
        # largest node by repeating its last row.
        at = (np.minimum(cells, size[:, None] - 1) + start[:, None])[:, None, :]
        every = self.lists[self.list_at[tree][:, :, None] + at]
        # Feature f of row g is at g + shift[f].
        shift = self.shift_at[tree]
        if feats is None:
            feats = self.features
            rows = every[:, :p]
        else:
            rows, shift = every[nodes[:, None], feats], shift[nodes[:, None], feats]
        xs = self.values[rows + shift[:, :, None]]
        # Right sizes; a padded cut gets 1 so that it divides by no zero.
        k = self.left_sizes[:width]
        rest = np.maximum(size[:, None] - k, 1.0)[:, None, :]
        cost = _costs(xs, self.y[rows], size - 1, k, rest).reshape(ids.size, -1)

        best = cost.argmin(axis=1)
        lowest = cost[nodes, best]
        hit = lowest < np.inf
        if hit.all():
            hit = nodes
        else:
            hit = np.flatnonzero(hit)
            cost, lowest, best = cost[hit], lowest[hit], best[hit]
        near = cost <= (lowest + 1e-9 * (1.0 + np.abs(lowest)))[:, None]
        local, cut = np.divmod(best, width)
        below, above = xs[hit, local, cut], xs[hit, local, cut + 1]
        threshold = (below + above) / 2.0
        tied = np.flatnonzero(near.sum(axis=1) > 1)
        if tied.size:
            b = hit[tied]
            local[tied], cut[tied], threshold[tied], below[tied], above[tied] = self._settle(
                b, near[tied], xs, every[b, p], shift, size[b]
            )

        # The left rows are those up to the threshold: a prefix of the
        # chosen feature's list, cut + 1 rows long unless the midpoint left
        # [below, above) (two adjacent floats, or a sum that overflowed).
        n_left = cut + 1
        size = size[hit]
        if ((threshold >= above) | (threshold < below)).any():
            n_left = np.minimum((xs[hit, local] <= threshold[:, None]).sum(axis=1), size)
            split = (n_left > 0) & (n_left < size)
            size, n_left, local, threshold = size[split], n_left[split], local[split], threshold[split]
            hit = hit[split]
        ids, tree, start = ids[hit], tree[hit], start[hit]
        self.feature[ids] = feats[hit, local] if feats.ndim == 2 else feats[local]
        self.threshold[ids] = threshold

        in_left = cells < n_left[:, None]
        sorted_rows = rows[hit, local]
        self.goes_left[sorted_rows] = in_left
        deep = self.depth[ids] + 1
        search_left = search_right = deep < self.max_depth
        if search_left.any():
            # Leaves before any search: too small, or with a constant
            # target. Each child is a run of cells in the chosen feature's
            # order, and the right one runs to the padded end.
            ys = self.y[sorted_rows]
            differs = (ys != ys[:, :1]) & in_left
            search_left = search_left & (n_left >= 2) & differs.any(axis=1)
            differs = (ys != ys[:, -1:]) > in_left
            search_right = search_right & (size - n_left >= 2) & differs.any(axis=1)
        # Children that are all leaves need only their index-order list,
        # for their means.
        moved = slice(None) if (search_left | search_right).any() else slice(p, None)
        every, lists = every[hit, moved], self.list_at[tree, moved]
        # A cell's new place in its segment: the left rows in their order,
        # then the right rows in theirs. Padded cells come after a node's
        # real ones, so they do not move its real cells' places. Arithmetic
        # on the mask, in int32, is far faster than np.where on a mask this
        # irregular.
        in_node = (cells < size[:, None])[:, None, :]
        moves_left = self.goes_left[every]
        before = moves_left.cumsum(axis=2, dtype=np.int32)
        right = self.cells32[:width] - before + n_left.astype(np.int32)[:, None, None]
        slot = right + moves_left * (before - 1 - right)
        self.lists[np.where(in_node, slot + (lists + start[:, None])[:, :, None], self.spill)] = every

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
        return tree, left, search_left, search_right

    def _split_one(self, i, feats) -> list:
        """:meth:`_split` of node ``i`` alone (candidate features ``feats``,
        or every feature if None): the same search on its slice of its
        tree's lists, read in place, with no padding. Returns a list of
        one (tree, left child, search left, search right) if it splits."""
        p = self.p
        t, a, m = int(self.tree[i]), int(self.start[i]), int(self.size[i])
        segment = self.by_tree[t, :, a : a + m]
        if feats is None:
            rows, shift = segment[:p], self.shift_at[t]
        else:
            rows, shift = segment[feats], self.shift_at[t, feats]
        xs = self.values[rows + shift[:, None]]
        rest = self.right_sizes[self.n - m :]
        cost = _costs(xs[None], self.y[rows][None], None, self.left_sizes[:m], rest).ravel()
        best = int(cost.argmin())
        lowest = float(cost[best])
        if lowest == np.inf:
            return []
        near = (cost <= lowest + 1e-9 * (1.0 + abs(lowest))).nonzero()[0]
        if near.size > 1:
            # Rivals, re-scored as _settle re-scores a group's.
            features, cuts = np.divmod(near, m)
            thresholds = (xs[features, cuts] + xs[features, cuts + 1]) / 2.0
            in_order = segment[p]
            goes_left = self.values[shift[features][:, None] + in_order] <= thresholds[:, None]
            best = near[_rescore(goes_left, features, thresholds, self.y[in_order])]
        local, cut = divmod(int(best), m)
        below, above = float(xs[local, cut]), float(xs[local, cut + 1])
        threshold = (below + above) / 2.0
        n_left = cut + 1
        if not below <= threshold < above:
            n_left = min(int(np.count_nonzero(xs[local] <= threshold)), m)
            if not 0 < n_left < m:
                return []
        self.feature[i] = local if feats is None else feats[local]
        self.threshold[i] = threshold
        sorted_rows = rows[local].copy()
        self.goes_left[sorted_rows] = self.cells[:m] < n_left
        depth = int(self.depth[i]) + 1
        search_left = search_right = depth < self.max_depth
        if search_left:
            ys = self.y[sorted_rows]
            search_left = n_left >= 2 and bool((ys[1:n_left] != ys[0]).any())
            search_right = m - n_left >= 2 and bool((ys[n_left:-1] != ys[-1]).any())
        self._partition(segment if search_left or search_right else segment[p:], n_left)
        left = self.count
        self.count += 2
        self.left[i] = left
        self.tree[left : left + 2] = t
        self.depth[left : left + 2] = depth
        self.start[left : left + 2] = a, a + n_left
        self.size[left : left + 2] = n_left, m - n_left
        return [(t, left, search_left, search_right)]

    def _partition(self, segment, n_left):
        """Partition a node's segment of each list (a lists x rows view) in
        place: its left rows, then its right rows, each in their order."""
        moves_left = self.goes_left[segment]
        left_rows, right_rows = segment[moves_left], segment[~moves_left]
        segment[:, :n_left] = left_rows.reshape(-1, n_left)
        segment[:, n_left:] = right_rows.reshape(segment.shape[0], -1)

    def _settle(self, nodes, near, xs, in_order, shift, size):
        """(local feature, cut, threshold, values below and above the cut)
        for each of ``nodes``, which all have several near-minimal cuts
        (``near``, in (feature, position) order per node).

        Different features can induce the *same* partition (e.g. both
        split off one extreme row), or its mirror (two features ordering
        the rows in opposite directions); their prefix-sum costs then
        differ only by rounding. A node whose near cuts all induce one
        unordered partition keeps its first, as ``_rescore`` would; the
        others are re-scored one node at a time by ``_rescore``, over
        their rows in index order (``in_order``).
        """
        which, flat = np.nonzero(near)
        feature, cut = np.divmod(flat, xs.shape[2])
        b = nodes[which]
        below, above = xs[b, feature, cut], xs[b, feature, cut + 1]
        threshold = (below + above) / 2.0
        rows = in_order[which]
        # Each near cut's left rows among its node's rows in index order.
        # Padded cells repeat the last row, so a mask that equals the first
        # cut's, or its complement, on the real cells does on them too.
        goes_left = self.values[shift[b, feature][:, None] + rows] <= threshold[:, None]
        counts = near.sum(axis=1)
        chosen = np.cumsum(counts) - counts
        differs = goes_left ^ np.repeat(goes_left[chosen], counts, axis=0)
        same = ~differs.any(axis=1) | differs.all(axis=1)
        for i in np.flatnonzero(~np.logical_and.reduceat(same, chosen)).tolist():
            cuts, m = slice(chosen[i], chosen[i] + counts[i]), size[i]
            chosen[i] += _rescore(
                goes_left[cuts, :m], feature[cuts], threshold[cuts], self.y[rows[chosen[i], :m]]
            )
        return feature[chosen], cut[chosen], threshold[chosen], below[chosen], above[chosen]

    def nodes(self, fitted: np.ndarray | None = None) -> tuple:
        """The trees' nodes as arrays of feature, threshold, left child,
        value, each tree's nodes together, and each tree's node count,
        after setting each leaf to the mean of its targets in index order.
        ``fitted``, a C-ordered float64 array of trees x n, receives each
        training row's leaf value."""
        count = self.count
        in_order = self.by_tree[:, self.p].ravel()
        leaves = np.flatnonzero(self.left[:count] < 0)
        value = np.zeros(count, dtype=np.float64)
        # ``_mean`` is a pairwise sum, whose blocking depends on length, so
        # only leaves of one length are summed together.
        leaves = leaves[np.argsort(self.size[leaves], kind="stable")]
        sizes = self.size[leaves]
        at = (self.tree[leaves] * self.n + self.start[leaves])[:, None]
        bounds = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), leaves.size]
        for first, end in zip(bounds, bounds[1:]):
            m = int(sizes[first])
            rows = in_order[at[first:end] + self.cells[:m]]
            means = self.y[rows].sum(axis=1) / m
            value[leaves[first:end]] = means
            if fitted is not None:
                fitted.reshape(-1)[rows] = means[:, None]
        # Each tree's nodes together, in id order: the root (node t) comes
        # first, and two children, numbered together, stay together.
        tree = self.tree[:count]
        order = np.argsort(tree, kind="stable")
        at = np.empty_like(order)
        at[order] = self.cells[:count]
        left = self.left[:count][order]
        return (
            self.feature[:count][order], self.threshold[:count][order],
            np.where(left >= 0, at[left], -1), value[order],
            np.bincount(tree, minlength=self.n_trees),
        )


def _join_nodes(parts) -> tuple:
    """The :meth:`_Growth.nodes` of several growths, their trees one after
    another, as one growth of all of them hands them out."""
    if len(parts) == 1:
        return parts[0]
    feature, threshold, left, value, counts = map(np.concatenate, zip(*parts))
    sizes = [part[0].size for part in parts]
    shift = np.repeat(np.cumsum(sizes) - sizes, sizes)
    return feature, threshold, np.where(left >= 0, left + shift, -1), value, counts


def _tables(parts, per_table: int, max_depth: int, widths) -> list[TreeTable]:
    """One table per run of ``per_table`` trees, table ``k`` ``widths[k]``
    features wide, from the nodes of one or more growths of equally many
    trees, each as :meth:`_Growth.nodes` hands them out. Tree ``t`` of
    growth ``g`` is tree ``t * len(parts) + g`` of the run, so that the
    growths of a boosting run are its rounds. Each tree's nodes move as
    one block, to where the run places it; the tables are views of one
    set of arrays.
    """
    if not parts:  # boosters of no trees
        return [join_tables([], max_depth, width) for width in widths]
    run = np.array([part[4] for part in parts]).T.ravel()  # each tree's node count
    roots = np.cumsum(run) - run
    firsts = roots[::per_table]
    feature, left = np.empty((2, run.sum()), dtype=np.intp)
    threshold, value = np.empty((2, run.sum()))
    for g, (f, th, lf, v, counts) in enumerate(parts):
        # The growth's trees in the run; each moves its nodes by one shift,
        # and its table numbers them from the table's first node.
        trees = np.arange(counts.size) * len(parts) + g
        shift = np.repeat(roots[trees] - (np.cumsum(counts) - counts), counts)
        at = shift + np.arange(shift.size)
        feature[at], threshold[at], value[at] = f, th, v
        first = np.repeat(firsts[trees // per_table], counts)
        left[at] = np.where(lf >= 0, lf + shift - first, -1)
    ends = [*firsts[1:].tolist(), run.sum()]
    roots = roots - np.repeat(firsts, per_table)
    return [
        TreeTable(
            feature[a:b], threshold[a:b], left[a:b], value[a:b],
            roots[k * per_table : (k + 1) * per_table], max_depth, width,
        )
        for k, (a, b, width) in enumerate(zip(firsts.tolist(), ends, widths))
    ]


def _mean(a: np.ndarray) -> float:
    """``float(a.mean())`` bit for bit (the same pairwise sum, one IEEE
    division) without ``ndarray.mean``'s Python-level wrapper."""
    return float(a.sum()) / a.size


def _rescore(goes_left, features, thresholds, target) -> int:
    """Which of one node's near-minimal cuts is best by its exact children
    SSE; ties go to the smallest feature, then the smallest threshold.

    Row ``k`` of ``goes_left`` marks cut ``k``'s left rows among the
    node's rows in index order, whose targets are ``target``. The direct
    formula over rows in index order is bitwise identical for identical
    partitions, and for a partition and its mirror (left and right
    swapped: the same two sums, added the other way round), so each
    distinct unordered partition is scored once, and none when all cuts
    induce one (the first then wins).
    """
    # Each mask as its unordered partition: flipped so that it sends the
    # node's first row left.
    keys = [key.tobytes() for key in goes_left ^ ~goes_left[:, :1]]
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
