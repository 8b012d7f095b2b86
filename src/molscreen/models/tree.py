"""Greedy CART regression tree.

Split search is exact: every midpoint between consecutive distinct sorted
values of every candidate feature is scored by the weighted sum of squared
errors of the two children, with ties broken toward the smallest feature
index and then the smallest threshold. Each column is sorted once per fit,
not per node. Randomness enters only through optional per-node feature
subsampling (used by the forest), driven by a seeded generator.

``fit_tree`` grows one tree node by node; ``grow_depth_first`` grows a
forest's trees in lockstep, searching one node of every tree per step in
one set of array calls, and yields the same trees. ``_Growth.grow`` steps
trees that draw no features (gradient boosting's) level by level instead:
one step searches every pending node of every tree.

An ensemble's trees, or one tree, are one ``TreeTable``: flat node arrays
over all of their nodes, built once when the model is fitted or read.
Prediction moves every (tree, row) pair down one level per step.
"""

from __future__ import annotations

import math
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
    X,
    y,
    max_depth: int,
    features_per_node: int | None = None,
    seed: int = 0,
    *,
    order: np.ndarray | None = None,
    fitted: np.ndarray | None = None,
) -> TreeTable:
    """Fit a CART regression tree, as a one-tree table. A node is a leaf
    when it is at ``max_depth``, holds fewer than two rows, has a constant
    target or has no valid cut (one between two distinct values).

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
    # The node arrays, node 0 the root; a split appends its two children.
    node_feature, node_threshold, node_left, node_value = [0], [0.0], [-1], [0.0]

    def leaf(node: int, idx: np.ndarray, target: np.ndarray) -> None:
        value = node_value[node] = _mean(target)
        if fitted is not None:
            fitted[idx] = value

    def build(node: int, idx: np.ndarray, rows: np.ndarray | None, depth: int) -> None:
        # idx: the node's rows, increasing; rows: p x idx.size, row f holds
        # them in ascending order of feature f (None at max_depth).
        target = y[idx]
        if depth >= max_depth or idx.size < 2 or (target == target[0]).all():
            return leaf(node, idx, target)
        if features_per_node is not None and features_per_node < n_features:
            feats = sorted(rng.sample(list(range(n_features)), features_per_node))
            found = _best_split(values, starts[feats], rows[feats], idx, y, target)
        else:
            feats = range(n_features)
            found = _best_split(values, starts, rows, idx, y, target)
        if found is None:
            return leaf(node, idx, target)
        local_feature, threshold, go_left = found
        left_idx = idx[go_left]
        n_left = left_idx.size
        if n_left == 0 or n_left == idx.size:
            return leaf(node, idx, target)
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
        node_feature[node], node_threshold[node] = feats[local_feature], threshold
        child = node_left[node] = len(node_left)
        node_feature.extend((0, 0))
        node_threshold.extend((0.0, 0.0))
        node_left.extend((-1, -1))
        node_value.extend((0.0, 0.0))
        build(child, left_idx, left_rows, depth + 1)
        build(child + 1, idx[~go_left], right_rows, depth + 1)

    build(0, np.arange(n), order, 0)
    # build refers to itself; dropping the name breaks that cycle, so its
    # arrays are freed now rather than at the next garbage collection.
    del build, leaf
    return _one_tree(node_feature, node_threshold, node_left, node_value, max_depth, n_features)


def grow_depth_first(values, y, max_depth, seeds, widths, draws) -> tuple:
    """Grow one tree per leading index in lockstep, the forest's learner
    for trees with few rows, and return their :meth:`_Growth.nodes`.

    Tree ``t`` trains on targets ``y[t]`` and the first ``widths[t]`` rows
    of ``values[t]`` (p x n: row ``f`` is feature ``f`` of its n rows),
    the rest zero padding. Each searched node draws ``draws[t]`` features
    from ``SplitMix64(seeds[t])``, in depth-first order; ``widths`` and
    ``draws`` are integer arrays of one entry per tree. A tree that draws
    all of its features searches them as ``fit_tree`` searches every
    feature. A tree that draws fewer than the most must be narrower than
    ``values``: its draws are padded with its first padding row, which has
    no valid cut. Each step takes the next depth-first node of every
    unfinished tree, and every tree is bitwise the one ``fit_tree`` grows
    from the same data and seed.
    """
    growth = _Growth(values, max_depth)
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

# The most bytes one _Growth may hold; a forest or a set of boosters
# larger than this grows in chunks.
_CHUNK_BYTES = 1 << 26


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

    Trees are grown on targets given to :meth:`plant`. With ``replant``,
    the sorted lists are kept, so that the same rows can grow a new set of
    trees on new targets (a boosting round) without sorting again.
    """

    def __init__(self, values, max_depth, replant=False):
        n_trees, p, n = values.shape
        self.n_trees, self.p, self.n = n_trees, p, n
        self.max_depth = max_depth
        # Feature f of row t * n + r is values[t * (p - 1) * n + f * n + (t * n + r)].
        self.values = np.ascontiguousarray(values, dtype=np.float64).ravel()
        lists = np.empty(n_trees * (p + 1) * n + 1, dtype=np.intp)
        shaped = lists[:-1].reshape(n_trees, p + 1, n)
        shaped[:, p] = np.arange(n_trees * n).reshape(n_trees, n)
        for t in range(n_trees):  # one tree at a time bounds the argsort's memory
            np.add(np.argsort(values[t], axis=1, kind="stable"), t * n, out=shaped[t, :p])
        self.lists = lists
        self.sorted_lists = lists.copy() if replant else None
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
        return (self.max_depth > 0) & (self.n >= 2) & (y != y[:, :1]).any(axis=1)

    def grow(self, y, fitted: np.ndarray) -> list[tuple]:
        """Plant trees on targets ``y`` and grow them level by level: each
        step searches every pending node of every tree. Returns the
        trees' :meth:`nodes`; ``fitted`` (trees x n) receives each training
        row's leaf value.

        Only for trees that draw no features per node: then no generator
        ties a node to a depth-first order, and each tree is bitwise the
        one ``fit_tree`` grows, with the same ``fitted`` values.
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
        size = self.size[ids]
        n_feats = self.p if feats is None else feats.shape[1]
        by_size = np.argsort(-size, kind="stable")
        sizes = size[by_size].tolist()
        groups, first, waste = [], 0, 0
        for i, m in enumerate(sizes):
            waste += (sizes[first] - m) * n_feats
            if i > first and (
                waste > _PAD_CELLS or (i + 1 - first) * sizes[first] * (self.p + 1) > _GROUP_CELLS
            ):
                groups.append(by_size[first:i])
                first, waste = i, 0
        groups.append(by_size[first:])
        split = [self._split(ids[g], None if feats is None else feats[g]) for g in groups]
        return split[0] if len(split) == 1 else tuple(map(np.concatenate, zip(*split)))

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
        return tree, left, search_left, search_right

    def _settle(self, nodes, near, xs, in_order, shift, size):
        """(local feature, cut, threshold, value above the cut) for each of
        ``nodes``, which all have several near-minimal cuts (``near``, in
        (feature, position) order per node).

        Different features can induce the *same* partition (e.g. both
        split off one extreme row), or its mirror (two features ordering
        the rows in opposite directions); their prefix-sum costs then
        differ only by rounding. A node whose near cuts all induce one
        unordered partition keeps its first, as ``_rescore`` would; the
        others are re-scored one node at a time by ``_rescore``, over
        their rows in index order (``in_order``).
        """
        which, flat = np.nonzero(near)
        feature, cut = np.divmod(flat, xs.shape[2] - 1)
        b = nodes[which]
        above = xs[b, feature, cut + 1]
        threshold = (xs[b, feature, cut] + above) / 2.0
        rows = in_order[b]
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
        return feature[chosen], cut[chosen], threshold[chosen], above[chosen]

    def nodes(self, fitted: np.ndarray | None = None) -> tuple:
        """The trees' nodes as arrays of feature, threshold, left child,
        value, each tree's nodes together, and each tree's node count,
        after setting each leaf to the mean of its targets in index order.
        ``fitted``, a C-ordered float64 array of trees x n, receives each
        training row's leaf value."""
        count = self.count
        in_order = self.lists[:-1].reshape(self.n_trees, self.p + 1, self.n)[:, self.p].ravel()
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
            rows = in_order[cells]
            value[group] = self.y[rows].sum(axis=1) / m
            if fitted is not None:
                fitted.reshape(-1)[rows] = value[group, None]
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
