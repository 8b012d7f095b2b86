"""Fitting one kind of model on many unrelated problems, such as the
repeats of an evaluation, with the problems that share a training-row
count fitted together."""

from __future__ import annotations

from typing import Callable

from .tree import ModelError, check_training_data


def fit_many(
    problems,
    seeds,
    *,
    fit: Callable,
    check: Callable,
    joins: Callable,
    cost: Callable,
    budget: int,
    together: Callable,
    smallest: int,
) -> list:
    """``fit(X, y, seed)`` for each ``(X, y)`` of ``problems`` and its
    seed, in order, with the problems that may be fitted together fitted
    by ``together(data, seeds)`` instead, which returns the same models.
    ``problems`` and ``seeds`` must be equally long.

    Each problem's data is checked in order, and ``check()`` (the
    hyperparameter checks) runs after the first problem's, as every fitter
    checks its data and then its hyperparameters, or at once when there
    are no problems. A problem of ``n`` rows and ``p`` columns for which
    ``joins(n, p)`` is false is fitted by ``fit`` then and there, so a
    failure raises the error that a loop of ``fit`` raises first.

    The other problems form one group per row count, cut into equal chunks
    of at most ``budget`` bytes, ``cost(n, p)`` a problem with the group's
    widest ``p``; a chunk of fewer than ``smallest`` goes through ``fit``.
    """
    problems, seeds = list(problems), list(seeds)
    if len(problems) != len(seeds):
        raise ModelError(f"{len(problems)} problems but {len(seeds)} seeds")
    if not problems:
        check()
    models: list = []
    groups: dict[int, list[tuple]] = {}
    for i, ((X, y), seed) in enumerate(zip(problems, seeds)):
        X, y = check_training_data(X, y)
        if i == 0:
            check()
        models.append(None)
        if joins(*X.shape):
            groups.setdefault(X.shape[0], []).append((i, X, y, seed))
        else:
            models[i] = fit(X, y, seed)
    for group in groups.values():  # in order of their first problem
        size = cost(group[0][1].shape[0], max(X.shape[1] for _, X, _, _ in group))
        chunks = max(1, -(-len(group) * size // budget))
        per_chunk = -(-len(group) // chunks)
        for first in range(0, len(group), per_chunk):
            chunk = group[first : first + per_chunk]
            if len(chunk) < smallest:
                fitted = [fit(X, y, seed) for _, X, y, seed in chunk]
            else:
                fitted = together([(X, y) for _, X, y, _ in chunk], [seed for *_, seed in chunk])
            for (i, *_), model in zip(chunk, fitted):
                models[i] = model
    return models
