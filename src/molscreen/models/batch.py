"""Fitting one kind of model on many unrelated problems, such as the
repeats of an evaluation, with the problems fitted together in chunks of
bounded memory."""

from __future__ import annotations

from typing import Callable

from .tree import ModelError, check_training_data


def fit_many(
    problems,
    seeds,
    *,
    check: Callable,
    cost: Callable,
    budget: int,
    together: Callable,
    same_rows: bool = False,
) -> list:
    """The model of each ``(X, y)`` of ``problems`` and its seed, in
    order, as ``together(data, seeds)`` fits a chunk of them, each model
    the one a single fit returns. ``problems`` and ``seeds`` must be
    equally long.

    Each problem's data is checked in order, and ``check()`` (the
    hyperparameter checks) runs after the first problem's, as every fitter
    checks its data and then its hyperparameters, or at once when there
    are no problems.

    The problems form one group in order of row count, or one group per
    row count with ``same_rows``. A group is cut into equal chunks of at
    most ``budget`` bytes, ``cost(n, p)`` a problem with the group's most
    rows and widest ``p``.
    """
    problems, seeds = list(problems), list(seeds)
    if len(problems) != len(seeds):
        raise ModelError(f"{len(problems)} problems but {len(seeds)} seeds")
    if not problems:
        check()
    models: list = [None] * len(problems)
    groups: dict[int, list[tuple]] = {}
    for i, ((X, y), seed) in enumerate(zip(problems, seeds)):
        X, y = check_training_data(X, y)
        if i == 0:
            check()
        groups.setdefault(X.shape[0] if same_rows else 0, []).append((i, X, y, seed))
    for group in groups.values():  # in order of their first problem
        group.sort(key=lambda problem: problem[1].shape[0])
        size = cost(group[-1][1].shape[0], max(X.shape[1] for _, X, _, _ in group))
        chunks = max(1, -(-len(group) * size // budget))
        per_chunk = -(-len(group) // chunks)
        for first in range(0, len(group), per_chunk):
            chunk = group[first : first + per_chunk]
            fitted = together([(X, y) for _, X, y, _ in chunk], [seed for *_, seed in chunk])
            for (i, *_), model in zip(chunk, fitted):
                models[i] = model
    return models
