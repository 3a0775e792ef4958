"""The tests' oracle for `orbitlift.rootflow.collision_clusters`: a flood
fill over a Python set of small (sample, gap) cells, each cluster grown from
its least remaining cell.  The library finds each gap's runs of small
samples and joins the runs of adjacent gaps by union-find; it must return
the same list."""

import itertools

import numpy as np


def flood_clusters(vals, eps) -> list[tuple[int, int, tuple[int, ...]]]:
    gaps = vals[1:] - vals[:-1]          # (n-1, N)
    todo = set(map(tuple, np.argwhere(gaps.T < eps).tolist()))  # small (sample, gap) cells
    clusters = []
    while todo:  # each cluster grows from its first (sample, gap) cell
        stack, cells = [min(todo)], []
        todo.remove(stack[0])
        while stack:
            i, k = cell = stack.pop()
            cells.append(cell)
            for near in itertools.product((i - 1, i, i + 1), (k - 1, k, k + 1)):
                if near in todo:
                    todo.remove(near)
                    stack.append(near)
        idx, ks = zip(*cells)
        clusters.append((min(idx), max(idx), tuple(range(min(ks), max(ks) + 2))))
    return clusters
