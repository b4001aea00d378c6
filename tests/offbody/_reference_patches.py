"""Scalar oracles for ``repro.offbody.patches`` (tests only).

``span`` and ``touches`` check ``PatchSystem._spans`` and
``_touch_matrix``.  ``generate`` (a per-patch depth-first refinement,
graded over the full touch matrix and coalesced slab by slab) and
``finest_containing`` (one overwrite pass per candidate box) are the
implementations the array-at-once versions replaced, kept verbatim
apart from taking the system as an argument.
"""

import itertools

import numpy as np

from repro.offbody.patches import Patch, fringe_points


def span(system, p):
    """Closed index range of ``p`` in finest-level units."""
    f = 1 << (system.max_level - p.level)
    lo = tuple(c * f for c in p.ijk)
    hi = tuple((c + s) * f for c, s in zip(p.ijk, p.shape))
    return lo, hi


def touches(system, p, q) -> bool:
    """Whether two patches share a face, edge, or corner (exact)."""
    (plo, phi), (qlo, qhi) = span(system, p), span(system, q)
    return all(
        plo[a] <= qhi[a] and qlo[a] <= phi[a] for a in range(system.ndim)
    )


def _hits(system, p, targets) -> bool:
    box = system.patch_box(p)
    return any(box.intersects(t) for t in targets)


def grading_violations(system, leaves):
    """Leaves touching a leaf two or more levels finer."""
    levels = np.array([p.level for p in leaves], dtype=np.int64)
    touch = system._touch_matrix(leaves)
    viol = np.any(touch & (levels[None, :] >= levels[:, None] + 2), axis=1)
    return {int(i) for i in np.nonzero(viol)[0]}


def _next_slab(system, ijk, shape, axis):
    ranges = [range(ijk[a], ijk[a] + shape[a]) for a in range(system.ndim)]
    ranges[axis] = (ijk[axis] + shape[axis],)
    return list(itertools.product(*ranges))


def coalesce(system, leaves):
    """Greedy-mesh same-level unit cells into bricks, slab by slab."""
    cap = system.max_brick_cells
    if cap <= 1:
        return leaves
    by_level = {}
    for p in leaves:
        by_level.setdefault(p.level, []).append(p.ijk)
    out = []
    for level in sorted(by_level):
        cells = sorted(by_level[level])
        free = set(cells)
        for ijk in cells:
            if ijk not in free:
                continue
            shape = [1] * system.ndim
            for axis in range(system.ndim):
                while shape[axis] < cap:
                    slab = _next_slab(system, ijk, shape, axis)
                    if all(c in free for c in slab):
                        shape[axis] += 1
                    else:
                        break
            for c in itertools.product(
                *(range(ijk[a], ijk[a] + shape[a]) for a in range(system.ndim))
            ):
                free.discard(c)
            out.append(Patch(level, ijk, tuple(shape)))
    return out


def generate(system, body_boxes, margin=0.0):
    """``PatchSystem.generate`` by a DFS over single patches."""
    targets = [b.inflated(margin) for b in body_boxes]
    leaves = []
    stack = [
        Patch(0, ijk)
        for ijk in itertools.product(*(range(n) for n in system.ncells0))
    ]
    while stack:
        p = stack.pop()
        if p.level < system.max_level and _hits(system, p, targets):
            stack.extend(system._children(p))
        else:
            leaves.append(p)
    while True:
        split = grading_violations(system, leaves)
        if not split:
            break
        next_leaves = []
        for i, p in enumerate(leaves):
            if i in split:
                next_leaves.extend(system._children(p))
            else:
                next_leaves.append(p)
        leaves = next_leaves
    return tuple(sorted(coalesce(system, leaves)))


def finest_containing(pts, patches, boxes, candidates):
    """Per point, the finest containing candidate (lowest index on
    ties) by overwriting in ascending ``(level, -index)`` order."""
    best = np.full(len(pts), -1, dtype=np.int64)
    for j in sorted(candidates, key=lambda j: (patches[j].level, -j)):
        best[boxes[j].contains(pts)] = j
    return best


def fringe_weights(system, leaves, edges):
    """``PatchSystem.fringe_weights`` from scratch, no reuse."""
    neighbors = {i: [] for i in range(len(leaves))}
    for a, b in sorted(edges):
        neighbors[a].append(b)
        neighbors[b].append(a)
    eps = 1e-9 * system.base_extent
    boxes = [system.patch_box(p).inflated(eps) for p in leaves]
    weights = {}
    for i, p in enumerate(leaves):
        pts = fringe_points(system.patch_grid(p))
        best = finest_containing(pts, leaves, boxes, neighbors[i])
        for j in np.unique(best[best >= 0]):
            weights[(i, int(j))] = int(np.sum(best == j))
    return weights
