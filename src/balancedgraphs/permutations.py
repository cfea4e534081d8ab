"""Small helpers for permutations given in one-line notation on 0..n-1."""

from __future__ import annotations

from .errors import BadPermutation, Disconnected

Perm = tuple[int, ...]


def check_permutation(values, n=None) -> Perm:
    """Validate one-line notation and return it as a tuple.

    Raises :class:`BadPermutation` if ``values`` is not a bijection on
    ``0..n-1`` (``n`` defaults to ``len(values)``).
    """
    p = tuple(values)
    if n is None:
        n = len(p)
    if len(p) != n:
        raise BadPermutation(f"expected length {n}, got {len(p)}")
    seen = [False] * n
    for x in p:
        if not is_int(x) or not 0 <= x < n or seen[x]:
            raise BadPermutation(f"{list(p)} is not a permutation of 0..{n - 1}")
        seen[x] = True
    return p


def is_int(x) -> bool:
    """Whether ``x`` is an integer; JSON booleans do not count."""
    return isinstance(x, int) and not isinstance(x, bool)


def identity(n: int) -> Perm:
    return tuple(range(n))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def compose(p: Perm, q: Perm) -> Perm:
    """Return the permutation mapping x to p[q[x]] (q acts first)."""
    return tuple([p[q[x]] for x in range(len(q))])


def compose_chain(perms, n: int) -> Perm:
    """Compose a sequence of permutations, the last one acting first.

    ``compose_chain([p, q, r], n)`` maps x to ``p[q[r[x]]]``.
    """
    result = identity(n)
    for p in perms:
        result = compose(result, tuple(p))
    return result


def cycles(p: Perm) -> tuple[tuple[int, ...], ...]:
    """Cycle decomposition, every cycle starting at and sorted by its minimum."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            seen[x] = True
            cyc.append(x)
            x = p[x]
        out.append(tuple(cyc))
    return tuple(out)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths sorted in decreasing order (fixed points included)."""
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def is_transitive(perms, n: int) -> bool:
    """Whether the group generated by ``perms`` acts transitively on 0..n-1."""
    if n <= 1:
        return True
    if not perms:
        return False
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        x = stack.pop()
        for p in perms:
            y = p[x]
            if not seen[y]:
                seen[y] = True
                count += 1
                stack.append(y)
    return count == n


def conjugate(perms, relabeling) -> tuple[Perm, ...]:
    """Relabel every permutation of ``perms``: point x becomes ``relabeling[x]``."""
    inv = inverse(relabeling)
    return tuple([tuple([relabeling[p[y]] for y in inv]) for p in perms])


def canonical_relabeling(perms, n: int, roots) -> tuple[tuple[Perm, ...], Perm]:
    """Least breadth-first relabeling of a transitive tuple on 0..n-1.

    From each root, points are numbered in the order a breadth-first
    search reaches them, following ``perms[0]``, ``perms[1]``, ... from
    each point.  The relabeled tuples are compared lexicographically,
    ``perms[0]`` first; the first root reaching the least one wins.
    Returns that tuple and its relabeling (point x becomes
    ``relabeling[x]``).

    A root is abandoned as soon as its partial ``perms[0]`` exceeds the
    best one; this prunes work without changing the result.  Raises
    :class:`Disconnected` when the tuple is not transitive.
    """
    if n == 0:
        return tuple([() for _ in perms]), ()
    first = perms[0] if perms else None
    best = None
    best_first = None
    best_relabeling = None
    for root in roots:
        new = [-1] * n
        new[root] = 0
        order = [root]
        tied = best_first is not None  # equal to the best perms[0] so far
        i = 0
        while i < len(order):
            x = order[i]
            for p in perms:
                y = p[x]
                if new[y] < 0:
                    new[y] = len(order)
                    order.append(y)
            if tied:
                code, code_best = new[first[x]], best_first[i]
                if code > code_best:
                    break
                tied = code == code_best
            i += 1
        else:
            if len(order) < n:
                raise Disconnected(f"the permutations do not act transitively on {n} points")
            candidate = conjugate(perms, new)
            if best is None or candidate < best:
                best, best_relabeling = candidate, new
                best_first = best[0] if perms else None
    return best, tuple(best_relabeling)
