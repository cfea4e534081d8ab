"""Small helpers for permutations given in one-line notation on 0..n-1."""

from __future__ import annotations

from .errors import BadPermutation, Disconnected

Perm = tuple[int, ...]


def check_sequence(values) -> tuple:
    """``values`` as a tuple; raises :class:`BadPermutation` unless it is a
    list or tuple."""
    if not isinstance(values, (list, tuple)):
        raise BadPermutation(f"{values!r} is not a list or tuple")
    return tuple(values)


def check_permutation(values, n: int) -> Perm:
    """Validate one-line notation and return it as a tuple.

    Raises :class:`BadPermutation` if ``values`` is not a list or tuple
    holding a bijection on ``0..n-1``; each entry is tested once, for the
    type ``int`` (no bool or other subclass), range and repeats.
    """
    p = check_sequence(values)
    if len(p) != n:
        raise BadPermutation(f"expected length {n}, got {len(p)}")
    seen = [False] * n
    for x in p:
        if type(x) is not int or not 0 <= x < n or seen[x]:
            raise BadPermutation(f"{list(p)} is not a permutation of 0..{n - 1}")
        seen[x] = True
    return p


def identity(n: int) -> Perm:
    return tuple(range(n))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def compose_chain(perms, n: int) -> Perm:
    """Compose a sequence of permutations, the last one acting first.

    ``compose_chain([p, q, r], n)`` maps x to ``p[q[r[x]]]``.
    """
    result = identity(n)
    for p in perms:
        result = tuple([result[x] for x in p])
    return result


def orbits(p: Perm) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Cycle decomposition and, for each point, the index of its cycle.

    Found in one pass over the points: cycles are numbered in the order of
    their least points, and each starts at its least point.
    """
    index = [-1] * len(p)
    out = []
    for start in range(len(p)):
        if index[start] >= 0:
            continue
        i = len(out)
        index[start] = i
        cyc = [start]
        x = p[start]
        while x != start:
            index[x] = i
            cyc.append(x)
            x = p[x]
        out.append(tuple(cyc))
    return tuple(out), tuple(index)


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Cycle lengths sorted in decreasing order (fixed points included)."""
    return tuple(sorted((len(c) for c in orbits(p)[0]), reverse=True))


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

    From a root, points are numbered in the order a breadth-first search
    reaches them, following ``perms[0]``, ``perms[1]``, ... from each
    point.  The relabeled tuples are compared lexicographically,
    ``perms[0]`` first; among ``roots`` the first root reaching the least
    tuple wins.  Returns that tuple and its relabeling (point x becomes
    ``relabeling[x]``).

    Every search stops as soon as its outcome is known.  The leader (the
    best root so far) is expanded one point at a time, only when a
    challenger reaches a position the leader has not numbered yet.  A
    challenger is dropped at the first position where its ``perms[0]``
    code exceeds the leader's, and becomes the leader, paused there, at
    the first position where it is smaller.  Only the last leader is
    searched to the end.  A challenger tying the leader on all of
    ``perms[0]`` is compared on the rest; if it ties there too, the map
    from its numbering to the leader's is an automorphism, whose orbits
    are merged in a union-find, and every later root in an orbit that
    already holds a tried root is skipped (McKay's orbit pruning): it
    would reach the same tuple as the earlier root.  A leader is replaced
    only by a strictly smaller challenger, so the first root still wins.

    Raises :class:`Disconnected` when the tuple is not transitive.
    """
    if n == 0:
        return tuple([() for _ in perms]), ()
    if not perms:
        if n > 1:
            raise _intransitive(n)
        return (), (0,)
    first = perms[0]
    lead = [-1] * n  # the leader's numbering
    chal = [-1] * n  # the challenger's, reset after each root
    tried = bytearray(n)  # per union-find class: holds a tried root
    parent = None  # union-find of automorphism orbits, built at the first one
    roots = iter(roots)
    root = next(roots)
    lead[root] = 0
    lead_order = [root]
    tried[root] = 1
    done = 0  # leader points expanded
    for root in roots:
        orbit = root if parent is None else _find(parent, root)
        if tried[orbit]:
            continue
        tried[orbit] = 1
        chal[root] = 0
        order = [root]
        push = order.append
        size = 1
        i = 0
        while i < size:
            x = order[i]
            for p in perms:
                y = p[x]
                if chal[y] < 0:
                    chal[y] = size
                    size += 1
                    push(y)
            if i == done:
                if done == len(lead_order):
                    raise _intransitive(n)
                z = lead_order[done]
                for p in perms:
                    y = p[z]
                    if lead[y] < 0:
                        lead[y] = len(lead_order)
                        lead_order.append(y)
                done += 1
            delta = chal[first[x]] - lead[first[lead_order[i]]]
            if delta:
                if delta < 0:
                    lead, chal, lead_order, order = chal, lead, order, lead_order
                    done = i + 1
                break
            i += 1
        else:
            if i < n:
                raise _intransitive(n)
            for p in perms[1:]:
                ours = [chal[p[x]] for x in order]
                theirs = [lead[p[x]] for x in lead_order]
                if ours != theirs:
                    if ours < theirs:
                        lead, chal, lead_order, order = chal, lead, order, lead_order
                    break
            else:
                # x -> lead_order[chal[x]] commutes with every permutation
                if parent is None:
                    parent = list(range(n))
                for x in range(n):
                    a = _find(parent, x)
                    b = _find(parent, lead_order[chal[x]])
                    if a != b:
                        parent[a] = b
                        tried[b] |= tried[a]
        for x in order:
            chal[x] = -1
    while done < len(lead_order):
        z = lead_order[done]
        for p in perms:
            y = p[z]
            if lead[y] < 0:
                lead[y] = len(lead_order)
                lead_order.append(y)
        done += 1
    if done < n:
        raise _intransitive(n)
    return tuple([tuple([lead[p[x]] for x in lead_order]) for p in perms]), tuple(lead)


def _intransitive(n: int) -> Disconnected:
    return Disconnected(f"the permutations do not act transitively on {n} points")


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x
