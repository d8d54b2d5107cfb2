"""Live tree management: backup trees and incremental repair.

The builders (:mod:`repro.trees.builder`) are build-once — the right
model while the fabric never changes.  Under the topology failure
lifecycle (:mod:`repro.net.failure`) a tree must *heal*: when a
forwarding node becomes unreachable, its orphaned subtrees need a new
live parent.  :class:`TreeManager` wraps a built tree with the two
recovery strategies the multicast layer registers as schemes:

``backup_for(node)``
    A precomputed alternate tree that excludes *node* from the interior
    (it is reattached as a leaf under the root, so it still receives
    once its link recovers).  Switching trees is O(1) at failure time —
    the whole point of precomputation.

``repair(unreachable)``
    Incremental in-place regraft: each orphan (live child of a dead
    node) is re-attached, in ascending ID order, to the live connected
    node with the smallest ``(fanout, id)``.  Candidates are restricted
    to the root or nodes with a *smaller* ID than the orphan, which
    preserves the paper's §5 deadlock-ordering rule by construction —
    and because every descendant of an orphan has a larger ID than the
    orphan, a regraft can never create a cycle.

Both paths still run the full feasibility check
(:func:`check_feasible`: structural validation **and** the ID-ordering
rule) on every produced tree — the invariant is enforced, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import TreeError
from repro.trees.base import SpanningTree
from repro.trees.builder import build_tree, check_deadlock_ordering

__all__ = ["Regraft", "RepairResult", "TreeManager", "check_feasible"]


def check_feasible(tree: SpanningTree) -> SpanningTree:
    """The hard feasibility gate every repaired/backup tree must pass.

    Structural validity (a tree: no cycles, no unreachable parents) is
    re-checked explicitly, and the §5 deadlock-ordering rule (non-root
    parents have smaller IDs than their children) must hold.  Returns
    the tree for call chaining; raises :class:`TreeError` otherwise.
    """
    tree.validate()
    check_deadlock_ordering(tree)
    return tree


@dataclass(frozen=True)
class Regraft:
    """One orphan's move: ``orphan`` left ``old_parent`` for ``new_parent``."""

    orphan: int
    old_parent: int
    new_parent: int


@dataclass(frozen=True)
class RepairResult:
    """A repaired tree plus the regrafts that produced it."""

    tree: SpanningTree
    regrafts: tuple[Regraft, ...]


class TreeManager:
    """Owns a multicast tree's lifecycle across topology failures.

    ``primary`` is the originally built tree; ``current`` is whatever
    the group is forwarding on right now.  All mutation goes through
    :meth:`repair` / :meth:`switch_to`, so every installed tree has
    passed :func:`check_feasible`.
    """

    def __init__(
        self,
        tree: SpanningTree,
        *,
        backup_shape: str = "binomial",
        precompute_backups: bool = False,
    ):
        self.primary = check_feasible(tree)
        self.current = tree
        self.backup_shape = backup_shape
        self._backups: dict[int, SpanningTree] = {}
        if precompute_backups:
            for node in tree.interior():
                self._backups[node] = self._build_backup(node)

    # -- backup trees ------------------------------------------------------
    def _build_backup(self, node: int) -> SpanningTree:
        """The alternate tree protecting against *node*'s death.

        Rebuilt over every destination except *node* (so no forwarding
        responsibility lands on it), with *node* reattached as a direct
        leaf of the root: when its link comes back, the root's
        retransmit window replays straight to it.
        """
        root = self.primary.root
        rest = [n for n in self.primary.nodes if n not in (root, node)]
        base = build_tree(root, rest, shape=self.backup_shape)
        children = dict(base.children)
        children[root] = children.get(root, ()) + (node,)
        return check_feasible(SpanningTree(root, children))

    def backup_for(self, node: int) -> SpanningTree | None:
        """The precomputed backup protecting *node* (``None`` for leaves
        of the primary or unknown nodes; built lazily if needed)."""
        if node in self._backups:
            return self._backups[node]
        if node not in self.primary.interior():
            return None
        backup = self._backups[node] = self._build_backup(node)
        return backup

    def switch_to(self, tree: SpanningTree) -> SpanningTree:
        """Install *tree* as current (after the feasibility gate)."""
        self.current = check_feasible(tree)
        return self.current

    # -- incremental repair ------------------------------------------------
    def repair(self, unreachable: Iterable[int]) -> RepairResult:
        """Regraft every orphan stranded by the *unreachable* nodes.

        Unreachable nodes stay in the tree as leaves (their old parent
        keeps retrying; when the fabric heals they catch up from the
        retransmit window) but lose their children, each of which is
        re-attached to a live connected candidate.  Deterministic: the
        same (tree, unreachable-set) input always yields the same
        repaired tree.
        """
        cur = self.current
        node_set = set(cur.nodes)
        dead = {n for n in unreachable if n in node_set}
        if cur.root in dead:
            raise TreeError(
                f"root {cur.root} is unreachable — no repair can help"
            )
        if not dead:
            return RepairResult(cur, ())
        children: dict[int, list[int]] = {
            n: list(cur.children_of(n)) for n in node_set
        }
        parent = {c: p for p, kids in children.items() for c in kids}
        orphans = sorted(
            c for d in dead for c in children[d] if c not in dead
        )
        regrafts: list[Regraft] = []
        for orphan in orphans:
            connected = self._alive_connected(cur.root, children, dead)
            candidates = [
                n for n in connected if n == cur.root or n < orphan
            ]
            # The root is always alive-connected, so this never picks
            # from an empty pool.
            new_parent = min(
                candidates, key=lambda n: (len(children[n]), n)
            )
            old_parent = parent[orphan]
            children[old_parent].remove(orphan)
            children[new_parent].append(orphan)
            parent[orphan] = new_parent
            regrafts.append(Regraft(orphan, old_parent, new_parent))
        repaired = check_feasible(
            SpanningTree(
                cur.root,
                {n: tuple(kids) for n, kids in children.items() if kids},
            )
        )
        self.current = repaired
        return RepairResult(repaired, tuple(regrafts))

    @staticmethod
    def _alive_connected(
        root: int, children: dict[int, list[int]], dead: set[int]
    ) -> set[int]:
        """Nodes whose path to the root crosses no dead node."""
        out = {root}
        stack = [root]
        while stack:
            n = stack.pop()
            for c in children.get(n, ()):
                if c in dead:
                    continue
                out.add(c)
                stack.append(c)
        return out
