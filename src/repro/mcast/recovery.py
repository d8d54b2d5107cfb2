"""Self-healing multicast: failure-driven tree recovery.

Two recovery strategies sit on top of the NIC-based scheme, both
subscribed to the cluster's :class:`~repro.net.failure.FailureInjector`
(the only sanctioned way to learn of failures — at detection time, not
omnisciently):

``backup_tree``
    On the first interior-node loss, switch the whole group to the
    precomputed per-node backup tree (:meth:`TreeManager.backup_for`).
    O(1) decision at failure time; classic per-failure protection
    (subsequent failures fall back to incremental repair).

``tree_repair``
    In-place regraft of orphaned subtrees
    (:meth:`TreeManager.repair`), preserving the §5 deadlock-ordering
    invariant by construction and re-checking it on every repaired tree.

Either way, the *data* recovery is the proto layer's job: the new
parent's retransmit window replays everything the moved subtree has not
acknowledged (regenerating retired records from message metadata), and
duplicates are dropped and re-acked at the receivers — host delivery
stays exactly-once.

The group-update push itself is modeled as an out-of-band host control
plane (NIC host-command queues, normal command processing costs): link
failures sever the *data* fabric, while the management path — serial
console, dedicated control network — stays up, which is how production
GM mappers distributed route updates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.mcast.group import ReplayCommand, UpdateGroupCommand
from repro.mcast.schemes import NicBasedScheme, SchemeSpec, register_scheme
from repro.trees.manager import TreeManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster import Cluster
    from repro.net.failure import FailureEvent
    from repro.trees.base import SpanningTree

__all__ = [
    "BackupTreeScheme",
    "RecoveryManager",
    "TreeRepairScheme",
]


class RecoveryManager:
    """One cluster's recovery control plane for a group.

    Subscribes to the failure injector; on each detection, re-derives
    reachability of the current tree's members from the root, heals the
    tree around newly unreachable nodes (per ``mode``), and pushes
    per-node :class:`UpdateGroupCommand`/:class:`ReplayCommand` to the
    NICs affected.
    """

    def __init__(
        self,
        cluster: "Cluster",
        manager: TreeManager,
        group_id: int,
        port_num: int = 0,
        mode: str = "tree_repair",
    ):
        if mode not in ("backup_tree", "tree_repair"):
            raise ValueError(f"unknown recovery mode {mode!r}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.manager = manager
        self.group_id = group_id
        self.port_num = port_num
        self.mode = mode
        #: Tree members currently unreachable from the root (as of the
        #: last detection notice).
        self.unreachable: set[int] = set()
        self.tree_switches = 0
        self.repairs = 0
        self.regrafts = 0
        if cluster.failures is not None:
            cluster.failures.subscribe(self._on_failure)

    # -- failure hook ------------------------------------------------------
    def _on_failure(self, event: "FailureEvent") -> None:
        """Detection-time notice of one fabric transition."""
        topo = self.cluster.topology
        tree = self.manager.current
        root = tree.root
        unreachable = {
            n for n in tree.nodes
            if n != root and not topo.has_path(root, n)
        }
        went_down = unreachable - self.unreachable
        came_up = self.unreachable - unreachable
        self.unreachable = unreachable
        if went_down:
            self._heal(unreachable)
        for node in sorted(came_up):
            self._replay_to(node)

    # -- healing -----------------------------------------------------------
    def _heal(self, unreachable: set[int]) -> None:
        m = self.sim.metrics
        old = self.manager.current
        new_tree: "SpanningTree | None" = None
        if (
            self.mode == "backup_tree"
            and len(unreachable) == 1
            and old is self.manager.primary
        ):
            backup = self.manager.backup_for(next(iter(unreachable)))
            if backup is not None:
                new_tree = self.manager.switch_to(backup)
                self.tree_switches += 1
                if m is not None:
                    m.inc("mcast.recovery.tree_switches")
        if new_tree is None:
            # tree_repair proper, backup_tree's fallback for second and
            # later failures, and the leaf-death no-op.
            result = self.manager.repair(unreachable)
            if not result.regrafts:
                return  # only leaves died: no rewiring needed
            new_tree = result.tree
            self.repairs += 1
            self.regrafts += len(result.regrafts)
            if m is not None:
                m.inc("mcast.recovery.repairs")
                m.inc("mcast.recovery.regrafts", len(result.regrafts))
        if self.sim.trace.enabled:
            self.sim.record(
                "recovery", "tree_heal", group=self.group_id,
                mode=self.mode, unreachable=sorted(unreachable),
            )
        fr = self.sim.flight
        if fr is not None:
            fr.note(
                self.sim.now, "regraft", -1, group=self.group_id,
                mode=self.mode, unreachable=sorted(unreachable),
            )
        self._push_updates(old, new_tree)

    def _push_updates(
        self, old: "SpanningTree", new: "SpanningTree"
    ) -> None:
        """UpdateGroupCommand to every node whose view changed."""
        cluster = self.cluster
        for node in new.nodes:
            if (
                new.parent_of(node) == old.parent_of(node)
                and new.children_of(node) == old.children_of(node)
            ):
                continue
            cluster.node(node).nic.post_command(UpdateGroupCommand(
                port=self.port_num,
                group_id=self.group_id,
                parent=new.parent_of(node),
                children=new.children_of(node),
            ))

    def _replay_to(self, node: int) -> None:
        """A member's connectivity recovered: its parent pushes the
        backlog now instead of waiting out the retransmit timer."""
        tree = self.manager.current
        if node not in set(tree.nodes):
            return
        parent = tree.parent_of(node)
        if parent is None:
            return
        m = self.sim.metrics
        if m is not None:
            m.inc("mcast.recovery.replay_kicks")
        self.cluster.node(parent).nic.post_command(ReplayCommand(
            port=self.port_num, group_id=self.group_id, child=node
        ))


class _SelfHealingScheme(NicBasedScheme):
    """NIC-based multicast with a failure-recovery control plane."""

    recovery_mode = "tree_repair"

    def install(self) -> None:
        super().install()
        if getattr(self, "recovery", None) is None:
            manager = TreeManager(
                self.tree,
                precompute_backups=(self.recovery_mode == "backup_tree"),
            )
            self.recovery = RecoveryManager(
                self.cluster,
                manager,
                self.group_id,
                self.port_num,
                mode=self.recovery_mode,
            )


class BackupTreeScheme(_SelfHealingScheme):
    """Switch to the precomputed alternate tree on failure detection."""

    recovery_mode = "backup_tree"


class TreeRepairScheme(_SelfHealingScheme):
    """Regraft orphaned subtrees in place on failure detection."""

    recovery_mode = "tree_repair"


register_scheme(SchemeSpec(
    key="backup_tree",
    title="NIC-based multicast + precomputed backup trees",
    feature_key="ours",
    default_tree="optimal",
    tree_uses_cost=True,
    cls=BackupTreeScheme,
))
register_scheme(SchemeSpec(
    key="tree_repair",
    title="NIC-based multicast + in-place tree repair",
    feature_key="ours",
    default_tree="optimal",
    tree_uses_cost=True,
    cls=TreeRepairScheme,
))
