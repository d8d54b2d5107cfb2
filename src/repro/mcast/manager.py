"""Host-side multicast group management and one-shot drivers.

Tree construction happens at the host; the host inserts each member's
local view into that member's NIC group table ("the host generates a
spanning tree and inserts it into a group table stored in the NIC", §5).

Two installation paths:

* :func:`install_group` — zero-cost preinstall before simulated time
  starts (GM-level experiments assume membership exists, as the paper's
  GM tests do);
* :func:`demand_install_group` — the MPI layer's demand-driven path: the
  root unicasts the tree to every member and waits for acknowledgments,
  paying the "cost of creating group membership" the paper describes for
  the first broadcast on a communicator.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Any, Generator

from repro.mcast.group import CreateGroupCommand, local_views

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster import Cluster
    from repro.trees.base import SpanningTree

__all__ = [
    "install_group",
    "demand_install_group",
    "nic_based_multicast",
    "multicast",
    "next_group_id",
    "run_scheme",
]

_group_ids = count(1)


def next_group_id() -> int:
    """A fresh unique multicast group identifier."""
    return next(_group_ids)


def install_group(
    cluster: "Cluster",
    group_id: int,
    tree: "SpanningTree",
    port_num: int = 0,
    family: str = "ack_window",
    params: dict | None = None,
) -> None:
    """Prepost *tree* into every member NIC's group table (zero cost).

    ``family``/``params`` select the group's reliability engine
    (see :mod:`repro.proto.engines`).
    """
    views = local_views(group_id, tree, port_num, family, params)
    for node_id, state in views.items():
        cluster.node(node_id).mcast.install_group_now(state)
    m = cluster.sim.metrics
    if m is not None:
        m.set_gauge("mcast.group_depth", tree.max_depth)


def demand_install_group(
    cluster: "Cluster",
    group_id: int,
    tree: "SpanningTree",
    port_num: int = 0,
) -> Generator:
    """Root-driven installation paying realistic costs.

    The root installs its own view via a host command, then unicasts the
    tree description to every other member; each member posts a
    CreateGroupCommand on receipt and acks with a 0-byte message.  Driven
    from the root's host process: ``yield from demand_install_group(...)``.
    """
    views = local_views(group_id, tree, port_num)
    root = tree.root
    root_node = cluster.node(root)
    sim = cluster.sim
    yield sim.timeout(cluster.cost.host_send_post)
    root_node.nic.post_command(
        CreateGroupCommand(port=port_num, state=views[root])
    )
    members = [n for n in tree.nodes if n != root]
    acks_needed = len(members)

    # Member-side responder processes (modelling each member's MPI
    # library reacting to the membership message).
    def member_prog(node_id: int) -> Generator:
        port = cluster.port(node_id)
        completion = yield from port.receive()
        spec = completion.info["group_spec"]
        yield sim.timeout(cluster.cost.host_send_post)
        cluster.node(node_id).nic.post_command(
            CreateGroupCommand(port=port_num, state=spec)
        )
        handle = yield from port.send(root, 0)
        yield handle.done

    for node_id in members:
        sim.process(member_prog(node_id), name=f"grp_install[{node_id}]")

    root_port = cluster.port(root)
    handles = []
    for node_id in members:
        handle = yield from root_port.send(
            node_id, 64, info={"group_spec": views[node_id]}
        )
        handles.append(handle.done)
    for _ in range(acks_needed):
        yield from root_port.receive()
    yield sim.all_of(handles)


def nic_based_multicast(
    cluster: "Cluster",
    group_id: int,
    size: int,
    root: int,
    info: Any = None,
) -> Generator:
    """Root host program fragment: post one multisend, return the handle."""
    port = cluster.port(root)
    handle = yield from cluster.node(root).mcast.multicast_send(
        port, group_id, size, info=info
    )
    return handle


def multicast(
    cluster: "Cluster",
    tree: "SpanningTree",
    size: int,
    group_id: int | None = None,
    info: Any = None,
) -> dict[str, Any]:
    """One-shot NIC-based multicast: install, send, wait for delivery.

    Returns ``{"delivered": {node: time}, "send_complete": time}``.
    Convenience for tests and examples; experiment runners drive the
    lower-level pieces for iterated measurements.
    """
    gid = group_id if group_id is not None else next_group_id()
    install_group(cluster, gid, tree)
    delivered: dict[int, float] = {}
    result: dict[str, Any] = {"delivered": delivered}
    destinations = [n for n in tree.nodes if n != tree.root]

    def root_prog() -> Generator:
        handle = yield from nic_based_multicast(
            cluster, gid, size, tree.root, info=info
        )
        yield handle.done
        result["send_complete"] = cluster.sim.now

    def dest_prog(node_id: int) -> Generator:
        port = cluster.port(node_id)
        completion = yield from port.receive()
        assert completion.group == gid
        delivered[node_id] = cluster.sim.now
        result.setdefault("completions", {})[node_id] = completion

    procs = [cluster.spawn(root_prog(), name="mcast_root")]
    for node_id in destinations:
        procs.append(cluster.spawn(dest_prog(node_id), name=f"mcast_rx[{node_id}]"))
    cluster.run(until=cluster.sim.all_of(procs))
    return result


def run_scheme(
    cluster: "Cluster",
    scheme: str,
    tree: "SpanningTree",
    size: int,
) -> dict[str, Any]:
    """One-shot multicast under any registered scheme.

    ``scheme`` is a key from :mod:`repro.mcast.schemes` (``nic_based``,
    ``host_based``, ``nic_assisted``, ``fmmc``, ``lfc``, …).  Returns at
    least ``{"delivered": {node: …}}``; exact shape is scheme-defined.
    """
    # Imported lazily: the registry binds every scheme module, several
    # of which import this one.
    from repro.mcast.schemes import create_scheme

    return create_scheme(scheme, cluster, tree).run_once(size)
