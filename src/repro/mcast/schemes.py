"""The multicast scheme registry.

Every multicast scheme the paper compares (Fig. 1) is constructible
here by key, bound to a cluster and a spanning tree, and driven through
one small interface — so the experiment runner contains **no per-scheme
branches**, and adding a scheme is a registry entry plus a
:class:`BoundScheme` subclass, not another ``elif`` in every harness.

Keys are canonical (``nic_based``, ``nic_multisend``, ``host_based``,
``nic_assisted``, ``fmmc``, ``lfc``); the figure scripts' historical
``"nb"``/``"hb"`` spellings are context-dependent — ``nb`` means
"multisend into a flat group" in the Fig. 3 sweep but "multisend +
NIC forwarding on the optimal tree" in Fig. 5 — and resolve through
:func:`resolve_scheme`.

Each spec links to its row in the paper's feature comparison
(:data:`repro.mcast.features.SCHEMES`) via ``feature_key``.

The driving interface (all simulation coroutines unless noted):

``install()``
    one-time setup before measurement — prepost the group table,
    instantiate per-node engines (plain call, zero simulated cost);
``post(size)``
    the root's per-iteration action, *without* waiting for delivery
    acknowledgments (harnesses that detect completion at the receivers
    use this);
``send(size)``
    ``post`` + wait until the root's send completes (all acks in);
``relay(node_id, size)``
    a member's forwarding obligation after receiving one message —
    empty for NIC-forwarding schemes (zero simulated events), the
    host-driven re-send for host-based/NIC-assisted forwarding;
``run_once(size)``
    one-shot demonstration: install, send once, collect per-node
    delivery times (used by ``repro.mcast.manager.run_scheme``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from repro.mcast.features import SCHEMES as FEATURE_SCHEMES
from repro.mcast.features import SchemeFeatures

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster import Cluster
    from repro.trees.base import SpanningTree

__all__ = [
    "BoundScheme",
    "SchemeSpec",
    "available_schemes",
    "create_scheme",
    "get_scheme",
    "register_scheme",
    "resolve_scheme",
]


class BoundScheme:
    """One multicast scheme bound to one cluster and one spanning tree."""

    #: optional :class:`repro.scenario.spec.ReliabilitySpec` (duck-typed:
    #: anything with ``.family`` and ``.params()``) attached by the
    #: harness before ``install()``.  Only NIC-based schemes honour it;
    #: the baselines ride GM unicast reliability and ignore it.
    reliability = None

    def __init__(
        self,
        spec: "SchemeSpec",
        cluster: "Cluster",
        tree: "SpanningTree",
        port_num: int = 0,
    ):
        self.spec = spec
        self.cluster = cluster
        self.tree = tree
        self.port_num = port_num

    def install(self) -> None:
        """One-time setup before the first send (zero simulated cost)."""

    def post(self, size: int, info: dict | None = None) -> Generator:
        """Root coroutine: launch one multicast without waiting for acks.

        ``info`` is an optional application payload carried to every
        receiver's :class:`~repro.gm.api.RecvCompletion` (the serving
        workload stamps post timestamps through it).
        """
        raise NotImplementedError

    def send(self, size: int, info: dict | None = None) -> Generator:
        """Root coroutine: one multicast, waiting for send completion."""
        raise NotImplementedError

    def relay(
        self, node_id: int, size: int, info: dict | None = None
    ) -> Generator:
        """Member coroutine: forwarding duty after one received message.

        The default is the NIC-forwarding case: nothing to do, and —
        deliberately — not a single simulated event.
        """
        return
        yield  # pragma: no cover - makes this a generator function

    def run_once(self, size: int) -> dict[str, Any]:
        """Install, multicast once, return per-node delivery times."""
        self.install()
        cluster, tree = self.cluster, self.tree
        delivered: dict[int, float] = {}

        def root_prog() -> Generator:
            yield from self.send(size)

        def member_prog(node_id: int) -> Generator:
            port = cluster.port(node_id)
            yield from port.receive()
            delivered[node_id] = cluster.sim.now
            yield from self.relay(node_id, size)

        procs = [cluster.spawn(root_prog(), name=f"{self.spec.key}_root")]
        for node_id in tree.nodes:
            if node_id != tree.root:
                procs.append(
                    cluster.spawn(
                        member_prog(node_id),
                        name=f"{self.spec.key}_rx[{node_id}]",
                    )
                )
        cluster.run(until=cluster.sim.all_of(procs))
        return {"delivered": delivered}


@dataclass(frozen=True)
class SchemeSpec:
    """Registry entry for one multicast scheme."""

    key: str
    title: str
    #: row in :data:`repro.mcast.features.SCHEMES` (None: not on Fig. 1,
    #: e.g. the host-based baseline the figure measures schemes against)
    feature_key: str | None
    #: default spanning-tree shape when the caller doesn't pick one
    default_tree: str
    #: whether tree construction wants the cost model + message size
    #: (the paper's optimal trees are cost-driven; binomial/flat aren't)
    tree_uses_cost: bool
    cls: type[BoundScheme]

    @property
    def features(self) -> SchemeFeatures | None:
        """The scheme's row of the paper's Fig. 1 comparison."""
        if self.feature_key is None:
            return None
        return FEATURE_SCHEMES[self.feature_key]


_REGISTRY: dict[str, SchemeSpec] = {}

#: The figure scripts' historical scheme spellings, by harness context.
_LEGACY_NAMES: dict[str, dict[str, str]] = {
    "multisend": {"nb": "nic_multisend", "hb": "host_based"},
    "multicast": {"nb": "nic_based", "hb": "host_based"},
}


def register_scheme(spec: SchemeSpec) -> SchemeSpec:
    """Add *spec* to the registry (key must be unused)."""
    if spec.key in _REGISTRY:
        raise ValueError(f"multicast scheme {spec.key!r} already registered")
    if spec.feature_key is not None and spec.feature_key not in FEATURE_SCHEMES:
        raise ValueError(
            f"scheme {spec.key!r} references unknown feature row "
            f"{spec.feature_key!r}"
        )
    _REGISTRY[spec.key] = spec
    return spec


def available_schemes() -> tuple[str, ...]:
    """All registered canonical scheme keys, sorted."""
    return tuple(sorted(_REGISTRY))


def get_scheme(key: str) -> SchemeSpec:
    """Look up a spec by canonical key."""
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown multicast scheme {key!r} "
            f"(available: {', '.join(available_schemes())})"
        ) from None


def resolve_scheme(name: str, context: str = "multicast") -> str:
    """Canonicalize *name*, accepting the legacy ``nb``/``hb`` spellings.

    ``context`` picks the harness dialect: in the Fig. 3 ``"multisend"``
    sweep ``nb`` is the flat-group multisend; in the Fig. 5
    ``"multicast"`` sweep it is the full NIC-based scheme.
    """
    if name in _REGISTRY:
        return name
    try:
        return _LEGACY_NAMES[context][name]
    except KeyError:
        raise ValueError(
            f"unknown {context} scheme {name!r} "
            f"(available: {', '.join(available_schemes())})"
        ) from None


def create_scheme(
    key: str,
    cluster: "Cluster",
    tree: "SpanningTree",
    port_num: int = 0,
) -> BoundScheme:
    """Construct *key*'s bound scheme for (*cluster*, *tree*)."""
    spec = get_scheme(key)
    return spec.cls(spec, cluster, tree, port_num)


# ---------------------------------------------------------------------------
# The paper's schemes.
# ---------------------------------------------------------------------------

class NicBasedScheme(BoundScheme):
    """The paper's scheme: NIC multisend + NIC forwarding over a
    preposted group table (with a flat tree, the forwarding-free
    ``nic_multisend`` variant measured in Fig. 3)."""

    group_id: int | None = None
    #: default reliability engine family (a :mod:`repro.proto.engines`
    #: registry name); a :attr:`BoundScheme.reliability` spec attached
    #: by the harness overrides it per run.
    reliability_family: str = "ack_window"

    def _reliability_config(self) -> tuple[str, dict]:
        spec = self.reliability
        if spec is None:
            return self.reliability_family, {}
        family = spec.family or self.reliability_family
        return family, spec.params()

    def install(self) -> None:
        from repro.mcast.manager import install_group, next_group_id

        # A caller may pin group_id before installing; the tables are
        # written either way, so only id allocation is guarded.
        # install_group_now is an idempotent table write, so
        # re-installation is harmless.
        if self.group_id is None:
            self.group_id = next_group_id()
        family, params = self._reliability_config()
        install_group(
            self.cluster, self.group_id, self.tree, self.port_num,
            family=family, params=params,
        )

    def post(self, size: int, info: dict | None = None) -> Generator:
        root = self.tree.root
        handle = yield from self.cluster.node(root).mcast.multicast_send(
            self.cluster.port(root), self.group_id, size, info=info
        )
        return handle

    def send(self, size: int, info: dict | None = None) -> Generator:
        handle = yield from self.post(size, info=info)
        yield handle.done


class HostBasedScheme(BoundScheme):
    """MPICH-GM's broadcast: unicasts along the tree, every hop through
    the intermediate host (see :mod:`repro.mcast.hostbased`)."""

    def post(self, size: int, info: dict | None = None) -> Generator:
        yield from self.relay(self.tree.root, size, info=info)

    send = post

    def relay(
        self, node_id: int, size: int, info: dict | None = None
    ) -> Generator:
        kids = self.tree.children_of(node_id)
        if not kids:
            return
        port = self.cluster.port(node_id)
        handles = []
        for child in kids:
            handle = yield from port.send(child, size, info=info)
            handles.append(handle.done)
        yield self.cluster.sim.all_of(handles)


class NicAssistedScheme(BoundScheme):
    """Multidestination sends with host-driven forwarding
    (see :mod:`repro.mcast.nic_assisted`)."""

    def install(self) -> None:
        from repro.mcast.nic_assisted import NicAssistedEngine

        for node in self.cluster.nodes:
            if not hasattr(node, "nic_assisted"):
                node.nic_assisted = NicAssistedEngine(node)

    def post(self, size: int, info: dict | None = None) -> Generator:
        yield from self.relay(self.tree.root, size, info=info)

    send = post

    def relay(
        self, node_id: int, size: int, info: dict | None = None
    ) -> Generator:
        from repro.mcast.nic_assisted import nic_assisted_multisend

        kids = self.tree.children_of(node_id)
        if not kids:
            return
        handle = yield from nic_assisted_multisend(
            self.cluster.node(node_id), self.cluster.port(node_id), kids,
            size, info=info,
        )
        yield handle.done


class FmmcScheme(BoundScheme):
    """FM/MC: NIC forwarding gated by a centralized credit manager
    (see :mod:`repro.mcast.fmmc`).  Data moves over the NIC-based
    machinery; the credit plumbing is the scheme's defect."""

    group_id: int | None = None

    def install(self) -> None:
        from repro.mcast.fmmc import FMMCCreditManager
        from repro.mcast.manager import install_group, next_group_id

        if self.group_id is None:
            self.group_id = next_group_id()
            install_group(self.cluster, self.group_id, self.tree, self.port_num)
            # The centralized manager lives on some host other than the
            # sending root (a root asking itself for credits would be a
            # self-route); its node still consumes the multicast data on
            # the ordinary port while credit traffic uses the control
            # port.
            self.manager = FMMCCreditManager(
                self.cluster,
                node_id=min(n for n in self.tree.nodes if n != self.tree.root),
            )

    def run_once(self, size: int) -> dict[str, Any]:
        from repro.mcast.fmmc import fmmc_consumer_program, fmmc_sender_program

        self.install()
        cluster, tree = self.cluster, self.tree
        sent_log: list[float] = []
        procs = [
            cluster.spawn(self.manager.program(1), name="fmmc_mgr"),
            cluster.spawn(
                fmmc_sender_program(
                    self.manager, tree.root, self.group_id, size, 1, sent_log
                ),
                name="fmmc_root",
            ),
        ]
        delivered: dict[int, float] = {}

        def consumer(node_id: int) -> Generator:
            yield from fmmc_consumer_program(cluster, node_id, 1)
            delivered[node_id] = cluster.sim.now

        for node_id in tree.nodes:
            if node_id != tree.root:
                procs.append(
                    cluster.spawn(consumer(node_id), name=f"fmmc_rx[{node_id}]")
                )
        cluster.run(until=cluster.sim.all_of(procs))
        return {"delivered": delivered, "sent": sent_log}


class LfcScheme(BoundScheme):
    """LFC: hop-by-hop credits on an abstract fabric (see
    :mod:`repro.mcast.lfc`) — the deadlock-prone point in Fig. 1's
    flow-control axis, modelled above the packet level."""

    def run_once(self, size: int) -> dict[str, Any]:
        from repro.mcast.lfc import run_lfc_multicasts

        fabric = run_lfc_multicasts(
            self.cluster.sim, len(self.cluster.nodes), [self.tree]
        )
        return {
            "delivered": {
                node.id: list(node.delivered) for node in fabric.nodes
            }
        }


register_scheme(SchemeSpec(
    key="nic_based",
    title="NIC-based multicast (multisend + NIC forwarding)",
    feature_key="ours",
    default_tree="optimal",
    tree_uses_cost=True,
    cls=NicBasedScheme,
))
register_scheme(SchemeSpec(
    key="nic_multisend",
    title="NIC-based multisend only (flat group, no forwarding)",
    feature_key="ours",
    default_tree="flat",
    tree_uses_cost=False,
    cls=NicBasedScheme,
))
class NicNackScheme(NicBasedScheme):
    """NIC-based multicast with receiver-driven NACK reliability:
    receivers detect gaps and multicast repairs are pulled on demand
    (see :mod:`repro.proto.engines.nack`)."""

    reliability_family = "nack"


class NicNackFecScheme(NicBasedScheme):
    """NIC-based multicast with NACK + XOR-parity FEC: one loss per
    parity block reconstructs in place, with NACK repair as fallback
    (see :mod:`repro.proto.engines.nack_fec`)."""

    reliability_family = "nack_fec"


register_scheme(SchemeSpec(
    key="nic_nack",
    title="NIC-based multicast, NACK reliability",
    feature_key="ours",
    default_tree="optimal",
    tree_uses_cost=True,
    cls=NicNackScheme,
))
register_scheme(SchemeSpec(
    key="nic_nack_fec",
    title="NIC-based multicast, NACK + XOR-FEC reliability",
    feature_key="ours",
    default_tree="optimal",
    tree_uses_cost=True,
    cls=NicNackFecScheme,
))
register_scheme(SchemeSpec(
    key="host_based",
    title="Host-based multiple unicasts (MPICH-GM broadcast)",
    feature_key=None,
    default_tree="binomial",
    tree_uses_cost=False,
    cls=HostBasedScheme,
))
register_scheme(SchemeSpec(
    key="nic_assisted",
    title="NIC-assisted multidestination sends (Buntinas et al.)",
    feature_key="nic_assisted",
    default_tree="binomial",
    tree_uses_cost=False,
    cls=NicAssistedScheme,
))
register_scheme(SchemeSpec(
    key="fmmc",
    title="FM/MC end-to-end credits (Verstoep et al.)",
    feature_key="fmmc",
    default_tree="binomial",
    tree_uses_cost=False,
    cls=FmmcScheme,
))
register_scheme(SchemeSpec(
    key="lfc",
    title="LFC point-to-point credits (Bhoedjang et al.)",
    feature_key="lfc",
    default_tree="binomial",
    tree_uses_cost=False,
    cls=LfcScheme,
))

# The self-healing variants (backup_tree, tree_repair) live with the
# recovery control plane and register themselves on import.
from repro.mcast import recovery as _recovery  # noqa: E402,F401
