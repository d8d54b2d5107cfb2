"""Bench: the paper's future-work extensions (§7), implemented.

* NIC-based barrier vs the dissemination barrier;
* NIC-based allreduce vs host-based binomial reduce+bcast;
* rendezvous (RDMA-style) NIC-based broadcast beyond the eager limit vs
  the host-based rendezvous broadcast.
"""

from repro.cluster import Cluster
from repro.config import ClusterConfig
from repro.mpi import Communicator


def _collective_time(n, program_factory, **comm_kw):
    cluster = Cluster(ClusterConfig(n_nodes=n))
    comm = Communicator(cluster, **comm_kw)
    times = {}
    comm.run(program_factory(times))
    return max(times.values())


def test_nic_barrier_scaling():
    def sweep():
        rows = {}
        for n in (4, 8, 16, 32):
            def make(times):
                def program(ctx):
                    yield from ctx.barrier(nic=True)   # group warmup
                    yield from ctx.barrier(nic=False)  # align
                    t0 = ctx.sim.now
                    yield from ctx.barrier(nic=False)
                    t_host = ctx.sim.now - t0
                    t0 = ctx.sim.now
                    yield from ctx.barrier(nic=True)
                    times[ctx.rank] = (t_host, ctx.sim.now - t0)

                return program

            cluster = Cluster(ClusterConfig(n_nodes=n))
            comm = Communicator(cluster)
            times = {}
            comm.run(make(times))
            rows[n] = (
                max(t for t, _ in times.values()),
                max(t for _, t in times.values()),
            )
        return rows

    rows = sweep()
    print()
    print(f"{'ranks':>6} {'dissemination us':>17} {'NIC barrier us':>15}")
    for n, (host, nic) in rows.items():
        print(f"{n:>6} {host:>17.1f} {nic:>15.1f}")
        assert nic < host, n
    # The NIC barrier's advantage grows with scale (log rounds of host
    # round trips vs one NIC tree sweep).
    assert rows[32][0] / rows[32][1] > rows[4][0] / rows[4][1]


def test_nic_allreduce_vs_host():
    def sweep():
        rows = {}
        for n in (8, 16):
            for nic in (False, True):
                def make(times, nic=nic):
                    def program(ctx):
                        yield from ctx.allreduce(1, nic=True)  # group warmup
                        yield from ctx.barrier()
                        t0 = ctx.sim.now
                        out = yield from ctx.allreduce(ctx.rank, nic=nic)
                        assert out == n * (n - 1) // 2
                        times[ctx.rank] = ctx.sim.now - t0

                    return program

                cluster = Cluster(ClusterConfig(n_nodes=n))
                comm = Communicator(cluster)
                times = {}
                comm.run(make(times))
                rows[(n, nic)] = max(times.values())
        return rows

    rows = sweep()
    print()
    print(f"{'ranks':>6} {'host us':>9} {'NIC us':>8} {'factor':>7}")
    for n in (8, 16):
        host, nic = rows[(n, False)], rows[(n, True)]
        print(f"{n:>6} {host:>9.1f} {nic:>8.1f} {host / nic:>7.2f}")
        assert nic < host, n


def test_rdma_bcast_beyond_eager():
    def sweep():
        rows = {}
        for size in (32768, 65536, 131072):
            for rdma in (False, True):
                def make(times, size=size):
                    def program(ctx):
                        yield from ctx.bcast(root=0, size=size)  # warmup
                        yield from ctx.barrier()
                        t0 = ctx.sim.now
                        yield from ctx.bcast(root=0, size=size)
                        times[ctx.rank] = ctx.sim.now - t0

                    return program

                rows[(size, rdma)] = _collective_time(
                    16, make, nic_bcast_rdma=rdma
                )
        return rows

    rows = sweep()
    print()
    print(f"{'size':>8} {'host rendezvous us':>19} {'NIC rdma us':>12} {'factor':>7}")
    for size in (32768, 65536, 131072):
        host, rdma = rows[(size, False)], rows[(size, True)]
        print(f"{size:>8} {host:>19.1f} {rdma:>12.1f} {host / rdma:>7.2f}")
        # The NIC-based RDMA broadcast wins beyond the eager limit too —
        # the pipelined-forwarding benefit compounds with message size.
        assert rdma < host, size
    f32 = rows[(32768, False)] / rows[(32768, True)]
    f128 = rows[(131072, False)] / rows[(131072, True)]
    assert f128 > f32 * 0.9
