"""Network substrate: DES engine, CPU/transport profiles, topologies,
RPC latency model, and the analytic all-to-all flow model."""

from .cpu import CPUS, TRANSPORTS, CpuProfile, TransportProfile, rpc_cpu_time
from .des import Event, Process, Resource, SimulationError, Simulator
from .flowmodel import AllToAllModel, pernode_alltoall_bandwidth
from .rpc import RpcEndpoint, RpcLatencyResult, measure_rpc_latency, rpc_roundtrip
from .mpi_backend import HAVE_MPI, LoopbackTransport, make_transport
from .topology import ARIES_DRAGONFLY, NARWHAL_FATTREE, DragonflyTopology, FatTreeTopology

__all__ = [
    "CPUS",
    "TRANSPORTS",
    "CpuProfile",
    "TransportProfile",
    "rpc_cpu_time",
    "Event",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "AllToAllModel",
    "pernode_alltoall_bandwidth",
    "RpcEndpoint",
    "RpcLatencyResult",
    "measure_rpc_latency",
    "rpc_roundtrip",
    "ARIES_DRAGONFLY",
    "NARWHAL_FATTREE",
    "DragonflyTopology",
    "FatTreeTopology",
    "HAVE_MPI",
    "LoopbackTransport",
    "make_transport",
]
