"""trafficlab: bursty traffic synthesis, exact FIFO queueing, and the
estimators and shuffling experiments used to probe long-range burst
structure."""

__version__ = "0.1.0"

from .estimators import (
    CountSeries,
    HurstEstimate,
    TailFit,
    bin_counts,
    fit_tail_index,
    hurst_aggregated_variance,
)
from .experiments import (
    ReplicationPlan,
    SweepPoint,
    SweepResult,
    aggregate_replications,
    block_shuffle,
    blocksize_sweep,
    prefix_mean_sweep,
    sample_size_sweep,
)
from .queue_sim import QueuePath, QueueRun, QueueStats, fluid_queue, packet_fifo, prefix_mean_queue
from .rng import substream
from .synth import (
    FluidOnOffProcess,
    GeneratorSpec,
    HeavyTailSpec,
    PacketizeReport,
    SyntheticSource,
    generate_onoff,
    generate_poisson,
    packetize,
    reorder_nonoverlap,
    sample_heavy_tail,
)
from .traces import (
    PacketTrace,
    TraceFormatError,
    TraceSummary,
    bandwidth_for_utilization,
    load_trace,
    save_trace,
    summarize,
    window,
)

__all__ = [
    "__version__",
    "CountSeries",
    "HurstEstimate",
    "TailFit",
    "bin_counts",
    "fit_tail_index",
    "hurst_aggregated_variance",
    "ReplicationPlan",
    "SweepPoint",
    "SweepResult",
    "aggregate_replications",
    "block_shuffle",
    "blocksize_sweep",
    "prefix_mean_sweep",
    "sample_size_sweep",
    "QueuePath",
    "QueueRun",
    "QueueStats",
    "fluid_queue",
    "packet_fifo",
    "prefix_mean_queue",
    "substream",
    "FluidOnOffProcess",
    "GeneratorSpec",
    "HeavyTailSpec",
    "PacketizeReport",
    "SyntheticSource",
    "generate_onoff",
    "generate_poisson",
    "packetize",
    "reorder_nonoverlap",
    "sample_heavy_tail",
    "PacketTrace",
    "TraceFormatError",
    "TraceSummary",
    "bandwidth_for_utilization",
    "load_trace",
    "save_trace",
    "summarize",
    "window",
]
