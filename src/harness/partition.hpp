// Multi-device co-execution (DESIGN.md §14): split one problem across N
// simulated devices connected by the modeled interconnect.
//
// The paper benchmarks each device in isolation; this layer asks the
// natural follow-up question -- what does the testbed look like as a small
// heterogeneous cluster?  A transfer-aware static partitioner sizes one
// contiguous block-row stripe per device from modeled throughput, and two
// dwarfs get partitioned runners wired through the PR 6 event-DAG:
//
//  * nw   -- anti-diagonal block wavefront.  Each device sweeps its stripe;
//            the (B+1)-element boundary row segment a stripe's top block
//            needs from the stripe above travels as a peer copy that only
//            waits on the producer's previous diagonal launch, so halo
//            exchange overlaps the wavefront on the transfer lane.
//  * lud  -- block-row panels.  The owner of step k factorises the diagonal
//            and row panel, broadcasts the finished stripe to every device
//            that still holds trailing rows, and each device updates its own
//            panel rows; the owner's step k+1 panel work overlaps the other
//            devices' step-k trailing updates.
//
// Both runners launch the exact kernels the single-device dwarfs launch
// (shared factories on Nw / Lud), so the assembled outputs are bit-identical
// to a single-device run -- the equivalence tests pin that.  All queues
// share one modeled timebase (cross-queue waits propagate modeled
// placement), so the makespan over every event is the cluster's modeled
// time to solution.
//
// ring_sweep() is the b_eff ring pattern (see dwarfs/beff): every device
// forwards a message to its ring successor concurrently, sweeping message
// sizes over the peer links instead of the host link.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dwarfs/lud/lud.hpp"
#include "dwarfs/nw/nw.hpp"
#include "xcl/device.hpp"
#include "xcl/executor.hpp"
#include "xcl/queue.hpp"

namespace eod::harness {

/// One device's contiguous run of block rows [block_begin, block_end).
struct Shard {
  xcl::Device* device = nullptr;
  std::size_t block_begin = 0;
  std::size_t block_end = 0;

  [[nodiscard]] std::size_t blocks() const noexcept {
    return block_end - block_begin;
  }
};

/// Transfer-aware static partition: splits `total_blocks` contiguous block
/// rows over `devices` proportionally to modeled per-block throughput.
/// Each device's rate comes from a probe launch of `block_range` work with
/// `per_block` cost on its timing model, plus the modeled link cost of one
/// `halo_bytes` transfer from its predecessor (devices behind slow links
/// get smaller shards).  Largest-remainder rounding keeps the total exact;
/// every device keeps at least one block while blocks last.
///
/// `block_weights` (empty = uniform) gives each block row a relative work
/// weight; stripes then equalise weighted work per unit of device rate
/// instead of block counts.  lud uses this: row r joins the trailing
/// update of every step k < r, so bottom rows carry far more work than top
/// rows and an equal-count split would idle the top device.
[[nodiscard]] std::vector<Shard> plan_shards(
    const std::vector<xcl::Device*>& devices, std::size_t total_blocks,
    const xcl::WorkloadProfile& per_block, xcl::NDRange block_range,
    std::size_t halo_bytes, const std::vector<double>& block_weights = {});

struct PartitionOptions {
  /// Run the serial-reference comparison on the assembled output.
  bool validate = false;
  /// Kernel-tier override for the partitioned launches, exactly like
  /// harness::measure()'s.
  xcl::DispatchMode dispatch = xcl::DispatchMode::kAuto;
};

/// What a partitioned run produced, on the shared modeled timebase.
struct PartitionedResult {
  std::vector<Shard> shards;
  /// result_signature() of the assembled output (bit-comparable with a
  /// single-device run of the same dwarf).
  std::uint64_t signature = 0;
  dwarfs::Validation validation;  ///< filled when options.validate

  double makespan_s = 0.0;         ///< uploads + compute + halos, modeled
  double upload_horizon_s = 0.0;   ///< when the last initial upload landed
  /// Steady-state span: makespan minus the one-time uploads -- what repeat
  /// application iterations cost, and what speedup gates compare.
  double compute_makespan_s = 0.0;

  std::size_t halo_transfers = 0;  ///< peer copies issued
  std::size_t halo_bytes = 0;
  double halo_seconds = 0.0;       ///< summed modeled link occupancy
};

/// Runs a configured Nw across `devices` (out-of-order queues, halo peer
/// copies); installs the assembled score matrix via Nw::adopt_result.
[[nodiscard]] PartitionedResult run_partitioned_nw(
    dwarfs::Nw& nw, const std::vector<xcl::Device*>& devices,
    const PartitionOptions& options = {});

/// Runs a configured Lud across `devices` (out-of-order queues, panel
/// broadcasts); installs the assembled factor via Lud::adopt_result.
[[nodiscard]] PartitionedResult run_partitioned_lud(
    dwarfs::Lud& lud, const std::vector<xcl::Device*>& devices,
    const PartitionOptions& options = {});

/// One message size of the b_eff ring sweep.
struct RingPoint {
  std::size_t bytes = 0;
  double ring_gbs = 0.0;  ///< aggregate: N concurrent hops' bytes / span
};

/// b_eff ring pattern over the modeled interconnect: per message size every
/// device sends to its ring successor, all hops in flight together; the
/// aggregate bandwidth is total bytes moved over the modeled span.
[[nodiscard]] std::vector<RingPoint> ring_sweep(
    const std::vector<xcl::Device*>& devices, std::size_t max_bytes);

}  // namespace eod::harness
