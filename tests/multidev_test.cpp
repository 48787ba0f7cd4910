// Multi-device co-execution suite (DESIGN.md §14): the interconnect link
// model, the transfer-aware partitioner, the partitioned nw / lud runners,
// and the b_eff sweeps.
//
// The load-bearing property is bit-equivalence: a partitioned run launches
// the exact kernel bodies the single-device dwarf launches, so the
// assembled output must hash identically to a one-device run at every
// device count, across dispatch tiers, and across heterogeneous fleets.
// The link-model tests pin the arithmetic the halo costs come from
// (latency + size/bandwidth, P2P vs host staging, occupancy <= completion),
// and the b_eff tests pin the saturating shape of the bandwidth curve.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "dwarfs/beff/beff.hpp"
#include "dwarfs/lud/lud.hpp"
#include "dwarfs/nw/nw.hpp"
#include "harness/cli.hpp"
#include "harness/partition.hpp"
#include "sim/device_spec.hpp"
#include "sim/interconnect.hpp"
#include "sim/testbed.hpp"
#include "xcl/buffer.hpp"
#include "xcl/context.hpp"
#include "xcl/executor.hpp"
#include "xcl/queue.hpp"

namespace {

using namespace eod;

std::vector<xcl::Device*> fleet(const std::vector<const char*>& names) {
  std::vector<xcl::Device*> devices;
  for (const char* name : names) {
    devices.push_back(&sim::testbed_device(name));
  }
  return devices;
}

// ---------------------------------------------------------------- links --

TEST(LinkPath, SecondsIsLatencyPlusWireTime) {
  sim::LinkPath path;
  path.latency_s = 20e-6;
  path.bandwidth_gbs = 10.0;
  EXPECT_DOUBLE_EQ(path.seconds(0), 20e-6);
  // 10 MB over 10 GB/s = 1 ms of wire time on top of the latency.
  EXPECT_NEAR(path.seconds(10'000'000), 20e-6 + 1e-3, 1e-12);
}

TEST(LinkPath, OccupancyNeverExceedsCompletion) {
  sim::LinkPath path;
  path.latency_s = 20e-6;
  path.bandwidth_gbs = 10.0;
  for (std::size_t bytes : {std::size_t{64}, std::size_t{4096},
                            std::size_t{1} << 20, std::size_t{64} << 20}) {
    EXPECT_LE(path.occupancy_seconds(bytes), path.seconds(bytes)) << bytes;
    EXPECT_GT(path.occupancy_seconds(bytes), 0.0) << bytes;
  }
  // Small messages: the engine frees after the DMA setup, long before the
  // propagation latency elapses -- that gap is what lets halos pipeline.
  EXPECT_LT(path.occupancy_seconds(64), path.seconds(64));
}

TEST(LinkBetween, SameVendorCapablePairGetsDirectPeerLink) {
  const sim::DeviceSpec& a = sim::spec_by_name("GTX 1080");
  const sim::DeviceSpec& b = sim::spec_by_name("Titan X");
  const sim::LinkPath path = sim::link_between(a, b);
  EXPECT_TRUE(path.peer);
  EXPECT_DOUBLE_EQ(path.bandwidth_gbs,
                   std::min(a.p2p_bandwidth_gbs, b.p2p_bandwidth_gbs));
  EXPECT_DOUBLE_EQ(path.latency_s,
                   std::max(a.p2p_latency_us, b.p2p_latency_us) * 1e-6);
}

TEST(LinkBetween, CrossVendorPairStagesThroughHost) {
  const sim::DeviceSpec& a = sim::spec_by_name("GTX 1080");
  const sim::DeviceSpec& b = sim::spec_by_name("R9 290X");
  const sim::LinkPath path = sim::link_between(a, b);
  EXPECT_FALSE(path.peer);
  // Back-to-back legs: latencies add, bandwidths combine harmonically --
  // the staged path is strictly worse than either host link alone.
  EXPECT_DOUBLE_EQ(
      path.latency_s,
      (a.transfer_latency_us + b.transfer_latency_us) * 1e-6);
  EXPECT_LT(path.bandwidth_gbs,
            std::min(a.transfer_bandwidth_gbs, b.transfer_bandwidth_gbs));
}

TEST(LinkBetween, CpusAreNeverPeers) {
  const sim::LinkPath path = sim::link_between(
      sim::spec_by_name("i7-6700K"), sim::spec_by_name("i5-3550"));
  EXPECT_FALSE(path.peer);  // their "device" memory is host memory
}

TEST(Interconnect, MatchesLinkBetweenForTestbedDevices) {
  const sim::Interconnect& model = sim::testbed_interconnect();
  xcl::Device& src = sim::testbed_device("GTX 1080");
  xcl::Device& dst = sim::testbed_device("Titan X");
  const sim::LinkPath path = sim::link_between(
      sim::spec_by_name("GTX 1080"), sim::spec_by_name("Titan X"));
  constexpr std::size_t kBytes = 1 << 20;
  EXPECT_DOUBLE_EQ(model.peer_seconds(src, dst, kBytes), path.seconds(kBytes));
  EXPECT_DOUBLE_EQ(model.peer_occupancy_seconds(src, dst, kBytes),
                   path.occupancy_seconds(kBytes));
  EXPECT_TRUE(model.peer_direct(src, dst));
  EXPECT_FALSE(model.peer_direct(src, sim::testbed_device("R9 290X")));
}

TEST(PeerCopy, MovesBytesAcrossContexts) {
  xcl::Device& a = sim::testbed_device("GTX 1080");
  xcl::Device& b = sim::testbed_device("Titan X");
  xcl::Context ctx_a(a), ctx_b(b);
  xcl::Queue qa(ctx_a), qb(ctx_b);

  std::vector<std::int32_t> payload(1024);
  std::iota(payload.begin(), payload.end(), 7);
  xcl::Buffer src = xcl::make_buffer<std::int32_t>(ctx_a, payload.size());
  xcl::Buffer dst = xcl::make_buffer<std::int32_t>(ctx_b, payload.size());
  qa.enqueue_write<std::int32_t>(src, payload);
  qa.finish();

  (void)qb.enqueue_peer_copy(src, 0, dst, 0,
                             payload.size() * sizeof(std::int32_t));
  std::vector<std::int32_t> out(payload.size());
  qb.enqueue_read<std::int32_t>(dst, std::span(out));
  const double horizon = qb.finish();
  EXPECT_EQ(out, payload);
  EXPECT_GT(horizon, 0.0);  // the modeled link charged time
}

// ---------------------------------------------------------- partitioner --

TEST(PlanShards, UniformWorkSplitsEvenlyOnIdenticalDevices) {
  const auto devices = fleet({"GTX 1080", "GTX 1080", "GTX 1080", "GTX 1080"});
  const auto shards = harness::plan_shards(
      devices, 64, dwarfs::Lud::internal_profile(512, 1, 1),
      xcl::NDRange(16 * 16, 16 * 16), 1024);
  ASSERT_EQ(shards.size(), 4u);
  std::size_t total = 0;
  std::size_t cursor = 0;
  for (const harness::Shard& s : shards) {
    EXPECT_EQ(s.block_begin, cursor);  // contiguous, in device order
    EXPECT_EQ(s.blocks(), 16u);        // identical devices, uniform blocks
    cursor = s.block_end;
    total += s.blocks();
  }
  EXPECT_EQ(total, 64u);
}

TEST(PlanShards, WeightedSplitEqualisesWorkNotBlockCount) {
  const auto devices = fleet({"GTX 1080", "GTX 1080"});
  // lud-shaped weights: block row r carries ~r units (bottom rows heavy).
  std::vector<double> weights(60);
  for (std::size_t r = 0; r < weights.size(); ++r) {
    weights[r] = 1.0 + static_cast<double>(r);
  }
  const auto shards = harness::plan_shards(
      devices, weights.size(), dwarfs::Lud::internal_profile(960, 1, 1),
      xcl::NDRange(16 * 16, 16 * 16), 1024, weights);
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].block_begin, 0u);
  EXPECT_EQ(shards[1].block_end, weights.size());
  // The top stripe must take MORE blocks than the bottom one to carry the
  // same weighted work; an equal-count split would be 30/30.
  EXPECT_GT(shards[0].blocks(), shards[1].blocks());
  const auto work = [&](const harness::Shard& s) {
    return std::accumulate(weights.begin() + static_cast<long>(s.block_begin),
                           weights.begin() + static_cast<long>(s.block_end),
                           0.0);
  };
  const double total =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  // Identical devices: each stripe within one block-row weight of half.
  EXPECT_NEAR(work(shards[0]), total / 2, weights.back());
  EXPECT_NEAR(work(shards[1]), total / 2, weights.back());
}

TEST(PlanShards, EveryDeviceKeepsABlockWhileBlocksLast) {
  const auto devices = fleet({"GTX 1080", "GTX 1080", "GTX 1080", "GTX 1080"});
  const auto shards = harness::plan_shards(
      devices, 5, dwarfs::Lud::internal_profile(512, 1, 1),
      xcl::NDRange(16 * 16, 16 * 16), 1024);
  ASSERT_EQ(shards.size(), 4u);
  std::size_t total = 0;
  for (const harness::Shard& s : shards) {
    EXPECT_GE(s.blocks(), 1u);
    total += s.blocks();
  }
  EXPECT_EQ(total, 5u);
}

// --------------------------------------------------- partitioned dwarfs --

std::uint64_t single_device_nw_signature(std::size_t n) {
  dwarfs::Nw nw;
  nw.configure(n, 10);
  xcl::Device& dev = sim::testbed_device("GTX 1080");
  xcl::Context ctx(dev);
  xcl::Queue q(ctx);
  nw.bind(ctx, q);
  nw.run();
  nw.finish();
  q.finish();
  EXPECT_TRUE(nw.validate().ok);
  const std::uint64_t sig = nw.result_signature();
  nw.unbind();
  return sig;
}

std::uint64_t single_device_lud_signature(std::size_t n) {
  dwarfs::Lud lud;
  lud.configure(n);
  xcl::Device& dev = sim::testbed_device("GTX 1080");
  xcl::Context ctx(dev);
  xcl::Queue q(ctx);
  lud.bind(ctx, q);
  lud.run();
  lud.finish();
  q.finish();
  EXPECT_TRUE(lud.validate().ok);
  const std::uint64_t sig = lud.result_signature();
  lud.unbind();
  return sig;
}

TEST(PartitionedNw, BitIdenticalToSingleDeviceAtEveryScale) {
  constexpr std::size_t kN = 176;  // small preset, 11 block rows
  const std::uint64_t expect = single_device_nw_signature(kN);
  for (std::size_t nd : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    dwarfs::Nw nw;
    nw.configure(kN, 10);
    harness::PartitionOptions opts;
    opts.validate = true;
    const harness::PartitionedResult r = harness::run_partitioned_nw(
        nw, fleet(std::vector<const char*>(nd, "GTX 1080")), opts);
    EXPECT_TRUE(r.validation.ok) << nd << " devices";
    EXPECT_EQ(r.signature, expect) << nd << " devices";
    EXPECT_EQ(r.shards.size(), nd);
    EXPECT_GT(r.compute_makespan_s, 0.0);
    if (nd > 1) {
      EXPECT_GT(r.halo_transfers, 0u);
    }
  }
}

TEST(PartitionedNw, SpanDispatchPreservesTheSignature) {
  constexpr std::size_t kN = 176;
  const std::uint64_t expect = single_device_nw_signature(kN);
  dwarfs::Nw nw;
  nw.configure(kN, 10);
  harness::PartitionOptions opts;
  opts.validate = true;
  opts.dispatch = xcl::DispatchMode::kAuto;
  const harness::PartitionedResult r = harness::run_partitioned_nw(
      nw, fleet({"GTX 1080", "GTX 1080"}), opts);
  EXPECT_TRUE(r.validation.ok);
  EXPECT_EQ(r.signature, expect);
}

TEST(PartitionedLud, BitIdenticalToSingleDeviceAtEveryScale) {
  constexpr std::size_t kN = 240;  // small preset, 15 block rows
  const std::uint64_t expect = single_device_lud_signature(kN);
  for (std::size_t nd : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    dwarfs::Lud lud;
    lud.configure(kN);
    harness::PartitionOptions opts;
    opts.validate = true;
    const harness::PartitionedResult r = harness::run_partitioned_lud(
        lud, fleet(std::vector<const char*>(nd, "GTX 1080")), opts);
    EXPECT_TRUE(r.validation.ok) << nd << " devices";
    EXPECT_EQ(r.signature, expect) << nd << " devices";
    EXPECT_EQ(r.shards.size(), nd);
    EXPECT_GT(r.compute_makespan_s, 0.0);
    if (nd > 1) {
      EXPECT_GT(r.halo_transfers, 0u);
    }
  }
}

TEST(PartitionedLud, HeterogeneousFleetStillBitIdentical) {
  // Cross-vendor fleet: every stripe boundary is a host-staged link and the
  // partitioner sees three different device rates -- the math must not care.
  constexpr std::size_t kN = 240;
  const std::uint64_t expect = single_device_lud_signature(kN);
  dwarfs::Lud lud;
  lud.configure(kN);
  harness::PartitionOptions opts;
  opts.validate = true;
  const harness::PartitionedResult r = harness::run_partitioned_lud(
      lud, fleet({"GTX 1080", "R9 290X", "i7-6700K"}), opts);
  EXPECT_TRUE(r.validation.ok);
  EXPECT_EQ(r.signature, expect);
  EXPECT_EQ(r.shards.size(), 3u);
}

TEST(PartitionedNw, HeterogeneousFleetStillBitIdentical) {
  constexpr std::size_t kN = 176;
  const std::uint64_t expect = single_device_nw_signature(kN);
  dwarfs::Nw nw;
  nw.configure(kN, 10);
  harness::PartitionOptions opts;
  opts.validate = true;
  const harness::PartitionedResult r = harness::run_partitioned_nw(
      nw, fleet({"Titan X", "R9 290X"}), opts);
  EXPECT_TRUE(r.validation.ok);
  EXPECT_EQ(r.signature, expect);
}

// ------------------------------------------------------------------ b_eff --

TEST(Beff, HostLinkBandwidthRisesToSaturation) {
  dwarfs::Beff beff;
  beff.configure(std::size_t{1} << 20);
  xcl::Device& dev = sim::testbed_device("GTX 1080");
  xcl::Context ctx(dev);
  xcl::Queue q(ctx);
  beff.bind(ctx, q);
  beff.run();
  beff.finish();
  const std::vector<dwarfs::BeffPoint>& pts = beff.points();
  ASSERT_GE(pts.size(), 3u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].bytes, pts[i - 1].bytes);
    // latency + size/bandwidth makes effective GB/s monotone in size.
    EXPECT_GE(pts[i].write_gbs, pts[i - 1].write_gbs);
    EXPECT_GE(pts[i].read_gbs, pts[i - 1].read_gbs);
  }
  // Latency-bound small messages vs saturated large ones.
  EXPECT_GT(pts.back().write_gbs, 2.0 * pts.front().write_gbs);
  // Never above the modeled host-link rate.
  const double peak = sim::spec_by_name("GTX 1080").transfer_bandwidth_gbs;
  EXPECT_LE(pts.back().write_gbs, peak + 1e-9);
  beff.unbind();
}

TEST(RingSweep, AggregateBandwidthSaturatesAboveOneLink) {
  const std::vector<harness::RingPoint> ring = harness::ring_sweep(
      fleet({"GTX 1080", "GTX 1080", "GTX 1080", "GTX 1080"}),
      std::size_t{1} << 20);
  ASSERT_GE(ring.size(), 3u);
  for (std::size_t i = 1; i < ring.size(); ++i) {
    EXPECT_GE(ring[i].ring_gbs, ring[i - 1].ring_gbs);
  }
  // Four concurrent hops: the aggregate must beat a single peer link.
  const double one_link = sim::spec_by_name("GTX 1080").p2p_bandwidth_gbs;
  EXPECT_GT(ring.back().ring_gbs, one_link);
}

// -------------------------------------------------------------------- cli --

TEST(CliDevices, ParsesCommaSeparatedListAndResolves) {
  const char* argv[] = {"prog", "--devices", "GTX 1080,Titan X"};
  const harness::CliOptions o = harness::parse_cli(3, argv);
  ASSERT_EQ(o.devices.size(), 2u);
  EXPECT_EQ(o.devices[0], "GTX 1080");
  EXPECT_EQ(o.devices[1], "Titan X");
  const std::vector<xcl::Device*> resolved = o.resolve_devices();
  ASSERT_EQ(resolved.size(), 2u);
  EXPECT_EQ(resolved[0]->name(), "GTX 1080");
  EXPECT_EQ(resolved[1]->name(), "Titan X");
}

TEST(CliDevices, UnknownNameIsAHardError) {
  const char* argv[] = {"prog", "--devices", "GTX 1080,Voodoo 2"};
  const harness::CliOptions o = harness::parse_cli(3, argv);
  EXPECT_THROW((void)o.resolve_devices(), std::invalid_argument);
}

TEST(CliDevices, EmptyListElementIsMalformed) {
  const char* argv[] = {"prog", "--devices", "GTX 1080,,Titan X"};
  EXPECT_THROW((void)harness::parse_cli(3, argv), std::invalid_argument);
}

TEST(CliDevices, AbsentFlagFallsBackToSingleResolvedDevice) {
  const char* argv[] = {"prog", "--device-name", "GTX 1080"};
  const harness::CliOptions o = harness::parse_cli(3, argv);
  const std::vector<xcl::Device*> resolved = o.resolve_devices();
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0]->name(), "GTX 1080");
}

}  // namespace
