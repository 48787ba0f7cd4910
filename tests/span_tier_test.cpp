// Group-body equivalence suite (DESIGN.md §9): every dwarf that registers a
// group body (Kernel::span) must reproduce the per-item reference path
// bit-identically.  Several group bodies reorder work across vector lanes,
// use masked selects for the running-min/clamp idioms and slice crc eight
// bytes at a time, yet every float and every integer they produce must
// match the scalar loop bit for bit (signed zeros, NaN payloads and all).
// For each (dwarf, queue mode) case the benchmark runs every size in the
// dwarf's list twice from an identical deterministic setup -- once with
// --dispatch=item (the per-item loop/fiber reference) and once with
// --dispatch=auto -- and the test pins:
//   * result_signature(): an order-sensitive byte hash of the output
//     vectors, so "equal" means every float/int is bit-identical;
//   * validation against the serial reference in both modes;
//   * that auto took the group body for every group (groups_span delta
//     > 0, groups_loop delta 0);
//   * the memory-trace content key and the replayed warm cache counters,
//     which must not depend on the dispatch tier at all.
// The out-of-order queue cases defer and reorder kernel execution behind
// the event DAG; the group bodies must still land the exact reference
// bytes there.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "dwarfs/common.hpp"
#include "dwarfs/registry.hpp"
#include "sim/device_spec.hpp"
#include "sim/replay_cache.hpp"
#include "sim/testbed.hpp"
#include "xcl/check/session.hpp"
#include "xcl/context.hpp"
#include "xcl/executor.hpp"
#include "xcl/queue.hpp"

namespace {

using eod::dwarfs::ProblemSize;
using eod::xcl::DispatchMode;
using eod::xcl::QueueMode;

// Replays are memoized process-wide by trace content + geometry, so the
// auto-mode replay of an identical trace is a memo hit -- the counter
// comparison is really a trace-bit-identity proof plus the replay
// determinism that cache_replay_test pins separately.
constexpr std::size_t kMaxReplayAccesses = 20'000'000;

struct ModeGuard {
  DispatchMode prev = eod::xcl::dispatch_mode();
  ~ModeGuard() { eod::xcl::set_dispatch_mode(prev); }
};

struct RunOutcome {
  bool ok = false;                  ///< validate() against serial reference
  std::uint64_t signature = 0;      ///< result_signature() byte hash
  std::uint64_t span_groups = 0;    ///< groups_span delta
  std::uint64_t loop_groups = 0;    ///< groups_loop delta
  std::uint64_t fiber_groups = 0;   ///< groups_fiber delta
  std::optional<eod::sim::TraceKey> trace;
  std::optional<eod::sim::HierarchyCounters> warm;
};

RunOutcome run_once(const char* name, ProblemSize size, DispatchMode mode,
                    QueueMode queue_mode = QueueMode::kInOrder) {
  const ModeGuard guard;
  eod::xcl::set_dispatch_mode(mode);

  auto dwarf = eod::dwarfs::create_dwarf(name);
  dwarf->setup(size);

  eod::xcl::Device& dev = eod::sim::testbed_device("i7-6700K");
  eod::xcl::Context ctx(dev);
  eod::xcl::Queue q(ctx, queue_mode);
  dwarf->bind(ctx, q);

  // The delta brackets run() AND finish(): an out-of-order queue defers
  // kernel execution to the sync point inside finish(), so snapshotting
  // after run() alone would miss every group.
  const eod::xcl::ExecutorStats before = eod::xcl::executor_stats();
  dwarf->run();
  dwarf->finish();
  const eod::xcl::ExecutorStats after = eod::xcl::executor_stats();

  RunOutcome out;
  out.ok = dwarf->validate().ok;
  out.signature = dwarf->result_signature();
  out.span_groups = after.groups_span - before.groups_span;
  out.loop_groups = after.groups_loop - before.groups_loop;
  out.fiber_groups = after.groups_fiber - before.groups_fiber;

  const std::size_t hint = dwarf->trace_size_hint();
  if (hint > 0 && hint <= kMaxReplayAccesses) {
    auto gen = [&dwarf](eod::sim::TraceWriter& w) { dwarf->stream_trace(w); };
    out.trace = eod::sim::hash_trace(gen);
    out.warm = eod::sim::memoized_replay(gen,
                                         eod::sim::spec_by_name("i7-6700K"),
                                         std::string(name) + "/span-eq")
                   .warm;
  }
  dwarf->unbind();
  return out;
}

struct SpanCase {
  const char* name;
  std::vector<ProblemSize> sizes;
  QueueMode queue = QueueMode::kInOrder;
};

// Without a printer gtest lists the parameter as its raw bytes -- the
// address of `name` among them -- so the test's listed id would change with
// the build layout and from run to run under address-space randomization.
void PrintTo(const SpanCase& c, std::ostream* os) {
  *os << c.name;
  if (c.queue == QueueMode::kOutOfOrder) *os << " (out-of-order queue)";
}

// gem (O(vertices x atoms)) and cwt (O(N x S x support)) grow
// superlinearly; their medium/large functional passes run for minutes, so
// -- like dwarf_validation_test -- the equivalence cells stop at small.
// Every size still takes the same group-body code path (vector main loop,
// scalar tail and tail clamping included: the tested cells already
// exercise padded final groups and extents that are not lane multiples).
std::vector<SpanCase> cases(QueueMode queue) {
  const std::vector<ProblemSize> all = {ProblemSize::kTiny, ProblemSize::kSmall,
                                        ProblemSize::kMedium,
                                        ProblemSize::kLarge};
  const std::vector<ProblemSize> to_small = {ProblemSize::kTiny,
                                             ProblemSize::kSmall};
  return {{"kmeans", all, queue}, {"csr", all, queue},
          {"crc", all, queue},    {"srad", all, queue},
          {"dwt", all, queue},    {"nw", all, queue},
          {"gem", to_small, queue}, {"cwt", to_small, queue}};
}

class SpanTier : public ::testing::TestWithParam<SpanCase> {};

TEST_P(SpanTier, SpanMatchesItemReferenceBitExactly) {
  const SpanCase& c = GetParam();
  for (const ProblemSize size : c.sizes) {
    SCOPED_TRACE(std::string(c.name) + "/" + eod::dwarfs::to_string(size));
    const RunOutcome item = run_once(c.name, size, DispatchMode::kItem,
                                     c.queue);
    const RunOutcome group = run_once(c.name, size, DispatchMode::kAuto,
                                      c.queue);

    // Both tiers pass serial-reference validation...
    EXPECT_TRUE(item.ok);
    EXPECT_TRUE(group.ok);
    // ...and the tiers really differed: item pinned the reference path,
    // auto dispatched every group of these dwarfs as one group-body call.
    EXPECT_EQ(item.span_groups, 0u);
    EXPECT_GT(group.span_groups, 0u);
    EXPECT_EQ(group.loop_groups, 0u);

    // Byte-exact output equivalence, not tolerance-based validation.
    ASSERT_NE(item.signature, 0u);
    EXPECT_EQ(group.signature, item.signature);

    // The memory trace (and therefore every replayed cache counter) is a
    // function of the benchmark's data, not of the dispatch tier.
    ASSERT_EQ(item.trace.has_value(), group.trace.has_value());
    if (item.trace.has_value()) {
      EXPECT_EQ(item.trace->content_hash, group.trace->content_hash);
      EXPECT_EQ(item.trace->accesses, group.trace->accesses);
      EXPECT_EQ(*item.warm, *group.warm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ConvertedDwarfs, SpanTier,
                         ::testing::ValuesIn(cases(QueueMode::kInOrder)),
                         [](const auto& ti) {
                           return std::string(ti.param.name);
                         });
INSTANTIATE_TEST_SUITE_P(ConvertedDwarfsOutOfOrder, SpanTier,
                         ::testing::ValuesIn(cases(QueueMode::kOutOfOrder)),
                         [](const auto& ti) {
                           return std::string(ti.param.name);
                         });

// auto is the process default: without any override, a dwarf with group
// bodies runs every group through them.
TEST(SpanTierAuto, AutoSelectsSpanWhereLegal) {
  EXPECT_EQ(eod::xcl::dispatch_mode(), DispatchMode::kAuto);
  const RunOutcome a =
      run_once("kmeans", ProblemSize::kTiny, eod::xcl::dispatch_mode());
  EXPECT_TRUE(a.ok);
  EXPECT_GT(a.span_groups, 0u);
  EXPECT_EQ(a.loop_groups, 0u);
}

// Dwarfs without a group body are untouched by the mode: hmm's barrier
// kernels must run on the fiber path under auto.  (lud used to be this
// case until its kernels grew group bodies for the partitioned
// multi-device path, DESIGN.md §14.)
TEST(SpanTierAuto, NonConvertedDwarfKeepsReferencePath) {
  const RunOutcome a = run_once("hmm", ProblemSize::kTiny, DispatchMode::kAuto);
  EXPECT_TRUE(a.ok);
  EXPECT_EQ(a.span_groups, 0u);
  EXPECT_GT(a.loop_groups + a.fiber_groups, 0u);
}

// fft, hmm and nqueens run per-item kernels only: their outputs must be
// bit-identical in every dispatch mode and from run to run.
TEST(SpanTierAuto, ReferencePathDwarfsSignIdenticallyInEveryMode) {
  for (const char* name : {"fft", "hmm", "nqueens"}) {
    SCOPED_TRACE(name);
    const RunOutcome first = run_once(name, ProblemSize::kTiny,
                                      DispatchMode::kItem);
    EXPECT_TRUE(first.ok);
    ASSERT_NE(first.signature, 0u);
    for (const DispatchMode mode : {DispatchMode::kItem, DispatchMode::kAuto}) {
      const RunOutcome again = run_once(name, ProblemSize::kTiny, mode);
      EXPECT_TRUE(again.ok);
      EXPECT_EQ(again.signature, first.signature)
          << eod::xcl::to_string(mode);
    }
  }
}

// An active CheckSession is authoritative over the dispatch mode: the
// checker cannot be dodged by a kernel that carries a group body.
TEST(SpanTierAuto, ActiveCheckSessionOverridesGroupBody) {
  const ModeGuard guard;
  eod::xcl::set_dispatch_mode(DispatchMode::kAuto);
  eod::xcl::check::CheckSession session;

  auto dwarf = eod::dwarfs::create_dwarf("kmeans");
  dwarf->setup(ProblemSize::kTiny);
  eod::xcl::Device& dev = eod::sim::testbed_device("i7-6700K");
  eod::xcl::Context ctx(dev);
  eod::xcl::Queue q(ctx);
  dwarf->bind(ctx, q);
  const eod::xcl::ExecutorStats before = eod::xcl::executor_stats();
  dwarf->run();
  dwarf->finish();
  const eod::xcl::ExecutorStats after = eod::xcl::executor_stats();
  EXPECT_GT(after.groups_checked - before.groups_checked, 0u);
  EXPECT_EQ(after.groups_span - before.groups_span, 0u);
  EXPECT_TRUE(dwarf->validate().ok);
  EXPECT_TRUE(session.report().clean()) << session.report().to_text();
  dwarf->unbind();
}

}  // namespace
