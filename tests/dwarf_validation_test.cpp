// Cross-benchmark invariants: every dwarf registers, reports a footprint
// that matches the device allocator's accounting (the paper's "verified by
// printing the sum of the size of all memory allocated on the device"),
// fits its §4.4 size class, and produces results matching its serial
// reference through the full xcl pipeline.
#include <gtest/gtest.h>

#include "dwarfs/kmeans/kmeans.hpp"
#include "dwarfs/registry.hpp"
#include "harness/problem_size.hpp"
#include "sim/testbed.hpp"
#include "xcl/queue.hpp"

namespace eod::dwarfs {
namespace {

using harness::SizeClassBounds;

xcl::Device& host_device() { return sim::testbed_device("i7-6700K"); }

class AllDwarfs : public ::testing::TestWithParam<std::string> {};

TEST_P(AllDwarfs, RegistryMetadata) {
  auto d = create_dwarf(GetParam());
  EXPECT_EQ(d->name(), GetParam());
  EXPECT_FALSE(d->berkeley_dwarf().empty());
  EXPECT_FALSE(d->supported_sizes().empty());
  for (const ProblemSize s : d->supported_sizes()) {
    EXPECT_FALSE(d->scale_parameter(s).empty());
    EXPECT_GT(d->footprint_bytes(s), 0u);
  }
}

TEST_P(AllDwarfs, FootprintMatchesDeviceAllocator) {
  auto d = create_dwarf(GetParam());
  const ProblemSize size = d->supported_sizes().front();
  d->setup(size);
  xcl::Context ctx(host_device());
  xcl::Queue q(ctx);
  d->bind(ctx, q);
  // The paper's check: the footprint equation equals the sum of all device
  // allocations.  nqueens/hmm include small control buffers, so allow a
  // 5% slack; the 8 hierarchy benchmarks must match within 1 KiB.
  const double got = static_cast<double>(ctx.allocated_bytes());
  const double want = static_cast<double>(d->footprint_bytes(size));
  EXPECT_NEAR(got, want, std::max(1024.0, want * 0.05))
      << GetParam() << " allocator=" << got << " equation=" << want;
  d->unbind();
  EXPECT_EQ(ctx.allocated_bytes(), 0u);
}

TEST_P(AllDwarfs, ValidatesAgainstSerialReferenceAtSmallestSize) {
  auto d = create_dwarf(GetParam());
  const ProblemSize size = d->supported_sizes().front();
  d->setup(size);
  xcl::Context ctx(host_device());
  xcl::Queue q(ctx);
  d->bind(ctx, q);
  d->run();
  d->finish();
  const Validation v = d->validate();
  EXPECT_TRUE(v.ok) << GetParam() << ": " << v.detail;
  d->unbind();
}

TEST_P(AllDwarfs, RunIsRepeatableAfterRebind) {
  // bind/run/finish on one device, then again on another device: results
  // must stay valid (the suite's portability claim in miniature).
  auto d = create_dwarf(GetParam());
  d->setup(d->supported_sizes().front());
  for (const char* dev : {"i7-6700K", "GTX 1080"}) {
    xcl::Context ctx(sim::testbed_device(dev));
    xcl::Queue q(ctx);
    d->bind(ctx, q);
    d->run();
    d->finish();
    const Validation v = d->validate();
    EXPECT_TRUE(v.ok) << GetParam() << " on " << dev << ": " << v.detail;
    d->unbind();
  }
}

/// bind -> run -> finish -> unbind on the i7-6700K; the run's signature.
std::uint64_t bound_run(Dwarf& d, Validation& v) {
  xcl::Context ctx(host_device());
  xcl::Queue q(ctx);
  d.bind(ctx, q);
  d.run();
  d.finish();
  v = d.validate();
  const std::uint64_t sig = d.result_signature();
  d.unbind();
  return sig;
}

TEST_P(AllDwarfs, SecondRunAfterOneSetupIsBitIdentical) {
  // Host state a run advances must be reset by bind(): every
  // bind -> run -> finish after one setup() computes the same output.
  auto d = create_dwarf(GetParam());
  d->setup(d->supported_sizes().front());
  Validation first;
  Validation second;
  const std::uint64_t a = bound_run(*d, first);
  const std::uint64_t b = bound_run(*d, second);
  EXPECT_TRUE(first.ok) << first.detail;
  EXPECT_TRUE(second.ok) << second.detail;
  EXPECT_NE(a, 0u) << GetParam() << " has no result_signature()";
  EXPECT_EQ(a, b);
}

TEST(KMeansRerun, BindResetsTheCentroidsRunAdvanced) {
  // One round per run: a second run that started from the centroids the
  // first one left behind would assign differently and fail validation.
  KMeans km;
  KMeans::Params p = KMeans::params_for(ProblemSize::kSmall);
  p.rounds = 1;
  km.configure(p);
  Validation first;
  Validation second;
  const std::uint64_t a = bound_run(km, first);
  const std::uint64_t b = bound_run(km, second);
  EXPECT_TRUE(first.ok) << first.detail;
  EXPECT_TRUE(second.ok) << second.detail;
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Suite, AllDwarfs,
                         ::testing::ValuesIn(benchmark_names()),
                         [](const auto& ti) { return ti.param; });

// ---- §4.4 size-class bounds on the Skylake hierarchy ----
//
// The eight benchmarks with scalable datasets must land in the intended
// level; gem/nqueens/hmm are the paper's documented exceptions ("we were
// unable to generate different problem sizes to properly exercise the
// memory hierarchy").  Two published values deviate deliberately and are
// checked as such: crc's large input (4 MiB) still fits the Skylake L3,
// and neither kmeans nor csr reaches the aspirational 4x-L3 mark.
class SizeClasses : public ::testing::TestWithParam<std::string> {};

TEST_P(SizeClasses, FitsIntendedCacheLevel) {
  const SizeClassBounds bounds =
      SizeClassBounds::from_device(sim::skylake());
  auto d = create_dwarf(GetParam());
  EXPECT_LE(d->footprint_bytes(ProblemSize::kTiny), bounds.l1_bytes)
      << "tiny must fit L1";
  EXPECT_LE(d->footprint_bytes(ProblemSize::kSmall), bounds.l2_bytes)
      << "small must fit L2";
  EXPECT_LE(d->footprint_bytes(ProblemSize::kMedium), bounds.l3_bytes)
      << "medium must fit L3";
  if (GetParam() == "crc") {
    EXPECT_GT(d->footprint_bytes(ProblemSize::kLarge), bounds.l2_bytes);
  } else {
    EXPECT_GT(d->footprint_bytes(ProblemSize::kLarge), bounds.l3_bytes)
        << "large must spill out of the last-level cache";
  }
}

INSTANTIATE_TEST_SUITE_P(HierarchyBenchmarks, SizeClasses,
                         ::testing::Values("kmeans", "lud", "csr", "fft",
                                           "dwt", "srad", "crc", "nw"),
                         [](const auto& ti) { return ti.param; });

TEST(SizeMethodology, SolverReproducesFftTable2Row) {
  // fft footprint = 2 * N * 8 bytes with N a power of two; the solver must
  // land exactly on the paper's 2048 / 16384 / 524288 parameters (largest
  // power of two fitting each level).
  const SizeClassBounds bounds =
      SizeClassBounds::from_device(sim::skylake());
  const auto footprint = [](std::size_t log2n) {
    return (std::size_t{1} << log2n) * 2 * 8;
  };
  EXPECT_EQ(std::size_t{1} << harness::solve_scale_parameter(
                bounds, ProblemSize::kTiny, footprint, 1, 30),
            2048u);
  EXPECT_EQ(std::size_t{1} << harness::solve_scale_parameter(
                bounds, ProblemSize::kSmall, footprint, 1, 30),
            16384u);
  EXPECT_EQ(std::size_t{1} << harness::solve_scale_parameter(
                bounds, ProblemSize::kMedium, footprint, 1, 30),
            524288u);
}

TEST(SizeMethodology, SolverFindsLargeThreshold) {
  const SizeClassBounds bounds =
      SizeClassBounds::from_device(sim::skylake());
  const auto footprint = [](std::size_t n) { return n * 4; };
  const std::size_t n =
      harness::solve_scale_parameter(bounds, ProblemSize::kLarge, footprint);
  // 4 x 8 MiB / 4 B = 8 Mi elements.
  EXPECT_EQ(n, 4 * bounds.l3_bytes / 4);
  EXPECT_TRUE(harness::footprint_fits_class(bounds, ProblemSize::kLarge,
                                            footprint(n)));
  EXPECT_FALSE(harness::footprint_fits_class(bounds, ProblemSize::kLarge,
                                             footprint(n - 1)));
}

TEST(SizeMethodology, KmeansEquationMatchesPaperExample) {
  // §4.4.1 computes ~31.5 KiB for 256 points x 30 features via Equation 1;
  // with the Table 3 value of 26 features the tiny class stays under L1.
  EXPECT_NEAR(
      static_cast<double>(KMeans::working_set_bytes(256, 30, 5)) / 1024.0,
      31.5, 0.3);
  EXPECT_LE(KMeans::working_set_bytes(256, 26, 5), 32u * 1024u);
}

TEST(SizeMethodology, Table2HasAllBenchmarks) {
  const auto rows = harness::table2();
  EXPECT_EQ(rows.size(), benchmark_names().size());
  for (const auto& row : rows) {
    EXPECT_EQ(row.scale.size(), row.sizes.size());
    EXPECT_EQ(row.footprint.size(), row.sizes.size());
  }
}

}  // namespace
}  // namespace eod::dwarfs
