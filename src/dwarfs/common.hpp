// Shared benchmark framework: the Dwarf interface every benchmark
// implements, problem-size naming, validation helpers, and a deterministic
// RNG for workload generation.
//
// The paper's methodology (§4.4) drives the interface: each benchmark must
// expose its device-side memory footprint per problem size (the Table 2
// working-set equations), generate its own input data, run through the xcl
// runtime, and validate results against a serial reference "either by
// directly comparing outputs against a serial implementation ... or by
// adding utilities to compare norms".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/cache_sim.hpp"
#include "sim/trace_replay.hpp"
#include "xcl/buffer.hpp"
#include "xcl/queue.hpp"

namespace eod::dwarfs {

/// The four problem-size classes of §4.4, anchored to the Skylake memory
/// hierarchy: tiny -> 32 KiB L1, small -> 256 KiB L2, medium -> 8 MiB L3,
/// large -> at least 4x L3 (out of cache).
enum class ProblemSize : std::uint8_t { kTiny, kSmall, kMedium, kLarge };

inline constexpr ProblemSize kAllSizes[] = {
    ProblemSize::kTiny, ProblemSize::kSmall, ProblemSize::kMedium,
    ProblemSize::kLarge};

[[nodiscard]] const char* to_string(ProblemSize s) noexcept;
[[nodiscard]] std::optional<ProblemSize> parse_problem_size(
    const std::string& name) noexcept;

/// Result of comparing device output with the serial reference.
struct Validation {
  bool ok = false;
  double error = 0.0;      ///< metric value (max abs diff or relative norm)
  std::string detail;      ///< human-readable explanation
};

/// Relative L2-norm difference ||a-b|| / ||b|| (paper: "compare norms").
[[nodiscard]] double rel_l2_diff(std::span<const float> a,
                                 std::span<const float> b);
[[nodiscard]] double max_abs_diff(std::span<const float> a,
                                  std::span<const float> b);

/// Builds a Validation from a relative-norm comparison with tolerance.
[[nodiscard]] Validation validate_norm(std::span<const float> got,
                                       std::span<const float> want,
                                       double tolerance,
                                       const std::string& what);

/// splitmix64: small deterministic RNG for input generation (keeps every
/// benchmark's dataset reproducible across runs and platforms).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform float in [0, 1).
  float uniform() {
    return static_cast<float>(next() >> 40) * (1.0f / 16777216.0f);
  }
  /// Uniform float in [lo, hi).
  float uniform(float lo, float hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

 private:
  std::uint64_t state_;
};

/// FNV-1a over a typed output vector, for Dwarf::result_signature
/// implementations.  Byte-exact: two runs hash equal iff every output
/// element is bit-identical (NaN payloads and signed zeros included).
template <typename T>
[[nodiscard]] std::uint64_t hash_result(std::span<const T> data,
                                        std::uint64_t seed = 0xcbf29ce484222325ull) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < data.size_bytes(); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  return h;
}

/// A benchmark in the suite.  Lifecycle:
///   setup(size)  -- generate host-side input (device independent)
///   bind(ctx,q)  -- allocate device buffers and enqueue initial transfers
///   run()        -- enqueue one application iteration's kernels (§2: the
///                   harness loops this for >= 2 s)
///   finish()     -- read results back
///   validate()   -- compare with the serial reference
/// bind/run/finish may be repeated for multiple devices after one setup().
class Dwarf {
 public:
  virtual ~Dwarf() = default;

  /// Benchmark id as used in the paper's tables ("kmeans", "lud", ...).
  [[nodiscard]] virtual std::string name() const = 0;
  /// The Berkeley dwarf the benchmark represents ("MapReduce", ...).
  [[nodiscard]] virtual std::string berkeley_dwarf() const = 0;
  /// Sizes the benchmark supports (nqueens: one size; hmm: tiny validated).
  [[nodiscard]] virtual std::vector<ProblemSize> supported_sizes() const {
    return {kAllSizes, kAllSizes + 4};
  }
  /// The Table 2 scale parameter cell for a size (e.g. "65600", "1152x864").
  [[nodiscard]] virtual std::string scale_parameter(ProblemSize s) const = 0;
  /// Device-side footprint in bytes, from the benchmark's working-set
  /// equation (verified against Context::allocated_bytes in tests).
  [[nodiscard]] virtual std::size_t footprint_bytes(ProblemSize s) const = 0;

  virtual void setup(ProblemSize size) = 0;
  virtual void bind(xcl::Context& ctx, xcl::Queue& q) = 0;
  virtual void run() = 0;
  virtual void finish() = 0;
  [[nodiscard]] virtual Validation validate() = 0;
  /// Releases device buffers (must leave the dwarf re-bindable).
  virtual void unbind() = 0;

  /// Order-sensitive hash over the benchmark's host-side output vectors
  /// (valid after finish(); 0 when the dwarf does not implement it).
  /// Unlike validate(), which tolerates rounding, equal signatures mean
  /// bit-identical results -- the span-tier equivalence tests pin the span
  /// kernels to the per-item reference path with it.
  [[nodiscard]] virtual std::uint64_t result_signature() const { return 0; }

  /// Optional single-iteration memory trace for the cache simulator
  /// (§4.4: used to verify size classes land in the intended cache level).
  /// Emits into a batched (optionally line-coalescing) writer so large
  /// traces never materialise and never pay a per-access callback.
  /// Overriders should add `using Dwarf::stream_trace;` so the legacy
  /// per-access overload below stays visible on the concrete type.
  /// An override whose addresses depend only on shape parameters opens
  /// with `if (out.keyed(name, kTraceVersion, {params...})) return;` so the
  /// replay memo can key the trace without generating it; kTraceVersion
  /// must be bumped whenever the trace emitted for the same parameters
  /// changes (DESIGN.md §8).
  virtual void stream_trace(sim::TraceWriter& out) const { (void)out; }

  /// Exact (or best-effort) number of accesses stream_trace will emit for
  /// the current setup; 0 when unknown or trace-less.  Lets memory_trace()
  /// reserve and lets callers refuse oversized replays up front.
  [[nodiscard]] virtual std::size_t trace_size_hint() const { return 0; }

  /// Legacy per-access streaming interface, adapted onto the batched one.
  void stream_trace(
      const std::function<void(const sim::MemAccess&)>& sink) const {
    sim::FunctionTraceSink fn_sink(sink);
    sim::TraceWriter writer(fn_sink);
    stream_trace(writer);
  }

  /// Convenience: collects stream_trace into a vector (small sizes only).
  [[nodiscard]] sim::MemoryTrace memory_trace() const {
    sim::MemoryTrace t;
    t.reserve(trace_size_hint());
    sim::VectorTraceSink vec_sink(t);
    sim::TraceWriter writer(vec_sink);
    stream_trace(writer);
    writer.finish();
    return t;
  }
};

}  // namespace eod::dwarfs
