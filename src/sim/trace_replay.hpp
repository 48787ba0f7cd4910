// High-throughput trace recording and replay.
//
// The seed pipeline priced one virtual std::function call per MemAccess and
// re-generated the trace once per device hierarchy; gem's medium/large
// all-pairs traces (5e10 / 1e11 accesses) made full counter coverage
// impractical (bench/counters_report used to skip them).  This engine
// replaces that pipeline end to end:
//
//   * TraceWriter batches emitted accesses into 64K-entry pages and hands
//     whole pages to a sink -- no per-access indirect call.
//   * In coalesced mode the writer run-length-merges consecutive accesses
//     with the same 64-byte line span into one CoalescedAccess + repeat
//     count.  64 divides every testbed line size, and span equality at 64B
//     implies span equality at any multiple, so one recorded stream replays
//     bit-identically on 64B and 128B line hierarchies alike.
//   * replay_hierarchies() generates the trace once and fans each page out
//     to every device hierarchy in parallel on the work-stealing
//     xcl::ThreadPool, optionally set-partitioning single hierarchies into
//     independent shards (see CacheHierarchy::max_replay_shards).
//
// Exactness of every path against the per-access reference replay is
// enforced by tests/cache_replay_test.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <string_view>
#include <vector>

#include "sim/cache_sim.hpp"

namespace eod::xcl {
class ThreadPool;
}  // namespace eod::xcl

namespace eod::sim {

class ReplayCache;

/// Accesses per flushed page: big enough to amortise the per-page fan-out
/// barrier, small enough that a page of CoalescedAccess stays cache-warm.
inline constexpr std::size_t kTracePageAccesses = std::size_t{1} << 16;

/// Coalescing granularity.  Must divide every hierarchy line size it will
/// replay on (all testbed devices use 64B or 128B lines).
inline constexpr unsigned kCoalesceLineBytes = 64;
inline constexpr unsigned kCoalesceLineShift = 6;

/// Batched consumer of raw access pages.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void consume(const MemAccess* page, std::size_t n) = 0;
};

/// Batched consumer of line-coalesced pages.
class CoalescedSink {
 public:
  virtual ~CoalescedSink() = default;
  virtual void consume(const CoalescedAccess* page, std::size_t n) = 0;
};

/// Content identity of a recorded trace: order-sensitive hash over the
/// coalesced stream plus the original access count.
struct TraceKey {
  std::uint64_t content_hash = 0;
  std::uint64_t accesses = 0;

  friend bool operator==(const TraceKey& a, const TraceKey& b) {
    return a.content_hash == b.content_hash && a.accesses == b.accesses;
  }
};

/// Buffered trace recorder the dwarfs emit into.  Writes either raw pages
/// (legacy adapters, memory_trace()) or line-coalesced pages (replay
/// engine), decided by which sink the writer is bound to.
class TraceWriter {
 public:
  explicit TraceWriter(TraceSink& sink)
      : raw_sink_(&sink), rpage_(kTracePageAccesses) {}
  explicit TraceWriter(CoalescedSink& sink)
      : coalesced_sink_(&sink), cpage_(kTracePageAccesses) {}
  /// A coalesced writer whose keyed() may resolve the trace from the
  /// memo's input keys without streaming it (sim::trace_key).
  TraceWriter(CoalescedSink& sink, const ReplayCache& memo)
      : TraceWriter(sink) {
    memo_ = &memo;
  }
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;
  ~TraceWriter() { finish(); }

  /// Records one access.
  void emit(std::uint64_t address, std::uint32_t bytes, bool is_write) {
    ++accesses_;
    if (coalesced_sink_ != nullptr) {
      const std::uint64_t first = address >> kCoalesceLineShift;
      const std::uint64_t last =
          (address + (bytes == 0 ? 0 : bytes - 1)) >> kCoalesceLineShift;
      if (first == last_first_ && last == last_last_ && count_ != 0) {
        CoalescedAccess& tail = cpage_[count_ - 1];
        if (tail.repeats != ~std::uint32_t{0}) {
          ++tail.repeats;
          return;
        }
      }
      if (count_ == kTracePageAccesses) flush();
      cpage_[count_++] = {address, bytes, 0};
      last_first_ = first;
      last_last_ = last;
    } else {
      if (count_ == kTracePageAccesses) flush();
      rpage_[count_++] = {address, bytes, is_write};
    }
  }

  /// Records `count` accesses of `elem_bytes` each at base, base + e,
  /// base + 2e, ...  When the elements tile cache lines exactly (e divides
  /// 64 and base is element-aligned) the coalesced entries are generated
  /// directly -- one record per 64B line instead of 64/e emit() calls.
  void emit_run(std::uint64_t base, std::uint32_t elem_bytes,
                std::uint64_t count, bool is_write);

  /// Flushes any buffered tail.  Called automatically on destruction; call
  /// explicitly when the sink must see everything before the writer dies.
  void finish() {
    if (count_ != 0) flush();
  }

  /// Original (pre-coalescing) access count recorded so far.
  [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }

  /// Declares everything that determines the trace a generator is about
  /// to stream: the dwarf, its trace version (bumped whenever its
  /// stream_trace changes what it emits for the same inputs) and the
  /// parameters its addresses depend on.  Returns true when the writer's
  /// memo already knows the trace's key: the generator must then return
  /// without emitting.  Always false without a memo, so replay and
  /// hash_trace() stream as before.  A declaration covers the whole
  /// stream, so one made after an access, or a second one, voids inputs().
  bool keyed(std::string_view dwarf, unsigned version,
             std::initializer_list<std::uint64_t> params);

  /// Hash of the declared inputs, if exactly one declaration opened the
  /// stream.
  [[nodiscard]] std::optional<std::uint64_t> inputs() const noexcept {
    return inputs_;
  }
  /// The key keyed() found in the memo, if it returned true.
  [[nodiscard]] std::optional<TraceKey> resolved() const noexcept {
    return resolved_;
  }

 private:
  void flush();

  TraceSink* raw_sink_ = nullptr;
  CoalescedSink* coalesced_sink_ = nullptr;
  const ReplayCache* memo_ = nullptr;
  bool declared_ = false;
  std::optional<std::uint64_t> inputs_;
  std::optional<TraceKey> resolved_;
  std::size_t count_ = 0;
  std::uint64_t accesses_ = 0;
  // Line span of the page's tail entry (~0 sentinels: no merge candidate).
  std::uint64_t last_first_ = ~0ull;
  std::uint64_t last_last_ = ~0ull;
  // Only one of the two buffers is ever touched; both are lazily allocated.
  std::vector<MemAccess> rpage_;
  std::vector<CoalescedAccess> cpage_;
};

/// A dwarf's trace generation, re-runnable: called with a fresh writer per
/// pass (dwarfs::Dwarf::stream_trace bound to a set-up instance).
using TraceGenerator = std::function<void(TraceWriter&)>;

/// Raw sink forwarding each access to a per-access callback -- the adapter
/// behind the legacy std::function stream_trace API.
class FunctionTraceSink final : public TraceSink {
 public:
  explicit FunctionTraceSink(
      const std::function<void(const MemAccess&)>& fn)
      : fn_(fn) {}
  void consume(const MemAccess* page, std::size_t n) override {
    for (std::size_t i = 0; i < n; ++i) fn_(page[i]);
  }

 private:
  const std::function<void(const MemAccess&)>& fn_;
};

/// Raw sink appending into a MemoryTrace vector (memory_trace()).
class VectorTraceSink final : public TraceSink {
 public:
  explicit VectorTraceSink(MemoryTrace& out) : out_(out) {}
  void consume(const MemAccess* page, std::size_t n) override {
    out_.insert(out_.end(), page, page + n);
  }

 private:
  MemoryTrace& out_;
};

/// Coalesced sink that folds every entry into a content hash (a replay-free
/// generation pass -- how the memo cache keys a trace without storing it).
class TraceHasher final : public CoalescedSink {
 public:
  void consume(const CoalescedAccess* page, std::size_t n) override;
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Runs the generator through a hashing sink and returns the trace's key:
/// always a full content pass (keyed() never short-cuts it), so it doubles
/// as the verify path of the memo's input keys.
TraceKey hash_trace(const TraceGenerator& gen);

/// Cold (first-touch) and warm (steady-state) counters of one replayed
/// (trace, hierarchy) cell -- the seed's two-pass protocol: replay, read
/// cold, reset counters (cache state survives), replay, read warm.
struct ReplayMemoEntry {
  HierarchyCounters cold;
  HierarchyCounters warm;
  std::uint64_t accesses = 0;
};

/// Generates the trace twice (cold + warm pass) and replays it through one
/// fresh hierarchy per spec in a single streamed fan-out: each flushed page
/// is processed by every hierarchy -- in parallel on `pool`, with single
/// hierarchies set-partitioned into shards when workers outnumber
/// hierarchies -- before the next page is generated.  Returns one entry per
/// spec, in spec order.
std::vector<ReplayMemoEntry> replay_hierarchies(
    const TraceGenerator& gen, const std::vector<const DeviceSpec*>& specs,
    xcl::ThreadPool& pool);

/// Convenience overload on the global pool.
std::vector<ReplayMemoEntry> replay_hierarchies(
    const TraceGenerator& gen, const std::vector<const DeviceSpec*>& specs);

}  // namespace eod::sim
