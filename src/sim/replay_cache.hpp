// Content-keyed replay memo cache.
//
// A replayed (trace, hierarchy) cell is a pure function of the trace
// content and the hierarchy geometry, so its cold/warm counters never need
// computing twice: suite_report, counters_report and ablate_cachesim all
// replay e.g. kmeans-large over the same 15 hierarchies.  The cache keys on
// TraceKey (order-sensitive content hash + access count, from a replay-free
// hashing pass) plus a geometry hash, and can persist to a text store under
// results/ so a second report run replays nothing at all.
//
// In front of the content keys sits an inputs -> TraceKey map: a dwarf's
// stream_trace opens with TraceWriter::keyed(dwarf, version, params), and
// once those inputs have been hashed the next trace_key() of the same
// inputs is one lookup instead of a full generation pass.
//
// The disk store is opt-in (report binaries call set_disk_store); tests and
// library code stay hermetic by default.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/trace_replay.hpp"

namespace eod::sim {

/// Hash of everything that determines replay results besides the trace:
/// level sizes/lines/associativities, TLB reach, page size.
std::uint64_t hierarchy_geometry_hash(const DeviceSpec& spec,
                                      unsigned tlb_entries = 64,
                                      unsigned page_bytes = 4096);

/// Process-wide memo of replayed cells.
class ReplayCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;    ///< find() served from memory
    std::uint64_t misses = 0;  ///< find() had nothing
    std::uint64_t stores = 0;  ///< entries inserted this process
    std::uint64_t loaded = 0;  ///< entries read from the disk store
  };

  static ReplayCache& instance();

  [[nodiscard]] std::optional<ReplayMemoEntry> find(const TraceKey& trace,
                                                    std::uint64_t geometry);
  /// Inserts (idempotently) and, when a disk store is bound, appends the
  /// entry to it.  `label` is a human-readable annotation for the store
  /// file ("bench/size/device"), not part of the key.
  void store(const TraceKey& trace, std::uint64_t geometry,
             const ReplayMemoEntry& entry, const std::string& label);

  /// Content key recorded for a trace's declared inputs.
  [[nodiscard]] std::optional<TraceKey> find_inputs(
      std::uint64_t inputs) const;
  /// Records (idempotently) that `inputs` generate the trace `key` and,
  /// when a disk store is bound, appends an EODKEY1 line to it.
  void store_inputs(std::uint64_t inputs, const TraceKey& key,
                    const std::string& label);

  /// Binds a disk store: loads any existing entries and input keys from
  /// `path` now and appends future stores to it.  Parent directories are
  /// created.  Returns the number of (counter) entries loaded.
  std::size_t set_disk_store(const std::string& path);

  [[nodiscard]] Stats stats() const;
  /// Drops all entries and input keys and unbinds the disk store (tests).
  void clear();

 private:
  struct Key {
    std::uint64_t content_hash;
    std::uint64_t accesses;
    std::uint64_t geometry;
    auto operator<=>(const Key&) const = default;
  };

  mutable std::mutex mutex_;
  std::map<Key, ReplayMemoEntry> entries_;
  std::map<std::uint64_t, TraceKey> inputs_;
  std::string disk_path_;
  Stats stats_;
};

/// The trace's key: one memo lookup when its generator declares inputs
/// the memo has seen, else a hashing generation pass (which records the
/// declared inputs' key, labelled `label` in the disk store).
TraceKey trace_key(const TraceGenerator& gen, const std::string& label);

/// Replays `gen` through `spec`'s hierarchy, memoized: on a cache hit the
/// only work is trace_key().
ReplayMemoEntry memoized_replay(const TraceGenerator& gen,
                                const DeviceSpec& spec,
                                const std::string& label);

/// Keys the trace once, replays the not-yet-cached specs in one streamed
/// multi-hierarchy fan-out, stores them, and returns the trace key -- the
/// cheap way to warm the memo before a per-device measurement sweep.
TraceKey prime_replay_memo(const TraceGenerator& gen,
                           const std::vector<const DeviceSpec*>& specs,
                           const std::string& label);

}  // namespace eod::sim
