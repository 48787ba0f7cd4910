#include "sim/replay_cache.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace eod::sim {

namespace {

void mix(std::uint64_t& h, std::uint64_t x) {
  h = (h ^ (x * 0x9E3779B97F4A7C15ull)) * 0x100000001b3ull;
  h ^= h >> 31;
}

constexpr const char* kStoreMagic = "EODMEMO1";
constexpr const char* kKeyMagic = "EODKEY1";

}  // namespace

std::uint64_t hierarchy_geometry_hash(const DeviceSpec& spec,
                                      unsigned tlb_entries,
                                      unsigned page_bytes) {
  std::uint64_t h = 0x243F6A8885A308D3ull;
  for (const CacheLevelSpec* level : {&spec.l1, &spec.l2, &spec.l3}) {
    mix(h, level->size_bytes);
    mix(h, level->line_bytes);
    mix(h, level->associativity);
  }
  mix(h, tlb_entries);
  mix(h, page_bytes);
  return h;
}

ReplayCache& ReplayCache::instance() {
  static ReplayCache cache;
  return cache;
}

std::optional<ReplayMemoEntry> ReplayCache::find(const TraceKey& trace,
                                                 std::uint64_t geometry) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it =
      entries_.find(Key{trace.content_hash, trace.accesses, geometry});
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return it->second;
}

void ReplayCache::store(const TraceKey& trace, std::uint64_t geometry,
                        const ReplayMemoEntry& entry,
                        const std::string& label) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = entries_.emplace(
      Key{trace.content_hash, trace.accesses, geometry}, entry);
  (void)it;
  if (!inserted) return;
  ++stats_.stores;
  if (disk_path_.empty()) return;
  std::ofstream out(disk_path_, std::ios::app);
  if (!out) return;  // results/ unwritable: stay memory-only
  out << kStoreMagic << ' ' << std::hex << trace.content_hash << ' '
      << std::dec << trace.accesses << ' ' << std::hex << geometry
      << std::dec;
  for (const HierarchyCounters* c : {&entry.cold, &entry.warm}) {
    out << ' ' << c->total_accesses << ' ' << c->l1_dcm << ' ' << c->l2_dcm
        << ' ' << c->l3_tcm << ' ' << c->tlb_dm;
  }
  // The label is a trailing human-readable annotation, never parsed back
  // into the key.
  out << ' ' << (label.empty() ? "-" : label) << '\n';
}

std::optional<TraceKey> ReplayCache::find_inputs(std::uint64_t inputs) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = inputs_.find(inputs);
  if (it == inputs_.end()) return std::nullopt;
  return it->second;
}

void ReplayCache::store_inputs(std::uint64_t inputs, const TraceKey& key,
                               const std::string& label) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!inputs_.emplace(inputs, key).second || disk_path_.empty()) return;
  std::ofstream out(disk_path_, std::ios::app);
  if (!out) return;
  out << kKeyMagic << ' ' << std::hex << inputs << ' ' << key.content_hash
      << ' ' << std::dec << key.accesses << ' '
      << (label.empty() ? "-" : label) << '\n';
}

std::size_t ReplayCache::set_disk_store(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  disk_path_ = path;
  std::error_code ec;
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);

  std::size_t loaded = 0;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string magic;
    Key key{};
    ReplayMemoEntry entry;
    fields >> magic;
    if (magic == kKeyMagic) {
      std::uint64_t inputs = 0;
      TraceKey trace;
      std::string label;
      fields >> std::hex >> inputs >> trace.content_hash >> std::dec >>
          trace.accesses >> label;
      // The trailing label proves the line was written whole.
      if (fields) inputs_.emplace(inputs, trace);
      continue;
    }
    if (magic != kStoreMagic) continue;
    fields >> std::hex >> key.content_hash >> std::dec >> key.accesses >>
        std::hex >> key.geometry >> std::dec;
    for (HierarchyCounters* c : {&entry.cold, &entry.warm}) {
      fields >> c->total_accesses >> c->l1_dcm >> c->l2_dcm >> c->l3_tcm >>
          c->tlb_dm;
    }
    if (!fields) continue;  // truncated line (e.g. interrupted append)
    entry.accesses = key.accesses;
    if (entries_.emplace(key, entry).second) ++loaded;
  }
  stats_.loaded += loaded;
  return loaded;
}

ReplayCache::Stats ReplayCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void ReplayCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  inputs_.clear();
  disk_path_.clear();
  stats_ = {};
}

TraceKey trace_key(const TraceGenerator& gen, const std::string& label) {
  ReplayCache& cache = ReplayCache::instance();
  TraceHasher hasher;
  TraceWriter writer(hasher, cache);
  gen(writer);
  writer.finish();
  if (const std::optional<TraceKey> known = writer.resolved()) {
    if (writer.inputs() && writer.accesses() == 0) return *known;
    // The generator went on past its resolved declaration, which therefore
    // did not cover the whole stream: hash all of it.
    return hash_trace(gen);
  }
  const TraceKey key{hasher.hash(), writer.accesses()};
  if (const std::optional<std::uint64_t> inputs = writer.inputs()) {
    cache.store_inputs(*inputs, key, label);
  }
  return key;
}

ReplayMemoEntry memoized_replay(const TraceGenerator& gen,
                                const DeviceSpec& spec,
                                const std::string& label) {
  const TraceKey key = trace_key(gen, label);
  const std::uint64_t geometry = hierarchy_geometry_hash(spec);
  ReplayCache& cache = ReplayCache::instance();
  if (auto hit = cache.find(key, geometry)) return *hit;
  std::vector<ReplayMemoEntry> replayed = replay_hierarchies(gen, {&spec});
  replayed.front().accesses = key.accesses;
  cache.store(key, geometry, replayed.front(), label);
  return replayed.front();
}

TraceKey prime_replay_memo(const TraceGenerator& gen,
                           const std::vector<const DeviceSpec*>& specs,
                           const std::string& label) {
  const TraceKey key = trace_key(gen, label);
  ReplayCache& cache = ReplayCache::instance();
  std::vector<const DeviceSpec*> missing;
  for (const DeviceSpec* spec : specs) {
    if (!cache.find(key, hierarchy_geometry_hash(*spec))) {
      missing.push_back(spec);
    }
  }
  if (missing.empty()) return key;
  const std::vector<ReplayMemoEntry> replayed =
      replay_hierarchies(gen, missing);
  for (std::size_t i = 0; i < missing.size(); ++i) {
    cache.store(key, hierarchy_geometry_hash(*missing[i]), replayed[i],
                label);
  }
  return key;
}

}  // namespace eod::sim
