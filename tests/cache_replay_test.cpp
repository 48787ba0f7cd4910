// Property tests for the high-throughput trace-replay engine: every replay
// path (batched raw, line-coalesced, set-partitioned shards, multi-
// hierarchy fan-out) must produce HierarchyCounters bit-identical to the
// seed per-access reference replay -- on randomized traces spanning the
// residence regimes of all 15 testbed hierarchies.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "dwarfs/common.hpp"
#include "dwarfs/registry.hpp"
#include "sim/cache_sim.hpp"
#include "sim/device_spec.hpp"
#include "sim/replay_cache.hpp"
#include "sim/trace_replay.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::sim {
namespace {

// ---------------------------------------------------------------------------
// Reference: the seed pipeline replayed one MemAccess at a time through
// CacheHierarchy::access().  Every engine path must match it bit for bit.

HierarchyCounters reference_replay(const MemoryTrace& trace,
                                   const DeviceSpec& spec) {
  CacheHierarchy h(spec);
  for (const MemAccess& a : trace) h.access(a.address, a.bytes, a.is_write);
  return h.counters();
}

ReplayMemoEntry reference_two_pass(const MemoryTrace& trace,
                                   const DeviceSpec& spec) {
  // The seed cold/warm protocol: replay, read, reset counters (cache state
  // survives), replay, read.
  CacheHierarchy h(spec);
  ReplayMemoEntry e;
  for (int pass = 0; pass < 2; ++pass) {
    if (pass == 1) h.reset();
    for (const MemAccess& a : trace) h.access(a.address, a.bytes, a.is_write);
    (pass == 0 ? e.cold : e.warm) = h.counters();
  }
  e.accesses = trace.size();
  return e;
}

TraceGenerator generator_of(const MemoryTrace& trace) {
  return [&trace](TraceWriter& w) {
    for (const MemAccess& a : trace) w.emit(a.address, a.bytes, a.is_write);
  };
}

void expect_counters_eq(const HierarchyCounters& got,
                        const HierarchyCounters& want,
                        const std::string& context) {
  EXPECT_EQ(got.total_accesses, want.total_accesses) << context;
  EXPECT_EQ(got.l1_dcm, want.l1_dcm) << context;
  EXPECT_EQ(got.l2_dcm, want.l2_dcm) << context;
  EXPECT_EQ(got.l3_tcm, want.l3_tcm) << context;
  EXPECT_EQ(got.tlb_dm, want.tlb_dm) << context;
}

// ---------------------------------------------------------------------------
// Randomized trace families, chosen to stress every engine fast path: line
// coalescing (same-line bursts, dense strides), the MRU filters, spans that
// straddle lines and pages, and working sets around each hierarchy level.

MemoryTrace random_trace(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  MemoryTrace t;
  const int family = static_cast<int>(seed % 6);
  const std::uint64_t base = 0x10000 + (seed % 7) * 13;  // odd alignments too
  switch (family) {
    case 0: {  // uniform random in an L1-to-L3-sized window
      const std::uint64_t window = std::uint64_t{1} << (14 + seed % 10);
      std::uniform_int_distribution<std::uint64_t> addr(0, window - 1);
      for (int i = 0; i < 40000; ++i) {
        t.push_back({base + addr(rng), 4, (i & 7) == 0});
      }
      break;
    }
    case 1: {  // dense sequential strides (heavily coalescible)
      const std::uint32_t stride = (seed % 2) ? 4 : 16;
      for (int sweep = 0; sweep < 6; ++sweep) {
        for (std::uint64_t i = 0; i < 8000; ++i) {
          t.push_back({base + i * stride, stride, false});
        }
      }
      break;
    }
    case 2: {  // hot set + cold random mix
      std::uniform_int_distribution<std::uint64_t> hot(0, 63);
      std::uniform_int_distribution<std::uint64_t> cold(0, (1u << 22) - 1);
      for (int i = 0; i < 40000; ++i) {
        const bool is_hot = rng() % 10 != 0;
        t.push_back({base + (is_hot ? hot(rng) * 64 : cold(rng)), 8, false});
      }
      break;
    }
    case 3: {  // straddling spans: random sizes and alignments
      std::uniform_int_distribution<std::uint64_t> addr(0, (1u << 20) - 1);
      std::uniform_int_distribution<std::uint32_t> bytes(1, 256);
      for (int i = 0; i < 30000; ++i) {
        t.push_back({base + addr(rng), bytes(rng), (i & 3) == 0});
      }
      break;
    }
    case 4: {  // same-line bursts (repeat coalescing + MRU filter)
      std::uniform_int_distribution<std::uint64_t> line(0, 4095);
      std::uniform_int_distribution<int> burst(1, 50);
      int i = 0;
      while (i < 40000) {
        const std::uint64_t a = base + line(rng) * 64;
        for (int b = burst(rng); b > 0 && i < 40000; --b, ++i) {
          t.push_back({a + (rng() % 60), 4, false});
        }
      }
      break;
    }
    default: {  // cyclic sweep larger than most L1s (LRU worst case)
      for (int sweep = 0; sweep < 5; ++sweep) {
        for (std::uint64_t i = 0; i < 3000; ++i) {
          t.push_back({base + i * 64, 64, false});
        }
      }
      break;
    }
  }
  return t;
}

std::vector<const DeviceSpec*> all_specs() {
  std::vector<const DeviceSpec*> specs;
  for (const DeviceSpec& s : testbed()) specs.push_back(&s);
  return specs;
}

// ---------------------------------------------------------------------------

TEST(CacheReplay, BatchedRawBitIdenticalToPerAccess) {
  const MemoryTrace trace = random_trace(3);
  for (const DeviceSpec* spec : all_specs()) {
    const HierarchyCounters want = reference_replay(trace, *spec);
    CacheHierarchy h(*spec);
    // Deliberately odd chunk sizes so batches split at awkward points.
    std::size_t i = 0, chunk = 1;
    while (i < trace.size()) {
      const std::size_t n = std::min(chunk, trace.size() - i);
      h.consume(trace.data() + i, n);
      i += n;
      chunk = chunk * 3 + 1;
    }
    expect_counters_eq(h.counters(), want, spec->name);
  }
}

TEST(CacheReplay, CoalescedBitIdenticalToPerAccessOnAllDevices) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const MemoryTrace trace = random_trace(seed);
    for (const DeviceSpec* spec : all_specs()) {
      const HierarchyCounters want = reference_replay(trace, *spec);
      CacheHierarchy h(*spec);
      struct Sink final : CoalescedSink {
        CacheHierarchy* h;
        void consume(const CoalescedAccess* page, std::size_t n) override {
          h->consume_coalesced(page, n);
        }
      } sink;
      sink.h = &h;
      TraceWriter writer(sink);
      generator_of(trace)(writer);
      writer.finish();
      EXPECT_EQ(writer.accesses(), trace.size());
      expect_counters_eq(h.counters(), want,
                         spec->name + " seed=" + std::to_string(seed));
    }
  }
}

TEST(CacheReplay, ShardedBitIdenticalToPerAccess) {
  const MemoryTrace trace = random_trace(7);
  // Collect the coalesced stream once.
  std::vector<CoalescedAccess> records;
  struct Collect final : CoalescedSink {
    std::vector<CoalescedAccess>* out;
    void consume(const CoalescedAccess* page, std::size_t n) override {
      out->insert(out->end(), page, page + n);
    }
  } collect;
  collect.out = &records;
  {
    TraceWriter writer(collect);
    generator_of(trace)(writer);
    writer.finish();
  }
  for (const DeviceSpec* spec : all_specs()) {
    CacheHierarchy probe(*spec);
    const unsigned shards = probe.max_replay_shards();
    if (shards < 2) continue;
    const HierarchyCounters want = reference_replay(trace, *spec);
    CacheHierarchy h(*spec);
    std::vector<ReplayShardCounters> accs(shards + 1, h.make_shard());
    for (unsigned s = 0; s < shards; ++s) {
      h.replay_cache_shard(records.data(), records.size(), s, shards,
                           accs[s]);
    }
    h.replay_tlb_shard(records.data(), records.size(), accs[shards]);
    for (const ReplayShardCounters& acc : accs) h.fold_shard(acc);
    expect_counters_eq(h.counters(), want, spec->name + " sharded");
  }
}

TEST(CacheReplay, FanOutTwoPassBitIdenticalToSeedProtocol) {
  xcl::ThreadPool pool(3);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const MemoryTrace trace = random_trace(seed);
    const std::vector<const DeviceSpec*> specs = all_specs();
    const std::vector<ReplayMemoEntry> got =
        replay_hierarchies(generator_of(trace), specs, pool);
    ASSERT_EQ(got.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const ReplayMemoEntry want = reference_two_pass(trace, *specs[i]);
      const std::string ctx =
          specs[i]->name + " seed=" + std::to_string(seed);
      expect_counters_eq(got[i].cold, want.cold, ctx + " cold");
      expect_counters_eq(got[i].warm, want.warm, ctx + " warm");
      EXPECT_EQ(got[i].accesses, trace.size()) << ctx;
    }
  }
}

TEST(CacheReplay, EmitRunMatchesElementwiseEmits) {
  // emit_run's direct per-line record generation must be access-for-access
  // equivalent to emitting every element, for aligned and unaligned runs.
  struct Run {
    std::uint64_t base;
    std::uint32_t elem;
    std::uint64_t count;
  };
  const std::vector<Run> runs = {
      {0x10000, 16, 1000}, {0x10008, 8, 3}, {0x10004, 4, 997},
      {0x1000c, 4, 31},    {0x20000, 64, 200}, {0x2000a, 2, 5000},
      {0x30000, 32, 1},    {0x30010, 16, 2},   {0x40001, 1, 130}};
  const TraceGenerator with_run = [&runs](TraceWriter& w) {
    for (const Run& r : runs) w.emit_run(r.base, r.elem, r.count, false);
  };
  const TraceGenerator elementwise = [&runs](TraceWriter& w) {
    for (const Run& r : runs) {
      for (std::uint64_t i = 0; i < r.count; ++i) {
        w.emit(r.base + i * r.elem, r.elem, false);
      }
    }
  };
  EXPECT_EQ(hash_trace(with_run).accesses, hash_trace(elementwise).accesses);
  for (const DeviceSpec* spec : {&skylake(), all_specs().back()}) {
    CacheHierarchy ha(*spec), hb(*spec);
    struct Sink final : CoalescedSink {
      CacheHierarchy* h;
      void consume(const CoalescedAccess* page, std::size_t n) override {
        h->consume_coalesced(page, n);
      }
    } sa, sb;
    sa.h = &ha;
    sb.h = &hb;
    {
      TraceWriter wa(sa);
      with_run(wa);
    }
    {
      TraceWriter wb(sb);
      elementwise(wb);
    }
    expect_counters_eq(ha.counters(), hb.counters(),
                       spec->name + " emit_run");
  }
}

TEST(CacheReplay, HandBuiltRepeatRecordsExactEvenForHugeSpans) {
  // Records whose span exceeds the L1 (or the whole TLB reach) cannot take
  // the guaranteed-hit repeat credit; the replay must expand them.  Check
  // against per-access expansion of the same records.
  const DeviceSpec& spec = skylake();
  const std::vector<CoalescedAccess> records = {
      {0x10000, 64 * 1024, 3},   // span 1024 lines > L1's 512
      {0x10000, 512 * 1024, 2},  // span > TLB reach (64 x 4 KiB)
      {0x20000, 64, 5},          // small span: credited
      {0x20000, 128, 0},
  };
  CacheHierarchy ref(spec);
  for (const CoalescedAccess& r : records) {
    for (std::uint32_t k = 0; k <= r.repeats; ++k) {
      ref.access(r.address, r.bytes, false);
    }
  }
  CacheHierarchy h(spec);
  h.consume_coalesced(records.data(), records.size());
  expect_counters_eq(h.counters(), ref.counters(), "huge-span records");
}

TEST(CacheReplay, WriterFlushesAcrossPageBoundaries) {
  // A trace larger than one 64K-record page must flush seamlessly.
  const std::size_t lines = kTracePageAccesses + 12345;
  const TraceGenerator gen = [lines](TraceWriter& w) {
    for (std::size_t i = 0; i < lines; ++i) {
      w.emit(i * 64, 4, false);  // every record a fresh line: no merging
    }
  };
  const DeviceSpec& spec = skylake();
  MemoryTrace trace;
  trace.reserve(lines);
  for (std::size_t i = 0; i < lines; ++i) {
    trace.push_back({i * 64, 4, false});
  }
  const HierarchyCounters want = reference_replay(trace, spec);
  CacheHierarchy h(spec);
  struct Sink final : CoalescedSink {
    CacheHierarchy* h;
    std::size_t calls = 0;
    void consume(const CoalescedAccess* page, std::size_t n) override {
      ++calls;
      h->consume_coalesced(page, n);
    }
  } sink;
  sink.h = &h;
  TraceWriter writer(sink);
  gen(writer);
  writer.finish();
  EXPECT_GE(sink.calls, 2u);
  EXPECT_EQ(writer.accesses(), lines);
  expect_counters_eq(h.counters(), want, "page boundary");
}

TEST(CacheReplay, TraceKeyIsOrderAndContentSensitive) {
  const MemoryTrace a = random_trace(1);
  MemoryTrace b = a;
  std::swap(b.front(), b.back());
  const TraceKey ka = hash_trace(generator_of(a));
  const TraceKey ka2 = hash_trace(generator_of(a));
  const TraceKey kb = hash_trace(generator_of(b));
  EXPECT_EQ(ka, ka2);
  EXPECT_EQ(ka.accesses, a.size());
  EXPECT_FALSE(ka == kb);
}

TEST(ReplayCacheTest, MemoizesAndRoundTripsThroughDisk) {
  ReplayCache::instance().clear();
  const MemoryTrace trace = random_trace(2);
  const DeviceSpec& spec = skylake();
  const ReplayMemoEntry want = reference_two_pass(trace, spec);

  const ReplayMemoEntry first =
      memoized_replay(generator_of(trace), spec, "test/first");
  expect_counters_eq(first.cold, want.cold, "memo cold");
  expect_counters_eq(first.warm, want.warm, "memo warm");
  const ReplayMemoEntry second =
      memoized_replay(generator_of(trace), spec, "test/second");
  expect_counters_eq(second.warm, want.warm, "memo hit");
  const ReplayCache::Stats stats = ReplayCache::instance().stats();
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_GE(stats.hits, 1u);

  // Disk round-trip: persist, clear, reload -- a fresh process must serve
  // the cell without replaying.
  const std::string path =
      (std::filesystem::temp_directory_path() / "eod_replay_memo_test.tsv")
          .string();
  std::filesystem::remove(path);
  ReplayCache::instance().clear();
  ReplayCache::instance().set_disk_store(path);
  (void)memoized_replay(generator_of(trace), spec, "test/disk");
  ReplayCache::instance().clear();
  const std::size_t loaded = ReplayCache::instance().set_disk_store(path);
  EXPECT_EQ(loaded, 1u);
  const TraceKey key = hash_trace(generator_of(trace));
  const auto hit =
      ReplayCache::instance().find(key, hierarchy_geometry_hash(spec));
  ASSERT_TRUE(hit.has_value());
  expect_counters_eq(hit->warm, want.warm, "disk round-trip");
  ReplayCache::instance().clear();
  std::filesystem::remove(path);
}

TEST(ReplayCacheTest, PrimeWarmsEveryHierarchyInOnePass) {
  ReplayCache::instance().clear();
  const MemoryTrace trace = random_trace(4);
  const std::vector<const DeviceSpec*> specs = all_specs();
  const TraceKey key =
      prime_replay_memo(generator_of(trace), specs, "test/prime");
  EXPECT_EQ(key.accesses, trace.size());
  for (const DeviceSpec* spec : specs) {
    const auto hit =
        ReplayCache::instance().find(key, hierarchy_geometry_hash(*spec));
    ASSERT_TRUE(hit.has_value()) << spec->name;
    const ReplayMemoEntry want = reference_two_pass(trace, *spec);
    expect_counters_eq(hit->warm, want.warm, spec->name + " primed");
  }
  ReplayCache::instance().clear();
}

// ---------------------------------------------------------------------------
// Input keys: dwarfs whose addresses depend only on their shape parameters
// open stream_trace with TraceWriter::keyed(), so a warm trace_key() is one
// memo lookup instead of a generation pass.

using dwarfs::ProblemSize;

// Every dwarf that declares its inputs, with its content key at tiny (the
// same keys as the EODMEMO1 tiny rows of results/replay_memo.tsv).  A
// change here means stream_trace now emits a different trace for the same
// inputs, which would make every recorded input key stale.
struct KeyedDwarf {
  const char* name;
  TraceKey tiny;
};
const KeyedDwarf kKeyedDwarfs[] = {
    {"kmeans", {0xae9319e3fbf8928bull, 66816}},
    {"lud", {0xfe9a073bc93a51f1ull, 32000}},
    {"gem", {0x7488152da55f5470ull, 895120}},
    {"fft", {0x71b4a184605f850eull, 45056}},
    {"dwt", {0x6d153124dc9054f8ull, 20448}},
    {"srad", {0x79e25eedfd8458a3ull, 23040}},
    {"nw", {0xf54ab5430618037dull, 11520}},
    {"beff", {0xd673530a085f6ad1ull, 2048}},
};

/// A dwarf set up at one size, with a generator that counts its calls and
/// the accesses they streamed.
struct TracedDwarf {
  TracedDwarf(const char* name, ProblemSize size)
      : dwarf(dwarfs::create_dwarf(name)),
        label(std::string(name) + "/" + dwarfs::to_string(size)) {
    dwarf->setup(size);
  }
  TraceGenerator gen() {
    return [this](TraceWriter& w) {
      ++calls;
      const std::uint64_t before = w.accesses();
      dwarf->stream_trace(w);
      streamed += w.accesses() - before;
    };
  }
  /// Hash of the inputs stream_trace declares (nullopt: none declared).
  [[nodiscard]] std::optional<std::uint64_t> inputs() const {
    TraceHasher hasher;
    TraceWriter writer(hasher);
    dwarf->stream_trace(writer);
    return writer.inputs();
  }

  std::unique_ptr<dwarfs::Dwarf> dwarf;
  std::string label;
  std::size_t calls = 0;
  std::uint64_t streamed = 0;
};

constexpr ProblemSize kKeyedSizes[] = {ProblemSize::kTiny, ProblemSize::kSmall};

std::string temp_store(const char* name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove(path);
  return path;
}

TEST(InputKeys, GoldenContentHashAtTiny) {
  for (const KeyedDwarf& k : kKeyedDwarfs) {
    TracedDwarf d(k.name, ProblemSize::kTiny);
    const TraceKey got = hash_trace(d.gen());
    EXPECT_EQ(got.content_hash, k.tiny.content_hash)
        << k.name << " (got 0x" << std::hex << got.content_hash << std::dec
        << "): stream_trace changed: bump its trace version";
    EXPECT_EQ(got.accesses, k.tiny.accesses)
        << k.name << ": stream_trace changed: bump its trace version";
  }
}

TEST(InputKeys, InputKeyedTraceKeyEqualsContentHash) {
  for (const KeyedDwarf& k : kKeyedDwarfs) {
    for (const ProblemSize size : kKeyedSizes) {
      ReplayCache::instance().clear();
      TracedDwarf d(k.name, size);
      SCOPED_TRACE(d.label);
      ASSERT_TRUE(d.inputs().has_value()) << "stream_trace declares no inputs";
      const TraceKey content = hash_trace(d.gen());
      EXPECT_EQ(trace_key(d.gen(), d.label), content);  // miss: hashed
      const std::uint64_t streamed = d.streamed;
      EXPECT_EQ(trace_key(d.gen(), d.label), content);  // hit: looked up
      EXPECT_EQ(d.streamed, streamed);
    }
  }
  ReplayCache::instance().clear();
}

TEST(InputKeys, EqualInputsExactlyWhenEqualContent) {
  // Two independently set-up instances per (dwarf, size): every pair of
  // configurations, across dwarfs too, agrees on inputs iff on content.
  struct Sample {
    std::string label;
    std::uint64_t inputs;
    TraceKey content;
  };
  std::vector<Sample> samples;
  for (const KeyedDwarf& k : kKeyedDwarfs) {
    for (const ProblemSize size : kKeyedSizes) {
      for (int copy = 0; copy < 2; ++copy) {
        TracedDwarf d(k.name, size);
        samples.push_back({d.label, d.inputs().value(), hash_trace(d.gen())});
      }
    }
  }
  for (const Sample& a : samples) {
    for (const Sample& b : samples) {
      EXPECT_EQ(a.inputs == b.inputs, a.content == b.content)
          << a.label << " vs " << b.label;
    }
  }
}

TEST(InputKeys, StoreRoundTripServesHitsWithoutStreaming) {
  const std::string path = temp_store("eod_input_keys_test.tsv");
  ReplayCache& cache = ReplayCache::instance();
  const DeviceSpec& spec = skylake();
  cache.clear();
  cache.set_disk_store(path);
  std::vector<ReplayMemoEntry> cold;
  std::size_t keyed_cells = 0;
  for (const KeyedDwarf& k : kKeyedDwarfs) {
    for (const ProblemSize size : kKeyedSizes) {
      TracedDwarf d(k.name, size);
      if (size == ProblemSize::kTiny) {
        cold.push_back(memoized_replay(d.gen(), spec, d.label));
        EXPECT_EQ(d.calls, 3u) << d.label << ": one hash + two replay passes";
      } else {
        (void)trace_key(d.gen(), d.label);
      }
      ++keyed_cells;
    }
  }
  std::size_t key_lines = 0;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) key_lines += line.rfind("EODKEY1 ", 0) == 0;
  }
  EXPECT_EQ(key_lines, keyed_cells);

  // A fresh process: clear, reload, and every cell is a lookup.
  cache.clear();
  EXPECT_EQ(cache.set_disk_store(path), cold.size());
  std::size_t i = 0;
  for (const KeyedDwarf& k : kKeyedDwarfs) {
    for (const ProblemSize size : kKeyedSizes) {
      TracedDwarf d(k.name, size);
      SCOPED_TRACE(d.label);
      if (size == ProblemSize::kTiny) {
        const ReplayMemoEntry hit = memoized_replay(d.gen(), spec, d.label);
        expect_counters_eq(hit.cold, cold[i].cold, "reloaded cold");
        expect_counters_eq(hit.warm, cold[i].warm, "reloaded warm");
        EXPECT_EQ(hit.accesses, cold[i].accesses);
        ++i;
      } else {
        EXPECT_EQ(trace_key(d.gen(), d.label), hash_trace(d.gen()));
        d.streamed = 0;
        (void)trace_key(d.gen(), d.label);
      }
      EXPECT_EQ(d.streamed, 0u);
    }
  }
  EXPECT_EQ(cache.stats().hits, cold.size());
  EXPECT_EQ(cache.stats().misses, 0u);
  cache.clear();
  std::filesystem::remove(path);
}

TEST(InputKeys, TruncatedKeyLineIsSkipped) {
  const std::string path = temp_store("eod_input_keys_truncated.tsv");
  {
    std::ofstream out(path);
    out << "EODKEY1 1a 2b 3 test/whole\n"
        << "EODKEY1 4c 5d 6\n"  // cut before the label
        << "EODKEY1 7e 8f\n";   // cut inside the key
  }
  ReplayCache& cache = ReplayCache::instance();
  cache.clear();
  EXPECT_EQ(cache.set_disk_store(path), 0u);
  EXPECT_EQ(cache.find_inputs(0x1a), (TraceKey{0x2b, 3}));
  EXPECT_FALSE(cache.find_inputs(0x4c).has_value());
  EXPECT_FALSE(cache.find_inputs(0x7e).has_value());
  cache.clear();
  EXPECT_FALSE(cache.find_inputs(0x1a).has_value());
  std::filesystem::remove(path);
}

TEST(InputKeys, DeclarationMustCoverTheWholeStream) {
  ReplayCache::instance().clear();
  const MemoryTrace extra = random_trace(5);
  const auto declared = [](TraceWriter& w) {
    return w.keyed("test", 1, {42});
  };
  const TraceGenerator plain = [&](TraceWriter& w) {
    if (declared(w)) return;
    for (const MemAccess& a : extra) w.emit(a.address, a.bytes, a.is_write);
  };
  // Keys the inputs {test, 1, 42} to `extra`'s content.
  EXPECT_EQ(trace_key(plain, "test/plain"), hash_trace(plain));

  // Emitting on past a resolved declaration: the lookup is not trusted.
  const TraceGenerator overrun = [&](TraceWriter& w) {
    (void)declared(w);
    for (const MemAccess& a : extra) w.emit(a.address, a.bytes, a.is_write);
    w.emit(0x40, 4, false);
  };
  EXPECT_EQ(trace_key(overrun, "test/overrun"), hash_trace(overrun));

  // A declaration after an access, or a second one, declares nothing.
  const TraceGenerator late = [&](TraceWriter& w) {
    w.emit(0x40, 4, false);
    EXPECT_FALSE(w.keyed("test", 1, {43}));
  };
  EXPECT_EQ(trace_key(late, "test/late"), hash_trace(late));
  {
    TraceHasher hasher;
    TraceWriter writer(hasher);
    EXPECT_FALSE(writer.keyed("test", 1, {44}));
    EXPECT_TRUE(writer.inputs().has_value());
    EXPECT_FALSE(writer.keyed("test", 1, {45}));
    EXPECT_FALSE(writer.inputs().has_value());
  }
  ReplayCache::instance().clear();
}

}  // namespace
}  // namespace eod::sim
