// Host-time benchmark of the reproduction's real entry points.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--plant-mismatch]
//   perfbench --list-metrics
//
// Each workload drives, in this one process, the public calls that
// `*_app --size` (validate, functional) and `counters_report` (replay_cold,
// replay_warm) make, on the modeled i7-6700K and the global thread pool.
// The timed part repeats a round (every cell's call once), between
// repeated set-ups, for at least --seconds and reports one pass (a fixed
// number of rounds) from the per-call samples.  With --trace 1 the rounds
// alternate between untraced and traced; a traced round records a span at
// every layer boundary from out here (the program itself stays untraced)
// and reads the executor and replay-cache counters around them.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// One operation is one checked cell run; any failed check makes the exit
// code non-zero.  See NOTES.md for the workloads and the layer map.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dwarfs/registry.hpp"
#include "harness/runner.hpp"
#include "obs/manifest.hpp"
#include "sim/replay_cache.hpp"
#include "sim/testbed.hpp"
#include "xcl/executor.hpp"
#include "xcl/thread_pool.hpp"

namespace {

using namespace eod;
using dwarfs::ProblemSize;

constexpr const char* kDevice = "i7-6700K";
constexpr int kMinSetupSlots = 3;          // set-up slots per run, at least
constexpr int kMaxSetupSlots = 6;          // and at most
constexpr double kSetupShare = 0.1;        // planned share of set-up time
constexpr double kSetupSlotSeconds = 0.2;  // least set-up time in one slot
constexpr int kMinRounds = 3;              // timed rounds per mode, at least
constexpr int kFunctionalRounds = 6;       // cell rounds in one functional pass
constexpr int kWarmRounds = 24;            // hit rounds in one replay_warm pass

// ---------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  bool end_to_end;
  const char* moves;  // per-layer: the end-to-end metric/workload it moves
};

const std::vector<MetricDef>& metric_defs() {
  static const std::vector<MetricDef> defs = {
      {"wall_s", "s", "lower", true, ""},
      {"cpu_s", "s", "lower", true, ""},
      {"setup_s", "s", "lower", true, ""},
      {"peak_rss_mb", "MB", "lower", true, ""},
      {"dwarfs.setup_s", "s", "lower", false,
       "setup_s on validate/functional"},
      {"dwarfs.validate_s", "s", "lower", false,
       "wall_s on validate (cpu_s if a reference goes parallel)"},
      {"dwarfs.validate_share", "ratio", "lower", false, "wall_s on validate"},
      {"dwarfs.trace_accesses", "count", "lower", false,
       "wall_s on replay_cold/replay_warm"},
      {"dwarfs.self_s", "s", "lower", false, "wall_s on validate"},
      {"xcl.bind_s", "s", "lower", false,
       "wall_s and peak_rss_mb on functional"},
      {"xcl.run_s", "s", "lower", false,
       "wall_s and peak_rss_mb on functional"},
      {"xcl.finish_s", "s", "lower", false,
       "wall_s and peak_rss_mb on functional"},
      {"xcl.self_s", "s", "lower", false, "wall_s on functional"},
      {"xcl.launches", "count", "lower", false, "wall_s on functional"},
      {"xcl.groups", "count", "lower", false, "wall_s on functional"},
      {"xcl.groups_loop", "count", "lower", false, "wall_s on functional"},
      {"xcl.groups_fiber", "count", "lower", false, "wall_s on functional"},
      {"xcl.groups_span", "count", "lower", false, "wall_s on functional"},
      {"xcl.groups_simd", "count", "lower", false, "wall_s on functional"},
      {"xcl.chunks_claimed", "count", "lower", false, "wall_s on functional"},
      {"xcl.chunks_stolen", "count", "lower", false, "wall_s on functional"},
      {"xcl.ns_per_group", "ns", "lower", false,
       "wall_s and cpu_s on functional"},
      {"xcl.steal_ratio", "ratio", "lower", false,
       "wall_s and cpu_s on functional"},
      {"xcl.cpu_per_wall", "ratio", "higher", false,
       "wall_s and cpu_s on functional"},
      {"sim.hash_s", "s", "lower", false,
       "wall_s on replay_warm (a share of wall_s on replay_cold)"},
      {"sim.replay_s", "s", "lower", false,
       "wall_s on replay_cold and setup_s on replay_warm"},
      {"sim.replay_maccess_per_s", "Maccess/s", "higher", false,
       "wall_s on replay_cold and setup_s on replay_warm"},
      {"sim.self_s", "s", "lower", false,
       "wall_s on replay_cold/replay_warm"},
      {"sim.memo_hits", "count", "higher", false, "wall_s on replay_warm"},
      {"sim.memo_misses", "count", "lower", false, "wall_s on replay_warm"},
      {"sim.memo_hit_ratio", "ratio", "higher", false,
       "wall_s on replay_warm"},
      {"sim.store_load_s", "s", "lower", false, "wall_s on replay_warm"},
      {"sim.store_entries_loaded", "count", "higher", false,
       "wall_s on replay_warm"},
      {"harness.model_s", "s", "lower", false, "wall_s on every workload"},
      {"harness.model_share", "ratio", "lower", false,
       "wall_s on every workload (predicted under 5% of it)"},
      {"harness.self_s", "s", "lower", false, "wall_s on every workload"},
      {"uncovered_share", "ratio", "lower", false,
       "none: traced wall time no layer span covers"},
      {"trace_overhead_s", "s", "lower", false,
       "none: traced minus untraced pass wall time"},
  };
  return defs;
}

void list_metrics() {
  for (const MetricDef& d : metric_defs()) {
    std::cout << d.name << '\t' << d.unit << '\t' << d.better << '\t'
              << (d.end_to_end ? "end_to_end" : "per_layer");
    if (!d.end_to_end) std::cout << '\t' << d.moves;
    std::cout << '\n';
  }
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 * 1e-6;  // KiB -> MB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- tracing

/// Spans recorded from the benchmark around its calls into each layer,
/// kept in memory for one round.  When off, a span costs one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer* t, const char* name, const char* layer) : t_(t) {
      if (t_ == nullptr) return;
      index_ = static_cast<int>(t_->spans_.size());
      t_->spans_.push_back({name, layer, now_s(), 0.0, t_->open_});
      t_->open_ = index_;
    }
    ~Scope() {
      if (t_ == nullptr) return;
      t_->spans_[static_cast<std::size_t>(index_)].end = now_s();
      t_->open_ = t_->spans_[static_cast<std::size_t>(index_)].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
  };

  /// Summed duration of every span named `name`.
  [[nodiscard]] double total(const std::string& name) const {
    double s = 0.0;
    for (const Span& sp : spans_) {
      if (sp.name == name) s += sp.end - sp.start;
    }
    return s;
  }

  /// Self time per layer: each span's duration minus its children's.
  [[nodiscard]] std::map<std::string, double> self_by_layer() const {
    std::map<std::string, double> self;
    for (const Span& sp : spans_) self[sp.layer] += sp.end - sp.start;
    for (const Span& sp : spans_) {
      if (sp.parent >= 0) {
        self[spans_[static_cast<std::size_t>(sp.parent)].layer] -=
            sp.end - sp.start;
      }
    }
    return self;
  }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

// ------------------------------------------------------------ operations

bool operator==(const sim::ReplayMemoEntry& a, const sim::ReplayMemoEntry& b) {
  return a.cold == b.cold && a.warm == b.warm && a.accesses == b.accesses;
}

/// Counts checked operations.  --plant-mismatch corrupts the expected
/// value of the first check, so a wrong output must show as a failure.
class Tally {
 public:
  explicit Tally(bool plant) : plant_(plant) {}

  template <typename T>
  void check(const T& got, T want, const std::string& what) {
    const bool planted = plant_;
    if (planted) {
      want = corrupt(want);
      plant_ = false;
    }
    ++attempted_;
    if (!(got == want)) {
      ++failed_;
      std::cerr << "perfbench: check failed: " << what
                << (planted ? " [planted mismatch]" : "") << '\n';
    }
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  static bool corrupt(bool v) { return !v; }
  static std::uint64_t corrupt(std::uint64_t v) { return v ^ 1u; }
  static sim::ReplayMemoEntry corrupt(sim::ReplayMemoEntry e) {
    ++e.warm.l1_dcm;
    return e;
  }

  bool plant_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ------------------------------------------------------------------ cells

// kmeans::run() advances the host-side centroids it starts from, so a
// second run from one setup() computes something else; such a cell is set
// up again (inside the timed part, under dwarfs.setup) before each run.
bool setup_before_each_run(const std::string& name) {
  return name == "kmeans";
}

struct Cell {
  std::string name;
  ProblemSize size;
  std::unique_ptr<dwarfs::Dwarf> dwarf;
  std::string label() const {
    return name + "/" + dwarfs::to_string(size) + "/" + kDevice;
  }
};

/// Builds the cells in a seed-shuffled order and generates their inputs.
/// Input data is fixed per size by each dwarf's own generator.
std::vector<Cell> make_cells(
    const std::vector<std::pair<const char*, ProblemSize>>& specs,
    std::uint64_t seed, Tracer* tr) {
  std::vector<Cell> cells;
  for (const auto& [name, size] : specs) {
    cells.push_back({name, size, dwarfs::create_dwarf(name)});
  }
  dwarfs::SplitMix64 rng(seed);
  for (std::size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[rng.below(i)]);
  }
  for (Cell& c : cells) {
    Tracer::Scope s(tr, "dwarfs.setup", "dwarfs");
    c.dwarf->setup(c.size);
  }
  return cells;
}

const std::vector<std::pair<const char*, ProblemSize>> kAppCells = {
    {"kmeans", ProblemSize::kMedium}, {"lud", ProblemSize::kMedium},
    {"csr", ProblemSize::kMedium},    {"fft", ProblemSize::kMedium},
    {"dwt", ProblemSize::kMedium},    {"srad", ProblemSize::kMedium},
    {"crc", ProblemSize::kMedium},    {"nw", ProblemSize::kMedium},
    {"gem", ProblemSize::kSmall},     {"cwt", ProblemSize::kSmall},
    {"hmm", ProblemSize::kTiny},      {"nqueens", ProblemSize::kTiny}};

const std::vector<std::pair<const char*, ProblemSize>> kReplayCells = {
    {"kmeans", ProblemSize::kMedium}, {"lud", ProblemSize::kMedium}};

/// The functional part of harness::measure, called layer by layer:
/// bind, run, finish, optionally validate, unbind.  `inspect` runs while
/// the results are still on the host, before unbind.  Returns the
/// validation (ok when not requested).
dwarfs::Validation run_cell(Cell& c, bool validate, Tracer* tr,
                            const std::function<void()>& inspect = {}) {
  if (setup_before_each_run(c.name)) {
    Tracer::Scope s(tr, "dwarfs.setup", "dwarfs");
    c.dwarf->setup(c.size);
  }
  std::optional<xcl::Context> ctx;
  std::optional<xcl::Queue> queue;
  {
    Tracer::Scope s(tr, "xcl.bind", "xcl");
    ctx.emplace(sim::testbed_device(kDevice));
    queue.emplace(*ctx, xcl::QueueMode::kInOrder);
    queue->set_functional(true);
    c.dwarf->bind(*ctx, *queue);
    queue->clear_events();
  }
  {
    Tracer::Scope s(tr, "xcl.run", "xcl");
    c.dwarf->run();
  }
  {
    Tracer::Scope s(tr, "xcl.finish", "xcl");
    c.dwarf->finish();
  }
  dwarfs::Validation v;
  v.ok = true;
  if (validate) {
    Tracer::Scope s(tr, "dwarfs.validate", "dwarfs");
    v = c.dwarf->validate();
  }
  if (inspect) inspect();
  {
    Tracer::Scope s(tr, "xcl.unbind", "xcl");
    c.dwarf->unbind();
    queue.reset();
    ctx.reset();
  }
  return v;
}

/// The model-only harness::measure the entry points run after their
/// functional pass: modeled segments plus the 50 sampled times.
void model_cell(Cell& c, std::uint64_t seed, Tracer* tr) {
  Tracer::Scope s(tr, "harness.measure", "harness");
  harness::MeasureOptions opts;
  opts.functional = false;
  opts.reuse_setup = true;
  opts.seed = seed;
  opts.dispatch = xcl::DispatchMode::kAuto;
  opts.queue_mode = xcl::QueueMode::kInOrder;
  (void)harness::measure(*c.dwarf, c.size, sim::testbed_device(kDevice),
                         opts);
}

sim::ReplayMemoEntry replay_cell(const Cell& c, Tracer* tr) {
  Tracer::Scope s(tr, "sim.memoized_replay", "sim");
  const dwarfs::Dwarf& d = *c.dwarf;
  return sim::memoized_replay(
      [&d](sim::TraceWriter& w) { d.stream_trace(w); },
      sim::spec_by_name(kDevice), c.label());
}

/// A private directory under the checkout's build tree, removed at exit.
class ScratchDir {
 public:
  ScratchDir() {
    std::filesystem::create_directories(".bench_build");
    std::string tmpl = ".bench_build/perfbench-XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("perfbench: cannot create a scratch directory");
    }
    path_ = std::filesystem::absolute(tmpl);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  [[nodiscard]] std::string file(const char* name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

// -------------------------------------------------------------- workloads

enum class Kind : std::uint8_t { kValidate, kFunctional, kReplayCold, kReplayWarm };

std::optional<Kind> parse_kind(const std::string& name) {
  if (name == "validate") return Kind::kValidate;
  if (name == "functional") return Kind::kFunctional;
  if (name == "replay_cold") return Kind::kReplayCold;
  if (name == "replay_warm") return Kind::kReplayWarm;
  return std::nullopt;
}

struct Args {
  std::string workload;
  Kind kind = Kind::kValidate;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool plant = false;
};

/// Wall and CPU samples of each operation of a round, keyed by operation.
struct OpSamples {
  std::map<std::string, std::vector<double>> wall;
  std::map<std::string, std::vector<double>> cpu;

  template <typename F>
  void time(const std::string& key, F&& f) {
    excluded_wall_ = 0.0;
    excluded_cpu_ = 0.0;
    // Untimed: hand the memory the allocator kept from the last operation
    // back, so each starts like a fresh run and the peak RSS does not
    // depend on which threads freed what before.
    malloc_trim(0);
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    f();
    wall[key].push_back(now_s() - t0 - excluded_wall_);
    cpu[key].push_back(process_cpu_s() - c0 - excluded_cpu_);
  }

  /// Runs the benchmark's own check work inside time() without counting
  /// it; in a traced round it is a "check" span, outside every layer.
  template <typename F>
  void exclude(Tracer* tr, F&& f) {
    Tracer::Scope s(tr, "bench.check", "check");
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    f();
    excluded_wall_ += now_s() - t0;
    excluded_cpu_ += process_cpu_s() - c0;
  }

  /// One pass of `rounds` rounds: the sum over operations of each one's
  /// fastest run, times the rounds.  Host contention only adds time: a
  /// core slowed by a busy neighbour inflates wall and CPU time alike, and
  /// in a parallel operation a descheduled core holding the last chunk
  /// stalls every thread.
  static double pass(const std::map<std::string, std::vector<double>>& m,
                     int rounds) {
    double s = 0.0;
    for (const auto& [key, v] : m) s += *std::min_element(v.begin(), v.end());
    return s * rounds;
  }

 private:
  double excluded_wall_ = 0.0;
  double excluded_cpu_ = 0.0;
};

/// One workload: set-up, the repeated round, and the checks after it.
class Workload {
 public:
  Workload(const Args& a, Tally& tally) : args_(a), tally_(tally) {}

  /// Rounds in one pass: enough that a pass outlasts the set-up.
  [[nodiscard]] int rounds_per_pass() const {
    if (args_.kind == Kind::kFunctional) return kFunctionalRounds;
    if (args_.kind == Kind::kReplayWarm) return kWarmRounds;
    return 1;
  }

  /// One full set-up from scratch; the last one's state is kept.
  void setup(Tracer* tr) {
    sim::ReplayCache::instance().clear();
    cells_.clear();  // so peak memory holds one set of inputs
    cells_ = make_cells(replay() ? kReplayCells : kAppCells, args_.seed, tr);
    if (args_.kind != Kind::kReplayWarm) return;
    // Prime every cell cold into a fresh private disk store.
    store_path_ = scratch_.file("replay_memo.tsv");
    std::filesystem::remove(store_path_);
    sim::ReplayCache::instance().set_disk_store(store_path_);
    cold_.clear();
    for (const Cell& c : cells_) cold_.push_back(replay_cell(c, tr));
    sim::ReplayCache::instance().clear();
  }

  /// One round: every cell's operation once, each followed by the
  /// model-only harness::measure.  Counters of the round land in `layer`.
  void round(Tracer* tr, OpSamples& ops, std::map<std::string, double>& layer) {
    const Kind w = args_.kind;
    sim::ReplayCache& cache = sim::ReplayCache::instance();
    std::size_t loaded = 0;
    if (replay()) {
      cache.clear();
      if (w == Kind::kReplayWarm) {
        ops.time("store_load", [&] {
          Tracer::Scope s(tr, "sim.store_load", "sim");
          loaded = cache.set_disk_store(store_path_);
        });
      }
    }
    const sim::ReplayCache::Stats before = cache.stats();
    double accesses = 0.0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      Cell& c = cells_[i];
      dwarfs::Validation v;
      std::uint64_t sig = 0;
      sim::ReplayMemoEntry e;
      ops.time(c.label(), [&] {
        if (replay()) {
          e = replay_cell(c, tr);
        } else if (w == Kind::kValidate) {
          v = run_cell(c, true, tr);
        } else {
          run_cell(c, false, tr, [&] {
            ops.exclude(tr, [&] {
              sig = c.dwarf->result_signature();
              // No signature: this run is checked by its validator.
              if (sig == 0) v = c.dwarf->validate();
            });
          });
        }
        model_cell(c, args_.seed, tr);
      });
      if (w == Kind::kValidate) {
        tally_.check(v.ok, true, c.label() + " validation: " + v.detail);
      } else if (w == Kind::kFunctional && sig == 0) {
        tally_.check(v.ok, true,
                     c.label() + " functional validation: " + v.detail);
      } else if (w == Kind::kFunctional) {
        signatures_.emplace_back(i, sig);
      } else if (w == Kind::kReplayCold) {
        tally_.check<std::uint64_t>(e.accesses, c.dwarf->trace_size_hint(),
                                    c.label() + " replayed accesses");
      } else {
        tally_.check(e, cold_[i], c.label() + " hit differs from cold");
      }
      accesses += static_cast<double>(e.accesses);
    }
    if (!replay()) return;
    const sim::ReplayCache::Stats after = cache.stats();
    if (w == Kind::kReplayWarm) {
      tally_.check<std::uint64_t>(after.hits - before.hits, cells_.size(),
                                  "replay_warm hits per call");
    }
    layer["dwarfs.trace_accesses"] = accesses;
    layer["sim.memo_hits"] = static_cast<double>(after.hits - before.hits);
    layer["sim.memo_misses"] =
        static_cast<double>(after.misses - before.misses);
    layer["sim.store_entries_loaded"] = static_cast<double>(loaded);
  }

  /// The hashing share of a replay round: one sim::hash_trace per cell,
  /// run outside the round's timing.  0 for the other workloads.
  [[nodiscard]] double hash_probe_s() const {
    double s = 0.0;
    if (!replay()) return s;
    for (const Cell& c : cells_) {
      const dwarfs::Dwarf& d = *c.dwarf;
      const double t0 = now_s();
      (void)sim::hash_trace([&d](sim::TraceWriter& w) { d.stream_trace(w); });
      s += now_s() - t0;
    }
    return s;
  }

  /// Checks that need the timed part to be over.
  void finish_checks() {
    if (args_.kind != Kind::kFunctional) return;
    // One untimed validated pass gives every cell its reference signature.
    std::vector<std::uint64_t> want(cells_.size());
    std::vector<char> ok(cells_.size());
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const dwarfs::Dwarf& d = *cells_[i].dwarf;
      ok[i] = run_cell(cells_[i], true, nullptr,
                       [&] { want[i] = d.result_signature(); })
                  .ok;
    }
    for (const auto& [i, sig] : signatures_) {
      tally_.check(ok[i] != 0 ? sig : ~want[i], want[i],
                   cells_[i].label() + " functional signature");
    }
  }

 private:
  [[nodiscard]] bool replay() const {
    return args_.kind == Kind::kReplayCold || args_.kind == Kind::kReplayWarm;
  }

  Args args_;
  Tally& tally_;
  ScratchDir scratch_;
  std::vector<Cell> cells_;
  std::string store_path_;
  std::vector<sim::ReplayMemoEntry> cold_;
  std::vector<std::pair<std::size_t, std::uint64_t>> signatures_;
};

// ------------------------------------------------------------------- run

/// The machine and build a result came from, printed with every result.
void print_config(const Args& a) {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  // git must not look for a repository above the checkout.
  setenv("GIT_CEILING_DIRECTORIES",
         std::filesystem::current_path().parent_path().c_str(), 1);
  if (!optimized) std::cerr << "perfbench: WARNING: unoptimized build\n";
  if (sanitized) std::cerr << "perfbench: WARNING: sanitized build\n";
  std::cout << "perfbench config: {\"workload\": \"" << a.workload
            << "\", \"seed\": " << a.seed << ", \"seconds\": " << a.seconds
            << ", \"trace\": " << (a.trace ? 1 : 0)
            << ", \"cores\": " << std::thread::hardware_concurrency()
            << ", \"pool_workers\": " << xcl::ThreadPool::global().size()
            << ", \"compiler\": \"" << compiler
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"optimized\": " << (optimized ? "true" : "false")
            << ", \"sanitized\": " << (sanitized ? "true" : "false")
            << ", \"git_describe\": \"" << obs::git_describe() << "\"}\n";
}

/// Per-round layer numbers of a traced round: span totals, self time per
/// layer and the executor counter deltas.
void read_layers(const Tracer& t, const xcl::ExecutorStats& a,
                 const xcl::ExecutorStats& b,
                 std::map<std::string, double>& m) {
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  m["xcl.launches"] = d(a.launches, b.launches);
  m["xcl.groups"] = d(a.tasks_executed, b.tasks_executed);
  m["xcl.groups_loop"] = d(a.groups_loop, b.groups_loop);
  m["xcl.groups_fiber"] = d(a.groups_fiber, b.groups_fiber);
  m["xcl.groups_span"] = d(a.groups_span, b.groups_span);
  m["xcl.groups_simd"] = d(a.groups_simd, b.groups_simd);
  m["xcl.chunks_claimed"] = d(a.chunks_claimed, b.chunks_claimed);
  m["xcl.chunks_stolen"] = d(a.chunks_stolen, b.chunks_stolen);
  m["xcl.bind_s"] = t.total("xcl.bind");
  m["xcl.run_s"] = t.total("xcl.run");
  m["xcl.finish_s"] = t.total("xcl.finish");
  m["dwarfs.validate_s"] = t.total("dwarfs.validate");
  m["harness.model_s"] = t.total("harness.measure");
  m["sim.memoized_replay_s"] = t.total("sim.memoized_replay");
  m["sim.store_load_s"] = t.total("sim.store_load");
  for (const auto& [layer, self] : t.self_by_layer()) {
    m[layer + ".self_s"] = self;
  }
}

/// Scales per-round medians to one pass and derives the ratios.
std::map<std::string, double> layer_metrics(
    const std::map<std::string, std::vector<double>>& rounds, int per_pass) {
  std::map<std::string, double> m;
  for (const auto& [k, v] : rounds) m[k] = median(v) * per_pass;
  const auto ratio = [](double x, double y) { return y > 0 ? x / y : 0.0; };
  const double wall = m["round_wall_s"];
  m["dwarfs.validate_share"] = ratio(m["dwarfs.validate_s"], wall);
  m["harness.model_share"] = ratio(m["harness.model_s"], wall);
  m["uncovered_share"] = ratio(m["bench.self_s"], wall);
  m["xcl.cpu_per_wall"] = ratio(m["round_cpu_s"], wall);
  m["xcl.ns_per_group"] = ratio(m["xcl.run_s"] * 1e9, m["xcl.groups"]);
  m["xcl.steal_ratio"] = ratio(m["xcl.chunks_stolen"],
                               m["xcl.chunks_claimed"] + m["xcl.chunks_stolen"]);
  m["sim.memo_hit_ratio"] =
      ratio(m["sim.memo_hits"], m["sim.memo_hits"] + m["sim.memo_misses"]);
  // The miss path only: on a hit there is nothing but hashing.
  m["sim.replay_s"] = m["sim.memo_misses"] > 0
                          ? m["sim.memoized_replay_s"] - m["sim.hash_s"]
                          : 0.0;
  m["sim.replay_maccess_per_s"] =
      ratio(m["dwarfs.trace_accesses"] * 1e-6, m["sim.replay_s"]);
  return m;
}

int run(const Args& a) {
  Tally tally(a.plant);
  Workload w(a, tally);
  const int per_pass = w.rounds_per_pass();

  // Set-up slots are spread evenly over the measured part, so setup_s and
  // wall_s sample the same stretch of host conditions.  A slot repeats full
  // set-ups until it has spent kSetupSlotSeconds (one, for a heavy set-up).
  // The first slot's length sets how many slots there are: about
  // kSetupShare of the time, within [kMinSetupSlots, kMaxSetupSlots].
  // Rounds fill the rest and are checked one by one against the deadline,
  // so a run ends within half a round of it.  With --trace 1 every other
  // round is traced, so tracing overhead is the difference of the two
  // estimates.
  std::vector<double> setup_s;
  std::vector<double> dwarf_setup_s;
  OpSamples plain;
  OpSamples traced;
  std::map<std::string, std::vector<double>> layer;
  int n_plain = 0;
  int n_traced = 0;
  int n_rounds = 0;
  std::vector<double> round_walls;
  const double start = now_s();
  const double deadline = start + a.seconds;
  int n_slots = kMinSetupSlots;
  int slots_done = 0;
  double next_slot = start;
  double last_round_s = 0.0;
  for (;;) {
    if (slots_done < n_slots && now_s() >= next_slot) {
      const double slot0 = now_s();
      for (double spent = 0.0; spent < kSetupSlotSeconds;
           spent += setup_s.back()) {
        Tracer tr;
        malloc_trim(0);  // as before each timed operation
        const double t0 = now_s();
        if (setup_s.empty()) (void)xcl::ThreadPool::global();  // pool start-up
        w.setup(&tr);
        setup_s.push_back(now_s() - t0);
        dwarf_setup_s.push_back(tr.total("dwarfs.setup"));
      }
      if (slots_done == 0) {
        const double planned = kSetupShare * a.seconds / (now_s() - slot0);
        n_slots = std::clamp(static_cast<int>(planned), kMinSetupSlots,
                             kMaxSetupSlots);
      }
      ++slots_done;
      next_slot = start + a.seconds * slots_done / n_slots;
      continue;
    }
    const bool enough = slots_done >= n_slots && n_plain >= kMinRounds &&
                        (!a.trace || n_traced >= kMinRounds);
    if (enough && now_s() + 0.5 * last_round_s >= deadline) break;
    const bool trace_this = a.trace && n_rounds % 2 == 1;
    std::optional<Tracer> tr;
    if (trace_this) tr.emplace();
    Tracer* t = tr ? &*tr : nullptr;
    std::map<std::string, double> m;
    const xcl::ExecutorStats ex0 = xcl::executor_stats();
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    {
      Tracer::Scope root(t, "round", "bench");
      w.round(t, trace_this ? traced : plain, m);
    }
    last_round_s = now_s() - t0;
    // The ratios below leave the benchmark's own checks out, as wall_s
    // does (their CPU time is taken as their wall time).
    const double check_s = t != nullptr ? t->total("bench.check") : 0.0;
    m["round_wall_s"] = last_round_s - check_s;
    m["round_cpu_s"] = process_cpu_s() - c0 - check_s;
    ++n_rounds;
    ++(trace_this ? n_traced : n_plain);
    round_walls.push_back(m["round_wall_s"]);
    if (t != nullptr) {
      read_layers(*t, ex0, xcl::executor_stats(), m);
      m["sim.hash_s"] = w.hash_probe_s();
      for (const auto& [k, v] : m) layer[k].push_back(v);
    }
  }
  // Before the checks below: the untimed validated pass they run is not
  // part of any workload's memory.
  const double rss_mb = peak_rss_mb();
  w.finish_checks();

  std::map<std::string, double> metrics;
  if (a.trace) {
    metrics = layer_metrics(layer, per_pass);
    metrics["dwarfs.setup_s"] = median(dwarf_setup_s);
    metrics["trace_overhead_s"] = OpSamples::pass(traced.wall, per_pass) -
                                  OpSamples::pass(plain.wall, per_pass);
  } else {
    metrics["wall_s"] = OpSamples::pass(plain.wall, per_pass);
    metrics["cpu_s"] = OpSamples::pass(plain.cpu, per_pass);
    metrics["setup_s"] = median(setup_s);
    metrics["peak_rss_mb"] = rss_mb;
  }

  std::cout << "perfbench: " << a.workload << ": " << setup_s.size()
            << " set-ups in " << slots_done << " slots, " << n_plain
            << " untraced + " << n_traced << " traced rounds of " << per_pass
            << " per pass; round wall s:";
  for (const double r : round_walls) std::cout << ' ' << r;
  std::cout << '\n';
  print_config(a);
  std::string json = "{\"correct\": ";
  json += tally.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted());
  json += ", \"failed\": " + std::to_string(tally.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : metric_defs()) {
    if (d.end_to_end == a.trace) continue;
    // A layer this workload never enters reports 0.
    const auto it = metrics.find(d.name);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  it == metrics.end() ? 0.0 : it->second);
    json += first ? "" : ", ";
    json += "\"" + std::string(d.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--list-metrics") {
      list_metrics();
      return 0;
    } else if (k == "--plant-mismatch") {
      a.plant = true;
    } else if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) == "1";
    } else {
      std::cerr << "perfbench: unknown argument " << k << '\n';
      return 2;
    }
  }
  const std::optional<Kind> kind = parse_kind(a.workload);
  if (!kind.has_value()) {
    std::cerr << "usage: perfbench --workload validate|functional|"
                 "replay_cold|replay_warm --seed N --seconds S --trace 0|1 "
                 "[--plant-mismatch] | --list-metrics\n";
    return 2;
  }
  a.kind = *kind;
  // A stray hatch would change the measured tier or add tracing.
  for (const char* env : {"EOD_DISPATCH", "EOD_QUEUE", "EOD_TRACE"}) {
    if (std::getenv(env) != nullptr) {
      std::cerr << "perfbench: unset " << env << " before benchmarking\n";
      return 2;
    }
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
