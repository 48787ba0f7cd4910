#include "xcl/executor.hpp"

#include <array>
#include <atomic>
#include <functional>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "xcl/check/checked_exec.hpp"
#include "xcl/check/session.hpp"
#include "xcl/fiber.hpp"
#include "xcl/thread_pool.hpp"

namespace eod::xcl {

namespace {

// Tier-selection override; relaxed is enough -- callers set it between
// launches, never concurrently with one.
std::atomic<DispatchMode> g_dispatch_mode{DispatchMode::kAuto};

// Tier observability now lives in the process metrics registry
// (DESIGN.md §11); ExecutorStats is a typed view over these instruments.
// The references are registry-owned and stable, so per-group updates stay
// single relaxed atomic adds, exactly as the former file-local atomics.
obs::Counter& g_groups_loop = obs::counter("executor.groups_loop");
obs::Counter& g_groups_fiber = obs::counter("executor.groups_fiber");
obs::Counter& g_groups_span = obs::counter("executor.groups_span");
obs::Counter& g_groups_checked = obs::counter("executor.groups_checked");
obs::Counter& g_launches = obs::counter("executor.ndrange_launches");
obs::Gauge& g_arena_hwm = obs::gauge("executor.arena_bytes_hwm");

// Per-thread executor scratch.  Pool workers are persistent threads, so the
// arena storage and fiber stacks built for the first launches are reused by
// every later group that runs on the same worker -- the steady state does
// no per-group malloc on either the loop or the barrier path.
struct WorkerScratch {
  LocalArena arena{0};
  FiberPool fibers;
};

WorkerScratch& worker_scratch() {
  thread_local WorkerScratch scratch;
  return scratch;
}

// No thread-local high-water cache here: it would survive
// reset_executor_stats() and suppress updates afterwards.  The relaxed
// load per group is cheap enough not to need one.
void note_arena_use(WorkerScratch& ws) {
  const std::size_t used = ws.arena.used_bytes();
  if (used == 0) return;
  g_arena_hwm.set_max(static_cast<std::int64_t>(used));
}

struct GroupCoords {
  std::array<std::size_t, 3> group_id;
  std::array<std::size_t, 3> global_size;
  std::array<std::size_t, 3> local_size;
};

// Decodes a flat group index into 3-D group coordinates.
GroupCoords decode_group(const NDRange& range, std::size_t flat) {
  GroupCoords g;
  const std::size_t gx = range.groups(0);
  const std::size_t gy = range.groups(1);
  g.group_id = {flat % gx, (flat / gx) % gy, flat / (gx * gy)};
  g.global_size = {range.global(0), range.global(1), range.global(2)};
  g.local_size = {range.local(0), range.local(1), range.local(2)};
  return g;
}

// Runs all work-items of one group with a plain loop.  `barrier_hook` is
// null for kernels that never call barrier(); single-item groups of
// barrier kernels pass a no-op hook instead, since a barrier over one
// work-item synchronizes nothing and needs no fiber suspension.
void run_group_loop(const Kernel& kernel, const GroupCoords& g,
                    LocalArena& arena,
                    const std::function<void()>* barrier_hook) {
  arena.reset();
  const auto [lx, ly, lz] = g.local_size;
  for (std::size_t z = 0; z < lz; ++z) {
    for (std::size_t y = 0; y < ly; ++y) {
      for (std::size_t x = 0; x < lx; ++x) {
        const std::array<std::size_t, 3> local_id{x, y, z};
        const std::array<std::size_t, 3> global_id{
            g.group_id[0] * lx + x, g.group_id[1] * ly + y,
            g.group_id[2] * lz + z};
        WorkItem item(global_id, local_id, g.group_id, g.global_size,
                      g.local_size, &arena, barrier_hook);
        kernel.body()(item);
      }
    }
  }
}

// Runs one group as a fiber set so barrier() can suspend work-items.  The
// pool's fibers (and their stacks) are re-armed in place between groups.
void run_group_fibers(const Kernel& kernel, const GroupCoords& g,
                      LocalArena& arena, FiberPool& fibers) {
  arena.reset();
  const auto [lx, ly, lz] = g.local_size;
  const std::size_t items = lx * ly * lz;
  std::function<void()> barrier_hook = [] { Fiber::yield_current(); };
  fibers.run_group(items, [&](std::size_t flat) {
    const std::array<std::size_t, 3> local_id{flat % lx, (flat / lx) % ly,
                                              flat / (lx * ly)};
    const std::array<std::size_t, 3> global_id{
        g.group_id[0] * lx + local_id[0], g.group_id[1] * ly + local_id[1],
        g.group_id[2] * lz + local_id[2]};
    WorkItem item(global_id, local_id, g.group_id, g.global_size,
                  g.local_size, &arena, &barrier_hook);
    kernel.body()(item);
  });
}

// A launch may take the group body when the kernel carries one, the
// override does not force the per-item reference path, and the range is
// effectively 1-D, so each group covers one contiguous [begin, end) run of
// flat global ids.  Group bodies never touch the __local arena or the
// barrier hook: a kernel whose group semantics depend on them supplies a
// group body only if it reproduces those semantics itself (DESIGN.md §9).
bool span_legal(const Kernel& kernel, const NDRange& range,
                DispatchMode mode) {
  return kernel.has_span() && mode == DispatchMode::kAuto &&
         range.global(1) == 1 && range.global(2) == 1;
}

}  // namespace

DispatchMode dispatch_mode() noexcept {
  // lint: relaxed-ok(mode flag is a plain value; no data is published via it)
  return g_dispatch_mode.load(std::memory_order_relaxed);
}

void set_dispatch_mode(DispatchMode mode) noexcept {
  // lint: relaxed-ok(mode flag is a plain value; no data is published via it)
  g_dispatch_mode.store(mode, std::memory_order_relaxed);
}

std::optional<DispatchMode> parse_dispatch_mode(
    std::string_view name) noexcept {
  if (name == "auto") return DispatchMode::kAuto;
  if (name == "item") return DispatchMode::kItem;
  if (name == "checked") return DispatchMode::kChecked;
  return std::nullopt;
}

const char* to_string(DispatchMode mode) noexcept {
  switch (mode) {
    case DispatchMode::kItem:
      return "item";
    case DispatchMode::kChecked:
      return "checked";
    case DispatchMode::kAuto:
      break;
  }
  return "auto";
}

const char* dispatch_mode_names() noexcept { return "auto|item|checked"; }

void execute_ndrange(const Kernel& kernel, const NDRange& range,
                     const Device& device, ThreadPool* pool) {
  const std::size_t groups = range.num_groups();
  const std::size_t local_mem = device.info().local_mem_bytes;
  const std::size_t group_items = range.group_items();
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  g_launches.add(1);

  // Checker tier (DESIGN.md §10): while a session is active every launch
  // runs serially through the shadow-memory instrumentation, regardless of
  // group-body legality -- the session pins DispatchMode::kChecked, but the
  // session pointer, not the mode, is authoritative (kChecked without a
  // session degrades to the per-item reference path below).
  if (check::CheckSession* session = check::CheckSession::active()) {
    obs::TraceSpan launch_span(kernel.name().c_str(), "launch:checked",
                               "groups", static_cast<double>(groups));
    check::execute_checked(kernel, range, device, *session);
    g_groups_checked.add(groups);
    return;
  }

  const DispatchMode mode = dispatch_mode();
  if (span_legal(kernel, range, mode)) {
    // Hoist the std::function indirection out of the per-group path: the
    // workers call through a two-pointer RangeKernelRef only.
    const Kernel::SpanBody& body = kernel.span_body();
    const RangeKernelRef span = body;
    const std::size_t lx = range.local(0);
    obs::TraceSpan launch_span(kernel.name().c_str(), "launch:span",
                               "groups", static_cast<double>(groups));
    tp.parallel_for(groups, [span, lx](std::size_t flat) {
      obs::TraceSpan group_span("group:span", "executor");
      span(flat * lx, (flat + 1) * lx);
      g_groups_span.add(1);
    });
    return;
  }

  // A barrier over a single work-item is trivially satisfied, so one-item
  // groups of barrier kernels skip the fiber machinery entirely.
  static const std::function<void()> noop_barrier = [] {};
  const bool needs_fibers = kernel.barriers() && group_items > 1;

  obs::TraceSpan launch_span(kernel.name().c_str(),
                             needs_fibers ? "launch:fiber" : "launch:loop",
                             "groups", static_cast<double>(groups));
  tp.parallel_for(groups, [&](std::size_t flat) {
    obs::TraceSpan group_span(needs_fibers ? "group:fiber" : "group:loop",
                              "executor");
    WorkerScratch& ws = worker_scratch();
    ws.arena.ensure_capacity(local_mem);
    const GroupCoords g = decode_group(range, flat);
    if (needs_fibers) {
      run_group_fibers(kernel, g, ws.arena, ws.fibers);
      g_groups_fiber.add(1);
    } else {
      run_group_loop(kernel, g, ws.arena,
                     kernel.barriers() ? &noop_barrier : nullptr);
      g_groups_loop.add(1);
    }
    note_arena_use(ws);
  });
}

ExecutorStats executor_stats() {
  const ThreadPool::Stats pool = ThreadPool::global().stats();
  ExecutorStats s;
  s.launches = pool.launches;
  s.tasks_executed = pool.tasks_executed;
  s.chunks_claimed = pool.chunks_claimed;
  s.chunks_stolen = pool.chunks_stolen;
  s.groups_loop = g_groups_loop.value();
  s.groups_fiber = g_groups_fiber.value();
  s.groups_span = g_groups_span.value();
  s.groups_checked = g_groups_checked.value();
  s.arena_bytes_hwm = static_cast<std::uint64_t>(g_arena_hwm.value());
  s.fiber_stacks_created = fiber_stacks_created();
  s.fiber_stacks_reused = fiber_stacks_reused();
  return s;
}

void reset_executor_stats() {
  ThreadPool::global().reset_stats();
  g_groups_loop.reset();
  g_groups_fiber.reset();
  g_groups_span.reset();
  g_groups_checked.reset();
  g_launches.reset();
  g_arena_hwm.reset();
  reset_fiber_stack_counters();
}

}  // namespace eod::xcl
