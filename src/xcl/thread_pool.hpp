// A work-stealing parallel-for executor (CP.4: think in terms of tasks).
//
// NDRange launches publish one iteration range per participant instead of
// pushing per-chunk std::function tasks through a locked queue: the caller
// splits [0, n) into per-participant sub-ranges held in cache-line-aligned
// atomic words, bumps a launch epoch, and wakes the persistent workers.
// Each participant (workers plus the calling thread, which always helps)
// claims grain-sized chunks from the front of its own range with a CAS and,
// once dry, steals half of a victim's remaining range from the back --
// Chase-Lev-style load balancing over contiguous ranges.  A launch therefore
// costs one atomic publish and zero heap allocations, however many groups it
// spans.  On a single-core host it degenerates to (caller-driven) serial
// execution while exercising the same claim path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace eod::xcl {

class ThreadPool {
 public:
  /// Dispatch counters, monotonically accumulated across launches.
  struct Stats {
    std::uint64_t launches = 0;        ///< parallel_for calls that used workers
    std::uint64_t tasks_executed = 0;  ///< iterations run (incl. inline runs)
    std::uint64_t chunks_claimed = 0;  ///< grain-chunks taken from own range
    std::uint64_t chunks_stolen = 0;   ///< half-ranges taken from a victim
  };

  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs body(i) for i in [0, n), blocking until all iterations complete.
  /// Every iteration executes even when some throw; if any threw, the
  /// exception raised by the *lowest* iteration index is rethrown, so the
  /// error surfaced to the caller does not depend on thread scheduling.
  /// Nested calls (from inside a body running on this pool) execute inline
  /// and serially, which makes them deadlock-free by construction.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  [[nodiscard]] Stats stats() const noexcept;
  void reset_stats() noexcept;

  /// True when the calling thread is currently executing a parallel_for body
  /// of this pool (worker or helping caller) -- i.e. a further parallel_for
  /// on this pool would run inline.
  [[nodiscard]] bool in_launch() const noexcept;

  /// Shared pool sized to the host's hardware concurrency.
  static ThreadPool& global();

 private:
  // One per participant: an atomic [begin, end) iteration range (packed
  // begin<<32 | end) the owner claims from the front and thieves halve from
  // the back, plus the participant's lowest-index pending exception.  Padded
  // to a cache line so claims on neighbouring slots never false-share.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> range{0};
    std::size_t error_index = 0;
    std::exception_ptr error;
  };

  void worker_loop(unsigned slot);
  void participate(unsigned slot, std::uint64_t launch_epoch);
  void run_span(Slot& self, const std::function<void(std::size_t)>& body,
                std::uint32_t begin, std::uint32_t end);
  void run_one_slice(std::size_t n,
                     const std::function<void(std::size_t)>& body);

  std::vector<std::thread> workers_;
  std::vector<Slot> slots_;  // workers_.size() + 1; last slot is the caller

  // Launch publication: body/base/grain are written by the caller before the
  // epoch bump that opens a launch and read by workers after they observe
  // it.  Odd epochs are open launches, even ones closed: the caller closes
  // each launch before it returns, so no late worker can read these fields
  // while the next launch rewrites them.
  std::atomic<const std::function<void(std::size_t)>*> body_{nullptr};
  std::size_t base_ = 0;       // slice offset for > 32-bit iteration counts
  std::uint32_t grain_ = 1;    // owner-claim chunk size for this launch
  std::atomic<std::size_t> remaining_{0};  // iterations not yet completed
  std::atomic<unsigned> active_{0};        // participants inside participate()
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> stop_{false};

  std::mutex launch_mutex_;  // serializes top-level launches
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::mutex done_mutex_;
  std::condition_variable done_cv_;

  mutable std::atomic<std::uint64_t> stat_launches_{0};
  mutable std::atomic<std::uint64_t> stat_tasks_{0};
  mutable std::atomic<std::uint64_t> stat_claims_{0};
  mutable std::atomic<std::uint64_t> stat_steals_{0};
};

}  // namespace eod::xcl
