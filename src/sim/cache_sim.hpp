// Trace-driven, set-associative, LRU, multi-level cache + TLB simulator.
//
// The paper uses PAPI counters (PAPI_L1_DCM, PAPI_L2_DCM, PAPI_L3_TCM,
// data-TLB misses) to verify that each problem size lands in the intended
// level of the Skylake hierarchy (§4.4).  This simulator provides the same
// verification capability for the simulated testbed: replay a benchmark's
// memory trace through a device's hierarchy and read the miss counters.
//
// The caches are set-associative LRU levels (CacheLevel); the data TLB is
// an exact fully associative LRU over page numbers (TlbLru) whose touch is
// O(1) -- a hashed page->way index plus a recency list -- instead of a
// 64-way tag and stamp scan per page change.
//
// Replay interfaces, fastest first:
//   * consume_coalesced(): pages of line-coalesced records (see
//     sim/trace_replay.hpp) -- run-length repeats of a cache line are
//     counted as guaranteed hits without a lookup.  One fused sequential
//     walk per hierarchy; several hierarchies run in parallel.
//   * consume()/replay()/access(): batched and per-access raw replay.
// All paths produce bit-identical HierarchyCounters (enforced by
// tests/cache_replay_test.cpp against an independent stamped-scan
// reference).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/device_spec.hpp"

namespace eod::sim {

/// One memory access of a kernel trace.
struct MemAccess {
  std::uint64_t address = 0;
  std::uint32_t bytes = 4;
  bool is_write = false;
};

/// A recorded sequence of accesses (single-work-item program order).
using MemoryTrace = std::vector<MemAccess>;

/// One access plus `repeats` further accesses with the same cache-line
/// span.  Under LRU a re-touch of the most recently used line(s) is a
/// guaranteed hit at every level and only refreshes recency stamps it
/// already tops, so repeats are credited as hits without a lookup --
/// provably exact (tests/cache_replay_test.cpp).
struct CoalescedAccess {
  std::uint64_t address = 0;
  std::uint32_t bytes = 4;
  std::uint32_t repeats = 0;
};

/// One set-associative LRU cache level.
class CacheLevel {
 public:
  CacheLevel(std::size_t size_bytes, unsigned line_bytes,
             unsigned associativity);

  /// Returns true on hit; on miss the line is installed (allocate-on-miss,
  /// no inclusion/exclusion modeling).
  bool access(std::uint64_t address) {
    const bool hit = touch_line(line_index(address), ++clock_);
    if (hit) {
      ++hits_;
    } else {
      ++misses_;
    }
    return hit;
  }

  /// LRU state transition only -- no counter updates.  `stamp` must be
  /// strictly increasing over successive touches of any one set (the
  /// internal clock, or the shared clock of a fused hierarchy walk).
  /// Returns true on hit.
  bool touch_line(std::uint64_t line, std::uint64_t stamp) noexcept {
    const std::size_t set =
        sets_pow2_ ? static_cast<std::size_t>(line & set_mask_)
                   : static_cast<std::size_t>(line % sets_);
    std::uint64_t* tags = &tags_[set * assoc_];
    std::uint64_t* stamps = &stamps_[set * assoc_];
    unsigned victim = 0;
    for (unsigned w = 0; w < assoc_; ++w) {
      if (tags[w] == line) {
        stamps[w] = stamp;
        return true;
      }
      if (stamps[w] < stamps[victim]) victim = w;
    }
    tags[victim] = line;
    stamps[victim] = stamp;
    return false;
  }

  [[nodiscard]] std::uint64_t line_index(std::uint64_t address) const
      noexcept {
    return address >> line_shift_;
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::uint64_t accesses() const noexcept {
    return hits_ + misses_;
  }
  [[nodiscard]] double miss_ratio() const noexcept {
    const std::uint64_t a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(misses_) / a;
  }
  [[nodiscard]] unsigned line_bytes() const noexcept { return line_bytes_; }
  [[nodiscard]] unsigned line_shift() const noexcept { return line_shift_; }
  [[nodiscard]] std::size_t sets() const noexcept { return sets_; }
  [[nodiscard]] std::size_t capacity_lines() const noexcept {
    return sets_ * assoc_;
  }
  [[nodiscard]] std::uint64_t clock() const noexcept { return clock_; }
  /// Moves the internal stamp clock forward (never backward) so stamps
  /// handed out after an externally-clocked replay stay above every stamp
  /// already in the arrays.
  void advance_clock(std::uint64_t to) noexcept {
    if (to > clock_) clock_ = to;
  }

 private:
  unsigned line_bytes_;
  unsigned line_shift_ = 0;
  unsigned assoc_;
  std::size_t sets_ = 0;
  std::uint64_t set_mask_ = 0;
  bool sets_pow2_ = false;
  // Structure-of-arrays: the tag walk touches one contiguous run of
  // std::uint64_t per set (vectorizable), stamps only on the chosen way.
  std::vector<std::uint64_t> tags_;    // sets_ * assoc_, ~0 = invalid
  std::vector<std::uint64_t> stamps_;  // last-use stamps
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Exact fully associative LRU over page numbers: the data TLB.  A touch
/// costs O(1) whatever the entry count -- an open-addressed page->way index
/// (linear probing, backward-shift deletion, load factor <= 1/4) plus a
/// doubly linked recency list over the ways -- and nothing allocates after
/// construction.  Hits and misses are those of any exact LRU of the same
/// capacity, e.g. a `CacheLevel` with one set of `entries` ways.
class TlbLru {
 public:
  explicit TlbLru(unsigned entries);

  /// Touches `page`; returns true on hit.  On a miss the page is installed,
  /// evicting the least recently used one once every entry is in use.
  bool touch(std::uint64_t page) noexcept {
    std::size_t slot = home(page);
    while (slot_page_[slot] != page) {
      if (slot_page_[slot] == kEmpty) return install(page, slot);
      slot = (slot + 1) & slot_mask_;
    }
    const std::uint32_t way = slot_way_[slot];
    if (way != mru_) {
      unlink(way);
      push_front(way);
    }
    return true;
  }

  [[nodiscard]] unsigned entries() const noexcept {
    return static_cast<unsigned>(way_page_.size());
  }

 private:
  static constexpr std::uint64_t kEmpty = ~0ull;  // never a page number
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  [[nodiscard]] std::size_t home(std::uint64_t page) const noexcept {
    return static_cast<std::size_t>((page * 0x9E3779B97F4A7C15ull) >>
                                    slot_shift_);
  }
  bool install(std::uint64_t page, std::size_t slot) noexcept;
  void erase(std::uint64_t page) noexcept;
  void unlink(std::uint32_t way) noexcept;
  void push_front(std::uint32_t way) noexcept;

  std::vector<std::uint64_t> slot_page_;  // kEmpty = free slot
  std::vector<std::uint32_t> slot_way_;
  std::vector<std::uint64_t> way_page_;   // page held by each way
  std::vector<std::uint32_t> prev_;       // toward the MRU end
  std::vector<std::uint32_t> next_;       // toward the LRU end
  std::size_t slot_mask_ = 0;
  unsigned slot_shift_ = 0;
  std::uint32_t used_ = 0;  // ways filled so far (fill order 0, 1, ...)
  std::uint32_t mru_ = kNone;
  std::uint32_t lru_ = kNone;
};

/// Counter names mirroring the PAPI events collected in the paper.
struct HierarchyCounters {
  std::uint64_t total_accesses = 0;
  std::uint64_t l1_dcm = 0;  ///< PAPI_L1_DCM: L1 data cache misses
  std::uint64_t l2_dcm = 0;  ///< PAPI_L2_DCM
  std::uint64_t l3_tcm = 0;  ///< PAPI_L3_TCM: total L3 misses (DRAM trips)
  std::uint64_t tlb_dm = 0;  ///< data TLB misses

  friend bool operator==(const HierarchyCounters& a,
                         const HierarchyCounters& b) {
    return a.total_accesses == b.total_accesses && a.l1_dcm == b.l1_dcm &&
           a.l2_dcm == b.l2_dcm && a.l3_tcm == b.l3_tcm &&
           a.tlb_dm == b.tlb_dm;
  }
};

/// L1 -> L2 [-> L3] -> DRAM plus a data TLB, built from a DeviceSpec.
class CacheHierarchy {
 public:
  explicit CacheHierarchy(const DeviceSpec& spec, unsigned tlb_entries = 64,
                          unsigned page_bytes = 4096);

  /// Runs one access through the hierarchy (splitting across cache lines if
  /// it straddles a boundary).
  void access(std::uint64_t address, std::uint32_t bytes, bool is_write);
  void replay(const MemoryTrace& trace);

  /// Batched raw replay: one page of accesses per call.
  void consume(const MemAccess* page, std::size_t n);
  /// Batched line-coalesced replay (repeats credited as guaranteed hits).
  void consume_coalesced(const CoalescedAccess* page, std::size_t n);

  [[nodiscard]] const HierarchyCounters& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] bool has_l3() const noexcept { return l3_.has_value(); }
  /// Zeroes the counters; cache and TLB contents survive (the warm pass of
  /// the two-pass protocol starts from the cold pass's final state).
  void reset() noexcept { counters_ = {}; }

  /// Misses per instruction-style rates, normalised by total accesses (the
  /// paper normalises by PAPI_TOT_INS; accesses are our closest analogue).
  [[nodiscard]] double l1_miss_rate() const noexcept;
  [[nodiscard]] double l2_miss_rate() const noexcept;
  [[nodiscard]] double l3_miss_rate() const noexcept;

 private:
  CacheLevel l1_;
  CacheLevel l2_;
  std::optional<CacheLevel> l3_;
  TlbLru tlb_;
  unsigned page_shift_;
  HierarchyCounters counters_;
};

}  // namespace eod::sim
