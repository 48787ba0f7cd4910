// N-Queens -- the Backtrack & Branch-and-Bound dwarf.
//
// The application counts valid queen placements on an n x n board (Table 2:
// n = 18, single problem size -- "memory footprint scales very slowly ...
// thus it is significantly compute-bound and only one problem size is
// tested").  The search proceeds as iterated frontier expansion: the host
// keeps a frontier of partial placements (bitmask triples) and the kernel
// expands every frontier node by one row.  The measured kernel is one
// expansion step at a representative depth; kernels are highly divergent
// (each node has a different number of feasible columns), which is the
// characteristic the dwarf stresses on SIMD devices.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dwarfs/common.hpp"

namespace eod::dwarfs {

/// One partial placement: occupied-column and diagonal masks.
struct QueenNode {
  std::uint32_t cols = 0;
  std::uint32_t left_diag = 0;
  std::uint32_t right_diag = 0;
};

/// Full bitmask DFS count of n-queens solutions (serial reference; used by
/// tests against the known solution counts).
[[nodiscard]] std::uint64_t count_queens_host(unsigned n);

/// Expands `frontier` by one row on the host (serial reference for kernel
/// validation); appends children to `out` and returns the child count.
std::size_t expand_frontier_host(unsigned n,
                                 const std::vector<QueenNode>& frontier,
                                 std::vector<QueenNode>* out);

class Nqueens final : public Dwarf {
 public:
  static constexpr unsigned kBoard = 18;   // Table 2
  static constexpr unsigned kDepth = 4;    // frontier depth of the measured
                                           // expansion step

  /// Custom board size / expansion depth; setup() is the Table 2 preset
  /// configure(kBoard, kDepth).
  void configure(unsigned board, unsigned depth);

  [[nodiscard]] std::string name() const override { return "nqueens"; }
  [[nodiscard]] std::string berkeley_dwarf() const override {
    return "Backtrack & Branch and Bound";
  }
  [[nodiscard]] std::vector<ProblemSize> supported_sizes() const override {
    return {ProblemSize::kTiny};  // single problem size, as in the paper
  }
  [[nodiscard]] std::string scale_parameter(ProblemSize) const override {
    return std::to_string(kBoard);
  }
  [[nodiscard]] std::size_t footprint_bytes(ProblemSize) const override;
  [[nodiscard]] unsigned board() const noexcept { return board_; }

  void setup(ProblemSize size) override;
  void bind(xcl::Context& ctx, xcl::Queue& q) override;
  void run() override;
  void finish() override;
  [[nodiscard]] Validation validate() override;
  void unbind() override;

  /// Child counts, then each node's compacted children, byte-exact.
  [[nodiscard]] std::uint64_t result_signature() const override;

 private:
  unsigned board_ = kBoard;
  unsigned depth_ = kDepth;
  std::vector<QueenNode> frontier_;
  std::vector<QueenNode> children_;        // read back from the device
  std::vector<std::uint32_t> child_counts_;

  xcl::Queue* queue_ = nullptr;
  std::optional<xcl::Buffer> frontier_buf_;
  std::optional<xcl::Buffer> children_buf_;
  std::optional<xcl::Buffer> counts_buf_;
};

}  // namespace eod::dwarfs
