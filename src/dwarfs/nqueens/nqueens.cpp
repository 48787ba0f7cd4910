#include "dwarfs/nqueens/nqueens.hpp"

#include <sstream>

#include "xcl/kernel.hpp"

namespace eod::dwarfs {

std::uint64_t count_queens_host(unsigned n) {
  const std::uint32_t full = (n >= 32) ? 0xFFFFFFFFu : ((1u << n) - 1);
  // Iterative bitmask DFS.
  struct Frame {
    std::uint32_t cols, ld, rd;
  };
  std::uint64_t solutions = 0;
  std::vector<Frame> stack;
  stack.push_back({0, 0, 0});
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (f.cols == full) {
      ++solutions;
      continue;
    }
    std::uint32_t avail = full & ~(f.cols | f.ld | f.rd);
    while (avail != 0) {
      const std::uint32_t bit = avail & (~avail + 1);
      avail ^= bit;
      stack.push_back({f.cols | bit, ((f.ld | bit) << 1) & full,
                       (f.rd | bit) >> 1});
    }
  }
  return solutions;
}

std::size_t expand_frontier_host(unsigned n,
                                 const std::vector<QueenNode>& frontier,
                                 std::vector<QueenNode>* out) {
  const std::uint32_t full = (1u << n) - 1;
  std::size_t count = 0;
  for (const QueenNode& f : frontier) {
    std::uint32_t avail = full & ~(f.cols | f.left_diag | f.right_diag);
    while (avail != 0) {
      const std::uint32_t bit = avail & (~avail + 1);
      avail ^= bit;
      if (out != nullptr) {
        out->push_back({f.cols | bit, ((f.left_diag | bit) << 1) & full,
                        (f.right_diag | bit) >> 1});
      }
      ++count;
    }
  }
  return count;
}

std::size_t Nqueens::footprint_bytes(ProblemSize) const {
  // Frontier + child slots (board per node) + per-node counts.  Computed
  // from the deterministic depth-depth_ frontier of the board.
  std::vector<QueenNode> frontier{{0, 0, 0}};
  for (unsigned d = 0; d < depth_; ++d) {
    std::vector<QueenNode> next;
    expand_frontier_host(board_, frontier, &next);
    frontier.swap(next);
  }
  return frontier.size() * sizeof(QueenNode) +
         frontier.size() * board_ * sizeof(QueenNode) +
         frontier.size() * sizeof(std::uint32_t);
}

void Nqueens::setup(ProblemSize) { configure(kBoard, kDepth); }

void Nqueens::configure(unsigned board, unsigned depth) {
  require(board >= 4 && board <= 28, xcl::Status::kInvalidValue,
          "nqueens board must be in [4, 28]");
  require(depth >= 1 && depth < board, xcl::Status::kInvalidValue,
          "nqueens expansion depth must be in [1, board)");
  board_ = board;
  depth_ = depth;
  frontier_.assign(1, {0, 0, 0});
  for (unsigned d = 0; d < depth_; ++d) {
    std::vector<QueenNode> next;
    expand_frontier_host(board_, frontier_, &next);
    frontier_.swap(next);
  }
  children_.assign(frontier_.size() * board_, {});
  child_counts_.assign(frontier_.size(), 0);
}

void Nqueens::bind(xcl::Context& ctx, xcl::Queue& q) {
  queue_ = &q;
  frontier_buf_.emplace(ctx, frontier_.size() * sizeof(QueenNode));
  children_buf_.emplace(ctx, children_.size() * sizeof(QueenNode));
  counts_buf_.emplace(ctx, child_counts_.size() * sizeof(std::uint32_t));
  q.enqueue_write<QueenNode>(*frontier_buf_, frontier_);
}

void Nqueens::run() {
  const std::size_t items = frontier_.size();
  const unsigned board = board_;
  const std::uint32_t full = (1u << board) - 1;
  auto frontier = frontier_buf_->access<const QueenNode>("frontier");
  auto children = children_buf_->access<QueenNode>("children");
  auto counts = counts_buf_->access<std::uint32_t>("child_counts");

  xcl::Kernel kernel("nqueens_expand", [=](xcl::WorkItem& it) {
    const std::size_t i = it.global_id(0);
    if (i >= items) return;
    const QueenNode f = frontier[i];
    std::uint32_t avail = full & ~(f.cols | f.left_diag | f.right_diag);
    std::uint32_t n_children = 0;
    while (avail != 0) {
      const std::uint32_t bit = avail & (~avail + 1);
      avail ^= bit;
      children[i * board + n_children] = {
          f.cols | bit, ((f.left_diag | bit) << 1) & full,
          (f.right_diag | bit) >> 1};
      ++n_children;
    }
    counts[i] = n_children;
  });

  xcl::WorkloadProfile prof;
  // ~8 mask ops per candidate column plus per-node bookkeeping.
  prof.int_ops = static_cast<double>(items) * (board * 8.0 + 12.0);
  prof.bytes_read = static_cast<double>(items) * sizeof(QueenNode);
  prof.bytes_written = static_cast<double>(items) *
                       (board * 0.7 * sizeof(QueenNode) +
                        sizeof(std::uint32_t));
  prof.working_set_bytes = static_cast<double>(footprint_bytes(
      ProblemSize::kTiny));
  prof.pattern = xcl::AccessPattern::kStreaming;
  // Every node has a different feasible-column set: heavy SIMD divergence,
  // the hallmark of backtracking search on wide devices.
  prof.branch_divergence = 0.5;
  const std::size_t wg = 64;
  queue_->enqueue(kernel, xcl::NDRange((items + wg - 1) / wg * wg, wg),
                  prof);
}

void Nqueens::finish() {
  queue_->enqueue_read<QueenNode>(*children_buf_, std::span(children_));
  queue_->enqueue_read<std::uint32_t>(*counts_buf_,
                                      std::span(child_counts_));
}

std::uint64_t Nqueens::result_signature() const {
  // Slots past a node's child count are never written: keep them out.
  std::uint64_t h = hash_result<std::uint32_t>(child_counts_);
  for (std::size_t i = 0; i < child_counts_.size(); ++i) {
    h = hash_result<QueenNode>(
        std::span(children_).subspan(i * board_, child_counts_[i]), h);
  }
  return h;
}

Validation Nqueens::validate() {
  std::vector<QueenNode> want;
  expand_frontier_host(board_, frontier_, &want);
  // Reassemble the device's compacted children in frontier order.
  std::vector<QueenNode> got;
  got.reserve(want.size());
  for (std::size_t i = 0; i < frontier_.size(); ++i) {
    for (std::uint32_t k = 0; k < child_counts_[i]; ++k) {
      got.push_back(children_[i * board_ + k]);
    }
  }
  Validation v;
  std::size_t bad = got.size() == want.size() ? 0 : want.size();
  if (bad == 0) {
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (got[i].cols != want[i].cols ||
          got[i].left_diag != want[i].left_diag ||
          got[i].right_diag != want[i].right_diag) {
        ++bad;
      }
    }
  }
  v.error = static_cast<double>(bad);
  v.ok = bad == 0;
  std::ostringstream os;
  os << "nqueens: " << bad << " of " << want.size()
     << " expanded nodes mismatch (device " << got.size() << " nodes)";
  v.detail = os.str();
  return v;
}

void Nqueens::unbind() {
  counts_buf_.reset();
  children_buf_.reset();
  frontier_buf_.reset();
  queue_ = nullptr;
}

}  // namespace eod::dwarfs
