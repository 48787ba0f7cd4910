// Baum-Welch HMM training -- the Graphical Models dwarf.
//
// One Baum-Welch iteration: scaled forward and backward sweeps (one
// work-group kernel per time step, normalising through barriers), then
// gamma / xi accumulation and the A/B re-estimation kernels.  Table 2 sets
// (N states, S symbols) per class; as in the paper, "validation of the
// correctness of results has not occurred apart from over the tiny problem
// size, as such, it is the only size examined in the evaluation" -- this
// implementation validates tiny against a double-precision serial reference
// and restricts supported_sizes() to tiny.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dwarfs/common.hpp"

namespace eod::dwarfs {

/// A discrete HMM: N states, S symbols, row-stochastic A (NxN), B (NxS),
/// initial distribution pi.
struct HmmModel {
  unsigned n_states = 0;
  unsigned n_symbols = 0;
  std::vector<float> a;   // N x N
  std::vector<float> b;   // N x S
  std::vector<float> pi;  // N
};

/// Deterministically generates a random row-stochastic model.
[[nodiscard]] HmmModel generate_hmm(unsigned states, unsigned symbols,
                                    std::uint64_t seed);

/// Serial double-precision Baum-Welch single iteration; returns the updated
/// model and (optionally) the observation log-likelihood under the input
/// model.
[[nodiscard]] HmmModel baum_welch_reference(
    const HmmModel& model, const std::vector<std::uint8_t>& obs,
    double* log_likelihood = nullptr);

class Hmm final : public Dwarf {
 public:
  static constexpr std::size_t kSeqLen = 64;  // observation sequence length

  struct Params {
    unsigned states = 0;
    unsigned symbols = 0;
  };
  /// Table 2, hmm row: (Phi1, Phi2) = (states, symbols).
  [[nodiscard]] static Params params_for(ProblemSize s);

  /// Custom model shape; setup(size) is the Table 2 preset
  /// configure(params_for(size), kSeqLen).  States must fit a work-group.
  void configure(const Params& params, std::size_t seq_len);

  [[nodiscard]] std::string name() const override { return "hmm"; }
  [[nodiscard]] std::string berkeley_dwarf() const override {
    return "Graphical Models";
  }
  [[nodiscard]] std::vector<ProblemSize> supported_sizes() const override {
    return {ProblemSize::kTiny};
  }
  [[nodiscard]] std::string scale_parameter(ProblemSize s) const override {
    const Params p = params_for(s);
    return std::to_string(p.states) + "," + std::to_string(p.symbols);
  }
  [[nodiscard]] std::size_t footprint_bytes(ProblemSize s) const override;

  void setup(ProblemSize size) override;
  void bind(xcl::Context& ctx, xcl::Queue& q) override;
  void run() override;
  void finish() override;
  [[nodiscard]] Validation validate() override;
  void unbind() override;

  /// Re-estimated A then B matrices, byte-exact.
  [[nodiscard]] std::uint64_t result_signature() const override {
    return hash_result<float>(new_b_, hash_result<float>(new_a_));
  }

 private:
  Params params_;
  std::size_t seq_len_ = kSeqLen;
  HmmModel model_;
  std::vector<std::uint8_t> obs_;
  std::vector<float> new_a_;
  std::vector<float> new_b_;

  xcl::Queue* queue_ = nullptr;
  std::optional<xcl::Buffer> a_buf_, b_buf_, pi_buf_, obs_buf_;
  std::optional<xcl::Buffer> alpha_buf_, beta_buf_, gamma_buf_;
  std::optional<xcl::Buffer> denom_buf_, xi_denom_buf_;
  std::optional<xcl::Buffer> new_a_buf_, new_b_buf_;
};

}  // namespace eod::dwarfs
