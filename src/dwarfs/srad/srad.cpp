#include "dwarfs/srad/srad.hpp"

#include <algorithm>
#include <cmath>

#include "xcl/kernel.hpp"
#include "xcl/simd.hpp"

namespace eod::dwarfs {

namespace {

// ROI statistics (paper args fix the ROI at rows/cols 0..127, clamped to
// the grid) -> q0sqr, the speckle-scale estimate.
float roi_q0sqr(const std::vector<float>& j, std::size_t rows,
                std::size_t cols) {
  const std::size_t r1 = std::min<std::size_t>(127, rows - 1);
  const std::size_t c1 = std::min<std::size_t>(127, cols - 1);
  double sum = 0.0;
  double sum2 = 0.0;
  std::size_t count = 0;
  for (std::size_t r = 0; r <= r1; ++r) {
    for (std::size_t c = 0; c <= c1; ++c) {
      const double v = j[r * cols + c];
      sum += v;
      sum2 += v * v;
      ++count;
    }
  }
  const double mean = sum / static_cast<double>(count);
  const double var = sum2 / static_cast<double>(count) - mean * mean;
  return static_cast<float>(var / (mean * mean));
}

}  // namespace

Srad::Extent Srad::extent_for(ProblemSize s) {
  switch (s) {
    case ProblemSize::kTiny:
      return {80, 16};
    case ProblemSize::kSmall:
      return {128, 80};
    case ProblemSize::kMedium:
      return {1024, 336};
    case ProblemSize::kLarge:
      return {2048, 1024};
  }
  return {};
}

void Srad::setup(ProblemSize size) {
  const Extent e = extent_for(size);
  configure({e.rows, e.cols, kLambda, 1});
}

void Srad::configure(const Params& params) {
  require(params.rows >= 2 && params.cols >= 2, xcl::Status::kInvalidValue,
          "srad grid must be at least 2x2");
  require(params.lambda > 0.0f && params.lambda <= 1.0f,
          xcl::Status::kInvalidValue, "srad lambda must be in (0, 1]");
  extent_ = {params.rows, params.cols};
  lambda_ = params.lambda;
  iterations_ = std::max(1u, params.iterations);
  SplitMix64 rng(0x73726164ull);  // "srad"
  j_in_.resize(extent_.rows * extent_.cols);
  // Rodinia seeds J = exp(image); a positive speckled field works the same.
  for (float& v : j_in_) v = std::exp(rng.uniform(0.0f, 1.0f));
  j_out_.assign(j_in_.size(), 0.0f);
  q0sqr_ = roi_q0sqr(j_in_, extent_.rows, extent_.cols);
}

void Srad::bind(xcl::Context& ctx, xcl::Queue& q) {
  queue_ = &q;
  const std::size_t bytes = j_in_.size() * sizeof(float);
  j_buf_.emplace(ctx, bytes);
  c_buf_.emplace(ctx, bytes);
  dn_buf_.emplace(ctx, bytes);
  ds_buf_.emplace(ctx, bytes);
  dw_buf_.emplace(ctx, bytes);
  de_buf_.emplace(ctx, bytes);
}

void Srad::run() {
  const std::size_t rows = extent_.rows;
  const std::size_t cols = extent_.cols;
  const float q0 = q0sqr_;
  const float lam = lambda_;
  // lint: no-deps(first upload: blocking, no producers to wait on)
  const xcl::Event j_write = queue_->enqueue_write<float>(*j_buf_, j_in_);

  auto j = j_buf_->access<float>("j");
  auto c = c_buf_->access<float>("c");
  auto dn = dn_buf_->access<float>("dn");
  auto ds = ds_buf_->access<float>("ds");
  auto dw = dw_buf_->access<float>("dw");
  auto de = de_buf_->access<float>("de");

  // Halo-exchange decomposition (DESIGN.md §12): the grid is split into a
  // top and bottom row band; each band's stencil kernel waits only on the
  // kernels that produced the rows it reads (its own band plus the one
  // halo row across the boundary).  The per-cell arithmetic is byte-
  // identical to the whole-grid kernels, so results match the in-order
  // path bit for bit -- only the expressed dependencies are finer.
  auto make_srad1 = [=](std::size_t base, std::size_t limit) {
    xcl::Kernel k("srad_cuda_1", [=](xcl::WorkItem& it) {
      const std::size_t idx = base + it.global_id(0);
      if (idx >= limit) return;
      const std::size_t r = idx / cols;
    const std::size_t col = idx % cols;
    const std::size_t rn = r == 0 ? 0 : r - 1;
    const std::size_t rs = r == rows - 1 ? rows - 1 : r + 1;
    const std::size_t cw = col == 0 ? 0 : col - 1;
    const std::size_t ce = col == cols - 1 ? cols - 1 : col + 1;
    const float jc = j[idx];
    const float n = j[rn * cols + col] - jc;
    const float s = j[rs * cols + col] - jc;
    const float w = j[r * cols + cw] - jc;
    const float e = j[r * cols + ce] - jc;
    dn[idx] = n;
    ds[idx] = s;
    dw[idx] = w;
    de[idx] = e;
    const float g2 = (n * n + s * s + w * w + e * e) / (jc * jc);
    const float l = (n + s + w + e) / jc;
    const float num = 0.5f * g2 - (1.0f / 16.0f) * l * l;
    const float den1 = 1.0f + 0.25f * l;
    const float qsqr = num / (den1 * den1);
    const float den2 = (qsqr - q0) / (q0 * (1.0f + q0));
    c[idx] = std::clamp(1.0f / (1.0f + den2), 0.0f, 1.0f);
    });

    // Span tier for both stencil passes: a contiguous run of flat cells
    // per call; the six planes are distinct buffers, so every pointer is
    // restrict-qualified and the interior cells vectorize.
    k.span([=](std::size_t lo, std::size_t hi) {
    const float* EOD_RESTRICT jp = j.data();
    float* EOD_RESTRICT cp = c.data();
    float* EOD_RESTRICT dnp = dn.data();
    float* EOD_RESTRICT dsp = ds.data();
    float* EOD_RESTRICT dwp = dw.data();
    float* EOD_RESTRICT dep = de.data();
    for (std::size_t idx = base + lo, last = std::min(base + hi, limit);
         idx < last; ++idx) {
      const std::size_t r = idx / cols;
      const std::size_t col = idx % cols;
      const std::size_t rn = r == 0 ? 0 : r - 1;
      const std::size_t rs = r == rows - 1 ? rows - 1 : r + 1;
      const std::size_t cw = col == 0 ? 0 : col - 1;
      const std::size_t ce = col == cols - 1 ? cols - 1 : col + 1;
      const float jc = jp[idx];
      const float n = jp[rn * cols + col] - jc;
      const float s = jp[rs * cols + col] - jc;
      const float w = jp[r * cols + cw] - jc;
      const float e = jp[r * cols + ce] - jc;
      dnp[idx] = n;
      dsp[idx] = s;
      dwp[idx] = w;
      dep[idx] = e;
      const float g2 = (n * n + s * s + w * w + e * e) / (jc * jc);
      const float l = (n + s + w + e) / jc;
      const float num = 0.5f * g2 - (1.0f / 16.0f) * l * l;
      const float den1 = 1.0f + 0.25f * l;
      const float qsqr = num / (den1 * den1);
      const float den2 = (qsqr - q0) / (q0 * (1.0f + q0));
      cp[idx] = std::clamp(1.0f / (1.0f + den2), 0.0f, 1.0f);
    }
    });

    // Simd tier (DESIGN.md §13): W contiguous cells of one row at a time.
    // A block is vectorized only when every lane is an interior column
    // (the west/east clamps are no-ops) and the block does not cross a row
    // boundary; edge cells take the scalar path below, which is the span
    // body's loop verbatim.  Row clamps rn/rs are uniform across the
    // block, so the north/south neighbours are plain shifted loads.  Every
    // vector expression mirrors the scalar parse order, and the clamp is
    // two mask selects with std::clamp's exact comparison semantics
    // (including NaN and -0.0 pass-through).
    k.simd([=](std::size_t lo, std::size_t hi) {
      namespace sv = xcl::simd;
      constexpr std::size_t W = sv::kLanes;
      const float* EOD_RESTRICT jp = j.data();
      float* EOD_RESTRICT cp = c.data();
      float* EOD_RESTRICT dnp = dn.data();
      float* EOD_RESTRICT dsp = ds.data();
      float* EOD_RESTRICT dwp = dw.data();
      float* EOD_RESTRICT dep = de.data();
      const float den0 = q0 * (1.0f + q0);
      const sv::vfloat half = sv::vbroadcast(0.5f);
      const sv::vfloat sixteenth = sv::vbroadcast(1.0f / 16.0f);
      const sv::vfloat quarter = sv::vbroadcast(0.25f);
      const sv::vfloat one = sv::vbroadcast(1.0f);
      const sv::vfloat zero = sv::vbroadcast(0.0f);
      const sv::vfloat q0v = sv::vbroadcast(q0);
      const sv::vfloat den0v = sv::vbroadcast(den0);
      std::size_t idx = base + lo;
      const std::size_t last = std::min(base + hi, limit);
      while (idx < last) {
        const std::size_t r = idx / cols;
        const std::size_t col = idx % cols;
        if (W > 1 && col >= 1 && col + W <= cols - 1 && idx + W <= last) {
          const std::size_t rn = r == 0 ? 0 : r - 1;
          const std::size_t rs = r == rows - 1 ? rows - 1 : r + 1;
          const sv::vfloat jc = sv::vload(jp + idx);
          const sv::vfloat n = sv::vload(jp + rn * cols + col) - jc;
          const sv::vfloat s = sv::vload(jp + rs * cols + col) - jc;
          const sv::vfloat w = sv::vload(jp + idx - 1) - jc;
          const sv::vfloat e = sv::vload(jp + idx + 1) - jc;
          sv::vstore(dnp + idx, n);
          sv::vstore(dsp + idx, s);
          sv::vstore(dwp + idx, w);
          sv::vstore(dep + idx, e);
          const sv::vfloat g2 =
              (n * n + s * s + w * w + e * e) / (jc * jc);
          const sv::vfloat l = (n + s + w + e) / jc;
          const sv::vfloat num = half * g2 - sixteenth * l * l;
          const sv::vfloat den1 = one + quarter * l;
          const sv::vfloat qsqr = num / (den1 * den1);
          const sv::vfloat den2 = (qsqr - q0v) / den0v;
          const sv::vfloat raw = one / (one + den2);
          const sv::vfloat lo_clamped =
              sv::vselect(sv::vlt(raw, zero), zero, raw);
          sv::vstore(cp + idx,
                     sv::vselect(sv::vlt(one, lo_clamped), one, lo_clamped));
          idx += W;
          continue;
        }
        const std::size_t rn = r == 0 ? 0 : r - 1;
        const std::size_t rs = r == rows - 1 ? rows - 1 : r + 1;
        const std::size_t cw = col == 0 ? 0 : col - 1;
        const std::size_t ce = col == cols - 1 ? cols - 1 : col + 1;
        const float jc = jp[idx];
        const float n = jp[rn * cols + col] - jc;
        const float s = jp[rs * cols + col] - jc;
        const float w = jp[r * cols + cw] - jc;
        const float e = jp[r * cols + ce] - jc;
        dnp[idx] = n;
        dsp[idx] = s;
        dwp[idx] = w;
        dep[idx] = e;
        const float g2 = (n * n + s * s + w * w + e * e) / (jc * jc);
        const float l = (n + s + w + e) / jc;
        const float num = 0.5f * g2 - (1.0f / 16.0f) * l * l;
        const float den1 = 1.0f + 0.25f * l;
        const float qsqr = num / (den1 * den1);
        const float den2 = (qsqr - q0) / den0;
        cp[idx] = std::clamp(1.0f / (1.0f + den2), 0.0f, 1.0f);
        ++idx;
      }
    });
    return k;
  };

  auto make_srad2 = [=](std::size_t base, std::size_t limit) {
    xcl::Kernel k("srad_cuda_2", [=](xcl::WorkItem& it) {
      const std::size_t idx = base + it.global_id(0);
      if (idx >= limit) return;
      const std::size_t r = idx / cols;
      const std::size_t col = idx % cols;
      const std::size_t rs = r == rows - 1 ? rows - 1 : r + 1;
      const std::size_t ce = col == cols - 1 ? cols - 1 : col + 1;
      const float cc = c[idx];
      const float cs = c[rs * cols + col];
      const float cev = c[r * cols + ce];
      const float d =
          cc * dn[idx] + cs * ds[idx] + cc * dw[idx] + cev * de[idx];
      j[idx] += 0.25f * lam * d;
    });

    k.span([=](std::size_t lo, std::size_t hi) {
    float* EOD_RESTRICT jp = j.data();
    const float* EOD_RESTRICT cp = c.data();
    const float* EOD_RESTRICT dnp = dn.data();
    const float* EOD_RESTRICT dsp = ds.data();
    const float* EOD_RESTRICT dwp = dw.data();
    const float* EOD_RESTRICT dep = de.data();
    for (std::size_t idx = base + lo, last = std::min(base + hi, limit);
         idx < last; ++idx) {
      const std::size_t r = idx / cols;
      const std::size_t col = idx % cols;
      const std::size_t rs = r == rows - 1 ? rows - 1 : r + 1;
      const std::size_t ce = col == cols - 1 ? cols - 1 : col + 1;
      const float cc = cp[idx];
      const float cs = cp[rs * cols + col];
      const float cev = cp[r * cols + ce];
      const float d =
          cc * dnp[idx] + cs * dsp[idx] + cc * dwp[idx] + cev * dep[idx];
      jp[idx] += 0.25f * lam * d;
    }
    });

    // Simd tier: same blocking rule as srad_cuda_1 -- W interior cells of
    // one row per step, scalar elsewhere.  Only the east/south neighbours
    // matter here, so the column guard is one-sided.
    k.simd([=](std::size_t lo, std::size_t hi) {
      namespace sv = xcl::simd;
      constexpr std::size_t W = sv::kLanes;
      float* EOD_RESTRICT jp = j.data();
      const float* EOD_RESTRICT cp = c.data();
      const float* EOD_RESTRICT dnp = dn.data();
      const float* EOD_RESTRICT dsp = ds.data();
      const float* EOD_RESTRICT dwp = dw.data();
      const float* EOD_RESTRICT dep = de.data();
      const float scale = 0.25f * lam;
      const sv::vfloat scalev = sv::vbroadcast(scale);
      std::size_t idx = base + lo;
      const std::size_t last = std::min(base + hi, limit);
      while (idx < last) {
        const std::size_t r = idx / cols;
        const std::size_t col = idx % cols;
        if (W > 1 && col + W <= cols - 1 && idx + W <= last) {
          const std::size_t rs = r == rows - 1 ? rows - 1 : r + 1;
          const sv::vfloat cc = sv::vload(cp + idx);
          const sv::vfloat cs = sv::vload(cp + rs * cols + col);
          const sv::vfloat cev = sv::vload(cp + idx + 1);
          const sv::vfloat d = cc * sv::vload(dnp + idx) +
                               cs * sv::vload(dsp + idx) +
                               cc * sv::vload(dwp + idx) +
                               cev * sv::vload(dep + idx);
          sv::vstore(jp + idx, sv::vload(jp + idx) + scalev * d);
          idx += W;
          continue;
        }
        const std::size_t rs = r == rows - 1 ? rows - 1 : r + 1;
        const std::size_t ce = col == cols - 1 ? cols - 1 : col + 1;
        const float cc = cp[idx];
        const float cs = cp[rs * cols + col];
        const float cev = cp[r * cols + ce];
        const float d =
            cc * dnp[idx] + cs * dsp[idx] + cc * dwp[idx] + cev * dep[idx];
        jp[idx] += scale * d;
        ++idx;
      }
    });
    return k;
  };

  // Streaming terms scale with the band; the working set stays the whole
  // grid's six planes -- the two bands run over the same cache within one
  // pass, so a band never gains a cache fit the full grid lacks.
  const double all_cells = static_cast<double>(rows) * cols;
  auto make_p1 = [all_cells](double cells) {
    xcl::WorkloadProfile p;
    p.flops = cells * 22.0;
    p.int_ops = cells * 12.0;
    p.bytes_read = cells * 5 * sizeof(float);
    p.bytes_written = cells * 5 * sizeof(float);
    p.working_set_bytes = all_cells * 6 * sizeof(float);
    p.pattern = xcl::AccessPattern::kStencil;
    return p;
  };
  auto make_p2 = [all_cells](double cells) {
    xcl::WorkloadProfile p;
    p.flops = cells * 8.0;
    p.int_ops = cells * 10.0;
    p.bytes_read = cells * 7 * sizeof(float);
    p.bytes_written = cells * sizeof(float);
    p.working_set_bytes = all_cells * 6 * sizeof(float);
    p.pattern = xcl::AccessPattern::kStencil;
    return p;
  };

  // Top band: rows [0, rows/2); bottom band: the rest.  Each srad1 band
  // reads the j halo row across the boundary (written by the *other*
  // band's srad2 of the previous iteration), and each srad2 band must
  // follow both srad1 bands: srad2 overwrites j rows whose halo the other
  // band's srad1 still reads, and srad2's own c halo row is produced by
  // the neighbouring srad1.  Within a pass the two bands share no edges,
  // so an out-of-order queue runs them concurrently.
  const std::size_t total = rows * cols;
  const std::size_t band = (rows / 2) * cols;
  const std::size_t wg = 64;
  const xcl::Kernel srad1_top = make_srad1(0, band);
  const xcl::Kernel srad1_bot = make_srad1(band, total);
  const xcl::Kernel srad2_top = make_srad2(0, band);
  const xcl::Kernel srad2_bot = make_srad2(band, total);
  const xcl::WorkloadProfile p1_top = make_p1(static_cast<double>(band));
  const xcl::WorkloadProfile p1_bot =
      make_p1(static_cast<double>(total - band));
  const xcl::WorkloadProfile p2_top = make_p2(static_cast<double>(band));
  const xcl::WorkloadProfile p2_bot =
      make_p2(static_cast<double>(total - band));
  const xcl::NDRange range_top((band + wg - 1) / wg * wg, wg);
  const xcl::NDRange range_bot((total - band + wg - 1) / wg * wg, wg);

  xcl::Event s2_top = j_write;
  xcl::Event s2_bot = j_write;
  for (unsigned iter = 0; iter < iterations_; ++iter) {
    const xcl::Event prev[] = {s2_top, s2_bot};
    const xcl::Event s1_top =
        queue_->enqueue(srad1_top, range_top, p1_top, prev);
    const xcl::Event s1_bot =
        queue_->enqueue(srad1_bot, range_bot, p1_bot, prev);
    const xcl::Event stage1[] = {s1_top, s1_bot};
    s2_top = queue_->enqueue(srad2_top, range_top, p2_top, stage1);
    s2_bot = queue_->enqueue(srad2_bot, range_bot, p2_bot, stage1);
  }
}

void Srad::finish() {
  // lint: no-deps(blocking read drains the wavefront chain by design)
  queue_->enqueue_read<float>(*j_buf_, std::span(j_out_));
}

Validation Srad::validate() {
  const std::size_t rows = extent_.rows;
  const std::size_t cols = extent_.cols;
  std::vector<float> jr = j_in_;
  std::vector<float> cr(jr.size()), dnr(jr.size()), dsr(jr.size()),
      dwr(jr.size()), der(jr.size());
  for (unsigned iter = 0; iter < iterations_; ++iter) {
  for (std::size_t idx = 0; idx < jr.size(); ++idx) {
    const std::size_t r = idx / cols;
    const std::size_t col = idx % cols;
    const std::size_t rn = r == 0 ? 0 : r - 1;
    const std::size_t rs = r == rows - 1 ? rows - 1 : r + 1;
    const std::size_t cw = col == 0 ? 0 : col - 1;
    const std::size_t ce = col == cols - 1 ? cols - 1 : col + 1;
    const float jc = jr[idx];
    const float n = jr[rn * cols + col] - jc;
    const float s = jr[rs * cols + col] - jc;
    const float w = jr[r * cols + cw] - jc;
    const float e = jr[r * cols + ce] - jc;
    dnr[idx] = n;
    dsr[idx] = s;
    dwr[idx] = w;
    der[idx] = e;
    const float g2 = (n * n + s * s + w * w + e * e) / (jc * jc);
    const float l = (n + s + w + e) / jc;
    const float num = 0.5f * g2 - (1.0f / 16.0f) * l * l;
    const float den1 = 1.0f + 0.25f * l;
    const float qsqr = num / (den1 * den1);
    const float den2 = (qsqr - q0sqr_) / (q0sqr_ * (1.0f + q0sqr_));
    cr[idx] = std::clamp(1.0f / (1.0f + den2), 0.0f, 1.0f);
  }
  for (std::size_t idx = 0; idx < jr.size(); ++idx) {
    const std::size_t r = idx / cols;
    const std::size_t col = idx % cols;
    const std::size_t rs = r == rows - 1 ? rows - 1 : r + 1;
    const std::size_t ce = col == cols - 1 ? cols - 1 : col + 1;
    const float d = cr[idx] * dnr[idx] + cr[rs * cols + col] * dsr[idx] +
                    cr[idx] * dwr[idx] + cr[r * cols + ce] * der[idx];
    jr[idx] += 0.25f * lambda_ * d;
  }
  }
  return validate_norm(j_out_, jr, 1e-6, "srad diffusion steps");
}

constexpr unsigned kTraceVersion = 1;  // see Dwarf::stream_trace

void Srad::stream_trace(sim::TraceWriter& out) const {
  if (out.keyed("srad", kTraceVersion, {extent_.rows, extent_.cols})) {
    return;
  }
  // One diffusion step: srad1's 5-point stencil reads + coefficient and
  // derivative writes, then srad2's coefficient-weighted update.
  const std::size_t rows = extent_.rows;
  const std::size_t cols = extent_.cols;
  const std::uint64_t cells = rows * cols;
  const std::uint64_t j_base = 0x10000;
  const std::uint64_t c_base = j_base + cells * 4;
  const std::uint64_t d_base = c_base + cells * 4;  // dN,dS,dW,dE packed
  for (std::size_t idx = 0; idx < cells; ++idx) {
    const std::size_t r = idx / cols;
    const std::size_t col = idx % cols;
    const std::size_t rn = r == 0 ? 0 : r - 1;
    const std::size_t rs = r == rows - 1 ? rows - 1 : r + 1;
    const std::size_t cw = col == 0 ? 0 : col - 1;
    const std::size_t ce = col == cols - 1 ? cols - 1 : col + 1;
    out.emit(j_base + idx * 4, 4, false);
    out.emit(j_base + (rn * cols + col) * 4, 4, false);
    out.emit(j_base + (rs * cols + col) * 4, 4, false);
    out.emit(j_base + (r * cols + cw) * 4, 4, false);
    out.emit(j_base + (r * cols + ce) * 4, 4, false);
    for (unsigned k = 0; k < 4; ++k) {
      out.emit(d_base + (k * cells + idx) * 4, 4, true);
    }
    out.emit(c_base + idx * 4, 4, true);
  }
  for (std::size_t idx = 0; idx < cells; ++idx) {
    const std::size_t r = idx / cols;
    const std::size_t col = idx % cols;
    const std::size_t rs = r == rows - 1 ? rows - 1 : r + 1;
    const std::size_t ce = col == cols - 1 ? cols - 1 : col + 1;
    out.emit(c_base + idx * 4, 4, false);
    out.emit(c_base + (rs * cols + col) * 4, 4, false);
    out.emit(c_base + (r * cols + ce) * 4, 4, false);
    for (unsigned k = 0; k < 4; ++k) {
      out.emit(d_base + (k * cells + idx) * 4, 4, false);
    }
    out.emit(j_base + idx * 4, 4, true);
  }
}

std::size_t Srad::trace_size_hint() const {
  // 10 accesses per cell in srad1 + 8 in srad2.
  return 18 * std::size_t{extent_.rows} * extent_.cols;
}

void Srad::unbind() {
  de_buf_.reset();
  dw_buf_.reset();
  ds_buf_.reset();
  dn_buf_.reset();
  c_buf_.reset();
  j_buf_.reset();
  queue_ = nullptr;
}

}  // namespace eod::dwarfs
