#include "sim/counters.hpp"

#include <cmath>
#include <sstream>

namespace eod::sim {

const char* papi_name(PapiEvent e) noexcept {
  switch (e) {
    case PapiEvent::kTotIns:
      return "PAPI_TOT_INS";
    case PapiEvent::kTotCyc:
      return "PAPI_TOT_CYC";
    case PapiEvent::kL1Dcm:
      return "PAPI_L1_DCM";
    case PapiEvent::kL2Dcm:
      return "PAPI_L2_DCM";
    case PapiEvent::kL3Tcm:
      return "PAPI_L3_TCM";
    case PapiEvent::kL3Tca:
      return "PAPI_L3_TCA";
    case PapiEvent::kTlbDm:
      return "PAPI_TLB_DM";
    case PapiEvent::kBrIns:
      return "PAPI_BR_INS";
    case PapiEvent::kBrMsp:
      return "PAPI_BR_MSP";
  }
  return "PAPI_UNKNOWN";
}

double CounterSet::ipc() const {
  const auto cyc = get(PapiEvent::kTotCyc);
  return cyc == 0 ? 0.0
                  : static_cast<double>(get(PapiEvent::kTotIns)) / cyc;
}

double CounterSet::l3_request_rate() const {
  const auto ins = get(PapiEvent::kTotIns);
  return ins == 0 ? 0.0
                  : static_cast<double>(get(PapiEvent::kL3Tca)) / ins;
}

double CounterSet::l3_miss_rate() const {
  const auto ins = get(PapiEvent::kTotIns);
  return ins == 0 ? 0.0
                  : static_cast<double>(get(PapiEvent::kL3Tcm)) / ins;
}

double CounterSet::l3_miss_ratio() const {
  const auto req = get(PapiEvent::kL3Tca);
  return req == 0 ? 0.0
                  : static_cast<double>(get(PapiEvent::kL3Tcm)) / req;
}

double CounterSet::tlb_miss_rate() const {
  const auto ins = get(PapiEvent::kTotIns);
  return ins == 0 ? 0.0
                  : static_cast<double>(get(PapiEvent::kTlbDm)) / ins;
}

double CounterSet::branch_misprediction_rate() const {
  const auto br = get(PapiEvent::kBrIns);
  return br == 0 ? 0.0
                 : static_cast<double>(get(PapiEvent::kBrMsp)) / br;
}

CounterSet derive_papi_counters(const xcl::WorkloadProfile& profile,
                                const HierarchyCounters& cache,
                                double clock_ghz, double seconds,
                                unsigned simd_width) {
  CounterSet c;
  // Instruction estimate: SIMD packs `simd_width` lane-ops per retired
  // instruction (PAPI_TOT_INS counts instructions, not lanes); loads and
  // stores move up to a vector register (simd_width * 4 B) each; loop
  // overhead approximated at 10% of the op stream.
  const double width = std::max(1u, simd_width);
  const double ops = (profile.flops + profile.int_ops) / width;
  const double ldst = profile.total_bytes() / (4.0 * width);
  const auto tot_ins = static_cast<std::uint64_t>((ops + ldst) * 1.1);
  c.set(PapiEvent::kTotIns, tot_ins);
  c.set(PapiEvent::kTotCyc,
        static_cast<std::uint64_t>(seconds * clock_ghz * 1e9));
  c.set(PapiEvent::kL1Dcm, cache.l1_dcm);
  c.set(PapiEvent::kL2Dcm, cache.l2_dcm);
  c.set(PapiEvent::kL3Tcm, cache.l3_tcm);
  c.set(PapiEvent::kL3Tca, cache.l2_dcm);  // L3 requests = L2 misses
  c.set(PapiEvent::kTlbDm, cache.tlb_dm);
  // Branch stream: ~1 branch per 8 instructions; the predictor misses on
  // divergent branches (benchmark-supplied fraction) plus a 0.5% floor.
  const auto br = static_cast<std::uint64_t>(tot_ins / 8.0);
  c.set(PapiEvent::kBrIns, br);
  c.set(PapiEvent::kBrMsp,
        static_cast<std::uint64_t>(
            br * std::min(1.0, 0.005 + 0.5 * profile.branch_divergence)));
  return c;
}

std::string describe_executor_stats(const xcl::ExecutorStats& stats) {
  std::ostringstream os;
  os << "executor dispatch counters (host-side, work-stealing NDRange "
        "executor)\n";
  os << "  launches            " << stats.launches << '\n';
  os << "  work-groups run     " << stats.tasks_executed << " ("
     << stats.groups_loop << " loop, " << stats.groups_fiber << " fiber, "
     << stats.groups_span << " span, " << stats.groups_checked
     << " checked)\n";
  os << "  chunks claimed      " << stats.chunks_claimed << '\n';
  os << "  chunks stolen       " << stats.chunks_stolen << '\n';
  os << "  arena high-water    " << stats.arena_bytes_hwm << " B\n";
  os << "  fiber stacks        " << stats.fiber_stacks_created
     << " created, " << stats.fiber_stacks_reused << " reused\n";
  return os.str();
}

}  // namespace eod::sim
