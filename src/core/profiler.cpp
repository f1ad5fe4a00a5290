#include "core/profiler.hpp"

#include <sstream>

#include "analysis/table.hpp"

namespace lgg::core {

std::string_view to_string(StepPhase phase) {
  switch (phase) {
    case StepPhase::kDynamics: return "dynamics";
    case StepPhase::kInjection: return "injection";
    case StepPhase::kDeclaration: return "declaration";
    case StepPhase::kSelection: return "selection";
    case StepPhase::kScheduling: return "scheduling";
    case StepPhase::kConflict: return "conflict";
    case StepPhase::kLossApply: return "loss-apply";
    case StepPhase::kExtraction: return "extraction";
  }
  return "unknown";
}

void StepProfiler::reset() {
  phases_.fill(PhaseTotals{});
  steps_ = 0;
}

std::uint64_t StepProfiler::total_nanos() const {
  std::uint64_t total = 0;
  for (const PhaseTotals& p : phases_) total += p.nanos;
  return total;
}

std::uint64_t StepProfiler::total_cpu_nanos() const {
  std::uint64_t total = 0;
  for (const PhaseTotals& p : phases_) total += p.cpu_nanos;
  return total;
}

double StepProfiler::steps_per_second() const {
  const std::uint64_t nanos = total_nanos();
  if (steps_ == 0 || nanos == 0) return 0.0;
  return static_cast<double>(steps_) * 1e9 / static_cast<double>(nanos);
}

std::string StepProfiler::table() const {
  analysis::Table table(
      {"phase", "time ms", "share %", "ns/step", "items", "items/step"});
  const double total = static_cast<double>(total_nanos());
  const double steps = static_cast<double>(steps_ == 0 ? 1 : steps_);
  for (std::size_t i = 0; i < kStepPhaseCount; ++i) {
    const PhaseTotals& p = phases_[i];
    table.add(std::string(to_string(static_cast<StepPhase>(i))),
              static_cast<double>(p.nanos) * 1e-6,
              total == 0.0 ? 0.0
                           : 100.0 * static_cast<double>(p.nanos) / total,
              static_cast<double>(p.nanos) / steps,
              static_cast<std::int64_t>(p.items),
              static_cast<double>(p.items) / steps);
  }
  std::ostringstream os;
  os << table.to_string();
  os << "steps=" << steps_ << " profiled_ms=" << total * 1e-6
     << " steps/sec=" << steps_per_second() << "\n";
  return os.str();
}

}  // namespace lgg::core
