// The four optimization methods of Table II:
//   EM    Enumeration          + Measurements
//   EML   Enumeration          + Machine Learning
//   SAM   Simulated Annealing  + Measurements
//   SAML  Simulated Annealing  + Machine Learning
//
// Each is a TuningSession::preset (tuning_session.hpp). Methods that search
// with ML predictions are nevertheless *scored* with a measurement of the
// winning configuration ("for fair comparison we use the measured values",
// §IV-C) — which is why EML can end up worse than SAM in Fig. 9.
#pragma once

#include <string_view>

#include "core/tuning_session.hpp"
#include "core/workload.hpp"
#include "opt/config_space.hpp"
#include "sim/machine.hpp"

namespace hetopt::core {

enum class Method { kEM, kEML, kSAM, kSAML };

[[nodiscard]] std::string_view to_string(Method m) noexcept;

/// Baselines of §IV-D: the EM preset over the one-sided part of `space` —
/// fraction 100 (host-only) or 0 (device-only), the busy side's thread axis
/// fixed to its maximum ("host-only (48 threads)") and its affinity axis
/// enumerated; the idle side keeps its SystemConfig defaults.
[[nodiscard]] SessionReport host_only_baseline(const opt::ConfigSpace& space,
                                               const sim::Machine& machine,
                                               const Workload& workload);
[[nodiscard]] SessionReport device_only_baseline(const opt::ConfigSpace& space,
                                                 const sim::Machine& machine,
                                                 const Workload& workload);

}  // namespace hetopt::core
