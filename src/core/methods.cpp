#include "core/methods.hpp"

#include <vector>

namespace hetopt::core {

std::string_view to_string(Method m) noexcept {
  switch (m) {
    case Method::kEM: return "EM";
    case Method::kEML: return "EML";
    case Method::kSAM: return "SAM";
    case Method::kSAML: return "SAML";
  }
  return "?";
}

namespace {

[[nodiscard]] SessionReport one_sided_baseline(const opt::ConfigSpace& space,
                                               const sim::Machine& machine,
                                               const Workload& workload, bool host_side) {
  const opt::SystemConfig idle;
  const opt::ConfigSpace one_sided(
      {space.host_threads().back()},
      host_side ? space.host_affinities() : std::vector{idle.host_affinity},
      {space.device_threads().back()},
      host_side ? std::vector{idle.device_affinity} : space.device_affinities(),
      {host_side ? 100.0 : 0.0});
  return TuningSession::preset(Method::kEM, machine, one_sided).run(workload);
}

}  // namespace

SessionReport host_only_baseline(const opt::ConfigSpace& space, const sim::Machine& machine,
                                 const Workload& workload) {
  return one_sided_baseline(space, machine, workload, /*host_side=*/true);
}

SessionReport device_only_baseline(const opt::ConfigSpace& space, const sim::Machine& machine,
                                   const Workload& workload) {
  return one_sided_baseline(space, machine, workload, /*host_side=*/false);
}

}  // namespace hetopt::core
