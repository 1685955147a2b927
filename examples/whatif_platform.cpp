// Domain example: "what if" platform studies, something the real testbed
// cannot do — clone the machine model, change the hardware (slower PCIe,
// more device cores, weaker host), re-tune, and see how the optimal work
// distribution shifts. Demonstrates the simulator's value beyond pure
// reproduction. Each variant is tuned through the same TuningSession
// (ExhaustiveSearch x MeasurementEvaluator = the EM preset) that the real
// pipeline uses, over a space clamped to the variant's feasible threads.
//
// Run:  ./whatif_platform [--genome=human]
#include <iostream>
#include <memory>
#include <stdexcept>

#include "core/hetopt.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace hetopt;

struct Variant {
  std::string name;
  sim::MachineSpec spec;
};

/// The paper space with thread axes restricted to what `spec` can run (an
/// 8-core host cannot run 48 threads; the objective throws on infeasible
/// counts, so the space is clamped instead).
opt::ConfigSpace feasible_space(const sim::MachineSpec& spec) {
  const opt::ConfigSpace paper = opt::ConfigSpace::paper();
  std::vector<int> host;
  for (const int t : paper.host_threads()) {
    if (t <= spec.host.max_threads()) host.push_back(t);
  }
  std::vector<int> device;
  for (const int t : paper.device_threads()) {
    if (t <= spec.device.max_threads()) device.push_back(t);
  }
  return opt::ConfigSpace(std::move(host), paper.host_affinities(), std::move(device),
                          paper.device_affinities(), paper.fractions());
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const std::string genome = args.get("genome", std::string("human"));
  const dna::GenomeCatalog catalog;
  const dna::GenomeInfo* found = nullptr;
  try {
    found = &catalog.get(genome);
  } catch (const std::out_of_range& e) {
    std::cerr << "whatif_platform: " << e.what() << '\n';
    return 2;
  }
  const dna::GenomeInfo& info = *found;
  const core::Workload workload(info.name, info.size_mb);

  std::vector<Variant> variants;
  variants.push_back({"baseline (Emil)", sim::emil_spec()});
  {
    sim::MachineSpec s = sim::emil_spec();
    s.offload.pcie_gbps /= 4.0;  // PCIe gen1-era link
    variants.push_back({"slow PCIe (/4)", s});
  }
  {
    sim::MachineSpec s = sim::emil_spec();
    s.device.per_thread_gbps *= 2.0;  // next-gen accelerator
    variants.push_back({"2x faster device", s});
  }
  {
    sim::MachineSpec s = sim::emil_spec();
    s.host.cores = 8;  // small workstation host (16 HW threads)
    variants.push_back({"8-core host", s});
  }
  {
    sim::MachineSpec s = sim::emil_spec();
    s.offload.launch_latency_s = 0.5;  // pathological offload runtime
    variants.push_back({"0.5s launch latency", s});
  }

  util::Table table("What-if platform study: EM-optimal distribution for " +
                    workload.name);
  table.header({"Platform variant", "Best time [s]", "Host share", "Configuration"});
  for (const Variant& v : variants) {
    core::TuningSession session(feasible_space(v.spec));
    session.with_strategy("exhaustive")
        .with_evaluator(std::make_shared<core::MeasurementEvaluator>(sim::Machine{v.spec}));
    const core::SessionReport result = session.run(workload);
    table.row({v.name, util::format_double(result.measured_time, 3),
               util::format_double(result.config.host_percent, 1) + "%",
               opt::to_string(result.config)});
  }
  table.note("shifting hardware moves the optimal fraction: slower PCIe / launch "
             "pushes work to the host; faster device or weaker host pushes it out");
  table.print(std::cout);
  return 0;
}
