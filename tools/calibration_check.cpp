// Quick calibration probe (not installed; developer tool): prints the key
// quantities DESIGN.md §5 promises, so model changes can be sanity-checked.
#include <cstdio>

#include "core/methods.hpp"
#include "sim/machine.hpp"

int main() {
  using namespace hetopt;
  const sim::Machine m = sim::emil_machine();
  const auto HS = parallel::HostAffinity::kScatter;
  const auto DB = parallel::DeviceAffinity::kBalanced;

  std::printf("host  3170MB:  2t=%.2fs 48t=%.2fs\n", m.host_time_model(3170, 2, HS),
              m.host_time_model(3170, 48, HS));
  std::printf("device 3170MB: 2t=%.2fs 240t=%.2fs\n", m.device_time_model(3170, 2, DB),
              m.device_time_model(3170, 240, DB));

  const opt::ConfigSpace space = opt::ConfigSpace::paper();
  std::printf("space size = %zu\n", space.size());

  for (const char* name : {"human", "mouse", "cat", "dog"}) {
    const double mb = name[0] == 'h' ? 3170.0 : name[0] == 'm' ? 2770.0
                                  : name[0] == 'c' ? 2430.0 : 2380.0;
    const core::Workload w(name, mb);
    const auto em = core::TuningSession::preset(core::Method::kEM, m, space).run(w);
    const auto host = core::host_only_baseline(space, m, w);
    const auto dev = core::device_only_baseline(space, m, w);
    std::printf("%-6s EM=%.3fs (%s)  host_only=%.3fs dev_only=%.3fs  speedup %.2f / %.2f\n",
                name, em.measured_time, opt::to_string(em.config).c_str(),
                host.measured_time, dev.measured_time,
                host.measured_time / em.measured_time,
                dev.measured_time / em.measured_time);
  }

  // Fig. 2 shapes.
  for (const auto& [mb, ht] : std::initializer_list<std::pair<double, int>>{
           {190, 48}, {3250, 48}, {3250, 4}}) {
    std::printf("fig2 size=%4.0fMB host_threads=%d:", mb, ht);
    double best = 1e30;
    int best_r = -1;
    for (int r = 0; r <= 100; r += 10) {
      const double t = m.combined_time_model(mb, r, ht, HS, 240, DB);
      if (t < best) { best = t; best_r = r; }
      std::printf(" %d:%.3f", r, t);
    }
    std::printf("  -> best host%%=%d\n", best_r);
  }
  return 0;
}
