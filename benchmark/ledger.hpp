// The per-layer ledger: probes that follow one scan down the stack, run
// after a traced workload under their own root span ("ledger", op
// kLedgerOp). Every probe call is a span, and every metric is computed from
// those spans and the report structs the calls return:
//
//   setup      generating, lowering, counting and writing the ledger corpus
//   mem        8-byte-word sums over a buffer 4x the last-level cache: the
//              machine's read ceiling, one thread and all threads
//   kernel     the compiled-DFA kernels and bitap-simd on one thread
//   matcher    ParallelMatcher::count on an nproc-worker pool
//   executor   run_fleet on scan_mem's 2-pool fleet
//   paging     run_fleet_paged on scan_paged's fleet, through a cache holding
//              1/8 of the pages
//   evaluator  RealWorkloadEvaluator::measure inside tune_measured sessions,
//              and its cost over a bare run_fleet of the same config
//   session    the part of a session spent outside evaluations
//   ml         one tune_predicted operation, step by step
//
// The ledger is the same for every workload; README.md maps each metric to
// the end-to-end metric and workload it should move.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace hetopt::bench {

inline constexpr std::uint64_t kLedgerOp = std::uint64_t{1} << 40;

struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  // samples behind the value
};

struct Ledger {
  std::vector<LayerMetric> metrics;
  std::uint64_t attempted = 0;  // checked probe calls
  std::uint64_t failed = 0;
  std::size_t mem_bytes = 0;  // reference buffer size
};

/// Runs every probe; the context's tracer must be enabled.
[[nodiscard]] Ledger run_ledger(const Context& ctx);

/// Size of the last-level cache from sysfs, 0 when unknown.
[[nodiscard]] std::size_t l3_cache_bytes();

}  // namespace hetopt::bench
