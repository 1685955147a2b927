// google-benchmark microbenchmarks for the finite-automata substrate:
// construction costs and scan throughput (sequential, the compiled kernel's
// split count, and chunk-parallel).
#include <benchmark/benchmark.h>

#include "automata/aho_corasick.hpp"
#include "automata/bitap.hpp"
#include "automata/compiled_dfa.hpp"
#include "automata/hopcroft.hpp"
#include "automata/match_engine.hpp"
#include "automata/parallel_matcher.hpp"
#include "automata/regex.hpp"
#include "automata/scanner.hpp"
#include "automata/subset.hpp"
#include "bench/common.hpp"
#include "dna/generator.hpp"

namespace {

using namespace hetopt;

const std::string& sample_text() {
  static const std::string text = dna::GenomeGenerator{}.generate(1 << 22, 7);  // 4 MB
  return text;
}

const automata::DenseDfa& sample_dfa() {
  static const automata::DenseDfa dfa =
      automata::build_aho_corasick({"GATTACA", "TATAAA", "CCGG", "GGGGG"});
  return dfa;
}

void BM_AhoCorasickBuild(benchmark::State& state) {
  const std::vector<std::string> patterns{"GATTACA", "TATAAA", "CCGG", "GGGGG",
                                          "ACGTACGT", "TTTTTTTT"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(automata::build_aho_corasick(patterns));
  }
}
BENCHMARK(BM_AhoCorasickBuild);

void BM_RegexCompileAndDeterminize(benchmark::State& state) {
  for (auto _ : state) {
    const auto compiled = automata::compile_motifs({"TATAWAW", "GGN?CC", "ACGT"});
    benchmark::DoNotOptimize(
        automata::determinize(compiled.nfa, compiled.synchronization_bound));
  }
}
BENCHMARK(BM_RegexCompileAndDeterminize);

void BM_HopcroftMinimize(benchmark::State& state) {
  const auto compiled = automata::compile_motifs({"GGATCC", "GAATTC", "AAGCTT"});
  const automata::DenseDfa dfa =
      automata::determinize(compiled.nfa, compiled.synchronization_bound);
  for (auto _ : state) {
    benchmark::DoNotOptimize(automata::minimize(dfa));
  }
}
BENCHMARK(BM_HopcroftMinimize);

void BM_SequentialScan(benchmark::State& state) {
  const auto& dfa = sample_dfa();
  const auto& text = sample_text();
  for (auto _ : state) {
    benchmark::DoNotOptimize(automata::count_matches(dfa, text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_SequentialScan);

void BM_CompiledCount(benchmark::State& state) {
  // The compiled-dfa engine's kernel on one thread: count() splits the
  // 4 MiB text into interleaved sub-streams and steps them on the quad
  // table.
  const bench::MotifSet& set =
      bench::engine_matrix_motif_sets()[static_cast<std::size_t>(state.range(0))];
  const auto engine = automata::lower(automata::EngineKind::kCompiledDfa, set.motifs);
  const automata::CompiledDfa& kernel = *engine->kernel();
  const auto& text = sample_text();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel.count(text, kernel.start()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
  state.SetLabel(set.name);
}
BENCHMARK(BM_CompiledCount)->DenseRange(0, 3)->UseRealTime();

void BM_ParallelScanWarmup(benchmark::State& state) {
  const auto& dfa = sample_dfa();
  const auto& text = sample_text();
  const auto threads = static_cast<std::size_t>(state.range(0));
  parallel::ThreadPool pool(threads);
  const automata::ParallelMatcher matcher(dfa, pool);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.count(text, threads));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
// Wall time: the scan runs on the pool, so the calling thread's CPU time
// would price only the hand-off (and inflate bytes_per_second by ~100x).
BENCHMARK(BM_ParallelScanWarmup)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->UseRealTime();

void BM_BitapScan(benchmark::State& state) {
  // The bit-parallel engine on the same pattern set as the DFA scans above:
  // one 64-bit word replaces a table lookup per byte.
  const automata::BitapMatcher matcher({"GATTACA", "TATAAA", "CCGG", "GGGGG"});
  const auto& text = sample_text();
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.count(text));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_BitapScan);

void BM_GenomeGeneration(benchmark::State& state) {
  const dna::GenomeGenerator gen;
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(bytes, ++seed));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_GenomeGeneration)->Arg(1 << 16)->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
