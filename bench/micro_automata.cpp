// google-benchmark microbenchmarks for the finite-automata substrate:
// construction costs and scan throughput (sequential and chunk-parallel).
#include <benchmark/benchmark.h>

#include "automata/aho_corasick.hpp"
#include "automata/bitap.hpp"
#include "automata/hopcroft.hpp"
#include "automata/parallel_matcher.hpp"
#include "automata/regex.hpp"
#include "automata/scanner.hpp"
#include "automata/subset.hpp"
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

/// The sample motifs with an unbounded tail on the last one: no
/// synchronization bound, so the matcher runs its speculative waves.
const automata::DenseDfa& unbounded_dfa() {
  static const automata::DenseDfa dfa = [] {
    const auto compiled =
        automata::compile_motifs({"GATTACA", "TATAAA", "CCGG", "GGGGG(A)*"});
    return automata::determinize(compiled.nfa, compiled.synchronization_bound);
  }();
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
BENCHMARK(BM_ParallelScanWarmup)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_ParallelScanSpeculative(benchmark::State& state) {
  const auto& dfa = unbounded_dfa();
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
BENCHMARK(BM_ParallelScanSpeculative)->Arg(1)->Arg(4)->Arg(16);

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
