// The benchmark's four workloads and the fixtures they share with the
// per-layer ledger (ledger.hpp). Every workload is closed-loop: one caller,
// the next operation starts when the previous one has finished.
//
//   scan_mem        one long-lived 2-pool fleet scans a seeded in-memory
//                   corpus (kernel -> matcher -> executor, no per-call set-up)
//   scan_paged      a fleet of the same shape, two workers smaller to leave
//                   cores for its prefetch threads, streams the same corpus
//                   from a raw file through a page cache holding 1/8 of it
//                   (adds paging and prefetch to the scan_mem path)
//   tune_measured   annealing sessions that price every candidate with a
//                   real fleet run (thousands of short runs: per-evaluation
//                   costs dominate)
//   tune_predicted  the paper's EML and SAML: training sweep, boosted-trees
//                   training, exhaustive and annealing search on predictions,
//                   and a wall-clock re-score of each winner (ML dominates)
//
// Every operation's match count is checked against the naive scanner's count
// of the same bytes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "automata/match_engine.hpp"
#include "core/evaluator.hpp"
#include "core/executor.hpp"
#include "core/real_workload.hpp"
#include "core/tuning_session.hpp"
#include "dna/paged_genome.hpp"
#include "dna/sequence.hpp"
#include "opt/config_space.hpp"
#include "trace.hpp"

namespace hetopt::bench {

/// The counts --quick shrinks. Quick runs execute the same code on smaller
/// inputs; their numbers are not comparable with full runs.
struct Scale {
  std::size_t corpus_bytes = std::size_t{32} << 20;
  /// Set-ups per run: at least setup_reps and at least setup_seconds of
  /// them, so sub-second set-ups also get a steady median.
  std::size_t setup_reps = 3;
  double setup_seconds = 1.0;
  std::size_t scan_warmup = 10;
  std::size_t tune_warmup = 1;
  /// Ledger repetitions: kernel/matcher probes, executor/paged probe calls,
  /// evaluator-overhead calls, evaluator probe sessions.
  std::size_t kernel_reps = 5;
  std::size_t fleet_calls = 20;
  std::size_t overhead_calls = 200;
  std::size_t probe_sessions = 2;
  /// 0 = four times the last-level cache (capped); see ledger.cpp.
  std::size_t mem_bytes = 0;

  [[nodiscard]] static Scale quick();
};

struct Context {
  std::uint64_t seed = 1;
  Scale scale;
  Tracer* tracer = nullptr;
  std::string out_dir;  // scratch files (the paged corpus) live here
};

/// Motifs of every workload: the RealWorkloadOptions defaults.
[[nodiscard]] const std::vector<std::string>& motifs();
[[nodiscard]] unsigned hardware_threads();

/// The seeded scan corpus, its compiled-DFA engine and the naive oracle count.
/// The engine is heap-held so executors can keep referring to it.
struct ScanCorpus {
  dna::Sequence sequence;
  std::unique_ptr<const automata::MatchEngine> engine;
  std::uint64_t oracle = 0;

  [[nodiscard]] std::string_view text() const noexcept { return sequence.view(); }
};

/// Generates, lowers and counts (spans setup.generate/lower/oracle).
[[nodiscard]] ScanCorpus make_scan_corpus(const Context& ctx);

/// A host pool and one device pool of unpinned workers, 50/50, one chunk per
/// worker. The pools split nproc (nproc/2 workers each); with `paged`, they
/// split what the two prefetch threads leave ((nproc-2)/2 each, at least 1).
[[nodiscard]] std::vector<core::PoolSpec> fleet_specs(bool paged);

/// The corpus written once to a raw file and served through a PagedGenome
/// whose resident budget is 1/8 of the pages. Removes the file when
/// destroyed.
class PagedCorpus {
 public:
  PagedCorpus(const Context& ctx, std::string_view text);
  ~PagedCorpus();

  PagedCorpus(const PagedCorpus&) = delete;
  PagedCorpus& operator=(const PagedCorpus&) = delete;

  [[nodiscard]] dna::PagedGenome& genome() noexcept { return *genome_; }

 private:
  std::string path_;
  std::unique_ptr<dna::PagedGenome> genome_;
};

/// Wraps RealWorkloadEvaluator::measure: spans every call ("evaluation" for
/// search candidates, "rescore" for the winner) and checks each result
/// against the workload's oracle.
class CheckedEvaluator final : public core::Evaluator {
 public:
  CheckedEvaluator(std::shared_ptr<const core::RealWorkloadEvaluator> inner, Tracer& tracer);

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  [[nodiscard]] double score(const opt::SystemConfig& config,
                             const core::Workload& workload) const override;
  /// One checked measurement outside a search.
  [[nodiscard]] core::RealMeasurement measure(const opt::SystemConfig& config,
                                              const core::Workload& workload) const;

  [[nodiscard]] const core::RealWorkloadEvaluator& inner() const noexcept { return *inner_; }
  /// Measurements with valid=false or a wrong match count.
  [[nodiscard]] std::uint64_t bad() const noexcept { return bad_; }
  /// Σ RealMeasurement::measure_failures (attempts retried inside measure()).
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }
  [[nodiscard]] std::uint64_t invalid() const noexcept { return invalid_; }
  /// When set, every search candidate is appended here.
  void record_candidates(std::vector<opt::SystemConfig>* sink) noexcept { sink_ = sink; }

 protected:
  [[nodiscard]] double value(const opt::SystemConfig& config,
                             const core::Workload& workload) const override;
  [[nodiscard]] bool concurrent() const noexcept override { return false; }

 private:
  std::shared_ptr<const core::RealWorkloadEvaluator> inner_;
  Tracer* tracer_;
  std::vector<opt::SystemConfig>* sink_ = nullptr;
  mutable std::uint64_t bad_ = 0;
  mutable std::uint64_t retries_ = 0;
  mutable std::uint64_t invalid_ = 0;
};

/// The default human corpus the tuners scan (3.1 MiB), a checked evaluator
/// over it, and the tune_measured space: host and device threads
/// {1, nproc/2} x 3 affinities each x fractions 0..100 in steps of 10 x the
/// applicable engines x 4 schedules.
class TuningFixture {
 public:
  /// deterministic = true prices candidates with the work model (the scan
  /// still runs and is checked); false times every measurement. Materializes
  /// the corpus (span setup.materialize).
  TuningFixture(Tracer& tracer, bool deterministic);

  [[nodiscard]] const core::Workload& workload() const noexcept { return workload_; }
  [[nodiscard]] const core::RealWorkload& real() const;
  [[nodiscard]] const std::shared_ptr<CheckedEvaluator>& evaluator() const noexcept {
    return evaluator_;
  }
  [[nodiscard]] const opt::ConfigSpace& space() const noexcept { return space_; }
  /// 5% of the space, the paper's budget.
  [[nodiscard]] std::size_t budget() const noexcept;

  /// One annealing session (span "session"). Throws when a measurement is
  /// invalid or miscounted.
  core::SessionReport run_session(std::uint64_t seed);

  [[nodiscard]] Tracer& tracer() const noexcept { return *tracer_; }

 private:
  Tracer* tracer_;
  core::Workload workload_;
  std::shared_ptr<CheckedEvaluator> evaluator_;
  opt::ConfigSpace space_;
};

/// What one tune_predicted operation did.
struct PredictedRun {
  std::size_t train_rows = 0;
  std::size_t eml_predictions = 0;
};

/// Runs EML and SAML as the paper does, then re-scores each winner snapped
/// onto `fixture`'s space with one wall-clock measurement. Throws when a
/// re-score is invalid or miscounted.
PredictedRun run_predicted(TuningFixture& fixture, std::uint64_t seed);

/// A workload as the timed loop drives it.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from the seed; called several times (see Scale), each
  /// call replacing the previous state.
  virtual void set_up() = 0;
  /// One operation. `input` selects the seed-derived input of the operation
  /// (the session seed on the tuning workloads). Returns false when the
  /// output is wrong.
  virtual bool op(std::uint64_t input) = 0;
  [[nodiscard]] virtual std::size_t warmup_ops() const = 0;
  /// Bytes one operation scans (the corpus).
  [[nodiscard]] virtual std::size_t corpus_bytes() const = 0;
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name, const Context& ctx);

}  // namespace hetopt::bench
