// Umbrella header: the public API of the hetopt library.
//
// hetopt reproduces "Combinatorial Optimization of Work Distribution on
// Heterogeneous Systems" (Memeti & Pllana, ICPPW 2016): a search strategy
// explores the (threads, affinity, workload-fraction) configuration space of
// a CPU + accelerator platform while an evaluation backend prices each
// candidate — by simulated measurement, by boosted-decision-tree prediction,
// or by the multi-accelerator water-filling makespan.
//
// Layering (bottom to top):
//   util      RNG, statistics, tables
//   dna       sequences, synthetic genomes, the out-of-core page cache
//   automata  motif matching engines (the application kernel): NFA/DFA
//             pipeline and the lane-parallel bitap, unified behind
//             MatchEngine — a tuned axis of the configuration space
//   parallel  thread pool, affinity vocabulary, partitioning, batch map
//   sim       the simulated Xeon E5 + Xeon Phi platform (time surface),
//             plus the 1-host + K-device MultiDeviceMachine
//   ml        datasets, boosted trees, linear/Poisson baselines, metrics
//   opt       configuration space, SearchStrategy implementations
//             (exhaustive / random / annealing / genetic / hill climbing)
//   core      training sweep, predictor, Evaluator backends (measurement /
//             prediction / multi-device / real-workload), TuningSession —
//             the one way a search runs — with the Table II method presets
//             and the §IV-D one-sided baselines
#pragma once

#include "core/evaluator.hpp"           // IWYU pragma: export
#include "core/executor.hpp"            // IWYU pragma: export
#include "core/features.hpp"            // IWYU pragma: export
#include "core/methods.hpp"             // IWYU pragma: export
#include "core/predictor.hpp"           // IWYU pragma: export
#include "core/real_workload.hpp"       // IWYU pragma: export
#include "core/training.hpp"            // IWYU pragma: export
#include "core/tuning_session.hpp"      // IWYU pragma: export
#include "core/workload.hpp"            // IWYU pragma: export
