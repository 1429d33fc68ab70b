// The benchmark's four workloads: which studies a round runs, on which
// runner, with which measures, and how each measure's value is recomputed
// from the simulator's ground truth by the correctness checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure/study_measure.hpp"
#include "runtime/experiment.hpp"

namespace campaignbench {

/// How a study's final observation value follows from ground truth.
enum class Oracle {
  /// Chapter 5 coverage (§5.8): when `machine` truly crashed, the value is 1
  /// if it was truly restarted afterwards and 0 if not; no value otherwise.
  Coverage,
  /// Study 4: when black truly crashed, the value is 1 if green truly
  /// crashed too and 0 if not; no value otherwise.
  Correlated,
  /// Study 5: the value is 1 if green truly crashed and 0 if not.
  Baseline,
  /// Total milliseconds `machine` spent in CRITICAL inside the experiment
  /// window, within the clock-uncertainty bound derived in the README.
  RingDuration,
};

struct StudyDef {
  loki::runtime::StudyParams study;
  loki::measure::StudyMeasure measure;
  Oracle oracle{Oracle::Coverage};
  std::string machine;
};

struct Workload {
  std::string name;
  /// Runner spec of the timed campaign (campaign::parse_runner_spec);
  /// empty for ch5-replay, whose timed campaign must execute nothing.
  std::string runner;
  std::vector<StudyDef> studies;
  /// Stratified weights of the coverage studies, in study order (§5.8).
  std::vector<double> weights;
  /// ch5-replay: the studies' measures are the ones the populating run
  /// applied; the timed replay applies `replay_measure` instead.
  bool replay{false};
  loki::measure::StudyMeasure replay_measure;

  int experiments_per_round() const;
};

/// Workers a parallel runner uses: nproc - 2, at least 1, at most 3.
int runner_workers();

/// Throws std::invalid_argument for an unknown name. Every experiment seed,
/// restart draw and sample index derives from `seed` (README, "Seeds").
Workload make_workload(const std::string& name, std::uint64_t seed);

/// SplitMix64 finaliser: the one seed-derivation step used throughout.
std::uint64_t mix64(std::uint64_t x);

}  // namespace campaignbench
