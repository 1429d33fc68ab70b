// Correctness checks over the compact records, each computed apart from the
// code path it checks, and their self-test: every check is fed a perturbed
// copy of the real records and must fail on it.
//
// Every check returns the empty string when it passes and a description of
// the first violation otherwise.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "records.hpp"
#include "workloads.hpp"

namespace campaignbench {

/// One sampled experiment re-executed outside any runner, transport or
/// cache: runtime::run_experiment + analyze_experiment + the measure.
struct Rerun {
  int study{0};
  int index{0};
  std::vector<std::uint8_t> bytes;
  std::optional<double> value;
};

/// The clock bounds of every host contain the simulator's true relative
/// alpha/beta (slack as tests/property_test.cpp: 2 granularities on alpha,
/// 1e-6 on beta).
std::string check_clock_bounds(const std::vector<ExperimentRecord>& records);

/// Every injection judged correct truly happened in a global state that
/// satisfies its expression; verdicts, missed faults and acceptance agree.
std::string check_injections(const std::vector<ExperimentRecord>& records);

/// Each study's values, recomputed from ground truth by its Oracle, equal
/// the measuring sink's (`sink_values[s]` is study s's final list); the
/// stratified weighted coverage equals the closed form sum(w c)/sum(w).
std::string check_values(const Workload& w,
                         const std::vector<ExperimentRecord>& records,
                         const std::vector<std::vector<double>>& sink_values);

/// RingDuration studies: the largest bound/truth and |measured - truth|/bound
/// over the records, as one line (empty without a ring study).
std::string ring_bound_summary(const Workload& w,
                               const std::vector<ExperimentRecord>& records);

std::string check_order(const OrderChecker& order);

/// ch5-procs: per study, the workers' experiments_completed sum equals the
/// coordinator's emit count.
std::string check_worker_counts(
    const std::vector<std::pair<long long, long long>>& counts);

/// ch5-replay: the replayed round reproduces the populating run's records,
/// and its values equal the replay measure applied during population.
std::string check_replay(const std::vector<ExperimentRecord>& populated,
                         const std::vector<ExperimentRecord>& replayed);

std::vector<Rerun> rerun_samples(const Workload& w,
                                 const std::vector<Sample>& samples);

/// Re-executed bytes and values equal what the campaign emitted.
std::string check_rerun(const std::vector<Sample>& samples,
                        const std::vector<Rerun>& reruns);

struct SelfTestLine {
  std::string perturbation;
  std::string check;
  bool caught{false};  // the check failed on the perturbed input
  std::string detail;
};

/// Perturb copies of the run's inputs and confirm each check then fails.
std::vector<SelfTestLine> self_test(
    const Workload& w, const std::vector<ExperimentRecord>& records,
    const std::vector<std::vector<double>>& sink_values,
    const std::vector<Sample>& samples, const std::vector<Rerun>& reruns);

}  // namespace campaignbench
