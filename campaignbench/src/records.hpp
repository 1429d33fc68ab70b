// Compact per-experiment records kept while a campaign runs, so that the
// correctness checks can run after the timer stops without holding whole
// results. Round 0 keeps its records; every later round rebuilds the same
// record (same cost) and compares it with round 0's, so memory does not
// grow with the run's length.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/pipeline.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "runtime/worker_stats.hpp"
#include "workloads.hpp"

namespace campaignbench {

struct HostRecord {
  std::string host;
  bool valid{false};
  double alpha_lo{0.0}, alpha_hi{0.0}, beta_lo{1.0}, beta_hi{1.0};
  /// The simulator's true clock of this host relative to the reference
  /// host: C_host = alpha_true + beta_true * C_ref.
  double alpha_true{0.0}, beta_true{1.0};
  std::int64_t granularity_ns{1};
  /// Widest projection interval over this host's experiment window, from
  /// the bounds by the corner formula (ns).
  double width_ns{0.0};
  bool operator==(const HostRecord&) const = default;
};

struct InjectionRecord {
  std::string machine, fault, expr_text;
  int nth{0};            // nth injection of this fault on this machine
  int verdict{-1};       // -1 none recorded, 0 judged incorrect, 1 correct
  /// True state of every machine (ExperimentRecord::machines order) at the
  /// injection instant; empty when the machine had not started yet.
  std::vector<std::string> truth_states;
  bool operator==(const InjectionRecord&) const = default;
};

struct ExperimentRecord {
  int study{0};
  int index{0};
  bool completed{false};
  bool accepted{false};               // what the measuring sink acted on
  bool verification_accepted{false};  // the verifier's own verdict
  int missed{0};
  /// Verdicts for injections the simulator never performed.
  int unmatched_verdicts{0};
  std::vector<HostRecord> hosts;
  std::vector<std::string> machines;
  std::vector<char> crashed;    // truly crashed, per machine
  std::vector<char> restarted;  // truly entered RESTART_SM after a crash
  std::vector<InjectionRecord> injections;
  /// This experiment's final observation value as the campaign's measuring
  /// sink produced it (none when filtered out or not accepted).
  std::optional<double> value;
  /// Populating run of ch5-replay: the replay measure applied to the same
  /// analysis, for comparison with what the replay later reports.
  std::optional<double> after_fact;
  /// RingDuration: ground-truth ms in CRITICAL, the allowed deviation, and
  /// the shortest CRITICAL stay wholly inside the window (for the self-test).
  double truth_ms{0.0};
  double bound_ms{0.0};
  double shortest_interval_ms{0.0};
  bool operator==(const ExperimentRecord&) const = default;
};

/// Checks that every index is emitted exactly once, in order, study by
/// study, each round.
class OrderChecker {
 public:
  explicit OrderChecker(std::vector<int> experiments_per_study);
  void feed(int study, int index);
  /// End of a round: every study must have been emitted in full.
  void finish_round();
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  void fail(const std::string& what);
  std::vector<int> sizes_;
  int study_{0};
  int next_{0};
  std::string error_;
};

/// An experiment whose emitted result is re-executed one-shot after the
/// run: its encoded bytes and its value as the campaign emitted them.
struct Sample {
  int study{0};
  int index{0};
  std::vector<std::uint8_t> bytes;
  std::optional<double> value;
  bool seen{false};
};

/// Everything the run keeps for timing and for the checks.
struct RunLog {
  /// Draws the re-executed sample indices from `seed`.
  RunLog(const Workload& w, std::uint64_t seed);

  std::int64_t first_emit_ns{-1};
  double first_emit_cpu_s{0.0};
  std::int64_t last_emit_ns{0};
  long long emitted{0};
  int round{0};
  std::size_t position{0};  // emits so far in this round
  std::vector<ExperimentRecord> reference;  // round 0's records
  long long record_mismatches{0};
  std::string first_mismatch;
  OrderChecker order;
  std::vector<Sample> samples;
  /// ch5-procs: per study, workers' experiments_completed sum vs emits.
  std::vector<std::pair<long long, long long>> worker_counts;
  /// ch5-procs: every study's fleet snapshot merged, the workers' busy
  /// time (EWMA latency x experiments, summed) and the studies' wall time.
  loki::runtime::WorkerStatsSnapshot fleet;
  double worker_busy_us{0.0};
  double study_wall_ns{0.0};
  std::int64_t study_start_ns{0};
};

/// The parts of an analysis a record needs (the global timeline is not
/// kept: copying it would cost more than the record's whole budget).
struct AnalysisPart {
  loki::clocksync::AlphaBetaFile alphabeta;
  loki::analysis::VerificationResult verification;
  bool accepted{false};
};

/// Build the compact record of one emitted experiment.
ExperimentRecord make_record(const StudyDef& def, int study, int index,
                             const loki::runtime::ExperimentResult& result,
                             const AnalysisPart& analysis,
                             std::optional<double> value);

/// Last sink of every campaign: records timing, order and the compact
/// records. The measuring sink in front of it hands over each analysis
/// through stash(); `values` reads that sink's per-study value lists.
class RecordSink final : public loki::campaign::ResultSink {
 public:
  using ValuesFn =
      std::function<const std::vector<double>*(const std::string& study)>;
  RecordSink(const Workload& w, RunLog& log, ValuesFn values,
             const loki::campaign::Runner* telemetry_source,
             const loki::measure::StudyMeasure* after_fact = nullptr);

  void stash(const loki::analysis::ExperimentAnalysis& analysis);
  void on_study_begin(const loki::campaign::StudyInfo& study) override;
  void on_experiment(const loki::campaign::StudyInfo& study, int index,
                     const loki::runtime::ExperimentResult& result) override;
  void on_study_done(const loki::campaign::StudyInfo& study) override;

 private:
  const Workload& workload_;
  RunLog& log_;
  ValuesFn values_;
  const loki::campaign::Runner* telemetry_source_;
  const loki::measure::StudyMeasure* after_fact_;
  AnalysisPart stashed_;
  std::optional<double> stashed_after_fact_;
  std::size_t values_before_{0};
};

}  // namespace campaignbench
