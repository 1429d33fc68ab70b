// The traced mode: spans recorded by the benchmark's own code around each
// call into a layer's public entry point, kept in memory and written out at
// exit as Chrome trace-event JSON, plus the per-layer ledger built from them.
//
// Spans come from two places, told apart by their phase:
//   * campaign — the timed campaign itself: the coordinator's sink calls
//     and the gaps between them (time waiting on the runner), and inside
//     each sink call the analysis and measure entry points;
//   * ledger — one serial pass over the workload's experiments after the
//     timed rounds, calling every layer's entry point in turn (generate,
//     validate, cache key, run, encode, decode, cache store/lookup, journal
//     append, clock sync, timeline, verification, measure).
// Untraced runs construct none of this and record no spans.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "campaign/cache.hpp"
#include "campaign/sink.hpp"
#include "measure/study_measure.hpp"
#include "workloads.hpp"

namespace campaignbench {

enum class Phase : std::uint8_t { Campaign = 0, Ledger = 1 };

struct Span {
  const char* name{""};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int32_t parent{-1};
  std::int32_t study{-1};
  std::int32_t index{-1};
  Phase phase{Phase::Campaign};
};

/// Single-threaded span store: every span is recorded on the thread that
/// drives the campaign (sinks run there) or the ledger pass. A deque, so
/// that growing the store never copies the spans recorded so far: with a
/// vector, each reallocation (tens of ms at a million spans) would land in
/// whichever span happened to be open.
class Tracer {
 public:
  int begin(const char* name, Phase phase, int study, int index);
  void end(int id);
  /// A span whose interval was measured elsewhere (the sink-call gaps).
  void add(const char* name, Phase phase, std::int64_t start_ns,
           std::int64_t end_ns, int study, int index);
  const std::deque<Span>& spans() const { return spans_; }
  /// Chrome trace-event JSON ("X" events, microseconds); at most
  /// `max_spans` spans are written, the total is stated in otherData.
  void write_chrome(const std::filesystem::path& path, std::size_t max_spans) const;

 private:
  std::deque<Span> spans_;
  int current_{-1};
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, Phase phase, int study, int index)
      : tracer_(t), id_(t.begin(name, phase, study, index)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Indices [first, second) into Tracer::spans().
using SpanRange = std::pair<std::size_t, std::size_t>;

/// Per (phase, span name) over the spans in `range`: count, total and self
/// time (duration minus the part its child spans cover), and every duration
/// for percentiles.
struct SpanStats {
  long long count{0};
  double total_ns{0.0};
  double self_ns{0.0};
  std::vector<double> durations_ns;
};
std::map<std::pair<Phase, std::string>, SpanStats> aggregate(const Tracer& t,
                                                             SpanRange range);

/// Counters the traced analysis accumulates on the coordinator.
struct AnalysisCounters {
  long long experiments{0};
  long long accepted{0};
  long long global_events{0};
  long long injections{0};
  double width_ns_sum{0.0};
  long long width_events{0};
};

/// The traced stand-in for campaign::MeasureSink: the same analysis and
/// measure (analyze_experiment's steps, StudyMeasure::apply on accepted
/// experiments) called entry point by entry point inside spans.
class TracedMeasureSink final : public loki::campaign::ResultSink {
 public:
  using Callback = std::function<void(const loki::analysis::ExperimentAnalysis&)>;
  TracedMeasureSink(Tracer& tracer, AnalysisCounters& counters,
                    std::map<std::string, const loki::measure::StudyMeasure*> measures);
  void on_analysis(Callback cb) { callback_ = std::move(cb); }
  const std::vector<double>* values(const std::string& study) const;
  void on_study_begin(const loki::campaign::StudyInfo& study) override;
  void on_experiment(const loki::campaign::StudyInfo& study, int index,
                     const loki::runtime::ExperimentResult& result) override;

 private:
  Tracer& tracer_;
  AnalysisCounters& counters_;
  std::map<std::string, const loki::measure::StudyMeasure*> measures_;
  std::map<std::string, std::vector<double>> values_;
  Callback callback_;
};

struct SinkTotals {
  double sink_ns{0.0};
  double wait_ns{0.0};
  long long experiments{0};
};

/// Fans the coordinator's sink calls out to `inner`, recording a
/// campaign.sink span around each experiment's delivery and a
/// campaign.wait span for the gap since the previous delivery ended. The
/// benchmark's own record sink, `record`, runs last inside a bench.record
/// span, so its cost is told apart from the program's.
class SinkTimer final : public loki::campaign::ResultSink {
 public:
  SinkTimer(Tracer& tracer, SinkTotals& totals,
            std::shared_ptr<loki::campaign::ResultSink> measuring,
            std::shared_ptr<loki::campaign::ResultSink> record);
  void on_campaign_begin(int studies) override;
  void on_study_begin(const loki::campaign::StudyInfo& study) override;
  void on_experiment(const loki::campaign::StudyInfo& study, int index,
                     const loki::runtime::ExperimentResult& result) override;
  void on_study_done(const loki::campaign::StudyInfo& study) override;
  void on_campaign_done() override;

 private:
  Tracer& tracer_;
  SinkTotals& totals_;
  std::vector<std::shared_ptr<loki::campaign::ResultSink>> inner_;  // measuring, record
  std::int64_t last_end_ns_{0};
};

/// Counters of the ledger pass.
struct LedgerCounters {
  /// Experiments per pass; the counts below are per pass too.
  long long experiments{0};
  double messages{0.0};
  double sim_events{0.0};
  double result_bytes{0.0};
  std::uint64_t recompiles{0};
  double cache_bytes_per_entry{0.0};
  std::vector<SpanRange> path_passes;  // the repetitions of pass A
  SpanRange storage_pass;              // pass B
};

/// A serial pass over (up to 1200 of) the workload's experiments calling
/// every layer's entry point in a span: first the workload's own path
/// (pass A, rooted at ledger.experiment, repeated three times), then the
/// layers that path does not call (pass B, rooted at ledger.storage).
/// `warm` is ch5-replay's populated cache, read instead of running;
/// `scratch` receives pass B's cache store and journal.
LedgerCounters ledger_pass(const Workload& w, std::uint64_t seed, Tracer& tracer,
                           loki::campaign::ResultCache* warm,
                           const std::filesystem::path& scratch);

/// Names of the ledger spans that lie on the workload's real per-experiment
/// path (their self times sum to ledger.sum_us).
std::vector<std::string> on_path_layers(const Workload& w);

}  // namespace campaignbench
