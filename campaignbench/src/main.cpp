// Campaign benchmark entry point.
//
//   campaignbench --workload NAME --seed N --seconds S --trace 0|1
//                 --t0-ns NS --out DIR
//
// Runs whole rounds of the workload's campaign through the public
// CampaignBuilder API until S seconds have passed since the first emitted
// result, then checks the outputs (checks.hpp) and prints, as the last line
// of stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics; --trace 1 reports the
// per-layer metrics and writes the span file (trace.hpp). A human-readable
// report goes to stderr. Every flag is required; DIR holds the run's
// scratch files and the span file.
//
// --t0-ns is the CLOCK_MONOTONIC reading taken by run.py just before it
// started this process, so setup_s covers the process start too: exec,
// dynamic loading and static initialisers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "records.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace campaignbench {
namespace {

using namespace loki;
namespace fs = std::filesystem;

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
  std::int64_t t0_ns{0};
  fs::path out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v != "0";
    else if (flag == "--t0-ns") a.t0_ns = std::stoll(v);
    else if (flag == "--out") a.out = v;
    else throw std::invalid_argument("unknown flag " + flag);
    seen.insert(flag);
  }
  for (const char* flag : {"--workload", "--seed", "--seconds", "--trace", "--t0-ns", "--out"})
    if (!seen.count(flag)) throw std::invalid_argument(std::string(flag) + " is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Peak resident set of the procs: workers with no tracer in the
/// coordinator. A fork()ed worker starts from the coordinator's pages, so
/// in a traced run it would carry the spans recorded so far. One untraced
/// study on a fresh runner, before the Tracer exists, gives the figure;
/// RUSAGE_CHILDREN has it once the runner has reaped its workers.
double untraced_worker_peak_mb(const Workload& w) {
  {
    const std::shared_ptr<campaign::Runner> runner = campaign::parse_runner_spec(w.runner);
    runner->run_study(w.studies.front().study, [](int, runtime::ExperimentResult&&) {});
  }
  return child_peak_rss_mb();
}

/// ch5-replay's runner: every experiment must come from the cache.
class ForbiddenRunner final : public campaign::Runner {
 public:
  std::string name() const override { return "cache-only"; }
  int parallelism() const override { return 1; }
  void run_study(const runtime::StudyParams& study, const campaign::EmitFn&) override {
    throw std::logic_error("ch5-replay: study '" + study.name +
                           "' reached the runner; the cache should serve every experiment");
  }
};

struct Round {
  double experiments{0.0};
  double seconds{0.0};
  double cpu_s{0.0};
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = std::min(v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  return v[i];
}

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// Sinks for one round: the measuring sink (the program's MeasureSink, or
/// the traced stand-in) followed by the record sink.
struct RoundSinks {
  std::vector<std::shared_ptr<campaign::ResultSink>> sinks;
  std::function<const std::vector<double>*(const std::string&)> values;
};

RoundSinks make_sinks(const Workload& w, RunLog& log, const campaign::Runner* telemetry,
                      const measure::StudyMeasure* after_fact, bool use_replay_measure,
                      Tracer* tracer, AnalysisCounters* counters, SinkTotals* totals) {
  RoundSinks out;
  const auto measure_of = [&](const StudyDef& d) -> const measure::StudyMeasure& {
    return use_replay_measure ? w.replay_measure : d.measure;
  };
  if (tracer == nullptr) {
    auto ms = std::make_shared<campaign::MeasureSink>();
    for (const StudyDef& d : w.studies) ms->measure(d.study.name, measure_of(d));
    out.values = [ms](const std::string& s) { return ms->values(s); };
    auto rec = std::make_shared<RecordSink>(w, log, out.values, telemetry, after_fact);
    ms->on_analysis([rec = rec.get()](const campaign::StudyInfo&, int,
                                      const analysis::ExperimentAnalysis& a) { rec->stash(a); });
    out.sinks = {ms, rec};
  } else {
    std::map<std::string, const measure::StudyMeasure*> measures;
    for (const StudyDef& d : w.studies) measures[d.study.name] = &measure_of(d);
    auto ms = std::make_shared<TracedMeasureSink>(*tracer, *counters, measures);
    out.values = [ms](const std::string& s) { return ms->values(s); };
    auto rec = std::make_shared<RecordSink>(w, log, out.values, telemetry, after_fact);
    ms->on_analysis([rec = rec.get()](const analysis::ExperimentAnalysis& a) { rec->stash(a); });
    out.sinks = {std::make_shared<SinkTimer>(*tracer, *totals, ms, rec)};
  }
  return out;
}

std::vector<std::vector<double>> final_values(const Workload& w, const RoundSinks& sinks) {
  std::vector<std::vector<double>> out;
  for (const StudyDef& d : w.studies) {
    const std::vector<double>* v = sinks.values(d.study.name);
    out.push_back(v ? *v : std::vector<double>{});
  }
  return out;
}

void print_json(bool correct, long long attempted, long long failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  const int per_round = w.experiments_per_round();
  const fs::path work = args.out / "runs" / (w.name + "-" + std::to_string(::getpid()));
  fs::remove_all(work);
  fs::create_directories(work);
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{work};

  const bool remote = w.runner.rfind("procs:", 0) == 0;
  const double worker_peak_mb = args.trace && remote ? untraced_worker_peak_mb(w) : 0.0;
  std::unique_ptr<Tracer> tracer = args.trace ? std::make_unique<Tracer>() : nullptr;
  AnalysisCounters counters;
  SinkTotals totals;

  std::shared_ptr<campaign::Runner> runner =
      w.replay ? std::make_shared<ForbiddenRunner>() : campaign::parse_runner_spec(w.runner);

  // ch5-replay set-up: a journaled, cache-first serial run of the study
  // populates a fresh cache; its records are what the replay must equal.
  RunLog populated(w, args.seed);
  std::vector<std::vector<double>> populated_values;
  std::shared_ptr<campaign::ResultCache> cache;
  if (w.replay) {
    cache = std::make_shared<campaign::ResultCache>(work / "cache");
    RoundSinks sinks = make_sinks(w, populated, nullptr, &w.replay_measure, false,
                                  nullptr, nullptr, nullptr);
    CampaignBuilder b;
    for (const StudyDef& d : w.studies) b.add(d.study);
    b.runner(std::make_shared<campaign::SerialRunner>())
        .cache(cache)
        .journal((work / "journal").string(), args.seed);
    for (const auto& s : sinks.sinks) b.sink(s);
    b.build().run();
    populated.order.finish_round();
    populated_values = final_values(w, sinks);
  }
  const campaign::ResultCache::Stats cache_before =
      cache ? cache->stats() : campaign::ResultCache::Stats{};

  RunLog log(w, args.seed);
  std::vector<Round> rounds;
  std::vector<std::vector<double>> values;
  std::string replay_error;
  std::string failure;
  long long attempted = 0;
  long long failed = 0;
  std::int64_t prev_emit_ns = 0;
  double prev_cpu_s = 0.0;
  for (int r = 0;; ++r) {
    log.round = r;
    log.position = 0;
    RoundSinks sinks = make_sinks(w, log, remote ? runner.get() : nullptr, nullptr,
                                  w.replay, tracer.get(), &counters, &totals);
    CampaignBuilder b;
    for (const StudyDef& d : w.studies) b.add(d.study);
    b.runner(runner);
    if (cache) b.cache(cache);
    for (const auto& s : sinks.sinks) b.sink(s);
    attempted += per_round;
    Campaign::Summary summary;
    try {
      summary = b.build().run();
    } catch (const std::exception& e) {
      failed += per_round - static_cast<long long>(log.position);
      failure = "round " + std::to_string(r) + ": " + e.what();
      break;
    }
    const double cpu_s = cpu_seconds();
    Round round;
    if (r == 0) {
      round.experiments = per_round - 1;  // timing starts at the first emit
      round.seconds = static_cast<double>(log.last_emit_ns - log.first_emit_ns) / 1e9;
      round.cpu_s = cpu_s - log.first_emit_cpu_s;
    } else {
      round.experiments = per_round;
      round.seconds = static_cast<double>(log.last_emit_ns - prev_emit_ns) / 1e9;
      round.cpu_s = cpu_s - prev_cpu_s;
    }
    rounds.push_back(round);
    prev_emit_ns = log.last_emit_ns;
    prev_cpu_s = cpu_s;
    log.order.finish_round();
    values = final_values(w, sinks);
    if (w.replay && summary.cache_hits != per_round && replay_error.empty())
      replay_error = "round " + std::to_string(r) + " served " +
                     std::to_string(summary.cache_hits) + " of " +
                     std::to_string(per_round) + " experiments from the cache";
    if (static_cast<double>(now_ns() - log.first_emit_ns) / 1e9 >= args.seconds) break;
  }

  std::vector<double> rates, cpu_per_exp;
  for (const Round& r : rounds)
    if (r.experiments > 0 && r.seconds > 0) {
      rates.push_back(r.experiments / r.seconds);
      cpu_per_exp.push_back(r.cpu_s / r.experiments);
    }
  const double setup_s = static_cast<double>(log.first_emit_ns - args.t0_ns) / 1e9;
  const double exp_per_s = median(rates);
  const double cpu_ms = median(cpu_per_exp) * 1e3;
  const double peak_rss = peak_rss_mb();

  // --- checks (after the timer) ---------------------------------------------
  const std::vector<ExperimentRecord>& truth_records = w.replay ? populated.reference : log.reference;
  const std::vector<std::vector<double>>& truth_values = w.replay ? populated_values : values;
  const std::vector<Rerun> reruns = rerun_samples(w, log.samples);
  std::vector<std::pair<std::string, std::string>> checks = {
      {"clock bounds contain the true clocks", check_clock_bounds(truth_records)},
      {"injections judged correct hold in the true state", check_injections(truth_records)},
      {"measured values equal ground truth", check_values(w, truth_records, truth_values)},
      {"every index emitted once, in order", check_order(log.order)},
      {"later rounds reproduce round 0",
       log.record_mismatches ? std::to_string(log.record_mismatches) +
                                   " record(s) differ; first: " + log.first_mismatch
                             : ""},
      {"one-shot re-execution equals the campaign", check_rerun(log.samples, reruns)},
  };
  if (remote)
    checks.push_back({"worker completions sum to the emit count",
                      check_worker_counts(log.worker_counts)});
  if (w.replay) {
    checks.push_back({"populating run emitted every index once, in order",
                      check_order(populated.order)});
    checks.push_back({"replay served from the cache, equal to the populating run",
                      replay_error.empty() ? check_replay(populated.reference, log.reference)
                                           : replay_error});
  }
  if (!failure.empty()) checks.push_back({"campaign ran to its end", failure});
  const std::vector<SelfTestLine> selftest =
      self_test(w, truth_records, truth_values, log.samples, reruns);

  bool correct = true;
  for (const auto& [name, error] : checks) {
    std::fprintf(stderr, "check %-56s %s%s\n", name.c_str(), error.empty() ? "ok" : "FAILED: ",
                 error.c_str());
    if (!error.empty()) correct = false;
  }
  if (const std::string ring = ring_bound_summary(w, truth_records); !ring.empty())
    std::fprintf(stderr, "%s\n", ring.c_str());
  for (const SelfTestLine& s : selftest) {
    std::fprintf(stderr, "self-test %-38s -> %-14s %s\n", s.perturbation.c_str(),
                 s.check.c_str(), s.caught ? "caught" : ("NOT CAUGHT: " + s.detail).c_str());
    if (!s.caught) correct = false;
  }

  std::vector<Metric> metrics;
  if (!tracer) {
    metrics = {{"setup_s", setup_s, "s"},
               {"exp_per_s", exp_per_s, "experiments/s"},
               {"cpu_ms_per_exp", cpu_ms, "ms"},
               {"peak_rss_mb", peak_rss, "MB"}};
  } else {
    const LedgerCounters lc = ledger_pass(w, args.seed, *tracer, cache.get(), work / "ledger");
    using Stats = std::map<std::pair<Phase, std::string>, SpanStats>;
    const auto find = [](const Stats& agg, Phase p, const char* name) -> const SpanStats* {
      const auto it = agg.find({p, name});
      return it == agg.end() ? nullptr : &it->second;
    };
    const Stats agg = aggregate(*tracer, {0, tracer->spans().size()});
    std::vector<Stats> path;
    for (const SpanRange& r : lc.path_passes) path.push_back(aggregate(*tracer, r));
    const Stats storage = aggregate(*tracer, lc.storage_pass);
    const double lexp = static_cast<double>(std::max(1LL, lc.experiments));
    const double cexp = static_cast<double>(std::max(1LL, counters.experiments));
    // A layer on the workload's path: its median pass-A repetition; any
    // other layer: pass B.
    const auto ledger_us = [&](const char* n) {
      std::vector<double> reps;
      for (const Stats& p : path)
        if (const SpanStats* st = find(p, Phase::Ledger, n)) reps.push_back(st->self_ns);
      const SpanStats* st = find(storage, Phase::Ledger, n);
      return (reps.empty() ? (st ? st->self_ns : 0.0) : median(reps)) / 1e3 / lexp;
    };
    const auto campaign_us = [&](const char* n) {
      const SpanStats* st = find(agg, Phase::Campaign, n);
      return st ? st->self_ns / 1e3 / cexp : 0.0;
    };
    double ledger_sum = 0.0;
    for (const std::string& layer : on_path_layers(w)) ledger_sum += ledger_us(layer.c_str());
    // Every run of the ledger: all pass-A repetitions, or pass B on ch5-replay.
    std::vector<double> runs;
    for (const Stats& p : path)
      if (const SpanStats* st = find(p, Phase::Ledger, "runtime.run"))
        runs.insert(runs.end(), st->durations_ns.begin(), st->durations_ns.end());
    if (const SpanStats* st = find(storage, Phase::Ledger, "runtime.run"); runs.empty() && st)
      runs = st->durations_ns;
    const double run_us = ledger_us("runtime.run");
    const double sink_exps = static_cast<double>(std::max(1LL, totals.experiments));
    const campaign::ResultCache::Stats cs = cache ? cache->stats() : campaign::ResultCache::Stats{};
    const double lookups = static_cast<double>((cs.hits - cache_before.hits) +
                                               (cs.misses - cache_before.misses));
    const campaign::RunnerTelemetry tel = runner->telemetry();
    const double fleet_exps = static_cast<double>(std::max<std::uint64_t>(1, log.fleet.experiments_completed));
    const double workers = static_cast<double>(runner->parallelism());
    metrics = {
        {"campaign.generate_us", ledger_us("campaign.generate"), "us"},
        {"campaign.validate_us", ledger_us("campaign.validate"), "us"},
        {"campaign.sink_us", totals.sink_ns / 1e3 / sink_exps, "us"},
        {"campaign.wait_us", totals.wait_ns / 1e3 / sink_exps, "us"},
        {"bench.record_us", campaign_us("bench.record") * cexp / sink_exps, "us"},
        {"campaign.coordinator_busy_ratio", totals.sink_ns / std::max(1.0, totals.sink_ns + totals.wait_ns), "ratio"},
        {"runtime.run_us.p50", quantile(runs, 0.50) / 1e3, "us"},
        {"runtime.run_us.p99", quantile(runs, 0.99) / 1e3, "us"},
        {"runtime.messages_per_exp", lc.messages / lexp, "count"},
        {"runtime.recompiles", static_cast<double>(lc.recompiles), "count"},
        {"sim.events_per_exp", lc.sim_events / lexp, "count"},
        {"sim.events_per_s", run_us > 0 ? lc.sim_events / lexp / (run_us / 1e6) : 0.0, "1/s"},
        {"clocksync.alphabeta_us", campaign_us("clocksync.alphabeta"), "us"},
        {"clocksync.bound_width_us", counters.width_events ? counters.width_ns_sum / 1e3 / static_cast<double>(counters.width_events) : 0.0, "us"},
        {"analysis.timeline_us", campaign_us("analysis.timeline"), "us"},
        {"analysis.verify_us", campaign_us("analysis.verify"), "us"},
        {"analysis.global_events_per_exp", static_cast<double>(counters.global_events) / cexp, "count"},
        {"analysis.injections_per_exp", static_cast<double>(counters.injections) / cexp, "count"},
        {"analysis.accept_ratio", static_cast<double>(counters.accepted) / cexp, "ratio"},
        {"measure.apply_us", campaign_us("measure.apply"), "us"},
        {"serialize.encode_us", ledger_us("serialize.encode"), "us"},
        {"serialize.decode_us", ledger_us("serialize.decode"), "us"},
        {"serialize.result_bytes", lc.result_bytes / lexp, "bytes"},
        {"serialize.cache_key_us", ledger_us("serialize.cache_key"), "us"},
        {"remote.worker_exp_us.p50", remote ? log.fleet.histogram.quantile_us(0.5) : 0.0, "us"},
        {"remote.worker_busy_ratio", remote && log.study_wall_ns > 0 ? log.worker_busy_us * 1e3 / (workers * log.study_wall_ns) : 0.0, "ratio"},
        {"remote.bytes_per_exp", remote ? static_cast<double>(log.fleet.bytes_encoded) / fleet_exps : 0.0, "bytes"},
        {"remote.batches_per_kexp", remote ? 1e3 * static_cast<double>(log.fleet.batches_flushed) / fleet_exps : 0.0, "count"},
        {"remote.final_lease_size", static_cast<double>(tel.final_lease_size), "count"},
        {"remote.requeued_indices", static_cast<double>(tel.requeued_indices), "count"},
        {"remote.worker_peak_rss_mb", worker_peak_mb, "MB"},
        {"cache.lookup_us", ledger_us("cache.lookup"), "us"},
        {"cache.bytes_per_entry", lc.cache_bytes_per_entry, "bytes"},
        {"cache.hit_ratio", lookups > 0 ? static_cast<double>(cs.hits - cache_before.hits) / lookups : 0.0, "ratio"},
        {"cache.store_us", ledger_us("cache.store"), "us"},
        {"journal.index_done_us", ledger_us("journal.index_done"), "us"},
        {"ledger.sum_us", ledger_sum, "us"},
        {"trace.exp_per_s", exp_per_s, "experiments/s"},
        {"trace.cpu_us_per_exp", cpu_ms * 1e3, "us"},
    };
    fs::create_directories(args.out / "traces");
    const fs::path trace_file =
        args.out / "traces" / (w.name + "-seed" + std::to_string(args.seed) + ".json");
    tracer->write_chrome(trace_file, 400'000);
    std::fprintf(stderr, "trace: %zu spans, written to %s\n", tracer->spans().size(),
                 trace_file.c_str());
    std::fprintf(stderr, "ledger (serial pass of %lld experiments, self us/experiment):\n",
                 lc.experiments);
    for (const auto& [key, st] : agg)
      if (key.first == Phase::Ledger)
        std::fprintf(stderr, "  %-22s %10.2f\n", key.second.c_str(), ledger_us(key.second.c_str()));
  }

  std::fprintf(stderr,
               "workload %s seed %llu: %zu rounds of %d experiments (runner %s), "
               "round exp/s min %.6g q1 %.6g median %.6g q3 %.6g max %.6g\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed), rounds.size(),
               per_round, runner->name().c_str(), quantile(rates, 0.0),
               quantile(rates, 0.25), exp_per_s, quantile(rates, 0.75), quantile(rates, 1.0));
  for (const Metric& m : metrics)
    std::fprintf(stderr, "%-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  print_json(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace campaignbench

int main(int argc, char** argv) {
  try {
    return campaignbench::run(campaignbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaignbench: %s\n", e.what());
    return 1;
  }
}
