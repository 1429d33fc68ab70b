#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "campaign/journal.hpp"
#include "campaign/validate.hpp"
#include "clocksync/projection.hpp"
#include "common.hpp"
#include "runtime/experiment_context.hpp"
#include "runtime/serialize.hpp"

namespace campaignbench {

using namespace loki;

// --- Tracer ------------------------------------------------------------------

int Tracer::begin(const char* name, Phase phase, int study, int index) {
  add(name, phase, now_ns(), 0, study, index);
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = now_ns();
  current_ = s.parent;
}

void Tracer::add(const char* name, Phase phase, std::int64_t start_ns,
                 std::int64_t end_ns, int study, int index) {
  spans_.push_back(Span{name, start_ns, end_ns, current_, study, index, phase});
}

void Tracer::write_chrome(const std::filesystem::path& path,
                          std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path.string());
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::size_t n = std::min(max_spans, spans_.size());
  std::fprintf(f, "{\"otherData\": {\"spans_total\": %zu, \"spans_written\": %zu},\n"
                  " \"traceEvents\": [\n", spans_.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, "
                 "\"study\": %d, \"index\": %d}}%s\n",
                 s.name, s.phase == Phase::Campaign ? 1 : 2,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 s.study, s.index, i + 1 < n ? "," : "");
  }
  std::fprintf(f, " ]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path.string());
}

std::map<std::pair<Phase, std::string>, SpanStats> aggregate(const Tracer& t,
                                                             SpanRange range) {
  const std::deque<Span>& spans = t.spans();
  const std::size_t begin = range.first;
  const std::size_t end = std::min(range.second, spans.size());
  std::vector<double> child_ns(spans.size(), 0.0);
  for (std::size_t i = begin; i < end; ++i)
    if (spans[i].parent >= 0)
      child_ns[static_cast<std::size_t>(spans[i].parent)] +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  std::map<std::pair<Phase, std::string>, SpanStats> out;
  for (std::size_t i = begin; i < end; ++i) {
    const Span& s = spans[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    SpanStats& st = out[{s.phase, s.name}];
    ++st.count;
    st.total_ns += d;
    st.self_ns += d - child_ns[i];
    st.durations_ns.push_back(d);
  }
  return out;
}

// --- TracedMeasureSink -------------------------------------------------------

TracedMeasureSink::TracedMeasureSink(
    Tracer& tracer, AnalysisCounters& counters,
    std::map<std::string, const measure::StudyMeasure*> measures)
    : tracer_(tracer), counters_(counters), measures_(std::move(measures)) {}

const std::vector<double>* TracedMeasureSink::values(const std::string& study) const {
  const auto it = values_.find(study);
  return it == values_.end() ? nullptr : &it->second;
}

void TracedMeasureSink::on_study_begin(const campaign::StudyInfo& study) {
  values_.try_emplace(study.name);
}

namespace {

/// analyze_experiment, one entry point per span.
analysis::ExperimentAnalysis traced_analysis(Tracer& t, Phase phase, int study,
                                             int index,
                                             const runtime::ExperimentResult& r) {
  analysis::ExperimentAnalysis a;
  const std::string& reference = r.hosts.front();
  {
    ScopedSpan span(t, "clocksync.alphabeta", phase, study, index);
    a.alphabeta = clocksync::compute_alphabeta(r.sync_samples, r.hosts, reference);
  }
  std::vector<const runtime::LocalTimeline*> timelines;
  timelines.reserve(r.timelines.size());
  for (const runtime::LocalTimeline& tl : r.timelines) timelines.push_back(&tl);
  {
    ScopedSpan span(t, "analysis.timeline", phase, study, index);
    a.timeline = analysis::build_global_timeline(timelines, a.alphabeta);
  }
  {
    ScopedSpan span(t, "analysis.verify", phase, study, index);
    a.verification = analysis::verify_experiment(timelines, a.alphabeta);
  }
  a.start_ref = static_cast<double>(r.start_local_of(reference).ns);
  a.end_ref = static_cast<double>(r.end_local_of(reference).ns);
  a.accepted = a.verification.accepted && r.completed;
  return a;
}

}  // namespace

void TracedMeasureSink::on_experiment(const campaign::StudyInfo& study, int index,
                                      const runtime::ExperimentResult& result) {
  const analysis::ExperimentAnalysis a =
      traced_analysis(tracer_, Phase::Campaign, study.index, index, result);
  ++counters_.experiments;
  counters_.global_events += static_cast<long long>(a.timeline.events.size());
  counters_.injections += static_cast<long long>(a.verification.verdicts.size());
  for (const analysis::GlobalEvent& e : a.timeline.events) {
    counters_.width_ns_sum += e.when.width();
    ++counters_.width_events;
  }
  if (callback_) callback_(a);
  if (!a.accepted) return;
  ++counters_.accepted;
  const auto m = measures_.find(study.name);
  if (m == measures_.end()) return;
  std::optional<double> value;
  {
    ScopedSpan span(tracer_, "measure.apply", Phase::Campaign, study.index, index);
    value = m->second->apply(a);
  }
  if (value.has_value()) values_[study.name].push_back(*value);
}

// --- SinkTimer ---------------------------------------------------------------

SinkTimer::SinkTimer(Tracer& tracer, SinkTotals& totals,
                     std::shared_ptr<campaign::ResultSink> measuring,
                     std::shared_ptr<campaign::ResultSink> record)
    : tracer_(tracer), totals_(totals), inner_{std::move(measuring), std::move(record)} {}

void SinkTimer::on_campaign_begin(int studies) {
  for (const auto& s : inner_) s->on_campaign_begin(studies);
  last_end_ns_ = now_ns();
}

void SinkTimer::on_study_begin(const campaign::StudyInfo& study) {
  for (const auto& s : inner_) s->on_study_begin(study);
}

void SinkTimer::on_experiment(const campaign::StudyInfo& study, int index,
                              const runtime::ExperimentResult& result) {
  const std::int64_t start = now_ns();
  tracer_.add("campaign.wait", Phase::Campaign, last_end_ns_, start, study.index, index);
  totals_.wait_ns += static_cast<double>(start - last_end_ns_);
  {
    ScopedSpan span(tracer_, "campaign.sink", Phase::Campaign, study.index, index);
    inner_[0]->on_experiment(study, index, result);
    ScopedSpan record(tracer_, "bench.record", Phase::Campaign, study.index, index);
    inner_[1]->on_experiment(study, index, result);
  }
  last_end_ns_ = now_ns();
  totals_.sink_ns += static_cast<double>(last_end_ns_ - start);
  ++totals_.experiments;
}

void SinkTimer::on_study_done(const campaign::StudyInfo& study) {
  for (const auto& s : inner_) s->on_study_done(study);
}

void SinkTimer::on_campaign_done() {
  for (const auto& s : inner_) s->on_campaign_done();
}

// --- ledger pass -------------------------------------------------------------

LedgerCounters ledger_pass(const Workload& w, std::uint64_t seed, Tracer& t,
                           campaign::ResultCache* warm,
                           const std::filesystem::path& scratch) {
  constexpr int kLedgerExperiments = 1200;
  constexpr int kPathRepeats = 3;
  constexpr Phase L = Phase::Ledger;
  const bool remote = w.runner.rfind("procs:", 0) == 0;
  const int per_study = (kLedgerExperiments + static_cast<int>(w.studies.size()) - 1) /
                        static_cast<int>(w.studies.size());
  std::vector<std::pair<int, int>> picks;  // (study, index), in campaign order
  for (std::size_t si = 0; si < w.studies.size(); ++si)
    for (int k = 0; k < std::min(per_study, w.studies[si].study.experiments); ++k)
      picks.emplace_back(static_cast<int>(si), k);

  LedgerCounters c;
  c.experiments = static_cast<long long>(picks.size());
  runtime::ExperimentContext context;
  // The counts are the same on every pass over `picks`, so they are taken
  // from one: the first repetition of pass A, or pass B on ch5-replay.
  bool count = false;
  const auto run = [&](const runtime::ExperimentParams& params, int s, int k) {
    ScopedSpan span(t, "runtime.run", L, s, k);
    runtime::ExperimentResult result = context.run(params);
    if (count) {
      c.messages += static_cast<double>(result.app_messages + result.control_messages);
      c.sim_events += static_cast<double>(result.sim_events);
    }
    return result;
  };

  // Pass A: the workload's own per-experiment path, in its order, so each
  // layer runs as warm (or as cold) as it does in the campaign. Nothing is
  // kept from one experiment to the next, as in the campaign. The pass
  // repeats kPathRepeats times; the ledger takes each layer's median
  // repetition, so one disturbed second on a shared machine does not skew
  // a whole layer.
  for (int rep = 0; rep < kPathRepeats; ++rep) {
    count = rep == 0;
    const std::size_t begin = t.spans().size();
    for (const auto& [s, k] : picks) {
      const StudyDef& def = w.studies[static_cast<std::size_t>(s)];
      const measure::StudyMeasure& m = w.replay ? w.replay_measure : def.measure;
      ScopedSpan root(t, "ledger.experiment", L, s, k);
      runtime::ExperimentParams params;
      {
        ScopedSpan span(t, "campaign.generate", L, s, k);
        params = def.study.make_params(k);
      }
      std::string key;
      if (w.replay) {
        // Cache-first order: key and probe, validate, then read.
        {
          ScopedSpan span(t, "serialize.cache_key", L, s, k);
          key = runtime::experiment_cache_key(params);
        }
        ScopedSpan span(t, "cache.contains", L, s, k);
        if (!warm->contains(key))
          throw std::runtime_error("ledger: no cache entry for " +
                                   campaign::experiment_context(def.study, k));
      }
      {
        ScopedSpan span(t, "campaign.validate", L, s, k);
        campaign::validate_experiment_params(params,
                                             campaign::experiment_context(def.study, k));
      }
      runtime::ExperimentResult result;
      if (w.replay) {
        ScopedSpan span(t, "cache.lookup", L, s, k);
        std::optional<runtime::ExperimentResult> hit = warm->lookup(key);
        if (!hit.has_value())
          throw std::runtime_error("ledger: cache lookup failed for " +
                                   campaign::experiment_context(def.study, k));
        result = std::move(*hit);
      } else {
        result = run(params, s, k);
      }
      if (remote) {
        std::vector<std::uint8_t> bytes;
        {
          ScopedSpan span(t, "serialize.encode", L, s, k);
          bytes = runtime::encode_experiment_result(result);
        }
        if (count) c.result_bytes += static_cast<double>(bytes.size());
        ScopedSpan span(t, "serialize.decode", L, s, k);
        result = runtime::decode_experiment_result(bytes);
      }
      const analysis::ExperimentAnalysis a = traced_analysis(t, L, s, k, result);
      if (a.accepted) {
        ScopedSpan span(t, "measure.apply", L, s, k);
        (void)m.apply(a);
      }
    }
    c.path_passes.push_back({begin, t.spans().size()});
    if (rep == 0) c.recompiles = context.recompiles();
  }

  // Pass B: the layers this workload's path does not call, on the same
  // experiments: the wire codec, the cache write and read paths and the
  // journal for every workload, and the run itself for ch5-replay. Each
  // experiment's result is made outside any span first (run again, or on
  // ch5-replay run in a span as one of the measured layers).
  count = w.replay;
  std::filesystem::create_directories(scratch);
  campaign::ResultCache store(scratch / "store");
  campaign::CampaignJournal journal = campaign::CampaignJournal::create(scratch / "journal");
  journal.campaign_begin("ledger", seed, static_cast<std::uint32_t>(w.studies.size()));
  int journaled_study = -1;
  const std::size_t storage_begin = t.spans().size();
  for (const auto& [s, k] : picks) {
    const StudyDef& def = w.studies[static_cast<std::size_t>(s)];
    if (s != journaled_study) {
      if (journaled_study >= 0) journal.study_end(static_cast<std::uint32_t>(journaled_study));
      journaled_study = s;
      journal.study_begin(static_cast<std::uint32_t>(s), def.study.name,
                          campaign::study_digest(def.study),
                          static_cast<std::uint32_t>(def.study.experiments));
    }
    const runtime::ExperimentParams params = def.study.make_params(k);
    runtime::ExperimentResult result;
    if (!w.replay) result = context.run(params);
    ScopedSpan root(t, "ledger.storage", L, s, k);
    if (w.replay) result = run(params, s, k);
    std::string key;
    {
      ScopedSpan span(t, "serialize.cache_key", L, s, k);
      key = runtime::experiment_cache_key(params);
    }
    if (!remote) {
      std::vector<std::uint8_t> bytes;
      {
        ScopedSpan span(t, "serialize.encode", L, s, k);
        bytes = runtime::encode_experiment_result(result);
      }
      c.result_bytes += static_cast<double>(bytes.size());
      ScopedSpan span(t, "serialize.decode", L, s, k);
      (void)runtime::decode_experiment_result(bytes);
    }
    {
      ScopedSpan span(t, "cache.store", L, s, k);
      store.store(key, result);
    }
    {
      ScopedSpan span(t, "journal.index_done", L, s, k);
      journal.index_done(static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(k), key);
    }
    if (!w.replay) {
      {
        ScopedSpan span(t, "cache.contains", L, s, k);
        (void)store.contains(key);
      }
      ScopedSpan span(t, "cache.lookup", L, s, k);
      if (!store.lookup(key).has_value())
        throw std::runtime_error("ledger: stored entry unreadable for " +
                                 campaign::experiment_context(def.study, k));
    }
  }
  if (journaled_study >= 0) journal.study_end(static_cast<std::uint32_t>(journaled_study));
  journal.campaign_end();
  c.storage_pass = {storage_begin, t.spans().size()};
  if (w.replay) c.recompiles = context.recompiles();

  double bytes = 0.0;
  long long entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(scratch / "store"))
    if (e.path().extension() == ".result") {
      bytes += static_cast<double>(e.file_size());
      ++entries;
    }
  c.cache_bytes_per_entry = entries > 0 ? bytes / static_cast<double>(entries) : 0.0;
  return c;
}

std::vector<std::string> on_path_layers(const Workload& w) {
  std::vector<std::string> layers = {"campaign.generate", "campaign.validate"};
  if (w.replay) {
    // Cache-first replay: key, probe and read instead of running.
    layers.insert(layers.end(), {"serialize.cache_key", "cache.contains", "cache.lookup"});
  } else {
    layers.push_back("runtime.run");
    if (w.runner.rfind("procs:", 0) == 0)
      layers.insert(layers.end(), {"serialize.encode", "serialize.decode"});
  }
  layers.insert(layers.end(), {"clocksync.alphabeta", "analysis.timeline",
                               "analysis.verify", "measure.apply"});
  return layers;
}

}  // namespace campaignbench
