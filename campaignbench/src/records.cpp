#include "records.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common.hpp"
#include "runtime/serialize.hpp"
#include "util/rng.hpp"

namespace campaignbench {

using namespace loki;

namespace {

constexpr int kSamples = 8;

/// Width of the projection of local reading `v` through `h`'s bounds:
/// (v - alpha) / beta is monotone in each parameter, so its extremes over
/// the bounds box sit at the four corners.
double projection_width(double v, const HostRecord& h) {
  double lo = INFINITY;
  double hi = -INFINITY;
  for (double a : {h.alpha_lo, h.alpha_hi})
    for (double b : {h.beta_lo, h.beta_hi}) {
      lo = std::min(lo, (v - a) / b);
      hi = std::max(hi, (v - a) / b);
    }
  return hi - lo;
}

/// State `seq` was in at physical instant `t` (entries with enter <= t).
const std::string* state_at(const runtime::TrueStateSeq& seq, SimTime t) {
  const std::string* current = nullptr;
  for (const auto& [enter, state] : seq) {
    if (enter > t) break;
    current = &state;
  }
  return current;
}

void fill_ring_truth(ExperimentRecord& r, const StudyDef& def,
                     const runtime::ExperimentResult& result) {
  const std::size_t slot = static_cast<std::size_t>(
      std::find(r.machines.begin(), r.machines.end(), def.machine) -
      r.machines.begin());
  if (slot >= r.machines.size()) return;
  const std::string& host = result.timeline_of(def.machine).initial_host;
  std::size_t stamp = 0;
  while (stamp < r.hosts.size() && r.hosts[stamp].host != host) ++stamp;
  if (stamp == r.hosts.size()) return;  // bound 0: the check will flag it
  // The bound of README "Ring duration bound".
  const HostRecord& h = r.hosts[stamp];
  const sim::ClockParams& clock = result.true_clocks[stamp];
  const double g_ref = static_cast<double>(r.hosts.front().granularity_ns);
  const double g_host = static_cast<double>(h.granularity_ns);
  const double v_max = std::max(std::fabs(static_cast<double>(result.start_local[stamp].ns)),
                                std::fabs(static_cast<double>(result.end_local[stamp].ns)));
  // One endpoint projected on its own: half the widest projection, the
  // stamp's and the reference's granularity, and the slack the clock-bounds
  // check allows (2 granularities on alpha, 1e-6 on beta).
  const double endpoint_ns = h.width_ns / 2.0 + 4.0 * g_host + 2.0 * g_ref + 1e-6 * v_max;
  const double margin_ns = endpoint_ns + 2.0 * g_ref + 1000.0;
  const double rate_spread = 1.0 / h.beta_lo - 1.0 / h.beta_hi;

  const runtime::TrueStateSeq& seq = result.truth.state_seq[slot];
  const double lo = static_cast<double>(result.start_phys.ns);
  const double hi = static_cast<double>(result.end_phys.ns);
  double total_ns = 0.0;
  double bound_ns = 0.0;
  double shortest_ns = INFINITY;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    if (seq[i].second != "CRITICAL") continue;
    const double a = static_cast<double>(seq[i].first.ns);
    const bool closed = i + 1 < seq.size();
    const double b = closed ? static_cast<double>(seq[i + 1].first.ns) : hi;
    total_ns += std::max(0.0, std::min(b, hi) - std::max(a, lo));
    if (closed && a >= lo + margin_ns && b <= hi - margin_ns) {
      // Both ends inside the window: their projections share the bounds,
      // so only the midpoint's rate error over the duration remains. Past
      // alpha_hi the midpoint runs at (1/beta_lo + 1/beta_hi) / 2, which is
      // off from the true 1/beta by at most half the spread; elsewhere by
      // at most the whole spread. 2e-6 covers the beta slack.
      const double v_a = static_cast<double>(clock.alpha.ns) + clock.beta * a;
      const double slope_error =
          (v_a - 2.0 * g_host > h.alpha_hi ? 0.5 : 1.0) * rate_spread + 2e-6;
      bound_ns += (b - a) * clock.beta * slope_error + 2.0 * (2.0 * g_host + 2.0 * g_ref);
      shortest_ns = std::min(shortest_ns, b - a);
    } else {
      // Near or past a window end: each stamped end inside the window (or
      // close enough to be projected across it) is off on its own.
      const auto near = [&](double x) { return x > lo - margin_ns && x < hi + margin_ns; };
      if (near(a)) bound_ns += endpoint_ns;
      if (closed && near(b)) bound_ns += endpoint_ns;
    }
  }
  // The two window ends are reference readings, off by g_ref each, and the
  // reference clock runs at beta_ref of physical time.
  const double beta_ref = result.true_clocks.front().beta;
  bound_ns += 2.0 * g_ref + std::fabs(beta_ref - 1.0) * total_ns;
  r.truth_ms = total_ns / 1e6;
  r.bound_ms = bound_ns / 1e6;
  r.shortest_interval_ms = std::isfinite(shortest_ns) ? shortest_ns / 1e6 : 0.0;
}

}  // namespace

ExperimentRecord make_record(const StudyDef& def, int study, int index,
                             const runtime::ExperimentResult& result,
                             const AnalysisPart& analysis,
                             std::optional<double> value) {
  ExperimentRecord r;
  r.study = study;
  r.index = index;
  r.completed = result.completed;
  r.accepted = analysis.accepted;
  r.verification_accepted = analysis.verification.accepted;
  r.missed = static_cast<int>(analysis.verification.missed.size());
  r.value = value;

  // Clocks: the analysis references the first host (AnalysisOptions
  // default), so the truth is taken relative to that host's true clock.
  const sim::ClockParams& ref = result.true_clocks.front();
  for (std::size_t i = 0; i < result.hosts.size(); ++i) {
    HostRecord h;
    h.host = result.hosts[i];
    const auto it = analysis.alphabeta.bounds.find(h.host);
    if (it != analysis.alphabeta.bounds.end()) {
      h.valid = it->second.valid;
      h.alpha_lo = it->second.alpha_lo;
      h.alpha_hi = it->second.alpha_hi;
      h.beta_lo = it->second.beta_lo;
      h.beta_hi = it->second.beta_hi;
    }
    const sim::ClockParams& clock = result.true_clocks[i];
    h.beta_true = clock.beta / ref.beta;
    h.alpha_true = static_cast<double>(clock.alpha.ns) -
                   static_cast<double>(ref.alpha.ns) * h.beta_true;
    h.granularity_ns = clock.granularity_ns;
    h.width_ns =
        std::max(projection_width(static_cast<double>(result.start_local[i].ns), h),
                 projection_width(static_cast<double>(result.end_local[i].ns), h));
    r.hosts.push_back(std::move(h));
  }

  // Ground truth per machine.
  const runtime::GroundTruth& truth = result.truth;
  r.machines = truth.machines;
  for (std::size_t m = 0; m < truth.machines.size(); ++m) {
    const bool crashed = !truth.crashes[m].empty();
    bool restarted = false;
    if (crashed)
      for (const auto& [enter, state] : truth.state_seq[m])
        if (state == "RESTART_SM" && enter >= truth.crashes[m].front()) restarted = true;
    r.crashed.push_back(crashed ? 1 : 0);
    r.restarted.push_back(restarted ? 1 : 0);
  }

  for (const runtime::TrueInjection& inj : truth.injections) {
    InjectionRecord rec;
    rec.machine = inj.machine;
    rec.fault = inj.fault;
    for (const InjectionRecord& prev : r.injections)
      if (prev.machine == inj.machine && prev.fault == inj.fault) ++rec.nth;
    if (const runtime::LocalTimeline* tl = result.find_timeline(inj.machine))
      for (const runtime::TimelineFaultEntry& f : tl->faults)
        if (f.name == inj.fault) rec.expr_text = f.expr_text;
    for (const runtime::TrueStateSeq& seq : truth.state_seq) {
      const std::string* s = state_at(seq, inj.at);
      rec.truth_states.push_back(s ? *s : std::string());
    }
    r.injections.push_back(std::move(rec));
  }
  for (const analysis::InjectionVerdict& v : analysis.verification.verdicts) {
    bool matched = false;
    for (InjectionRecord& rec : r.injections)
      if (rec.machine == v.machine && rec.fault == v.fault &&
          rec.nth == static_cast<int>(v.injection_index)) {
        rec.verdict = v.correct ? 1 : 0;
        matched = true;
        break;
      }
    if (!matched) ++r.unmatched_verdicts;
  }

  if (def.oracle == Oracle::RingDuration) fill_ring_truth(r, def, result);
  return r;
}

// --- OrderChecker ------------------------------------------------------------

OrderChecker::OrderChecker(std::vector<int> experiments_per_study)
    : sizes_(std::move(experiments_per_study)) {}

void OrderChecker::fail(const std::string& what) {
  if (error_.empty()) error_ = what;
}

void OrderChecker::feed(int study, int index) {
  if (study != study_ || index != next_)
    fail("emitted study " + std::to_string(study) + " index " +
         std::to_string(index) + " where study " + std::to_string(study_) +
         " index " + std::to_string(next_) + " was due");
  // Resynchronise on what was observed so one fault is reported once.
  study_ = study;
  next_ = index + 1;
  if (study_ >= 0 && study_ < static_cast<int>(sizes_.size()) &&
      next_ >= sizes_[static_cast<std::size_t>(study_)]) {
    ++study_;
    next_ = 0;
  }
}

void OrderChecker::finish_round() {
  if (study_ != static_cast<int>(sizes_.size()) || next_ != 0)
    fail("round ended with study " + std::to_string(study_) + " index " +
         std::to_string(next_) + " still due");
  study_ = 0;
  next_ = 0;
}

// --- RunLog / RecordSink -----------------------------------------------------

RunLog::RunLog(const Workload& w, std::uint64_t seed)
    : order([&w] {
        std::vector<int> sizes;
        for (const StudyDef& s : w.studies) sizes.push_back(s.study.experiments);
        return sizes;
      }()) {
  Rng rng(mix64(seed ^ 0x5a5a5a5aull));
  std::set<std::pair<int, int>> picked;
  while (static_cast<int>(picked.size()) < kSamples) {
    const int s = static_cast<int>(
        rng.uniform_int(0, static_cast<std::int64_t>(w.studies.size()) - 1));
    const int k = static_cast<int>(rng.uniform_int(
        0, w.studies[static_cast<std::size_t>(s)].study.experiments - 1));
    picked.insert({s, k});
  }
  for (const auto& [s, k] : picked) samples.push_back(Sample{s, k, {}, {}, false});
}

RecordSink::RecordSink(const Workload& w, RunLog& log, ValuesFn values,
                       const campaign::Runner* telemetry_source,
                       const measure::StudyMeasure* after_fact)
    : workload_(w),
      log_(log),
      values_(std::move(values)),
      telemetry_source_(telemetry_source),
      after_fact_(after_fact) {}

void RecordSink::stash(const analysis::ExperimentAnalysis& analysis) {
  stashed_.alphabeta = analysis.alphabeta;
  stashed_.verification = analysis.verification;
  stashed_.accepted = analysis.accepted;
  stashed_after_fact_.reset();
  if (after_fact_ != nullptr && analysis.accepted)
    stashed_after_fact_ = after_fact_->apply(analysis);
}

void RecordSink::on_study_begin(const campaign::StudyInfo& study) {
  log_.study_start_ns = now_ns();
  const std::vector<double>* v = values_(study.name);
  values_before_ = v ? v->size() : 0;
}

void RecordSink::on_experiment(const campaign::StudyInfo& study, int index,
                               const runtime::ExperimentResult& result) {
  const std::int64_t now = now_ns();
  if (log_.first_emit_ns < 0) {
    log_.first_emit_ns = now;
    log_.first_emit_cpu_s = cpu_seconds();
  }
  log_.last_emit_ns = now;
  ++log_.emitted;
  log_.order.feed(study.index, index);

  // The measuring sink ran first: a value appended since the last emit is
  // this experiment's.
  std::optional<double> value;
  const std::vector<double>* values = values_(study.name);
  const std::size_t have = values ? values->size() : 0;
  if (have > values_before_) value = values->back();
  values_before_ = have;

  const StudyDef& def = workload_.studies[static_cast<std::size_t>(study.index)];
  ExperimentRecord rec = make_record(def, study.index, index, result, stashed_, value);
  rec.after_fact = stashed_after_fact_;
  if (log_.round == 0) {
    for (Sample& s : log_.samples)
      if (s.study == study.index && s.index == index) {
        s.bytes = runtime::encode_experiment_result(result);
        s.value = value;
        s.seen = true;
      }
    log_.reference.push_back(std::move(rec));
  } else if (log_.position >= log_.reference.size() ||
             !(log_.reference[log_.position] == rec)) {
    if (log_.record_mismatches++ == 0)
      log_.first_mismatch = "round " + std::to_string(log_.round) + " study " +
                            std::to_string(study.index) + " index " +
                            std::to_string(index) + " differs from round 0";
  }
  ++log_.position;
}

void RecordSink::on_study_done(const campaign::StudyInfo& study) {
  if (telemetry_source_ == nullptr) return;
  const campaign::RunnerTelemetry t = telemetry_source_->telemetry();
  long long completed = 0;
  for (const campaign::WorkerTelemetry& w : t.workers) {
    completed += static_cast<long long>(w.latest.experiments_completed);
    log_.worker_busy_us +=
        w.latest.ewma_latency_us * static_cast<double>(w.latest.experiments_completed);
  }
  log_.fleet = runtime::merge_snapshots(log_.fleet, t.fleet_snapshot());
  log_.study_wall_ns += static_cast<double>(now_ns() - log_.study_start_ns);
  log_.worker_counts.push_back({completed, study.experiments});
}

}  // namespace campaignbench
