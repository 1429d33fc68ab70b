#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>

#include "analysis/pipeline.hpp"
#include "campaign/validate.hpp"
#include "measure/campaign_measure.hpp"
#include "runtime/serialize.hpp"
#include "spec/fault_expr.hpp"

namespace campaignbench {

using namespace loki;

namespace {

std::string where(const ExperimentRecord& r) {
  return "study " + std::to_string(r.study) + " index " + std::to_string(r.index);
}

std::string show(std::optional<double> v) {
  return v.has_value() ? std::to_string(*v) : std::string("none");
}

/// The value `def`'s measure must give `r`, from ground truth alone; for
/// RingDuration the truth itself (compared within r.bound_ms).
std::optional<double> oracle_value(const StudyDef& def, const ExperimentRecord& r) {
  if (!r.accepted) return std::nullopt;
  const auto flag = [&](const std::vector<char>& v, const std::string& m) {
    for (std::size_t i = 0; i < r.machines.size(); ++i)
      if (r.machines[i] == m) return v[i] != 0;
    return false;
  };
  switch (def.oracle) {
    case Oracle::Coverage:
      if (!flag(r.crashed, def.machine)) return std::nullopt;
      return flag(r.restarted, def.machine) ? 1.0 : 0.0;
    case Oracle::Correlated:
      if (!flag(r.crashed, "black")) return std::nullopt;
      return flag(r.crashed, "green") ? 1.0 : 0.0;
    case Oracle::Baseline:
      return flag(r.crashed, "green") ? 1.0 : 0.0;
    case Oracle::RingDuration:
      return r.truth_ms;
  }
  return std::nullopt;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) /
                               static_cast<double>(v.size());
}

}  // namespace

std::string check_clock_bounds(const std::vector<ExperimentRecord>& records) {
  for (const ExperimentRecord& r : records)
    for (const HostRecord& h : r.hosts) {
      if (!h.valid) return where(r) + ": host " + h.host + " has no valid bounds";
      const double slack = 2.0 * static_cast<double>(h.granularity_ns);
      if (h.alpha_lo > h.alpha_true + slack || h.alpha_hi < h.alpha_true - slack)
        return where(r) + ": host " + h.host + " alpha bounds [" +
               std::to_string(h.alpha_lo) + ", " + std::to_string(h.alpha_hi) +
               "] miss the true " + std::to_string(h.alpha_true);
      if (h.beta_lo > h.beta_true + 1e-6 || h.beta_hi < h.beta_true - 1e-6)
        return where(r) + ": host " + h.host + " beta bounds miss the true " +
               std::to_string(h.beta_true);
    }
  return "";
}

std::string check_injections(const std::vector<ExperimentRecord>& records) {
  std::map<std::string, spec::FaultExprPtr> parsed;
  for (const ExperimentRecord& r : records) {
    if (r.unmatched_verdicts != 0)
      return where(r) + ": " + std::to_string(r.unmatched_verdicts) +
             " verdict(s) for injections the simulator never performed";
    bool all_correct = true;
    for (const InjectionRecord& inj : r.injections) {
      if (inj.verdict == 0) all_correct = false;
      if (inj.verdict != 1) continue;
      auto it = parsed.find(inj.expr_text);
      if (it == parsed.end())
        it = parsed.emplace(inj.expr_text,
                            spec::parse_fault_expr(inj.expr_text, "check", 0)).first;
      const spec::StateView truth = [&](const std::string& machine) -> const std::string* {
        for (std::size_t i = 0; i < r.machines.size(); ++i)
          if (r.machines[i] == machine)
            return inj.truth_states[i].empty() ? nullptr : &inj.truth_states[i];
        return nullptr;
      };
      if (!it->second->eval(truth))
        return where(r) + ": " + inj.machine + " " + inj.fault + " #" +
               std::to_string(inj.nth) + " judged correct, but '" + inj.expr_text +
               "' was false in the true global state";
    }
    if (r.verification_accepted != (all_correct && r.missed == 0))
      return where(r) + ": verifier accepted=" + std::to_string(r.verification_accepted) +
             " disagrees with its verdicts (all correct=" + std::to_string(all_correct) +
             ", missed=" + std::to_string(r.missed) + ")";
    if (r.accepted != (r.verification_accepted && r.completed))
      return where(r) + ": experiment accepted=" + std::to_string(r.accepted) +
             " but verified=" + std::to_string(r.verification_accepted) +
             " completed=" + std::to_string(r.completed);
  }
  return "";
}

std::string check_values(const Workload& w,
                         const std::vector<ExperimentRecord>& records,
                         const std::vector<std::vector<double>>& sink_values) {
  std::vector<std::vector<double>> truth(w.studies.size());
  std::vector<std::vector<double>> recorded(w.studies.size());
  for (const ExperimentRecord& r : records) {
    const auto s = static_cast<std::size_t>(r.study);
    const StudyDef& def = w.studies[s];
    const std::optional<double> expect = oracle_value(def, r);
    if (r.value.has_value()) recorded[s].push_back(*r.value);
    if (expect.has_value()) truth[s].push_back(*expect);
    if (def.oracle == Oracle::RingDuration) {
      if (expect.has_value() != r.value.has_value() ||
          (expect && std::fabs(*expect - *r.value) > r.bound_ms))
        return where(r) + ": measured " + show(r.value) + " ms vs true " +
               show(expect) + " ms, bound " + std::to_string(r.bound_ms) + " ms";
    } else if (expect != r.value) {
      return where(r) + " (" + def.study.name + "): measured " + show(r.value) +
             ", ground truth gives " + show(expect);
    }
  }
  for (std::size_t s = 0; s < w.studies.size(); ++s)
    if (s >= sink_values.size() || recorded[s] != sink_values[s])
      return "study " + w.studies[s].study.name +
             ": the measuring sink's value list differs from the per-experiment values";

  if (!w.weights.empty()) {
    std::vector<measure::StudySample> samples;
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < w.weights.size(); ++i) {
      samples.push_back({w.studies[i].study.name, sink_values[i]});
      num += w.weights[i] * mean(truth[i]);
      den += w.weights[i];
    }
    const double stratified =
        measure::stratified_weighted_measure(samples, w.weights).moments.mean;
    if (std::fabs(stratified - num / den) > 1e-12)
      return "stratified weighted coverage " + std::to_string(stratified) +
             " != closed form " + std::to_string(num / den);
  }
  return "";
}

std::string ring_bound_summary(const Workload& w,
                               const std::vector<ExperimentRecord>& records) {
  double widest = 0.0, closest = 0.0;
  long long n = 0;
  for (const ExperimentRecord& r : records) {
    const StudyDef& def = w.studies[static_cast<std::size_t>(r.study)];
    if (def.oracle != Oracle::RingDuration || !r.value || r.truth_ms <= 0.0) continue;
    ++n;
    widest = std::max(widest, r.bound_ms / r.truth_ms);
    if (r.bound_ms > 0.0) closest = std::max(closest, std::fabs(*r.value - r.truth_ms) / r.bound_ms);
  }
  if (n == 0) return "";
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "ring duration over %lld experiments: largest bound/truth %.3g, "
                "largest |measured - truth|/bound %.3g",
                n, widest, closest);
  return buf;
}

std::string check_order(const OrderChecker& order) { return order.error(); }

std::string check_worker_counts(
    const std::vector<std::pair<long long, long long>>& counts) {
  for (std::size_t i = 0; i < counts.size(); ++i)
    if (counts[i].first != counts[i].second)
      return "study run " + std::to_string(i) + ": workers report " +
             std::to_string(counts[i].first) + " experiments completed, the "
             "coordinator emitted " + std::to_string(counts[i].second);
  return "";
}

std::string check_replay(const std::vector<ExperimentRecord>& populated,
                         const std::vector<ExperimentRecord>& replayed) {
  if (populated.size() != replayed.size())
    return "replayed " + std::to_string(replayed.size()) + " experiments, populated " +
           std::to_string(populated.size());
  for (std::size_t i = 0; i < populated.size(); ++i) {
    ExperimentRecord a = populated[i];
    ExperimentRecord b = replayed[i];
    if (a.after_fact != b.value)
      return where(b) + ": replayed value " + show(b.value) +
             " != the populating run's " + show(a.after_fact);
    a.value = a.after_fact = b.value = b.after_fact = std::nullopt;
    if (!(a == b)) return where(b) + ": replayed record differs from the populating run's";
  }
  return "";
}

std::vector<Rerun> rerun_samples(const Workload& w, const std::vector<Sample>& samples) {
  std::vector<Rerun> out;
  for (const Sample& s : samples) {
    const StudyDef& def = w.studies[static_cast<std::size_t>(s.study)];
    const measure::StudyMeasure& m = w.replay ? w.replay_measure : def.measure;
    const runtime::ExperimentParams params = def.study.make_params(s.index);
    campaign::validate_experiment_params(params,
                                         campaign::experiment_context(def.study, s.index));
    const runtime::ExperimentResult result = runtime::run_experiment(params);
    const analysis::ExperimentAnalysis a = analysis::analyze_experiment(result);
    Rerun r;
    r.study = s.study;
    r.index = s.index;
    r.bytes = runtime::encode_experiment_result(result);
    if (a.accepted) r.value = m.apply(a);
    out.push_back(std::move(r));
  }
  return out;
}

std::string check_rerun(const std::vector<Sample>& samples,
                        const std::vector<Rerun>& reruns) {
  if (samples.size() != reruns.size()) return "sample and re-run counts differ";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const std::string at = "sample study " + std::to_string(s.study) + " index " +
                           std::to_string(s.index);
    if (!s.seen) return at + " was never emitted";
    if (s.bytes != reruns[i].bytes)
      return at + ": one-shot re-execution encodes " +
             std::to_string(reruns[i].bytes.size()) + " bytes that differ from the "
             "campaign's " + std::to_string(s.bytes.size());
    if (s.value != reruns[i].value)
      return at + ": one-shot value " + show(reruns[i].value) + " != campaign's " +
             show(s.value);
  }
  return "";
}

std::vector<SelfTestLine> self_test(const Workload& w,
                                    const std::vector<ExperimentRecord>& records,
                                    const std::vector<std::vector<double>>& sink_values,
                                    const std::vector<Sample>& samples,
                                    const std::vector<Rerun>& reruns) {
  std::vector<SelfTestLine> out;
  const auto report = [&](const std::string& perturbation, const std::string& check,
                          bool applied, const std::string& error) {
    out.push_back(SelfTestLine{perturbation, check, applied && !error.empty(),
                               applied ? error : "no record to perturb"});
  };

  {  // A shifted true clock must fall outside its bounds.
    std::vector<ExperimentRecord> copy = records;
    bool applied = false;
    for (ExperimentRecord& r : copy)
      if (!applied && r.hosts.size() > 1) {
        HostRecord& h = r.hosts[1];
        h.alpha_true += (h.alpha_hi - h.alpha_lo) + 4.0 * h.granularity_ns + 1e6;
        applied = true;
      }
    report("shifted true clock", "clock bounds", applied, check_clock_bounds(copy));
  }
  {  // A flipped verdict contradicts either the truth or the acceptance.
    std::vector<ExperimentRecord> copy = records;
    bool applied = false;
    for (ExperimentRecord& r : copy)
      for (InjectionRecord& inj : r.injections)
        if (!applied && inj.verdict >= 0) {
          inj.verdict = 1 - inj.verdict;
          applied = true;
        }
    report("flipped verdict", "injections", applied, check_injections(copy));
  }
  {  // A changed measure value must disagree with ground truth.
    std::vector<ExperimentRecord> copy = records;
    bool applied = false;
    for (ExperimentRecord& r : copy)
      if (!applied && r.value.has_value()) {
        r.value = *r.value + 1.0 + 4.0 * r.bound_ms;
        applied = true;
      }
    report("changed measure value", "values", applied,
           check_values(w, copy, sink_values));
  }
  if (std::any_of(w.studies.begin(), w.studies.end(),
                  [](const StudyDef& d) { return d.oracle == Oracle::RingDuration; })) {
    // A truth that misses one CRITICAL stay must fall outside the bound.
    std::vector<ExperimentRecord> copy = records;
    bool applied = false;
    for (ExperimentRecord& r : copy)
      if (!applied && r.value.has_value() && r.shortest_interval_ms > 0.0) {
        r.truth_ms -= r.shortest_interval_ms;
        applied = true;
      }
    report("dropped CRITICAL stay in the truth", "values", applied,
           check_values(w, copy, sink_values));
  }
  std::vector<int> sizes;
  for (const StudyDef& s : w.studies) sizes.push_back(s.study.experiments);
  const auto feed_round = [&](int skip, int twice) {
    OrderChecker order(sizes);
    int pos = 0;
    for (std::size_t s = 0; s < sizes.size(); ++s)
      for (int k = 0; k < sizes[s]; ++k, ++pos) {
        if (pos == skip) continue;
        order.feed(static_cast<int>(s), k);
        if (pos == twice) order.feed(static_cast<int>(s), k);
      }
    order.finish_round();
    return check_order(order);
  };
  const int middle = w.experiments_per_round() / 2;
  report("dropped index", "order", true, feed_round(middle, -1));
  report("duplicated index", "order", true, feed_round(-1, middle));
  {
    std::vector<Rerun> copy = reruns;
    const bool applied = !copy.empty() && !copy.front().bytes.empty();
    if (applied) copy.front().bytes[copy.front().bytes.size() / 2] ^= 0x01;
    report("altered byte in a re-executed result", "re-execution", applied,
           check_rerun(samples, copy));
  }
  return out;
}

}  // namespace campaignbench
