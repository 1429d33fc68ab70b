#include "workloads.hpp"

#include <algorithm>
#include <stdexcept>

#include <sched.h>

#include "apps/election.hpp"
#include "apps/token_ring.hpp"
#include "measure/predicate.hpp"
#include "spec/fault_spec.hpp"
#include "util/rng.hpp"

namespace campaignbench {

using namespace loki;

namespace {

// Round sizes: large enough that one round is a few hundred milliseconds
// of work (a run measures whole rounds and reports their median), small
// enough that a 10 s run still holds ten or more rounds.
constexpr int kCh5PerStudy = 600;     // 5 studies -> 3000 experiments a round
constexpr int kRingExperiments = 1500;
constexpr int kReplayExperiments = 1000;

const std::vector<std::string> kHosts = {"hostA", "hostB", "hostC"};
const std::vector<std::pair<std::string, std::string>> kElection = {
    {"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}};
const std::vector<std::pair<std::string, std::string>> kRing = {
    {"n1", "hostA"}, {"n2", "hostB"}, {"n3", "hostC"}};

/// Experiment seed of index k of study `study_no`: disjoint per study for
/// any campaign seed (a study holds far fewer than 2^20 experiments).
std::uint64_t experiment_seed(std::uint64_t base, int study_no, int k) {
  return base + (static_cast<std::uint64_t>(study_no) << 20) +
         static_cast<std::uint64_t>(k);
}

runtime::ExperimentParams election_base(std::uint64_t seed) {
  apps::ElectionParams app;
  app.run_for = milliseconds(700);
  app.fault_activation_prob = 0.85;  // faults may stay dormant (§1.1)
  return apps::election_experiment(seed, kHosts, kElection, app);
}

runtime::NodeConfig& node(runtime::ExperimentParams& p, const std::string& nick) {
  for (runtime::NodeConfig& n : p.nodes)
    if (n.nickname == nick) return n;
  throw std::logic_error("campaignbench: no node " + nick);
}

measure::ObservationFunction whole_window_duration() {
  return measure::obs_total_duration(true, measure::TimeArg::start_exp(),
                                     measure::TimeArg::end_exp());
}

/// "(first) held at some point; then report whether (then) held" — the
/// shape of every Chapter 5 measure (§5.8).
measure::StudyMeasure crash_then(const std::string& first,
                                 const std::string& then) {
  measure::StudyMeasure m;
  m.add(measure::subset_default(), measure::parse_predicate(first),
        whole_window_duration());
  m.add(measure::subset_greater(0.0), measure::parse_predicate(then),
        measure::obs_greater(whole_window_duration(), 0.0));
  return m;
}

/// Coverage study (Chapter 5, first evaluation): the fault always hits
/// `machine` as leader; its restart succeeds with `reliability`.
StudyDef coverage_study(const std::string& machine, int study_no,
                        double reliability, std::uint64_t base, int n) {
  StudyDef def;
  def.study.name = "study" + std::to_string(study_no) + "-" + machine;
  def.study.experiments = n;
  def.study.make_params = [=](int k) {
    runtime::ExperimentParams p = election_base(experiment_seed(base, study_no, k));
    runtime::NodeConfig& target = node(p, machine);
    target.fault_spec = spec::parse_fault_spec(
        machine.substr(0, 1) + "fault1 (" + machine + ":LEAD) always\n", "ch5");
    target.restart.enabled = true;
    target.restart.delay = milliseconds(60);
    target.restart.max_restarts = 2;
    Rng rng(mix64(base ^ (777 + 131 * static_cast<std::uint64_t>(study_no))) +
            static_cast<std::uint64_t>(k));
    if (!rng.bernoulli(reliability)) target.restart.enabled = false;
    return p;
  };
  def.measure = crash_then("(" + machine + ", CRASH)", "(" + machine + ", RESTART_SM)");
  def.oracle = Oracle::Coverage;
  def.machine = machine;
  return def;
}

StudyDef correlated_study(std::uint64_t base, int n) {
  StudyDef def;
  def.study.name = "study4-correlated";
  def.study.experiments = n;
  def.study.make_params = [=](int k) {
    runtime::ExperimentParams p = election_base(experiment_seed(base, 4, k));
    node(p, "black").fault_spec =
        spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "ch5");
    node(p, "green").fault_spec = spec::parse_fault_spec(
        "gfault2 ((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) once\n", "ch5");
    return p;
  };
  def.measure = crash_then("(black, CRASH)", "(green, CRASH)");
  def.oracle = Oracle::Correlated;
  return def;
}

StudyDef baseline_study(std::uint64_t base, int n) {
  StudyDef def;
  def.study.name = "study5-baseline";
  def.study.experiments = n;
  def.study.make_params = [=](int k) {
    runtime::ExperimentParams p = election_base(experiment_seed(base, 5, k));
    node(p, "green").fault_spec = spec::parse_fault_spec(
        "gfault3 ((green:FOLLOW) | (green:ELECT)) once\n", "ch5");
    return p;
  };
  def.measure.add(measure::subset_default(),
                  measure::parse_predicate("(green, CRASH)"),
                  measure::obs_greater(whole_window_duration(), 0.0));
  def.oracle = Oracle::Baseline;
  return def;
}

/// Token ring, 3 nodes on 3 hosts; n3 forges a second token while n1 is in
/// its critical section. The measure is n2's total time in CRITICAL — n2
/// sits on hostB, so every one of its stamps crosses the clock projection.
StudyDef ring_study(std::uint64_t base, int n) {
  StudyDef def;
  def.study.name = "ring-n2-critical";
  def.study.experiments = n;
  def.study.make_params = [=](int k) {
    runtime::ExperimentParams p = apps::token_ring_experiment(
        experiment_seed(base, 6, k), kHosts, kRing, apps::TokenRingParams{});
    node(p, "n3").fault_spec =
        spec::parse_fault_spec("duplicate_token (n1:CRITICAL) once\n", "ring");
    return p;
  };
  def.measure.add(measure::subset_default(),
                  measure::parse_predicate("(n2, CRITICAL)"),
                  whole_window_duration());
  def.oracle = Oracle::RingDuration;
  def.machine = "n2";
  return def;
}

std::vector<StudyDef> chapter5(std::uint64_t base, int n) {
  std::vector<StudyDef> out;
  out.push_back(coverage_study("black", 1, 0.9, base, n));
  out.push_back(coverage_study("green", 2, 0.7, base, n));
  out.push_back(coverage_study("yellow", 3, 0.5, base, n));
  out.push_back(correlated_study(base, n));
  out.push_back(baseline_study(base, n));
  return out;
}

}  // namespace

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

int Workload::experiments_per_round() const {
  int n = 0;
  for (const StudyDef& s : studies) n += s.study.experiments;
  return n;
}

int runner_workers() {
  // The CPUs this process may run on (what nproc reports), not the host's.
  // One CPU goes to the coordinator and one stays free: on a shared VM,
  // runs that kept every CPU busy drifted about twice as far between sets
  // as runs that left one idle (README, "Workloads").
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp(cpus - 2, 1, 3);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  // 2^40 keeps every derived experiment seed far from wrapping.
  const std::uint64_t base = mix64(seed) & ((std::uint64_t{1} << 40) - 1);
  const std::string workers = std::to_string(runner_workers());
  Workload w;
  w.name = name;
  if (name == "ch5-serial" || name == "ch5-procs") {
    w.runner = name == "ch5-serial" ? "serial" : "procs:" + workers;
    w.studies = chapter5(base, kCh5PerStudy);
    w.weights = {3.0, 2.0, 1.0};  // typical fault occurrence rates (§5.8)
  } else if (name == "ring-threads") {
    w.runner = "threads:" + workers;
    w.studies.push_back(ring_study(base, kRingExperiments));
  } else if (name == "ch5-replay") {
    w.replay = true;
    w.studies.push_back(coverage_study("black", 1, 0.9, base, kReplayExperiments));
    w.weights = {1.0};
    // Defined after the fact (§4.3): black's total downtime, in ms.
    w.replay_measure.add(measure::subset_default(),
                         measure::parse_predicate("(black, CRASH)"),
                         whole_window_duration());
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace campaignbench
