// cfc_perfbench — one measured pass of a benchmark workload, in its own
// process. perfbench/run.py starts several of these per run and reports
// medians; because every pass is a fresh process, no pass is ever a
// process's second one (a reused pool and warmed allocator would otherwise
// make later passes differ from the first).
//
//   cfc_perfbench --workload certify|differential|tables --seed N
//                 [--studies FILE] [--trace FILE] [--probes] [--setup-only]
//
//   setup_s runs from a constructor that precedes the default-priority
//   static initialisers (so it includes the registry's self-registration)
//   to the end of set-up, after the pool start and the spec list. Right
//   after the pass, cal_s times a fixed calibration kernel (see
//   calibration_s).
//
//   --studies    write the canonical cfc.study.v1 payloads (timing
//                excluded) of the pass to FILE, one array element per
//                operation; a failed operation is {"error": ...}.
//   --trace      traced pass: enable obs::MetricRegistry and record an
//                obs::Tracer trace to FILE, validated afterwards.
//   --probes     also time the layer probes (Sim step / mark rewind /
//                setup, MeasureAccumulator events, StaticModel::analyze)
//                after the pass, outside its timed interval.
//   --setup-only exit right after setup, reporting setup_s only.
//
// Prints one JSON object on stdout holding the raw measurements; exits 0
// whenever the pass ran (failed operations and failed checks are data),
// nonzero on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiment_runner.h"
#include "analysis/study.h"
#include "core/algorithm_registry.h"
#include "core/bounds.h"
#include "core/streaming_measures.h"
#include "mutex/detector_adapter.h"
#include "mutex/mutex_algorithm.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sa/static_summary.h"
#include "sched/sched.h"
#include "sched/sim.h"

namespace {

using namespace cfc;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ workloads

/// One operation of a workload: a study, the label that keys it, and the
/// checks its values must pass (each failed check appends a message).
struct Op {
  StudySpec spec;
  std::string label;
  std::function<void(const StudyResult&, std::vector<std::string>&)> check;
};

struct Workload {
  int threads = 1;
  std::string reduction;  ///< the policy of its searches (result key)
  /// certify / differential run as one Campaign; tables runs one Campaign
  /// per operation, so a study that throws fails alone.
  bool one_campaign = true;
  std::vector<Op> ops;
};

void expect(bool ok, const std::string& what, std::vector<std::string>& out) {
  if (!ok) {
    out.push_back(what);
  }
}

std::string cell_label(const std::string& kind, const std::string& name,
                       int n) {
  return kind + "|" + name + "|n=" + std::to_string(n);
}

void require_certified(const StudyResult& r, std::vector<std::string>& out) {
  expect(r.certified, "not certified", out);
}

/// The stateful source-DPOR certification users run (the Study default for
/// Exhaustive), at the n = 5 / n = 6 frontier.
Workload certify_workload() {
  Workload w;
  w.threads = 4;
  w.reduction = "source-dpor";
  struct Cell {
    const char* name;
    int n;
  };
  for (const Cell c : {Cell{"peterson-tree", 5}, Cell{"tas-lock", 5},
                       Cell{"kessels-tree", 5}, Cell{"peterson-tree", 6}}) {
    w.ops.push_back({StudySpec::of(c.name)
                         .kind(StudyKind::Mutex)
                         .n(c.n)
                         .worst_case(SearchStrategy::Exhaustive)
                         .depth(12),
                     cell_label("mutex", c.name, c.n) + "|d=12",
                     require_certified});
  }
  return w;
}

/// The unreduced reference search (visited pruning on, no POR) on the same
/// subjects at sizes it can afford, on one thread.
Workload differential_workload() {
  Workload w;
  w.threads = 1;
  w.reduction = "off";
  struct Size {
    int n;
    int depth;
  };
  for (const Size s : {Size{3, 20}, Size{4, 12}}) {
    for (const char* name : {"peterson-tree", "tas-lock", "kessels-tree"}) {
      w.ops.push_back({StudySpec::of(name)
                           .kind(StudyKind::Mutex)
                           .n(s.n)
                           .worst_case(SearchStrategy::Exhaustive)
                           .reduction(ReductionPolicy::Off)
                           .depth(s.depth),
                       cell_label("mutex", name, s.n) + "|d=" +
                           std::to_string(s.depth),
                       require_certified});
    }
  }
  return w;
}

void expect_wc_at_least_cf(const StudyResult& r,
                           std::vector<std::string>& out) {
  expect(r.wc.steps >= r.cf.steps, "wc steps < cf steps", out);
}

/// The table reproductions at paper sizes: every registry subject of each
/// kind, contention-free measurement plus the seeded Random worst case.
Workload tables_workload(std::uint64_t seed) {
  Workload w;
  w.threads = 4;
  w.reduction = "random";
  w.one_campaign = false;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 8; ++i) {
    seeds.push_back(seed + i);  // the table benches' --seed convention
  }
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();

  // Table 1: each mutex usable at n, two sessions per process.
  for (const int n : {4, 16, 64}) {
    const auto un = static_cast<std::uint64_t>(n);
    for (const MutexAlgorithmEntry* entry : registry.mutex_for_n(n)) {
      const AlgorithmInfo& info = entry->info;
      const int l = info.atomicity_param;
      w.ops.push_back(
          {StudySpec::of(info.name)
               .kind(StudyKind::Mutex)
               .n(n)
               .sessions(2)
               .contention_free()
               .worst_case(SearchStrategy::Random)
               .seeds(seeds),
           cell_label("mutex", info.name, n),
           [info, un, l](const StudyResult& r,
                            std::vector<std::string>& out) {
             expect_wc_at_least_cf(r, out);
             // Theorem 3, the values table1_mutex_bounds checks.
             if (info.has_tag("thm3-paper") && l <= bounds::ceil_log2(un)) {
               expect(r.cf.steps == bounds::thm3_cf_step_upper(un, l),
                      "cf steps != 7*ceil(log n/l)", out);
               expect(r.cf.registers == bounds::thm3_cf_register_upper(un, l),
                      "cf registers != 3*ceil(log n/l)", out);
             }
             if (info.has_tag("thm3-exact")) {
               expect(r.measured_atomicity <= l, "atomicity > l", out);
             }
             if (info.name == "lamport-fast") {
               expect(r.cf.steps == 7 && r.cf.registers == 3,
                      "lamport-fast cf != 7/3", out);
             }
           }});
    }
  }

  // Contention detection (ablation_detection): the registry detectors and
  // the Lemma 1 adapters over constant-time mutexes and the l=2 tree.
  for (const int n : {16, 64, 256}) {
    const auto add = [&](StudySpec spec, std::string name, int l) {
      w.ops.push_back(
          {std::move(spec)
               .kind(StudyKind::Detector)
               .n(n)
               .contention_free()
               .worst_case(SearchStrategy::Random)
               .seeds(seeds),
           cell_label("detector", name, n),
           // No wc >= cf check here: the Random detector battery holds no
           // contention-free schedule, so the worst case it finds is a
           // lower bound that can sit below cf (splitter-tree-l4 at n=64
           // and n=256 does at most seeds).
           [name, n, l](const StudyResult& r, std::vector<std::string>& out) {
             if (name == "lemma1(lamport-fast)") {
               expect(r.cf.steps == 6, "lemma1(lamport) cf != 5 + 1", out);
             }
             if (l > 0) {  // a splitter trie: 4 steps per level, any run
               const int depth = bounds::ceil_div(
                   bounds::ceil_log2(static_cast<std::uint64_t>(n)), l);
               expect(r.cf.steps == 4 * depth,
                      "splitter cf steps != 4*ceil(log n/l)", out);
               expect(r.wc.steps <= 4 * depth,
                      "splitter wc steps > 4*ceil(log n/l)", out);
             }
           }});
    };
    for (const DetectorAlgorithmEntry* entry : registry.detector_algorithms()) {
      // splitter-tree-full is one level at atomicity ceil(log n).
      int l = 0;
      if (entry->info.has_tag("splitter")) {
        l = entry->info.atomicity_param > 0
                ? entry->info.atomicity_param
                : bounds::ceil_log2(static_cast<std::uint64_t>(n));
      }
      add(StudySpec::of(entry->info.name), entry->info.name, l);
    }
    for (const char* tag : {"fast", "rmw"}) {
      for (const MutexAlgorithmEntry* entry : registry.mutex_for_n(n, tag)) {
        const std::string name = "lemma1(" + entry->info.name + ")";
        add(StudySpec::of(name).factory(
                DetectorFromMutex::factory(entry->factory)),
            name, 0);
      }
    }
    add(StudySpec::of("lemma1(thm3-exact-l2)")
            .factory(DetectorFromMutex::factory(
                registry.mutex("thm3-exact-l2").factory)),
        "lemma1(thm3-exact-l2)", 0);
  }

  // Table 2: the naming adversary battery over every registry algorithm.
  for (const int n : {8, 16, 32, 64}) {
    for (const NamingAlgorithmEntry* entry : registry.naming_algorithms()) {
      w.ops.push_back(
          {StudySpec::of(entry->info.name)
               .kind(StudyKind::Naming)
               .n(n)
               .contention_free()
               .worst_case()
               .seeds(seeds),
           cell_label("naming", entry->info.name, n),
           [](const StudyResult& r, std::vector<std::string>& out) {
             expect_wc_at_least_cf(r, out);
             expect(r.wc.registers >= r.cf.registers,
                    "wc registers < cf registers", out);
           }});
    }
  }
  return w;
}

// ------------------------------------------------------------ the pass

struct PassResult {
  std::vector<std::optional<StudyResult>> results;  ///< per op
  std::vector<std::string> errors;                  ///< per op; "" = ran
  std::vector<CampaignStats> stats;                 ///< per campaign
  std::vector<std::string> campaign_errors;         ///< per campaign
};

/// "<type>: <message>". The type alone goes into the studies payload: when
/// several cells of a campaign throw, which message surfaces depends on
/// which cell finished first.
std::string describe(const std::exception& e) {
  if (dynamic_cast<const MutualExclusionViolation*>(&e) != nullptr) {
    return std::string("MutualExclusionViolation: ") + e.what();
  }
  return std::string("exception: ") + e.what();
}

std::string error_type(const std::string& description) {
  return description.substr(0, description.find(':'));
}

/// Runs `ops` (indices into w.ops) as one Campaign. Never throws: an
/// exception lands in *error, and no result slot of the campaign is set.
void run_campaign(const Workload& w, const std::vector<std::size_t>& ops,
                  ExperimentRunner& runner, PassResult& out,
                  CampaignStats& stats, std::string* error) {
  const obs::TraceSpan span("bench.campaign");
  Campaign campaign;
  for (const std::size_t i : ops) {
    campaign.add(w.ops[i].spec);
  }
  try {
    std::vector<StudyResult> results = campaign.run(&runner, &stats);
    for (std::size_t k = 0; k < ops.size(); ++k) {
      out.results[ops[k]] = std::move(results[k]);
    }
  } catch (const std::exception& e) {
    *error = describe(e);
  }
}

std::vector<std::vector<std::size_t>> campaigns_of(const Workload& w) {
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    if (w.one_campaign && !groups.empty()) {
      groups.back().push_back(i);
    } else {
      groups.push_back({i});
    }
  }
  return groups;
}

/// The timed pass: every campaign of the workload fanned over `runner`
/// (nested parallel_for: each campaign's cells share the same pool).
PassResult run_pass(const Workload& w,
                    const std::vector<std::vector<std::size_t>>& groups,
                    ExperimentRunner& runner) {
  PassResult out;
  out.results.resize(w.ops.size());
  out.errors.resize(w.ops.size());
  out.stats.resize(groups.size());
  out.campaign_errors.resize(groups.size());
  const obs::TraceSpan span("bench.pass");
  runner.parallel_for(groups.size(), [&](std::size_t g) {
    run_campaign(w, groups[g], runner, out, out.stats[g],
                 &out.campaign_errors[g]);
  });
  return out;
}

/// Outside the timed interval: attributes each failed campaign's exception
/// to its operations. A one-op campaign's error is that op's; the ops of a
/// larger campaign are re-run one by one to find which of them throws.
void attribute_failures(const Workload& w,
                        const std::vector<std::vector<std::size_t>>& groups,
                        ExperimentRunner& runner, PassResult& pass) {
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (pass.campaign_errors[g].empty()) {
      continue;
    }
    if (groups[g].size() == 1) {
      pass.errors[groups[g][0]] = pass.campaign_errors[g];
      continue;
    }
    for (const std::size_t i : groups[g]) {
      CampaignStats ignored;
      run_campaign(w, {i}, runner, pass, ignored, &pass.errors[i]);
    }
  }
}

// ------------------------------------------------------------ probes

struct ProbeSubject {
  std::string name;
  int n = 0;
  MutexFactory make;
};

std::vector<ProbeSubject> certify_subjects() {
  std::vector<ProbeSubject> out;
  for (const char* name : {"peterson-tree", "tas-lock", "kessels-tree"}) {
    out.push_back({name, 5, AlgorithmRegistry::instance().mutex(name).factory});
  }
  return out;
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Steps `sim` round-robin until nothing is runnable or `limit` units ran.
std::uint64_t run_round_robin(Sim& sim, RoundRobinScheduler& rr,
                              std::uint64_t limit) {
  std::uint64_t steps = 0;
  while (steps < limit) {
    const std::optional<Pid> p = rr.next(sim);
    if (!p) {
      break;
    }
    (void)sim.step(*p);
    ++steps;
  }
  return steps;
}

constexpr std::uint64_t kRunCap = 1'000'000;

/// Each probe times kBlocks equal blocks of work and reports the median
/// block's cost per unit, so a burst of host noise skews one block only.
constexpr int kBlocks = 5;

struct Tally {
  double ns = 0;
  std::uint64_t units = 0;
};

double median_cost(const std::function<Tally()>& block) {
  std::vector<double> costs;
  for (int b = 0; b < kBlocks; ++b) {
    const Tally t = block();
    costs.push_back(t.ns / static_cast<double>(std::max<std::uint64_t>(
                               t.units, 1)));
  }
  std::sort(costs.begin(), costs.end());
  return costs[costs.size() / 2];
}

struct Probes {
  double sim_step_ns = 0;
  double sim_rewind_mark_ns = 0;
  double sim_setup_us = 0;
  double measures_event_ns = 0;
  double sa_analyze_ms = 0;
};

/// Sim construction + registry factory + spawn, per simulation.
double probe_sim_setup_us(const std::vector<ProbeSubject>& subjects) {
  const obs::TraceSpan span("probe.sim_setup");
  return median_cost([&] {
    Tally t;
    for (int rep = 0; rep < 1000; ++rep) {
      for (const ProbeSubject& s : subjects) {
        const auto t0 = Clock::now();
        auto sim = std::make_unique<Sim>();
        std::unique_ptr<MutexAlgorithm> alg =
            setup_mutex(*sim, s.make, s.n, 1);
        t.ns += ns_between(t0, Clock::now());
        ++t.units;
        alg.reset();  // the owner dies before the sim, as in the explorer
      }
    }
    return t;
  }) / 1e3;
}

/// Sim::step on a round-robin run (trace recording off, as in the
/// searches).
double probe_sim_step_ns(const std::vector<ProbeSubject>& subjects) {
  const obs::TraceSpan span("probe.sim_step");
  return median_cost([&] {
    Tally t;
    for (int rep = 0; rep < 1000; ++rep) {
      for (const ProbeSubject& s : subjects) {
        Sim sim;
        std::unique_ptr<MutexAlgorithm> alg =
            setup_mutex(sim, s.make, s.n, 1);
        sim.set_trace_recording(false);
        RoundRobinScheduler rr;
        const auto t0 = Clock::now();
        t.units += run_round_robin(sim, rr, kRunCap);
        t.ns += ns_between(t0, Clock::now());
      }
    }
    return t;
  });
}

/// capture_mark + rewind_to_mark at the middle of a round-robin run, a few
/// units past the mark.
double probe_sim_rewind_mark_ns(const std::vector<ProbeSubject>& subjects) {
  const obs::TraceSpan span("probe.sim_rewind_mark");
  constexpr std::uint64_t kPastMark = 4;
  return median_cost([&] {
    Tally t;
    for (const ProbeSubject& s : subjects) {
      std::uint64_t length = 0;
      {
        Sim sim;
        std::unique_ptr<MutexAlgorithm> alg =
            setup_mutex(sim, s.make, s.n, 1);
        sim.set_trace_recording(false);
        RoundRobinScheduler rr;
        length = run_round_robin(sim, rr, kRunCap);
      }
      Sim sim;
      std::unique_ptr<MutexAlgorithm> alg = setup_mutex(sim, s.make, s.n, 1);
      sim.set_trace_recording(false);
      sim.mark_rewind_base();
      RoundRobinScheduler rr;
      (void)run_round_robin(sim, rr, length / 2);
      Sim::RewindMark mark;
      for (int rep = 0; rep < 10000; ++rep) {
        const auto t0 = Clock::now();
        sim.capture_mark(mark);
        const auto t1 = Clock::now();
        (void)run_round_robin(sim, rr, kPastMark);
        const auto t2 = Clock::now();
        (void)sim.rewind_to_mark(mark);
        t.ns += ns_between(t0, t1) + ns_between(t2, Clock::now());
        ++t.units;
      }
    }
    return t;
  });
}

/// MeasureAccumulator::on_event over recorded round-robin traces (two
/// sessions per process, so the windows open and close).
double probe_measures_event_ns(const std::vector<ProbeSubject>& subjects,
                               std::uint64_t* digest) {
  const obs::TraceSpan span("probe.measures_event");
  std::vector<std::vector<TraceEvent>> traces;
  for (const ProbeSubject& s : subjects) {
    Sim sim;
    std::unique_ptr<MutexAlgorithm> alg = setup_mutex(sim, s.make, s.n, 2);
    RoundRobinScheduler rr;
    (void)run_round_robin(sim, rr, kRunCap);
    traces.push_back(sim.trace().events());
  }
  return median_cost([&] {
    Tally t;
    for (int rep = 0; rep < 1000; ++rep) {
      for (std::size_t i = 0; i < subjects.size(); ++i) {
        MeasureAccumulator acc(subjects[i].n);
        const auto t0 = Clock::now();
        for (const TraceEvent& ev : traces[i]) {
          acc.on_event(ev);
        }
        *digest += acc.digest();
        t.ns += ns_between(t0, Clock::now());
        t.units += traces[i].size();
      }
    }
    return t;
  });
}

/// StaticModel::analyze over the four certify cells, per full sweep.
double probe_sa_analyze_ms() {
  const obs::TraceSpan span("probe.sa_analyze");
  std::vector<ProbeSubject> cells = certify_subjects();
  cells.push_back({"peterson-tree", 6,
                   AlgorithmRegistry::instance().mutex("peterson-tree").factory});
  return median_cost([&] {
    Tally t;
    for (const ProbeSubject& c : cells) {
      const MutexFactory make = c.make;
      const int n = c.n;
      const StaticModel::SetupFn setup = [make, n](Sim& sim) {
        return std::shared_ptr<void>(setup_mutex(sim, make, n, 1));
      };
      const auto t0 = Clock::now();
      (void)StaticModel::analyze(setup, n);
      t.ns += ns_between(t0, Clock::now());
    }
    t.units = 1;
    return t;
  }) / 1e6;
}

Probes run_probes(std::uint64_t* digest) {
  const std::vector<ProbeSubject> subjects = certify_subjects();
  Probes p;
  p.sim_setup_us = probe_sim_setup_us(subjects);
  p.sim_step_ns = probe_sim_step_ns(subjects);
  p.sim_rewind_mark_ns = probe_sim_rewind_mark_ns(subjects);
  p.measures_event_ns = probe_measures_event_ns(subjects, digest);
  p.sa_analyze_ms = probe_sa_analyze_ms();
  return p;
}

// ------------------------------------------------------------ host speed

volatile std::uint64_t g_calibration_sink = 0;  // keeps the sorts observable

/// A fixed kernel that is not part of the measured program: sorting
/// pseudo-random integers, branchy work on an L2-sized array like the
/// searches'. Its time tracks how fast the shared host runs this process
/// at the moment (on a shared 4-vCPU VM, pass times drifted by up to 1.7x
/// over minutes, and this kernel's time moved with them), so a pass timed
/// next to it can be compared across runs as a multiple of it. Returns the
/// fastest of `samples` runs, in seconds.
double calibration_s(int samples) {
  constexpr std::size_t kValues = 200'000;
  constexpr int kSortsPerSample = 4;
  std::vector<std::uint32_t> values(kValues);
  double best = 0;
  std::uint64_t sink = 0;
  for (int s = 0; s < samples; ++s) {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int r = 0; r < kSortsPerSample; ++r) {
      for (std::uint32_t& v : values) {  // splitmix64
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30U)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27U)) * 0x94d049bb133111ebULL;
        v = static_cast<std::uint32_t>(z ^ (z >> 31U));
      }
      std::sort(values.begin(), values.end());
      sink += values[kValues / 2];
    }
    const double t = ns_between(t0, Clock::now()) * 1e-9;
    best = s == 0 ? t : std::min(best, t);
  }
  g_calibration_sink = sink;
  return best;
}

// ------------------------------------------------------------ output

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// A flat JSON object writer: fields in insertion order.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + quoted(key) + ": " + value;
    return *this;
  }
  JsonObject& field(const std::string& key, double v) {
    return raw(key, num(v));
  }
  JsonObject& field(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& field(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  JsonObject& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& strings(const std::string& key,
                      const std::vector<std::string>& vs) {
    std::string arr = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      arr += (i == 0 ? "" : ", ") + quoted(vs[i]);
    }
    return raw(key, arr + "]");
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// VmHWM of /proc/self/status: the peak resident set of this process
/// image. (getrusage's ru_maxrss is no substitute: it keeps the high-water
/// mark of the forked parent across exec.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Taken before any default-priority static initialiser of the program
/// runs, in particular before the algorithm registry's self-registration.
std::int64_t g_process_start_ns = 0;

__attribute__((constructor(101))) void note_process_start() {
  g_process_start_ns = steady_ns();
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto idx =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload certify|differential|tables --seed N "
               "[--studies FILE] [--trace FILE] [--probes] [--setup-only]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  std::string studies_path;
  std::string trace_path;
  bool probes = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--studies" && has_value) {
      studies_path = argv[++i];
    } else if (arg == "--trace" && has_value) {
      trace_path = argv[++i];
    } else if (arg == "--probes") {
      probes = true;
    } else if (arg == "--setup-only") {
      setup_only = true;
    } else {
      return usage(argv[0]);
    }
  }

  // ---- setup: the spec list and the explicitly sized pool.
  Workload w;
  if (workload_name == "certify") {
    w = certify_workload();
  } else if (workload_name == "differential") {
    w = differential_workload();
  } else if (workload_name == "tables") {
    w = tables_workload(seed);
  } else {
    return usage(argv[0]);
  }
  const std::vector<std::vector<std::size_t>> groups = campaigns_of(w);
  ExperimentRunner runner(w.threads);
  const bool traced = !trace_path.empty();
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (traced) {
    registry.reset();
    registry.set_enabled(true);
    obs::Tracer::start(trace_path);
  }

  const double setup_s =
      static_cast<double>(steady_ns() - g_process_start_ns) * 1e-9;
  if (setup_only) {
    std::printf("%s\n", JsonObject().field("setup_s", setup_s).str().c_str());
    return 0;
  }

  // ---- the timed pass, then the host's speed right after it (not
  // before: the kernel's buffer would change the pass's allocations).
  const std::int64_t begin_ns = steady_ns();
  const double cpu0 = cpu_seconds();
  PassResult pass = run_pass(w, groups, runner);
  const double cpu_s = cpu_seconds() - cpu0;
  const double wall_s = static_cast<double>(steady_ns() - begin_ns) * 1e-9;
  const double rss_mb = peak_rss_mb();
  const obs::MetricRegistry::Snapshot snap = registry.snapshot();
  constexpr int kCalibrationSamples = 5;
  const double cal_s = calibration_s(kCalibrationSamples);

  // ---- outside the timed interval: attribution, checks, probes.
  attribute_failures(w, groups, runner, pass);
  std::vector<std::string> failures;        // ops that threw or failed a check
  std::vector<std::string> check_failures;  // the failed checks
  std::string studies = "[\n";
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const std::string sep = i + 1 < w.ops.size() ? ",\n" : "\n";
    if (!pass.results[i]) {
      failures.push_back(w.ops[i].label + ": " + pass.errors[i]);
      studies +=
          JsonObject().field("error", error_type(pass.errors[i])).str() + sep;
      continue;
    }
    std::vector<std::string> problems;
    w.ops[i].check(*pass.results[i], problems);
    for (const std::string& p : problems) {
      check_failures.push_back(w.ops[i].label + ": " + p);
    }
    if (!problems.empty()) {
      failures.push_back(w.ops[i].label + ": failed a value check");
    }
    studies += to_json(*pass.results[i], StudyJsonOptions{false}) + sep;
  }
  studies += "]\n";
  if (!studies_path.empty()) {
    std::ofstream(studies_path, std::ios::binary) << studies;
  }

  std::uint64_t digest = 0;
  Probes pr;
  if (probes) {
    pr = run_probes(&digest);
  }

  bool trace_ok = true;
  std::vector<std::string> trace_errors;
  if (traced) {
    trace_ok = obs::Tracer::stop() &&
               obs::check_trace_json(read_file(trace_path), &trace_errors);
    registry.set_enabled(false);
  }

  double plan_ms = 0;
  double merge_ms = 0;
  std::vector<double> cells;
  for (const CampaignStats& s : pass.stats) {
    plan_ms += s.plan_ms;
    merge_ms += s.merge_ms;
    cells.insert(cells.end(), s.cell_wall_ms.begin(), s.cell_wall_ms.end());
  }

  JsonObject out;
  out.field("workload", workload_name)
      .field("seed", seed)
      .field("threads", static_cast<std::uint64_t>(w.threads))
      .field("reduction", w.reduction)
      .field("setup_s", setup_s)
      .field("wall_s", wall_s)
      .field("cpu_s", cpu_s)
      .field("peak_rss_mb", rss_mb)
      .field("cal_s", cal_s)
      .field("attempted", static_cast<std::uint64_t>(w.ops.size()))
      .strings("failures", failures)
      .strings("check_failures", check_failures)
      .field("campaign_plan_ms", plan_ms)
      .field("campaign_merge_ms", merge_ms)
      .field("campaign_cell_p50_ms", percentile(cells, 0.5))
      .field("campaign_cell_max_ms", percentile(cells, 1.0));
  if (traced) {
    JsonObject reg;
    for (std::size_t m = 0; m < obs::kMetricCount; ++m) {
      reg.field(obs::metric_desc(static_cast<obs::Metric>(m)).name,
                snap.values[m]);
    }
    out.raw("registry", reg.str())
        .flag("trace_ok", trace_ok)
        .strings("trace_errors", trace_errors);
  }
  if (probes) {
    out.raw("probes", JsonObject()
                          .field("sim.step_ns", pr.sim_step_ns)
                          .field("sim.rewind_mark_ns", pr.sim_rewind_mark_ns)
                          .field("sim.setup_us", pr.sim_setup_us)
                          .field("measures.event_ns", pr.measures_event_ns)
                          .field("sa.analyze_ms", pr.sa_analyze_ms)
                          .field("digest", digest)
                          .str());
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}
