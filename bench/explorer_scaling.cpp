// Schedule-space explorer scaling, measured: DFS throughput under both
// reduction policies (states/sec, min-of-N wall time per run over >= 50 ms
// samples, rows keyed on the policy) with the restore-cost counters
// (restores, value-replayed-steps-per-node, restore_marks, sims_built,
// visited-cache reserved/live bytes), visited-state pruning, the
// source-dpor reduction rows, stateful vs stateless source-dpor on the
// re-convergent peterson-tree cell, Sim-level restore mechanics (rewind vs
// from-scratch), work-stealing thread scaling of the parallel source-DPOR
// path, and the canonical study JSON at threads 1 and 4. Writes
// BENCH_explorer_scaling.json (schema cfc.bench.v1, git sha in the
// context); CI runs this in Release as the perf smoke.
//
// The bench only measures. The values and counters it prints are asserted
// in ctest (explorer_test, por_test, rewind_test); its two gates compare
// timings taken in the same process, in interleaved rounds: 4 threads
// >= 2.5x the states/sec of 1 thread (on hosts with >= 4 hardware
// threads), and the base-mark rewind within 1.25x of a from-scratch
// replay. --study-out writes the timing-free study payload that CI
// byte-compares across thread counts.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/study.h"
#include "analysis/table.h"
#include "bench_util.h"
#include "core/algorithm_registry.h"
#include "core/streaming_measures.h"
#include "obs/trace.h"
#include "sched/sched.h"

namespace {

using namespace cfc;

StudySpec peterson_exhaustive(int depth) {
  return StudySpec::of("peterson-2p")
      .n(2)
      .worst_case(SearchStrategy::Exhaustive)
      .depth(depth);
}

/// The mutex worst-case objective of the study layer (clean-entry + exit
/// window maxima), stated directly so this bench can drive the Explorer
/// itself and read the restore-cost counters that StudyResult does not
/// carry.
Explorer::Config peterson_config(
    int depth, ReductionPolicy reduction = ReductionPolicy::Off) {
  const MutexFactory make =
      AlgorithmRegistry::instance().mutex("peterson-2p").factory;
  Explorer::Config cfg;
  cfg.nprocs = 2;
  cfg.limits.max_depth = depth;
  cfg.limits.reduction = reduction;
  cfg.setup = [make](Sim& sim) -> std::shared_ptr<void> {
    return setup_mutex(sim, make, 2, 1);
  };
  cfg.objective.eval = [](const Sim&, const MeasureAccumulator& acc) {
    ComplexityReport entry;
    ComplexityReport exit;
    for (Pid pid = 0; pid < 2; ++pid) {
      entry = entry.max_with(acc.clean_entry_max(pid));
      exit = exit.max_with(acc.exit_max(pid));
    }
    return std::vector<ComplexityReport>{entry, exit};
  };
  cfg.objective.digest = [](const MeasureAccumulator& acc) {
    return acc.window_digest();
  };
  return cfg;
}

/// A four-process tree-mutex search under source-dpor: the planner fans a
/// wide frontier of long work items — the shape the work-stealing thread
/// scaling section measures.
Explorer::Config tree_dpor_config(int depth) {
  const MutexFactory make =
      AlgorithmRegistry::instance().mutex("peterson-tree").factory;
  Explorer::Config cfg;
  cfg.nprocs = 4;
  cfg.limits.max_depth = depth;
  cfg.limits.reduction = ReductionPolicy::SourceDpor;
  cfg.setup = [make](Sim& sim) -> std::shared_ptr<void> {
    return setup_mutex(sim, make, 4, 1);
  };
  cfg.objective.eval = [](const Sim&, const MeasureAccumulator& acc) {
    ComplexityReport entry;
    ComplexityReport exit;
    for (Pid pid = 0; pid < 4; ++pid) {
      entry = entry.max_with(acc.clean_entry_max(pid));
      exit = exit.max_with(acc.exit_max(pid));
    }
    return std::vector<ComplexityReport>{entry, exit};
  };
  cfg.objective.digest = [](const MeasureAccumulator& acc) {
    return acc.window_digest();
  };
  return cfg;
}

/// Wall time of one body() run, timed long enough to rise above timer and
/// scheduler noise: the runs per sample double until one sample takes
/// >= kMinSampleMs (these sizing samples double as warm-up), and the
/// result is the min over `repeat` samples of that size of the time per
/// run. `runs_per_sample` reports the sizing.
constexpr double kMinSampleMs = 50.0;

template <typename F>
double min_ms_per_run_of(int repeat, F&& body, int& runs_per_sample) {
  int k = 1;
  const auto sample = [&] {
    for (int i = 0; i < k; ++i) {
      body();
    }
  };
  while (cfc::bench::min_ms_of(1, sample) < kMinSampleMs) {
    k *= 2;
  }
  runs_per_sample = k;
  return cfc::bench::min_ms_of(repeat, sample) / k;
}

/// min_ms_per_run_of for bodies that are compared with each other: each
/// is sized to >= kMinSampleMs samples, then all are sampled in
/// max(repeat, 10) interleaved rounds, so a shift in host speed between
/// the bodies cannot decide the comparison. Returns each body's min ms per
/// run, in order; `runs_per_sample` reports each body's sizing.
std::vector<double> interleaved_min_ms_per_run(
    int repeat, const std::vector<std::function<void()>>& bodies,
    std::vector<int>& runs_per_sample) {
  runs_per_sample.assign(bodies.size(), 1);
  std::vector<double> best(bodies.size(), -1.0);
  for (int round = -1; round < std::max(repeat, 10); ++round) {
    for (std::size_t b = 0; b < bodies.size(); ++b) {
      const auto sample = [&] {
        for (int i = 0; i < runs_per_sample[b]; ++i) {
          bodies[b]();
        }
      };
      if (round < 0) {  // sizing; these samples double as warm-up
        while (cfc::bench::min_ms_of(1, sample) < kMinSampleMs) {
          runs_per_sample[b] *= 2;
        }
        continue;
      }
      const double ms = cfc::bench::min_ms_of(1, sample) / runs_per_sample[b];
      best[b] = best[b] < 0.0 ? ms : std::min(best[b], ms);
    }
  }
  return best;
}

/// `v` printed with `digits` decimals, for the text tables.
std::string fixed(double v, int digits) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const cfc::bench::BenchOptions opts =
      cfc::bench::BenchOptions::parse(argc, argv);
  if (cfc::bench::handle_list(opts, {cfc::StudyKind::Mutex})) {
    return 0;
  }
  if (!opts.trace_out.empty()) {
    cfc::obs::Tracer::start(opts.trace_out);
  }
  const auto runner = opts.make_runner();
  cfc::bench::Verifier verify;
  cfc::bench::JsonReport json("explorer_scaling", opts.out);
  json.context("repeat", cfc::bench::jv(opts.repeat));
  json.context("threads", cfc::bench::jv(opts.threads));

  // --- 1. Exhaustive DFS throughput over depth under both reduction
  // policies, with the restore cost model's counters: every DFS node with
  // k > 1 branches captures a mark and pays k-1 restores, each
  // value-replaying only the processes that acted below the node —
  // value-replayed-steps-per-node is the knob that perf work on the
  // restore path moves.
  std::printf(
      "Exhaustive exploration throughput (Peterson, n=2, min of %d):\n\n",
      opts.repeat);
  TextTable thr({"reduction", "depth", "states", "leaves", "ms",
                 "states/sec", "restores", "value/node", "marks",
                 "visited B (live)", "entry steps"});
  constexpr ReductionPolicy kPolicies[] = {ReductionPolicy::Off,
                                           ReductionPolicy::SourceDpor};
  constexpr int kDepths[] = {12, 16, 20};
  // Sections 3 and 3b read these runs.
  struct Timed {
    Explorer::Result res;
    double ms = 0.0;
  };
  Timed timed[2][3];
  for (std::size_t pi = 0; pi < 2; ++pi) {
    const ReductionPolicy reduction = kPolicies[pi];
    for (std::size_t di = 0; di < 3; ++di) {
      const int depth = kDepths[di];
      Explorer::Result& res = timed[pi][di].res;
      int runs_per_sample = 1;
      const double ms = min_ms_per_run_of(
          opts.repeat,
          [&] {
            const Explorer explorer(peterson_config(depth, reduction));
            res = explorer.run(runner.get());
          },
          runs_per_sample);
      timed[pi][di].ms = ms;
      const double rate =
          ms > 0 ? 1000.0 * static_cast<double>(res.stats.states_visited) / ms
                 : 0.0;
      const double value_replayed_per_node =
          res.stats.states_visited
              ? static_cast<double>(res.stats.value_replayed_steps) /
                    static_cast<double>(res.stats.states_visited)
              : 0.0;
      const std::uint64_t leaves =
          res.stats.runs_completed + res.stats.runs_truncated;
      thr.add_row(
          {name(reduction), std::to_string(depth),
           std::to_string(res.stats.states_visited), std::to_string(leaves),
           fixed(ms, 3), std::to_string(static_cast<long long>(rate)),
           std::to_string(res.stats.restores),
           fixed(value_replayed_per_node, 3),
           std::to_string(res.stats.restore_marks),
           std::to_string(res.stats.visited_bytes) + " (" +
               std::to_string(res.stats.visited_live_bytes) + ")",
           std::to_string(res.best.empty() ? 0 : res.best[0].steps)});
      json.row({{"section", std::string("throughput")},
                {"reduction", std::string(name(reduction))},
                {"depth", cfc::bench::jv(depth)},
                {"states", cfc::bench::jv(res.stats.states_visited)},
                {"ms_min", cfc::bench::jv(ms)},
                {"runs_per_sample", cfc::bench::jv(runs_per_sample)},
                {"states_per_sec", cfc::bench::jv(rate)},
                {"restores", cfc::bench::jv(res.stats.restores)},
                {"value_replayed_steps",
                 cfc::bench::jv(res.stats.value_replayed_steps)},
                {"value_replayed_per_node",
                 cfc::bench::jv(value_replayed_per_node)},
                {"restore_marks", cfc::bench::jv(res.stats.restore_marks)},
                {"sims_built", cfc::bench::jv(res.stats.sims_built)},
                {"visited_bytes", cfc::bench::jv(res.stats.visited_bytes)},
                {"visited_live_bytes",
                 cfc::bench::jv(res.stats.visited_live_bytes)}});
    }
  }
  std::printf("%s\n", thr.render().c_str());

  // --- 3. Visited-state pruning at depth 16: the pruned side is
  // section 1's unreduced run.
  {
    const Explorer::Result& pruned = timed[0][1].res;
    const double ms_pruned = timed[0][1].ms;
    Explorer::Result unpruned;
    Explorer::Config no_prune = peterson_config(16);
    no_prune.limits.prune_visited = false;
    const double ms_unpruned = cfc::bench::min_ms_of(opts.repeat, [&] {
      unpruned = Explorer(no_prune).run(runner.get());
    });
    std::printf(
        "Depth 16: %llu states pruned (%.1fx fewer than %llu "
        "unpruned)\n\n",
        static_cast<unsigned long long>(pruned.stats.states_visited),
        pruned.stats.states_visited
            ? static_cast<double>(unpruned.stats.states_visited) /
                  static_cast<double>(pruned.stats.states_visited)
            : 0.0,
        static_cast<unsigned long long>(unpruned.stats.states_visited));
    json.row({{"section", std::string("pruning")},
              {"states_pruned_on", cfc::bench::jv(pruned.stats.states_visited)},
              {"states_pruned_off",
               cfc::bench::jv(unpruned.stats.states_visited)},
              {"ms_pruned_on", cfc::bench::jv(ms_pruned)},
              {"ms_pruned_off", cfc::bench::jv(ms_unpruned)}});
  }

  // --- 3b. The POR reduction rows: source-dpor vs the unreduced search
  // on the same cells, per depth, from section 1's runs — states
  // explored, the in-run reduction factor and the reduction counters.
  {
    std::printf("Source-DPOR reduction vs the unreduced search:\n\n");
    TextTable red({"depth", "unreduced", "source-dpor", "factor", "races",
                   "backtracks", "sleep-blocked"});
    for (std::size_t di = 0; di < 3; ++di) {
      const int depth = kDepths[di];
      const Explorer::Result& off = timed[0][di].res;
      const Explorer::Result& dpor = timed[1][di].res;
      const double factor =
          dpor.stats.states_visited
              ? static_cast<double>(off.stats.states_visited) /
                    static_cast<double>(dpor.stats.states_visited)
              : 0.0;
      red.add_row({std::to_string(depth),
                   std::to_string(off.stats.states_visited),
                   std::to_string(dpor.stats.states_visited),
                   fixed(factor, 3),
                   std::to_string(dpor.stats.races_detected),
                   std::to_string(dpor.stats.backtrack_points),
                   std::to_string(dpor.stats.sleep_blocked)});
      json.row({{"section", std::string("reduction")},
                {"depth", cfc::bench::jv(depth)},
                {"states_unreduced",
                 cfc::bench::jv(off.stats.states_visited)},
                {"states_source_dpor",
                 cfc::bench::jv(dpor.stats.states_visited)},
                {"reduction_factor", cfc::bench::jv(factor)},
                {"races_detected",
                 cfc::bench::jv(dpor.stats.races_detected)},
                {"backtrack_points",
                 cfc::bench::jv(dpor.stats.backtrack_points)},
                {"sleep_blocked", cfc::bench::jv(dpor.stats.sleep_blocked)},
                {"cache_hits", cfc::bench::jv(dpor.stats.pruned_visited)},
                {"ms_unreduced", cfc::bench::jv(timed[0][di].ms)},
                {"ms_source_dpor", cfc::bench::jv(timed[1][di].ms)}});
    }
    std::printf("%s\n", red.render().c_str());
  }

  // --- 3c. Stateful vs stateless source-dpor on the re-convergent cell
  // (peterson-tree, n=4): the tournament tree's schedule lattice
  // re-converges massively, so the sleep-set-aware visited cache collapses
  // both the state count and the sleep_blocked counter, which under
  // stateless source-dpor counts every re-arrival at an already-settled
  // interleaving.
  {
    std::printf(
        "Stateful vs stateless source-DPOR (peterson-tree, n=4):\n\n");
    TextTable tree({"depth", "stateless", "stateful", "factor",
                    "sleep-blk stateless", "sleep-blk stateful",
                    "cache-hits"});
    for (const int depth : {12, 14}) {
      Explorer::Result stateless;
      Explorer::Config off_cfg = tree_dpor_config(depth);
      off_cfg.limits.prune_visited = false;
      const double ms_less = cfc::bench::min_ms_of(opts.repeat, [&] {
        stateless = Explorer(off_cfg).run(runner.get());
      });
      Explorer::Result stateful;
      const double ms_ful = cfc::bench::min_ms_of(opts.repeat, [&] {
        stateful = Explorer(tree_dpor_config(depth)).run(runner.get());
      });
      const double factor =
          stateful.stats.states_visited
              ? static_cast<double>(stateless.stats.states_visited) /
                    static_cast<double>(stateful.stats.states_visited)
              : 0.0;
      tree.add_row({std::to_string(depth),
                    std::to_string(stateless.stats.states_visited),
                    std::to_string(stateful.stats.states_visited),
                    fixed(factor, 3),
                    std::to_string(stateless.stats.sleep_blocked),
                    std::to_string(stateful.stats.sleep_blocked),
                    std::to_string(stateful.stats.pruned_visited)});
      json.row({{"section", std::string("tree_reduction")},
                {"depth", cfc::bench::jv(depth)},
                {"states_stateless",
                 cfc::bench::jv(stateless.stats.states_visited)},
                {"states_stateful",
                 cfc::bench::jv(stateful.stats.states_visited)},
                {"reduction_factor", cfc::bench::jv(factor)},
                {"sleep_blocked_stateless",
                 cfc::bench::jv(stateless.stats.sleep_blocked)},
                {"sleep_blocked_stateful",
                 cfc::bench::jv(stateful.stats.sleep_blocked)},
                {"cache_hits",
                 cfc::bench::jv(stateful.stats.pruned_visited)},
                {"ms_stateless", cfc::bench::jv(ms_less)},
                {"ms_stateful", cfc::bench::jv(ms_ful)}});
    }
    std::printf("%s\n", tree.render().c_str());
  }

  // --- 4. Sim-level restore mechanics: reposition a measured run K times
  // the way a work item does (restore the run-start mark, re-step the
  // prefix live with a fresh accumulator), and by from-scratch replay
  // (rebuild + re-run with live measurement).
  std::printf("Sim restore mechanics (peterson-tree, n=4):\n\n");
  {
    const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
    const MutexFactory tree = registry.mutex("peterson-tree").factory;
    const int n = 4;
    auto keep =
        std::make_shared<std::vector<std::unique_ptr<MutexAlgorithm>>>();
    const auto rebuild = [tree, n, keep](Sim& sim) {
      keep->push_back(setup_mutex(sim, tree, n, /*sessions=*/8));
      sim.set_trace_recording(false);
    };

    Sim original;
    rebuild(original);
    original.mark_rewind_base();
    Sim::RewindMark base;
    original.capture_mark(base);
    MeasureAccumulator acc(n);
    original.add_sink(acc);
    RandomScheduler rnd(opts.seed);
    drive(original, rnd, RunLimits{1200});
    const std::vector<ScheduleUnit> prefix = original.schedule_log();
    const auto restep = [&prefix](Sim& sim) {
      for (const ScheduleUnit& u : prefix) {
        if (u.start_only) {
          sim.ensure_started(u.pid);
        } else {
          sim.step(u.pid);
        }
      }
    };

    // ms per `iters` restores. The rewind and from-scratch sides re-step
    // the same prefix live, so the gate below compares two close numbers:
    // the sides are timed in interleaved >= 50 ms samples.
    const int iters = 100;
    std::vector<int> runs_per_sample;
    const std::vector<double> ms = interleaved_min_ms_per_run(
        opts.repeat,
        {[&] {
           for (int i = 0; i < iters; ++i) {
             original.rewind_to_mark(base);
             acc = MeasureAccumulator(n);  // sink address is stable
             restep(original);
           }
         },
         [&] {
           for (int i = 0; i < iters; ++i) {
             Sim scratch;
             rebuild(scratch);
             MeasureAccumulator fresh(n);
             scratch.add_sink(fresh);
             restep(scratch);
           }
         }},
        runs_per_sample);
    const double ms_rewind = ms[0];
    const double ms_scratch = ms[1];
    std::printf(
        "  prefix %zu picks x %d restores: base-mark rewind + re-step "
        "%.1f ms, from-scratch %.1f ms (%.2fx rewind vs scratch)\n\n",
        prefix.size(), iters, ms_rewind, ms_scratch,
        ms_rewind > 0 ? ms_scratch / ms_rewind : 0.0);
    json.row({{"section", std::string("sim_restore")},
              {"prefix_picks",
               cfc::bench::jv(static_cast<long long>(prefix.size()))},
              {"iters", cfc::bench::jv(iters)},
              {"rewind_ms", cfc::bench::jv(ms_rewind)},
              {"scratch_ms", cfc::bench::jv(ms_scratch)}});
    // Noise guard only: rewind must at least keep up with from-scratch.
    verify.check(ms_rewind <= ms_scratch * 1.25,
                 "recycled rewind not slower than from-scratch replay");
  }

  // --- 4b. Work-stealing thread scaling of the parallel source-DPOR
  // path: a four-process tree search whose planner fans a wide frontier
  // of work items over per-worker engines. The pool sizes are sampled in
  // interleaved rounds (like section 4), so host drift between the rows
  // cannot decide the speedup gate; the gate only binds on hosts with
  // >= 4 hardware threads (elsewhere the pool adds overhead, not cores).
  {
    const int depth = 14;
    std::printf(
        "Parallel source-DPOR scaling (peterson-tree, n=4, depth %d):\n\n",
        depth);
    TextTable scale({"threads", "ms", "states/sec", "speedup", "work items",
                     "steals"});
    const int thread_counts[] = {1, 2, 4};
    std::vector<std::unique_ptr<ExperimentRunner>> pools;
    std::vector<Explorer::Result> results(3);
    std::vector<std::function<void()>> bodies;
    for (std::size_t i = 0; i < 3; ++i) {
      pools.push_back(std::make_unique<ExperimentRunner>(thread_counts[i]));
      bodies.emplace_back([&, i] {
        results[i] = Explorer(tree_dpor_config(depth)).run(pools[i].get());
      });
    }
    std::vector<int> runs_per_sample;
    const std::vector<double> ms =
        interleaved_min_ms_per_run(opts.repeat, bodies, runs_per_sample);
    std::vector<double> rate(3, 0.0);
    for (std::size_t i = 0; i < 3; ++i) {
      const Explorer::Result& r = results[i];
      rate[i] = ms[i] > 0 ? 1000.0 *
                                static_cast<double>(r.stats.states_visited) /
                                ms[i]
                          : 0.0;
      const double speedup = rate[0] > 0 ? rate[i] / rate[0] : 0.0;
      scale.add_row({std::to_string(thread_counts[i]), fixed(ms[i], 3),
                     std::to_string(static_cast<long long>(rate[i])),
                     fixed(speedup, 2), std::to_string(r.stats.work_items),
                     std::to_string(r.stats.steals)});
      json.row({{"section", std::string("thread_scaling")},
                {"threads", cfc::bench::jv(thread_counts[i])},
                {"ms_min", cfc::bench::jv(ms[i])},
                {"runs_per_sample", cfc::bench::jv(runs_per_sample[i])},
                {"states_per_sec", cfc::bench::jv(rate[i])},
                {"speedup_vs_1", cfc::bench::jv(speedup)},
                {"work_items", cfc::bench::jv(r.stats.work_items)},
                {"steals", cfc::bench::jv(r.stats.steals)},
                {"sims_built", cfc::bench::jv(r.stats.sims_built)},
                {"states", cfc::bench::jv(r.stats.states_visited)}});
    }
    std::printf("%s\n", scale.render().c_str());
    const unsigned hw_threads = std::thread::hardware_concurrency();
    if (hw_threads >= 4) {
      verify.check(rate[2] >= 2.5 * rate[0],
                   "parallel source-dpor >= 2.5x states/sec at 4 threads");
    } else {
      std::printf(
          "  [note] %u hardware thread(s): the 4-thread speedup gate is "
          "advisory only on this host (measured %.2fx)\n\n",
          hw_threads, rate[0] > 0 ? rate[2] / rate[0] : 0.0);
    }
  }

  // --- 5. Thread-count invariance of the certified results, read on the
  // canonical serialization: the study JSONs (timing excluded) of the
  // sequential reference engine and a pool (PorStudyJson.* in ctest
  // asserts the identity).
  {
    ExperimentRunner seq(1);
    ExperimentRunner par(4);
    const StudyResult a = run_study(peterson_exhaustive(18), &seq);
    const StudyResult b = run_study(peterson_exhaustive(18), &par);
    const StudyJsonOptions no_timing{.include_timing = false};
    const bool identical = to_json(a, no_timing) == to_json(b, no_timing);
    std::printf("Thread invariance (threads=1 vs 4): %s\n",
                identical ? "bit-identical" : "MISMATCH");
    json.study(a, {{"section", std::string("thread_invariance")}});
    json.row({{"section", std::string("thread_invariance")},
              {"identical", cfc::bench::jv(identical ? 1 : 0)},
              {"entry_steps", cfc::bench::jv(a.wc_entry.steps)},
              {"states_visited", cfc::bench::jv(a.states_visited)}});
  }

  // --- 6. The --study-out payload: a fixed pair of certified studies
  // run on the --threads runner, serialized timing-free. CI invokes this
  // bench at --threads 1 and --threads 4 and byte-compares the two files
  // (`cmp`) as the cross-process determinism gate.
  if (!opts.study_out.empty()) {
    const StudyJsonOptions no_timing{.include_timing = false};
    std::vector<StudyResult> studies;
    studies.push_back(run_study(peterson_exhaustive(18), runner.get()));
    studies.push_back(run_study(StudySpec::of("splitter-tree-l2")
                                    .kind(StudyKind::Detector)
                                    .n(3)
                                    .worst_case(SearchStrategy::Exhaustive)
                                    .depth(12),
                                runner.get()));
    const std::string payload = to_json(studies, no_timing) + "\n";
    if (std::FILE* fp = std::fopen(opts.study_out.c_str(), "w")) {
      std::fwrite(payload.data(), 1, payload.size(), fp);
      std::fclose(fp);
      std::printf("Wrote canonical study payload to %s\n",
                  opts.study_out.c_str());
    } else {
      verify.check(false, "--study-out path writable");
    }
  }

  if (!opts.trace_out.empty()) {
    verify.check(cfc::obs::Tracer::stop(), "--trace-out file written");
  }
  return json.finish(verify);
}
