#ifndef CFC_BENCH_BENCH_UTIL_H
#define CFC_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/experiment_runner.h"
#include "analysis/study.h"
#include "core/algorithm_registry.h"

namespace cfc::bench {

/// Minimal CLI options shared by every bench binary (micro_substrate keeps
/// google-benchmark's own argv handling):
///   --seed <base>    base seed for the seeded schedule searches (default 1,
///                    which reproduces the historical hard-coded {1..k})
///   --threads <k>    experiment thread pool size (default: shared
///                    hardware-sized pool)
///   --out <dir>      directory for the BENCH_<name>.json report
///   --algo <sel>     restrict registry-enumerated subjects to the
///                    algorithm named <sel> or carrying tag <sel> (paper
///                    verification checks that need the full pool are
///                    skipped on filtered runs)
///   --repeat <n>     repetitions for timed sections; benches report the
///                    min-of-N (the noise-robust estimator on shared CI
///                    machines). Default 1.
///   --study-out <f>  write the bench's canonical study payload (a
///                    cfc.study.v1 array, timing excluded) to <f>; CI runs
///                    the bench at two thread counts and byte-compares the
///                    two files as the determinism gate
///   --trace-out <f>  record a Chrome trace-event JSON (obs/trace.h) of
///                    the whole bench run to <f>; loadable in Perfetto.
///                    Observability only — never changes any reported value
///   --list           print the registry algorithms this bench can target
///                    (after --algo filtering) and exit
struct BenchOptions {
  std::uint64_t seed = 1;
  int threads = 0;
  std::string out = ".";
  std::string algo;
  int repeat = 1;
  std::string study_out;
  std::string trace_out;
  bool list = false;

  static BenchOptions parse(int argc, char** argv) {
    BenchOptions opts;
    const auto usage = [&](std::FILE* to, int exit_code) {
      std::fprintf(to,
                   "usage: %s [--seed <base>] [--threads <k>] [--out <dir>] "
                   "[--algo <tag-or-name>] [--repeat <n>] "
                   "[--study-out <json>] "
                   "[--trace-out <json>] [--list]\n",
                   argc > 0 ? argv[0] : "bench");
      std::exit(exit_code);
    };
    // A flag matches exactly ("--seed 5") or in its "=" form ("--seed=5");
    // anything else — including prefix typos like "--seeds" — is rejected.
    const auto matches = [](const std::string& arg, const char* flag) {
      return arg == flag || arg.rfind(std::string(flag) + "=", 0) == 0;
    };
    const auto value = [&](int& i, const char* flag) -> std::string {
      const std::string arg = argv[i];
      const std::string prefix = std::string(flag) + "=";
      if (arg.rfind(prefix, 0) == 0) {
        return arg.substr(prefix.size());
      }
      if (++i >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        usage(stderr, 2);
      }
      return argv[i];
    };
    const auto number = [&](int& i, const char* flag) -> std::uint64_t {
      const std::string v = value(i, flag);
      // Digits only: strtoull alone would wrap "-4" to 2^64-4 silently.
      if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr, "invalid numeric value for %s: '%s'\n", flag,
                     v.c_str());
        usage(stderr, 2);
      }
      return std::strtoull(v.c_str(), nullptr, 10);
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        usage(stdout, 0);
      } else if (matches(arg, "--seed")) {
        opts.seed = number(i, "--seed");
      } else if (matches(arg, "--threads")) {
        opts.threads = static_cast<int>(number(i, "--threads"));
      } else if (matches(arg, "--out")) {
        opts.out = value(i, "--out");
      } else if (matches(arg, "--algo")) {
        opts.algo = value(i, "--algo");
      } else if (matches(arg, "--repeat")) {
        opts.repeat = static_cast<int>(number(i, "--repeat"));
        if (opts.repeat < 1) {
          std::fprintf(stderr, "--repeat must be >= 1\n");
          usage(stderr, 2);
        }
      } else if (matches(arg, "--study-out")) {
        opts.study_out = value(i, "--study-out");
      } else if (matches(arg, "--trace-out")) {
        opts.trace_out = value(i, "--trace-out");
      } else if (arg == "--list") {
        opts.list = true;
      } else {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
        usage(stderr, 2);
      }
    }
    // Refuse an unusable --out up front: a long bench run that silently
    // drops its report at the end is worse than not starting.
    std::error_code ec;
    std::filesystem::create_directories(opts.out, ec);
    const std::string probe_path = opts.out + "/.cfc_out_probe";
    std::FILE* probe = std::fopen(probe_path.c_str(), "w");
    if (ec || probe == nullptr) {
      std::fprintf(stderr, "cannot write to --out directory '%s'\n",
                   opts.out.c_str());
      std::exit(2);
    }
    std::fclose(probe);
    std::remove(probe_path.c_str());
    return opts;
  }

  /// `count` consecutive seeds starting at the base: the default base 1
  /// reproduces the benches' historical {1, 2, ..., count}.
  [[nodiscard]] std::vector<std::uint64_t> seeds(std::size_t count) const {
    std::vector<std::uint64_t> out_seeds;
    out_seeds.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      out_seeds.push_back(seed + i);
    }
    return out_seeds;
  }

  /// Non-null when --threads was given; pass `.get()` to the experiment
  /// entry points (null selects the shared hardware-sized pool).
  [[nodiscard]] std::unique_ptr<ExperimentRunner> make_runner() const {
    return threads > 0 ? std::make_unique<ExperimentRunner>(threads)
                       : nullptr;
  }

  /// --algo filter: true when no filter is set, or `info` matches it by
  /// exact name or by tag.
  [[nodiscard]] bool selected(const AlgorithmInfo& info) const {
    return algo.empty() || info.name == algo || info.has_tag(algo);
  }

  /// True on an unfiltered run: the paper-verification checks that assume
  /// the full registry pool only make sense then.
  [[nodiscard]] bool full_pool() const { return algo.empty(); }
};

/// --list handler: prints the registry algorithms this bench can actually
/// target — the caller passes the StudyKinds it enumerates (an empty list
/// means the bench has no registry-enumerated subjects) — filtered by
/// --algo, and returns true (the bench should exit 0) when --list was
/// given.
inline bool handle_list(const BenchOptions& opts,
                        std::initializer_list<StudyKind> kinds = {
                            StudyKind::Mutex, StudyKind::Naming,
                            StudyKind::Detector}) {
  if (!opts.list) {
    return false;
  }
  if (kinds.size() == 0) {
    std::printf("this bench has no registry-enumerated subjects\n");
    return true;
  }
  const AlgorithmRegistry& registry = AlgorithmRegistry::instance();
  const auto targets = [&](StudyKind k) {
    for (const StudyKind want : kinds) {
      if (want == k) {
        return true;
      }
    }
    return false;
  };
  const auto print = [&](const char* kind, const AlgorithmInfo& info) {
    if (!opts.selected(info)) {
      return;
    }
    std::string tags;
    for (const std::string& t : info.tags) {
      tags += tags.empty() ? t : "," + t;
    }
    std::printf("%-9s %-22s %s\n", kind, info.name.c_str(), tags.c_str());
  };
  if (targets(StudyKind::Mutex)) {
    for (const MutexAlgorithmEntry* e : registry.mutex_algorithms()) {
      print("mutex", e->info);
    }
  }
  if (targets(StudyKind::Naming)) {
    for (const NamingAlgorithmEntry* e : registry.naming_algorithms()) {
      print("naming", e->info);
    }
  }
  if (targets(StudyKind::Detector)) {
    for (const DetectorAlgorithmEntry* e : registry.detector_algorithms()) {
      print("detector", e->info);
    }
  }
  return true;
}

/// For benches (or bench sections) whose subject pool is fixed or
/// internally enumerated — paired comparisons, the model census, derived
/// formula curves, hardware studies — prints an honest note when --algo
/// was passed but cannot subset that pool, instead of silently ignoring
/// the flag.
inline void note_algo_inapplicable(const BenchOptions& opts,
                                   const char* why) {
  if (!opts.algo.empty()) {
    std::printf("  [note] --algo=%s has no effect here: %s\n",
                opts.algo.c_str(), why);
  }
}

/// Git revision baked in at configure time (CMake passes CFC_GIT_SHA to
/// every bench target); "unknown" on builds outside a git checkout.
inline const char* git_sha() {
#ifdef CFC_GIT_SHA
  return CFC_GIT_SHA;
#else
  return "unknown";
#endif
}

/// Min-of-N timing: runs `body` `repeat` times and returns the fastest
/// wall time in milliseconds. The minimum is the noise-robust estimator
/// for "how fast does this code run" on shared machines — every slower
/// sample is the same work plus interference.
template <class F>
inline double min_ms_of(int repeat, F&& body) {
  double best = -1.0;
  for (int r = 0; r < (repeat < 1 ? 1 : repeat); ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (best < 0.0 || ms < best) {
      best = ms;
    }
  }
  return best;
}

/// Truncation warning shared by benches (the ComplexityReport::truncated
/// satellite): prints a warning when a measurement was cut off and returns
/// the flag as a JSON-ready 0/1.
inline long long warn_truncated(bool truncated, const std::string& what) {
  if (truncated) {
    std::printf(
        "  [warn] %s: search truncated (budget exhausted); values are lower "
        "bounds\n",
        what.c_str());
  }
  return truncated ? 1 : 0;
}

/// Tiny check-reporting helper shared by the table/figure regenerators:
/// every bench binary verifies the paper's claims against measured values
/// and exits nonzero if any check fails, so the bench run doubles as an
/// end-to-end validation pass.
class Verifier {
 public:
  void check(bool ok, const std::string& what) {
    total_ += 1;
    if (!ok) {
      failed_ += 1;
      std::printf("  [FAIL] %s\n", what.c_str());
    }
  }

  /// Prints the summary line and returns the process exit code.
  int finish(const char* bench_name) {
    std::printf("\n%s: %d/%d checks passed\n", bench_name, total_ - failed_,
                total_);
    return failed_ == 0 ? 0 : 1;
  }

  [[nodiscard]] int failed() const { return failed_; }
  [[nodiscard]] int total() const { return total_; }

 private:
  int total_ = 0;
  int failed_ = 0;
};

/// One value in a JSON row: string, integer, or double.
using JsonValue = std::variant<std::string, long long, double>;

/// Machine-readable results channel shared by all benches, writing the
/// canonical bench schema "cfc.bench.v1" to BENCH_<name>.json on finish():
///
///   {
///     "schema": "cfc.bench.v1",
///     "bench": "<name>",
///     "context": {"git_sha": "<rev>", ...},
///     "studies": [{"context": {...}, "study": <cfc.study.v1 object>}, ...],
///     "rows": [{...flat key/value row...}, ...],
///     "summary": {"checks_total": T, "checks_failed": F, "elapsed_ms": MS}
///   }
///
/// The top-level context records the provenance every perf-trajectory
/// consumer needs (which revision produced these numbers); benches add
/// run parameters via context().
///
/// Study measurements go through study() — the canonical Study serializer
/// from analysis/study.h, with an optional flat context object (section
/// labels, sweep parameters) — so every bench emits the same study schema;
/// row() remains for non-study data (derived bound curves, hardware runs).
///
/// Usage:
///   JsonReport json("table1_mutex_bounds", opts.out);
///   json.study(result, {{"section", "sweep"}, {"l", 2}});
///   json.row({{"section", "hw"}, {"ns", 123}});
///   ...
///   return json.finish(verify);   // writes the file, returns exit code
class JsonReport {
 public:
  using Field = std::pair<std::string, JsonValue>;

  explicit JsonReport(std::string bench_name, std::string out_dir = ".")
      : name_(std::move(bench_name)),
        out_dir_(std::move(out_dir)),
        start_(std::chrono::steady_clock::now()) {
    context_.emplace_back("git_sha", std::string(git_sha()));
  }

  /// Adds a key to the top-level context object (run parameters that
  /// apply to the whole bench, e.g. --repeat).
  void context(std::string key, JsonValue value) {
    context_.emplace_back(std::move(key), std::move(value));
  }

  void row(std::vector<Field> fields) { rows_.push_back(std::move(fields)); }

  /// Appends one canonical study object (with its wall time) plus a flat
  /// context object identifying the study's place in the bench.
  void study(const StudyResult& r, std::vector<Field> context = {}) {
    std::string entry = "{\"context\": ";
    append_row(entry, context);
    entry += ", \"study\": ";
    entry += to_json(r);
    entry += "}";
    studies_.push_back(std::move(entry));
  }

  /// Writes BENCH_<name>.json (studies + rows + summary), prints the
  /// Verifier summary, and returns the process exit code. An unwritable
  /// report is a hard failure: consumers downstream (cfc_report diffs)
  /// must never mistake a missing file for a clean run.
  int finish(Verifier& verify) {
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start_)
            .count();
    const bool written = write_file(verify, static_cast<long long>(elapsed));
    const int code = verify.finish(name_.c_str());
    return written ? code : 1;
  }

 private:
  static void append_escaped(std::string& out, const std::string& s) {
    for (const char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
  }

  static void append_row(std::string& out, const std::vector<Field>& fields) {
    out += '{';
    for (std::size_t f = 0; f < fields.size(); ++f) {
      const auto& [key, value] = fields[f];
      out += '"';
      append_escaped(out, key);
      out += "\": ";
      if (const auto* s = std::get_if<std::string>(&value)) {
        out += '"';
        append_escaped(out, *s);
        out += '"';
      } else if (const auto* i = std::get_if<long long>(&value)) {
        out += std::to_string(*i);
      } else {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.6g", std::get<double>(value));
        out += buf;
      }
      if (f + 1 < fields.size()) {
        out += ", ";
      }
    }
    out += '}';
  }

  bool write_file(const Verifier& verify, long long elapsed_ms) const {
    std::string out = "{\n  \"schema\": \"cfc.bench.v1\",\n  \"bench\": \"";
    append_escaped(out, name_);
    out += "\",\n  \"context\": ";
    append_row(out, context_);
    out += ",\n  \"studies\": [";
    for (std::size_t i = 0; i < studies_.size(); ++i) {
      out += (i == 0) ? "\n" : ",\n";
      out += studies_[i];
    }
    out += studies_.empty() ? "],\n" : "\n  ],\n";
    out += "  \"rows\": [";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out += (r == 0) ? "\n    " : ",\n    ";
      append_row(out, rows_[r]);
    }
    out += rows_.empty() ? "],\n" : "\n  ],\n";
    out += "  \"summary\": {\"checks_total\": " +
           std::to_string(verify.total()) +
           ", \"checks_failed\": " + std::to_string(verify.failed()) +
           ", \"elapsed_ms\": " + std::to_string(elapsed_ms) + "}\n}\n";

    const std::string path = out_dir_ + "/BENCH_" + name_ + ".json";
    if (std::FILE* fp = std::fopen(path.c_str(), "w")) {
      const std::size_t wrote = std::fwrite(out.data(), 1, out.size(), fp);
      const bool ok = std::fclose(fp) == 0 && wrote == out.size();
      if (!ok) {
        std::fprintf(stderr, "error: short write to %s\n", path.c_str());
      }
      return ok;
    }
    std::fprintf(stderr, "error: could not write %s\n", path.c_str());
    return false;
  }

  std::string name_;
  std::string out_dir_;
  std::chrono::steady_clock::time_point start_;
  std::vector<Field> context_;
  std::vector<std::string> studies_;
  std::vector<std::vector<Field>> rows_;
};

/// Convenience: a JsonValue from the common numeric types used in benches.
inline JsonValue jv(int v) { return static_cast<long long>(v); }
inline JsonValue jv(long long v) { return v; }
inline JsonValue jv(std::uint64_t v) { return static_cast<long long>(v); }
inline JsonValue jv(double v) { return v; }
inline JsonValue jv(std::string v) { return v; }

}  // namespace cfc::bench

#endif  // CFC_BENCH_BENCH_UTIL_H
