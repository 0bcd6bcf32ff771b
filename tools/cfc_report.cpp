// cfc_report: consumer for the bench and observability payloads.
//
//   cfc_report diff <baseline.json> <current.json> [--max-regress <pct>]
//     A same-host A/B: compares two cfc.bench.v1 payloads (say, one bench
//     run on the base commit and one on a change, on the same machine)
//     row by row; payloads from two hosts compare the hosts, not the
//     code. Rows are matched on their identity fields (every string field
//     plus the run parameters n/depth/threads/l/seed/repeat); for each
//     matched pair every shared
//     numeric field is reported, and throughput fields (keys ending in
//     "_per_sec", where lower is worse) gate the exit status: a drop of
//     more than <pct> percent (default 3) fails the diff. Rows present in
//     only one payload are listed but never fail the run — benches grow
//     rows over time.
//
//   cfc_report --check-trace <trace.json>
//     Validates a Chrome trace-event file the obs tracer wrote: parses the
//     JSON, checks the event shape (ph:"X", name/ts/dur/tid), and verifies
//     spans nest without partial overlap per thread. Nonzero on any
//     problem, with the problems printed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.h"
#include "obs/trace.h"

namespace {

std::string read_file(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cfc_report: cannot open %s\n", path);
    std::exit(2);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int check_trace(const char* path) {
  std::vector<std::string> errors;
  const bool ok = cfc::obs::check_trace_json(read_file(path), &errors);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "cfc_report: %s: %s\n", path, e.c_str());
  }
  std::printf("cfc_report: %s: %s\n", path,
              ok ? "valid trace (spans balanced)" : "INVALID trace");
  return ok ? 0 : 1;
}

/// Run parameters that identify a row alongside its string fields; every
/// other numeric field is treated as a measurement.
bool is_identity_key(const std::string& key) {
  static const char* const kKeys[] = {"n",    "depth",  "threads",
                                      "l",    "seed",   "repeat",
                                      "pids", "sessions"};
  return std::any_of(std::begin(kKeys), std::end(kKeys),
                     [&](const char* k) { return key == k; });
}

struct Row {
  std::string identity;  ///< "key=value|..." over the identity fields
  std::map<std::string, double> metrics;
};

std::vector<Row> rows_of(const cfc::json::Node& payload, const char* path) {
  if (!payload.is_object() ||
      cfc::json::to_string_field(cfc::json::member(payload, "schema")) !=
          "cfc.bench.v1") {
    std::fprintf(stderr, "cfc_report: %s is not a cfc.bench.v1 payload\n",
                 path);
    std::exit(2);
  }
  std::vector<Row> rows;
  const cfc::json::Node* arr = payload.find("rows");
  if (arr == nullptr || !arr->is_array()) {
    return rows;
  }
  for (const cfc::json::Node& r : arr->array) {
    if (!r.is_object()) {
      continue;
    }
    Row row;
    for (const auto& [key, value] : r.object) {  // std::map: sorted, stable
      if (value.type == cfc::json::Node::Type::String) {
        row.identity += key + "=" + value.text + "|";
      } else if (value.type == cfc::json::Node::Type::Number) {
        if (is_identity_key(key)) {
          row.identity += key + "=" + value.text + "|";
        } else {
          row.metrics[key] = cfc::json::to_double(value);
        }
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

int diff(const char* base_path, const char* cur_path, double max_regress) {
  const cfc::json::Node base_doc = cfc::json::parse(read_file(base_path));
  const cfc::json::Node cur_doc = cfc::json::parse(read_file(cur_path));
  const std::vector<Row> base = rows_of(base_doc, base_path);
  std::vector<Row> cur = rows_of(cur_doc, cur_path);

  std::printf("cfc_report diff: %zu baseline rows vs %zu current rows "
              "(max throughput regression %.1f%%)\n",
              base.size(), cur.size(), max_regress);

  std::size_t matched = 0;
  std::size_t regressions = 0;
  std::vector<bool> used(cur.size(), false);
  for (const Row& b : base) {
    // First unconsumed identity match: duplicate identities pair in order.
    std::size_t at = cur.size();
    for (std::size_t i = 0; i < cur.size(); ++i) {
      if (!used[i] && cur[i].identity == b.identity) {
        at = i;
        break;
      }
    }
    if (at == cur.size()) {
      std::printf("  [only-baseline] %s\n", b.identity.c_str());
      continue;
    }
    used[at] = true;
    ++matched;
    for (const auto& [key, base_v] : b.metrics) {
      const auto it = cur[at].metrics.find(key);
      if (it == cur[at].metrics.end()) {
        continue;
      }
      const double cur_v = it->second;
      const double pct =
          base_v != 0.0 ? 100.0 * (cur_v - base_v) / std::fabs(base_v)
                        : 0.0;
      const bool rate = key.size() > 8 &&
                        key.compare(key.size() - 8, 8, "_per_sec") == 0;
      const bool regressed = rate && pct < -max_regress;
      if (regressed) {
        ++regressions;
        std::printf("  [REGRESSION] %s%s: %.6g -> %.6g (%+.1f%%)\n",
                    b.identity.c_str(), key.c_str(), base_v, cur_v, pct);
      } else if (rate) {
        std::printf("  [ok] %s%s: %.6g -> %.6g (%+.1f%%)\n",
                    b.identity.c_str(), key.c_str(), base_v, cur_v, pct);
      }
    }
  }
  for (std::size_t i = 0; i < cur.size(); ++i) {
    if (!used[i]) {
      std::printf("  [only-current] %s\n", cur[i].identity.c_str());
    }
  }
  std::printf("cfc_report diff: %zu matched, %zu regression(s)\n", matched,
              regressions);
  return regressions == 0 ? 0 : 1;
}

[[noreturn]] void usage(int code) {
  std::fprintf(stderr,
               "usage: cfc_report diff <baseline.json> <current.json> "
               "[--max-regress <pct>]\n"
               "       cfc_report --check-trace <trace.json>\n");
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--check-trace") == 0) {
    return check_trace(argv[2]);
  }
  if (argc >= 4 && std::strcmp(argv[1], "diff") == 0) {
    double max_regress = 3.0;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--max-regress") == 0 && i + 1 < argc) {
        char* end = nullptr;
        max_regress = std::strtod(argv[++i], &end);
        if (end == nullptr || *end != '\0' || max_regress < 0.0) {
          std::fprintf(stderr, "cfc_report: invalid --max-regress value\n");
          usage(2);
        }
      } else {
        usage(2);
      }
    }
    try {
      return diff(argv[2], argv[3], max_regress);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "cfc_report: %s\n", e.what());
      return 2;
    }
  }
  usage(2);
}
