// Whole-system benchmark harness. One process runs one workload through the
// program's public API for --seconds, checks every output, and prints one
// JSON object as its last stdout line:
//
//   perfbench --workload chol_tight|lu_base|svc_small|chol_shm
//             --seed N --seconds S --trace 0|1
//   perfbench --selftest
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced pass
// and reports the per-layer metrics. README.md describes both.
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace perfbench {
namespace {

const std::int64_t g_start_ns = rapid::now_ns();

}  // namespace

std::int64_t process_start_ns() { return g_start_ns; }

void Result::fail(const std::string& why) {
  if (failures.size() < 20) failures.push_back(why);
  std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
}

void Result::require(const std::vector<std::string>& findings,
                     const std::string& where) {
  for (const auto& f : findings) fail(where + ": " + f);
}

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics[name] = Metric{value, unit};
}

double quantile(std::vector<double> v, double q) {
  RAPID_CHECK(!v.empty(), "quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

rapid::JsonValue summary(const std::vector<double>& values) {
  rapid::JsonValue s = rapid::JsonValue::object();
  s["n"] = static_cast<std::int64_t>(values.size());
  if (values.empty()) return s;
  s["p25"] = quantile(values, 0.25);
  s["median"] = quantile(values, 0.5);
  s["p75"] = quantile(values, 0.75);
  s["p95"] = quantile(values, 0.95);
  s["p99"] = quantile(values, 0.99);
  return s;
}

namespace {

rapid::JsonValue host_fingerprint() {
  rapid::JsonValue h = rapid::JsonValue::object();
  h["nproc"] = static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  h["compiler"] = PERFBENCH_CXX_ID;
  h["build_type"] = PERFBENCH_BUILD_TYPE;
  h["build_flags"] = PERFBENCH_CXX_FLAGS;
  h["rapid_native"] = "OFF";  // perfbench/CMakeLists.txt never sets it
  utsname u{};
  if (uname(&u) == 0) h["kernel"] = rapid::cat(u.sysname, " ", u.release);
  return h;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload chol_tight|lu_base|svc_small|"
               "chol_shm --seed N --seconds S --trace 0|1\n"
               "       perfbench --selftest\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false;
  Result result;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--selftest") return run_selftest();
      if (i + 1 >= argc) {
        usage();
        return 2;
      }
      const std::string val = argv[++i];
      if (flag == "--workload") {
        args.workload = val;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(val);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(val);
      } else if (flag == "--trace") {
        args.trace = val != "0";
      } else {
        usage();
        return 2;
      }
    }
    if (!have_workload || !(args.seconds > 0)) {
      usage();
      return 2;
    }
    if (args.workload == "svc_small") {
      result = run_service_workload(args);
    } else if (args.workload == "chol_tight" || args.workload == "lu_base" ||
               args.workload == "chol_shm") {
      result = run_factor_workload(args);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  rapid::JsonValue doc = rapid::JsonValue::object();
  doc["workload"] = args.workload;
  doc["seed"] = static_cast<std::int64_t>(args.seed);
  doc["seconds"] = args.seconds;
  doc["trace"] = args.trace;
  doc["host"] = host_fingerprint();
  doc["correct"] = result.correct();
  doc["attempted"] = result.attempted;
  doc["failed"] = result.failed;
  rapid::JsonValue failures = rapid::JsonValue::array();
  for (const auto& f : result.failures) failures.push_back(f);
  doc["failures"] = std::move(failures);
  rapid::JsonValue metrics = rapid::JsonValue::object();
  for (const auto& [name, m] : result.metrics) {
    rapid::JsonValue v = rapid::JsonValue::object();
    v["value"] = m.value;
    v["unit"] = m.unit;
    metrics[name] = std::move(v);
  }
  doc["metrics"] = std::move(metrics);
  doc["detail"] = std::move(result.detail);
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  const std::string path =
      rapid::cat(kOutDir, "/", args.workload, "-seed", args.seed,
                 args.trace ? "-trace" : "", ".json");
  std::ofstream(path) << doc.dump();

  std::string line = "{\"correct\": ";
  line += result.correct() ? "true" : "false";
  line += rapid::cat(", \"attempted\": ", result.attempted,
                     ", \"failed\": ", result.failed, ", \"metrics\": {");
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    line += rapid::cat(first ? "" : ", ", "\"", name, "\": {\"value\": ",
                       number(m.value), ", \"unit\": \"", m.unit, "\"}");
    first = false;
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  return 0;
}
