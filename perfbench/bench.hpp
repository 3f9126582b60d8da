// Shared pieces of the whole-system benchmark: command-line arguments, the
// result every workload fills in, and order statistics over timed samples.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rapid/support/json.hpp"
#include "rapid/support/stopwatch.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Directory, relative to the checkout root, for each run's artifact (the
/// result with its sample summaries and host fingerprint).
inline constexpr const char* kOutDir = ".bench_results";

/// now_ns() at process start, captured before main() runs; setup_s is
/// measured from here to the first timed operation.
std::int64_t process_start_ns();

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` is printed on the last stdout line;
/// `detail` (sample counts, quartiles, host fingerprint) goes only to the
/// artifact file.
struct Result {
  std::vector<std::string> failures;  // failed correctness checks
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  rapid::JsonValue detail = rapid::JsonValue::object();

  bool correct() const { return failures.empty(); }
  void fail(const std::string& why);
  /// Records every finding of a check (an empty list is a pass).
  void require(const std::vector<std::string>& findings,
               const std::string& where);
  void set(const std::string& name, double value, const std::string& unit);
};

/// Order statistics with linear interpolation between closest ranks.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// {"n", "p25", "median", "p75", "p95", "p99"} of a sample set, for the
/// artifact.
rapid::JsonValue summary(const std::vector<double>& values);

/// Wall time of f() in milliseconds.
template <typename F>
double timed_ms(F&& f) {
  const std::int64_t t0 = rapid::now_ns();
  f();
  return static_cast<double>(rapid::now_ns() - t0) * 1e-6;
}

/// Sets num.gemm_gflops and num.panel_gflops: a block×block×block
/// gemm_minus_abt and the getrf_panel of an (8·block)×block panel.
void time_kernels(int block, std::uint64_t seed, Result& out);

Result run_factor_workload(const Args& args);
Result run_service_workload(const Args& args);
/// Shows that each correctness check fails on a planted fault; returns the
/// process exit code.
int run_selftest();

}  // namespace perfbench
