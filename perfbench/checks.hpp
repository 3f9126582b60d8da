// Correctness checks the benchmark applies to the program's outputs. Each
// check is a pure function of the outputs and of values computed apart from
// the program, and returns its findings (empty = pass), so the self-test can
// feed it a planted fault and see it fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rapid/obs/trace.hpp"
#include "rapid/rt/plan.hpp"
#include "rapid/rt/report.hpp"
#include "rapid/sparse/csc.hpp"
#include "rapid/svc/service.hpp"

namespace perfbench {

/// Largest normwise backward error a solve with the extracted factor may
/// show.
inline constexpr double kBackwardErrorLimit = 1e-12;
/// Slack on the traced residency check: trace timestamps and the executor's
/// parallel clock are read at different points of worker start and stop.
inline constexpr double kResidencyToleranceUs = 2000.0;

/// y = A x over the CSC structure.
std::vector<double> spmv(const rapid::sparse::CscMatrix& a,
                         const std::vector<double>& x);

/// x solving L Lᵀ x = b for a dense column-major lower-triangular L.
std::vector<double> solve_cholesky(const std::vector<double>& l,
                                   std::int64_t n, std::vector<double> b);

/// x solving A x = b from a packed dense L\U (unit L) and the LAPACK-style
/// pivot sequence of P A = L U.
std::vector<double> solve_lu(const std::vector<double>& lu,
                             const std::vector<std::int32_t>& piv,
                             std::int64_t n, std::vector<double> b);

/// Normwise relative backward error ‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞).
double backward_error(const rapid::sparse::CscMatrix& a,
                      const std::vector<double>& x,
                      const std::vector<double>& b);

std::vector<std::string> check_backward_error(double error, double limit);

/// What a factorization run must report, derived from the plan, the
/// liveness analysis and the simulator before any run.
struct RunExpect {
  std::int64_t tasks = 0;
  std::int64_t content_messages = 0;
  std::int64_t capacity = 0;
  std::vector<std::int64_t> liveness_peak;  // MEM_REQ peak per processor
  std::vector<std::int32_t> sim_maps;       // rt::simulate's maps_per_proc
  /// Baseline memory: no MAPs, address packages or suspended sends.
  bool baseline = false;
};

/// Content sends the plan schedules: one per (object, version, reader).
std::int64_t planned_content_messages(const rapid::rt::RunPlan& plan);

std::vector<std::string> check_run(const rapid::rt::RunReport& report,
                                   const RunExpect& expect);

/// The grid workload's final values, evaluated here from its definition:
/// g(0,j) = 2 (id + 7), g(i,j) = 2 (g(i-1,j) + g(i-1,(j+1) mod cols)),
/// with id = i·cols + j.
std::vector<std::int64_t> wavefront(int rows, int cols);

/// The client's own tally of its service traffic.
struct ClientCounts {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t distinct_keys = 0;  // distinct (spec, capacity) pairs sent
};

std::vector<std::string> check_service(const rapid::svc::ServiceReport& r,
                                       const ClientCounts& client);

/// Per-processor residency in each of the five protocol states (µs),
/// reduced from the trace the way obs::derive_metrics reduces it.
std::vector<std::vector<double>> residency_per_proc(
    const rapid::obs::Trace& trace);

/// Largest amount (µs) by which one processor's five residencies exceed
/// parallel_us; negative when every processor's sum is below it.
double residency_excess_us(const std::vector<std::vector<double>>& residency,
                           double parallel_us);

/// Every processor's five residencies sum to at most parallel_us plus
/// tolerance_us.
std::vector<std::string> check_residency(
    const std::vector<std::vector<double>>& residency, double parallel_us,
    double tolerance_us);

}  // namespace perfbench
