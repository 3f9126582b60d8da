// Self-test of the benchmark's correctness checks: each check must pass on
// the program's real output and fail once a fault is planted in that
// output. The planted faults are a perturbed factor entry, a request missing
// from the client's own count, a processor peak above capacity, a MAP count
// off by one, and residencies longer than the run.
#include <cstdio>
#include <functional>
#include <string>

#include "bench.hpp"
#include "checks.hpp"
#include "rapid/num/cholesky_app.hpp"
#include "rapid/num/workloads.hpp"
#include "rapid/obs/trace.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/support/rng.hpp"
#include "rapid/svc/service.hpp"

namespace perfbench {

using namespace rapid;

namespace {

int g_failures = 0;

/// The check passes on `clean` and fails on `planted`.
void expect_catches(const std::string& what,
                    const std::vector<std::string>& clean,
                    const std::vector<std::string>& planted) {
  const bool ok = clean.empty() && !planted.empty();
  std::printf("%-44s %s\n", what.c_str(), ok ? "caught" : "MISSED");
  if (!clean.empty()) std::printf("  clean run failed: %s\n", clean[0].c_str());
  if (ok) std::printf("  -> %s\n", planted[0].c_str());
  if (!ok) ++g_failures;
}

}  // namespace

int run_selftest() {
  // A small tight-memory Cholesky, so MAPs and suspended sends occur.
  const int procs = 3;
  num::CholeskyApp app = num::CholeskyApp::build(
      num::bcsstk15_like(0.5).matrix, 8, procs);
  const auto& g = app.graph();
  const auto params = machine::MachineParams::cray_t3d(procs);
  const auto schedule = sched::schedule_mpo(
      g, sched::owner_compute_tasks(g, procs), procs, params);
  const auto liveness = sched::analyze_liveness(g, schedule);
  const rt::RunPlan plan = rt::build_run_plan(g, schedule);
  rt::RunConfig config;
  config.params = params;
  config.capacity_per_proc = liveness.tot_mem() / 2;
  const rt::RunReport sim = rt::simulate(plan, config);
  RunExpect expect;
  expect.tasks = g.num_tasks();
  expect.content_messages = planned_content_messages(plan);
  expect.capacity = config.capacity_per_proc;
  for (const auto& p : liveness.procs) expect.liveness_peak.push_back(p.peak_bytes);
  expect.sim_maps = sim.maps_per_proc;

  obs::TraceConfig tc;
  tc.events_per_proc = 1 << 16;
  obs::Trace trace(procs, tc);
  rt::ThreadedOptions options;
  options.trace = &trace;
  rt::ThreadedExecutor exec(plan, config, app.make_init(), app.make_body(),
                            options);
  const rt::RunReport report = exec.run();
  std::printf("self-test run: %lld tasks, %lld MAPs on processor 0\n",
              static_cast<long long>(report.tasks_executed),
              static_cast<long long>(report.maps_per_proc.at(0)));

  // Solve check: one perturbed entry of the extracted factor.
  const sparse::CscMatrix& a = app.matrix();
  const std::int64_t n = a.n_rows();
  Rng rng(7);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.next_double(-1.0, 1.0);
  std::vector<double> l = app.extract_l_dense(exec);
  const auto solve_err = [&](const std::vector<double>& factor) {
    return check_backward_error(
        backward_error(a, solve_cholesky(factor, n, b), b),
        kBackwardErrorLimit);
  };
  const auto clean_solve = solve_err(l);
  l[static_cast<std::size_t>(n / 3 + (n / 3) * n)] *= 1.0 + 1e-6;  // diagonal
  expect_catches("solve check: perturbed factor entry", clean_solve,
                 solve_err(l));

  // Counter checks on the real report.
  const auto clean_run = check_run(report, expect);
  rt::RunReport planted = report;
  planted.peak_bytes_per_proc[1] = expect.capacity + 8;
  expect_catches("counter check: peak above capacity", clean_run,
                 check_run(planted, expect));
  planted = report;
  planted.maps_per_proc[2] += 1;
  expect_catches("counter check: MAP count off by one", clean_run,
                 check_run(planted, expect));
  planted = report;
  planted.content_messages -= 1;
  expect_catches("counter check: lost content message", clean_run,
                 check_run(planted, expect));
  RunExpect baseline = expect;
  baseline.baseline = true;
  expect_catches("counter check: MAPs in a baseline run", {},
                 check_run(report, baseline));

  // Traced residency check: a run shorter than its own residencies.
  const auto residency = residency_per_proc(trace);
  expect_catches("residency check: residencies exceed the run",
                 check_residency(residency, report.parallel_time_us,
                                 kResidencyToleranceUs),
                 check_residency(residency, report.parallel_time_us / 4, 0.0));

  // Service counts: one request missing from the client's tally.
  ClientCounts client;
  svc::ServiceReport sreport;
  {
    svc::RuntimeService service;
    for (int i = 0; i < 3; ++i) {
      svc::RunRequest r;
      r.spec = "grid:rows=6,cols=10,procs=2";
      r.config.capacity_per_proc = 1 << 20;
      const auto& rec = service.wait(service.submit(std::move(r)));
      ++client.submitted;
      if (rec.state == svc::RunState::kCompleted && rec.numerics_ok) {
        ++client.completed;
      }
    }
    client.distinct_keys = 1;
    sreport = service.report();
  }
  ClientCounts missing = client;
  --missing.submitted;
  --missing.completed;
  expect_catches("service check: request missing from client count",
                 check_service(sreport, client),
                 check_service(sreport, missing));

  // Wavefront: the grid check compares against this evaluation.
  const auto want = wavefront(3, 4);
  const bool wave_ok = want[0] == 14 && want[4] == 2 * (14 + 16);
  std::printf("%-44s %s\n", "wavefront recurrence spot values",
              wave_ok ? "ok" : "WRONG");
  if (!wave_ok) ++g_failures;

  std::printf("%s\n", g_failures == 0 ? "self-test passed" : "self-test FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
