// The three factorization workloads. Each run times whole rounds: one cold
// operation (an inspector pass from matrix generation to an admitted plan,
// then a factorization of that fresh plan) followed by `hot_per_round`
// factorizations of the plan built in set-up. Every factorization's
// counters are checked; the first and the last timed factorization also
// solve A x = b with the extracted factor. The end-to-end figures are
// medians over rounds of each round's statistic, so a stretch of host
// interference shorter than half the run moves them little.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "checks.hpp"
#include "rapid/num/cholesky_app.hpp"
#include "rapid/num/kernels.hpp"
#include "rapid/num/lu_app.hpp"
#include "rapid/num/workloads.hpp"
#include "rapid/obs/metrics.hpp"
#include "rapid/obs/trace.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/rt/threaded_executor.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/support/rng.hpp"
#include "rapid/support/str.hpp"
#include "rapid/svc/admission.hpp"

namespace perfbench {
namespace {

using namespace rapid;

struct FactorSpec {
  const char* name;
  bool cholesky;
  double scale;
  sparse::Index block;
  int procs;
  bool mpo;           // MPO ordering, else RCP
  bool active;        // active memory management, else baseline at TOT
  double capacity_frac;  // of TOT (active memory only)
  rt::TransportKind transport;
  int hot_per_round;
};

constexpr FactorSpec kSpecs[] = {
    {"chol_tight", true, 1.0, 12, 3, true, true, 0.45,
     rt::TransportKind::kInProc, 10},
    {"lu_base", false, 0.35, 16, 3, false, false, 1.0,
     rt::TransportKind::kInProc, 8},
    {"chol_shm", true, 1.0, 12, 3, true, true, 0.45,
     rt::TransportKind::kShm, 10},
};

/// Milliseconds spent in each inspector layer during one pass.
struct InspectMs {
  double generate = 0, app_build = 0, assign = 0, order = 0, liveness = 0,
         plan = 0, replay = 0;
  double total() const {
    return generate + app_build + assign + order + liveness + plan + replay;
  }
};

/// One inspector pass's output: matrix, app, schedule, plan and the
/// admission demand under the workload's capacity.
struct Problem {
  sparse::CscMatrix a;  // the benchmark's own copy, for the solve check
  std::unique_ptr<num::CholeskyApp> chol;
  std::unique_ptr<num::LuApp> lu;
  sched::Schedule schedule;
  sched::LivenessTable liveness;
  rt::RunPlan plan;
  rt::RunConfig config;
  svc::RunDemand demand;
  rt::ObjectInit init;
  rt::TaskBody body;
  InspectMs ms;

  const graph::TaskGraph& graph() const {
    return chol ? chol->graph() : lu->graph();
  }
};

/// The workload's matrix with seeded values on a fixed structure: the
/// structure (and so every task, message and memory count) is the same for
/// every seed; only the numbers change. Cholesky gets a symmetric diagonal
/// scaling S A S (stays SPD), LU independent row and column scalings R A C
/// (changes the pivot sequence).
sparse::CscMatrix seeded_matrix(const FactorSpec& s, std::uint64_t seed) {
  sparse::CscMatrix a = s.cholesky ? num::bcsstk15_like(s.scale).matrix
                                   : num::goodwin_like(s.scale, 42).matrix;
  Rng rng(seed);
  const auto n = static_cast<std::size_t>(a.n_rows());
  std::vector<double> r(n), c(n);
  for (auto& v : r) v = rng.next_double(0.5, 2.0);
  if (s.cholesky) {
    c = r;
  } else {
    for (auto& v : c) v = rng.next_double(0.5, 2.0);
  }
  for (sparse::Index j = 0; j < a.n_cols(); ++j) {
    for (auto k = a.pattern.col_ptr[j]; k < a.pattern.col_ptr[j + 1]; ++k) {
      a.values[static_cast<std::size_t>(k)] *=
          r[static_cast<std::size_t>(a.pattern.row_idx[k])] *
          c[static_cast<std::size_t>(j)];
    }
  }
  return a;
}

std::vector<double> seeded_rhs(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed ^ 0x5DEECE66Dull);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.next_double(-1.0, 1.0);
  return b;
}

Problem inspect(const FactorSpec& s, std::uint64_t seed) {
  Problem p;
  sparse::CscMatrix a;
  p.ms.generate = timed_ms([&] { a = seeded_matrix(s, seed); });
  p.a = a;
  p.ms.app_build = timed_ms([&] {
    if (s.cholesky) {
      p.chol = std::make_unique<num::CholeskyApp>(
          num::CholeskyApp::build(std::move(a), s.block, s.procs));
    } else {
      p.lu = std::make_unique<num::LuApp>(
          num::LuApp::build(std::move(a), s.block, s.procs));
    }
  });
  const graph::TaskGraph& g = p.graph();
  std::vector<graph::ProcId> assignment;
  p.ms.assign = timed_ms(
      [&] { assignment = sched::owner_compute_tasks(g, s.procs); });
  const auto params = machine::MachineParams::cray_t3d(s.procs);
  p.ms.order = timed_ms([&] {
    p.schedule = s.mpo ? sched::schedule_mpo(g, assignment, s.procs, params)
                       : sched::schedule_rcp(g, assignment, s.procs, params);
  });
  p.ms.liveness =
      timed_ms([&] { p.liveness = sched::analyze_liveness(g, p.schedule); });
  p.ms.plan = timed_ms([&] { p.plan = rt::build_run_plan(g, p.schedule); });
  const std::int64_t tot = p.liveness.tot_mem();
  p.config.params = params;
  p.config.active_memory = s.active;
  p.config.capacity_per_proc =
      s.active ? static_cast<std::int64_t>(s.capacity_frac *
                                           static_cast<double>(tot))
               : tot;
  p.ms.replay =
      timed_ms([&] { p.demand = svc::compute_demand(p.plan, p.config); });
  RAPID_CHECK(p.demand.executable,
              cat(s.name, ": plan not admissible at capacity ",
                  p.config.capacity_per_proc, ": ", p.demand.failure));
  p.init = p.chol ? p.chol->make_init() : p.lu->make_init();
  p.body = p.chol ? p.chol->make_body() : p.lu->make_body();
  return p;
}

struct Expectation {
  RunExpect run;
  double model_time_ms = 0;
};

Expectation expectation(const Problem& p) {
  Expectation e;
  const rt::RunReport sim = rt::simulate(p.plan, p.config);
  RAPID_CHECK(sim.executable, cat("simulator: not executable: ", sim.failure));
  e.model_time_ms = sim.parallel_time_us * 1e-3;
  e.run.tasks = p.graph().num_tasks();
  e.run.content_messages = planned_content_messages(p.plan);
  e.run.capacity = p.config.capacity_per_proc;
  for (const auto& proc : p.liveness.procs) {
    e.run.liveness_peak.push_back(proc.peak_bytes);
  }
  e.run.sim_maps = sim.maps_per_proc;
  e.run.baseline = !p.config.active_memory;
  return e;
}

/// One factorization as a caller sees it: executor construction, run() and
/// destruction. The optional check runs on the live executor and is not
/// counted in the times.
struct Timed {
  double construct_ms = 0, run_ms = 0, teardown_ms = 0;
  rt::RunReport report;
  double total_ms() const { return construct_ms + run_ms + teardown_ms; }
};

Timed factorize(
    const Problem& p, const rt::ThreadedOptions& options,
    const std::function<void(const rt::ThreadedExecutor&)>& check = {}) {
  Timed t;
  std::unique_ptr<rt::ThreadedExecutor> exec;
  t.construct_ms = timed_ms([&] {
    exec = std::make_unique<rt::ThreadedExecutor>(p.plan, p.config, p.init,
                                                  p.body, options);
  });
  t.run_ms = timed_ms([&] { t.report = exec->run(); });
  if (check && t.report.executable) check(*exec);
  t.teardown_ms = timed_ms([&] { exec.reset(); });
  return t;
}

double solve_backward_error(const Problem& p,
                            const rt::ThreadedExecutor& exec,
                            const std::vector<double>& b) {
  const std::int64_t n = p.a.n_rows();
  std::vector<double> x;
  if (p.chol) {
    x = solve_cholesky(p.chol->extract_l_dense(exec), n, b);
  } else {
    const num::LuApp::Extracted ex = p.lu->extract(exec);
    x = solve_lu(ex.lu, ex.piv, n, b);
  }
  return backward_error(p.a, x, b);
}

/// GFLOP/s of one kernel call repeated for ~budget_ms.
template <typename F>
double kernel_gflops(double flops_per_call, double budget_ms, F&& call) {
  std::int64_t calls = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t t = t0;
  while (static_cast<double>(t - t0) * 1e-6 < budget_ms) {
    for (int i = 0; i < 16; ++i) call();
    calls += 16;
    t = now_ns();
  }
  return flops_per_call * static_cast<double>(calls) /
         static_cast<double>(t - t0);
}

}  // namespace

void time_kernels(int block, std::uint64_t seed, Result& out) {
  const std::int64_t b = block, m = 8 * block;
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(m * b)), y(x.size()),
      c(static_cast<std::size_t>(b * b));
  for (auto* v : {&x, &y, &c}) {
    for (auto& e : *v) e = rng.next_double(-1.0, 1.0);
  }
  out.set("num.gemm_gflops",
          kernel_gflops(num::flops_gemm(b, b, b), 150.0,
                        [&] {
                          num::gemm_minus_abt(x.data(), b, y.data(), b,
                                              c.data(), b, b, b, b);
                        }),
          "GFLOP/s");
  const std::vector<double> panel = x;
  std::vector<std::int32_t> piv(static_cast<std::size_t>(b));
  out.set("num.panel_gflops",
          kernel_gflops(num::flops_getrf_panel(m, b), 150.0,
                        [&] {
                          std::copy(panel.begin(), panel.end(), x.begin());
                          num::getrf_panel(x.data(), m, m, b, piv.data());
                        }),
          "GFLOP/s");
}

namespace {

/// Per-layer metrics that only the service workload moves; reported here
/// as zero counts and times so every workload prints the same metric set.
void zero_service_layers(Result& out) {
  for (const char* name :
       {"svc.submit_hot_us", "svc.submit_cold_us", "svc.queue_wait_us",
        "svc.exec_us"}) {
    out.set(name, 0.0, "us");
  }
  out.set("svc.cache_hits", 0.0, "count");
  out.set("svc.cache_misses", 0.0, "count");
}

}  // namespace

Result run_factor_workload(const Args& args) {
  const FactorSpec* found = nullptr;
  for (const auto& s : kSpecs) {
    if (args.workload == s.name) found = &s;
  }
  RAPID_CHECK(found != nullptr, cat("unknown workload ", args.workload));
  const FactorSpec& spec = *found;
  Result out;

  // ---- set-up: first inspector pass, simulator expectations, one
  // verified warm-up factorization.
  const Problem base = inspect(spec, args.seed);
  const Expectation expect = expectation(base);
  const std::vector<double> b = seeded_rhs(base.a.n_rows(), args.seed);
  rt::ThreadedOptions untraced;
  untraced.transport = spec.transport;
  // Each traced shm run gets a fresh dump directory: the executor merges
  // every per-rank dump it finds there, including earlier runs' dumps.
  const std::string shm_trace_dir =
      cat(kOutDir, "/shm-trace-", args.workload, "-", args.seed);

  std::int64_t peak_mem = 0;
  const auto check_run_of = [&](const Timed& t, const char* what) {
    out.require(check_run(t.report, expect.run), what);
    for (const std::int64_t v : t.report.peak_bytes_per_proc) {
      peak_mem = std::max(peak_mem, v);
    }
  };
  const auto solve_check = [&](const Problem& p, const char* what) {
    return [&p, &b, &out, what](const rt::ThreadedExecutor& exec) {
      out.require(check_backward_error(solve_backward_error(p, exec, b),
                                       kBackwardErrorLimit),
                  what);
    };
  };
  check_run_of(factorize(base, untraced, solve_check(base, "warm-up")),
               "warm-up");
  const double setup_s =
      static_cast<double>(now_ns() - process_start_ns()) * 1e-9;

  // ---- timed rounds.
  std::vector<double> inspect_ms, cold_ms, hot_ms, traced_ms;
  // Per round: median and upper quartile of the hot factorizations,
  // operations per second.
  std::vector<double> round_median_ms, round_p75_ms, round_rate;
  std::vector<double> construct_ms, setup_ms, parallel_ms, teardown_ms;
  std::vector<InspectMs> layers;
  std::vector<double> simulate_ms;
  std::vector<rt::RunReport> traced_reports;
  std::vector<obs::MetricsSummary> traced_metrics;
  std::vector<double> residency_excess_us;
  bool first_hot = true;
  bool final_round = false;
  double round_s = 0;
  const std::int64_t t_begin = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - t_begin) * 1e-9;
  };
  const auto op = [&](auto&& body) {
    ++out.attempted;
    try {
      body();
    } catch (const Error& e) {
      ++out.failed;
      std::fprintf(stderr, "operation failed: %s\n", e.what());
    }
  };
  while (!final_round) {
    // The last round is the one the previous round's length says will
    // reach --seconds; its last factorization gets the solve check.
    const double round_start = elapsed_s();
    final_round = round_start + round_s >= args.seconds;
    const std::size_t hot_before = hot_ms.size();
    const std::int64_t done_before = out.attempted - out.failed;
    op([&] {
      const std::int64_t t0 = now_ns();
      const Problem fresh = inspect(spec, args.seed);
      const Timed t = factorize(fresh, untraced);
      cold_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      inspect_ms.push_back(fresh.ms.total());
      check_run_of(t, "cold factorization");
      if (args.trace) {
        layers.push_back(fresh.ms);
        simulate_ms.push_back(timed_ms(
            [&] { (void)rt::simulate(fresh.plan, fresh.config); }));
      }
    });
    for (int k = 0; k < spec.hot_per_round; ++k) {
      const bool verify =
          first_hot || (final_round && k + 1 == spec.hot_per_round);
      // In the traced pass every other hot factorization is traced, so the
      // untraced and traced samples interleave and share the host's drift.
      const bool traced = args.trace && k % 2 == 1;
      op([&] {
        std::unique_ptr<obs::Trace> trace;
        rt::ThreadedOptions options = untraced;
        if (traced) {
          obs::TraceConfig tc;
          tc.events_per_proc = 1 << 19;
          trace = std::make_unique<obs::Trace>(spec.procs, tc);
          options.trace = trace.get();
          if (spec.transport == rt::TransportKind::kShm) {
            std::filesystem::remove_all(shm_trace_dir);
            std::filesystem::create_directories(shm_trace_dir);
            options.shm_trace_dir = shm_trace_dir;
          }
        }
        const Timed t =
            factorize(base, options,
                      verify ? solve_check(base, "hot factorization")
                             : std::function<void(
                                   const rt::ThreadedExecutor&)>{});
        check_run_of(t, "hot factorization");
        first_hot = false;
        if (!traced) {
          hot_ms.push_back(t.total_ms());
          construct_ms.push_back(t.construct_ms);
          setup_ms.push_back(t.run_ms - t.report.parallel_time_us * 1e-3);
          parallel_ms.push_back(t.report.parallel_time_us * 1e-3);
          teardown_ms.push_back(t.teardown_ms);
          return;
        }
        traced_ms.push_back(t.total_ms());
        RAPID_CHECK(t.report.metrics != nullptr, "traced run has no metrics");
        if (t.report.metrics->dropped != 0) {
          out.fail(cat("trace ring overflowed: ", t.report.metrics->dropped,
                       " events dropped"));
        }
        const auto residency = residency_per_proc(*trace);
        out.require(check_residency(residency, t.report.parallel_time_us,
                                    kResidencyToleranceUs),
                    "traced factorization");
        residency_excess_us.push_back(
            perfbench::residency_excess_us(residency, t.report.parallel_time_us));
        traced_reports.push_back(t.report);
        traced_metrics.push_back(*t.report.metrics);
      });
    }
    round_s = elapsed_s() - round_start;
    const std::vector<double> round_hot(
        hot_ms.begin() + static_cast<std::ptrdiff_t>(hot_before),
        hot_ms.end());
    if (!round_hot.empty()) {
      round_median_ms.push_back(median(round_hot));
      round_p75_ms.push_back(quantile(round_hot, 0.75));
    }
    round_rate.push_back(
        static_cast<double>(out.attempted - out.failed - done_before) /
        round_s);
  }
  std::filesystem::remove_all(shm_trace_dir);

  out.detail["rounds"] = static_cast<std::int64_t>(cold_ms.size());
  out.detail["hot_per_round"] = spec.hot_per_round;
  out.detail["tasks"] = expect.run.tasks;
  out.detail["capacity_per_proc"] = base.config.capacity_per_proc;
  out.detail["inspect_ms"] = summary(inspect_ms);
  out.detail["cold_ms"] = summary(cold_ms);
  out.detail["hot_ms"] = summary(hot_ms);
  out.detail["round_median_ms"] = summary(round_median_ms);
  out.detail["round_p75_ms"] = summary(round_p75_ms);
  out.detail["round_rate"] = summary(round_rate);
  // Every untraced hot factorization in run order, hot_per_round to a round.
  rapid::JsonValue hot_samples = rapid::JsonValue::array();
  for (const double v : hot_ms) hot_samples.push_back(v);
  out.detail["hot_ms_samples"] = std::move(hot_samples);

  if (!args.trace) {
    out.set("setup_s", setup_s, "s");
    out.set("inspect_ms", median(inspect_ms), "ms");
    out.set("factor_ms", median(round_median_ms), "ms");
    out.set("latency_ms", median(round_median_ms), "ms");
    // The tail is the upper quartile of a round's 8-10 hot factorizations,
    // as a median over rounds. A higher quantile, such as the round's
    // slowest, is set by a single preemption among the round's runs, and on
    // a busy host it jumps from one run to the next.
    out.set("latency_tail_ms", median(round_p75_ms), "ms");
    out.set("cold_latency_ms", median(cold_ms), "ms");
    out.set("runs_per_s", median(round_rate), "1/s");
    out.set("peak_mem_bytes", static_cast<double>(peak_mem), "bytes");
    out.set("model_time_ms", expect.model_time_ms, "model_ms");
    return out;
  }

  // ---- traced pass: per-layer metrics.
  RAPID_CHECK(!traced_reports.empty() && !layers.empty(),
              "traced pass too short to trace a factorization");
  const auto med_layer = [&](double InspectMs::*field) {
    std::vector<double> v;
    for (const auto& l : layers) v.push_back(l.*field);
    return median(v);
  };
  out.set("sparse.generate_ms", med_layer(&InspectMs::generate), "ms");
  out.set("num.app_build_ms", med_layer(&InspectMs::app_build), "ms");
  out.set("sched.assign_ms", med_layer(&InspectMs::assign), "ms");
  out.set("sched.order_ms", med_layer(&InspectMs::order), "ms");
  out.set("sched.liveness_ms", med_layer(&InspectMs::liveness), "ms");
  out.set("rt.plan_ms", med_layer(&InspectMs::plan), "ms");
  out.set("svc.replay_ms", med_layer(&InspectMs::replay), "ms");
  out.set("machine.simulate_ms", median(simulate_ms), "ms");
  out.set("sched.min_mem_bytes",
          static_cast<double>(base.liveness.min_mem()), "bytes");
  out.set("sched.tot_bytes", static_cast<double>(base.liveness.tot_mem()),
          "bytes");

  // Run-level layers are means over the traced factorizations: a state
  // such as END is empty in most runs, and a median would report it as 0.
  const auto n_traced = static_cast<double>(traced_reports.size());
  const auto mean_report = [&](auto&& get) {
    double s = 0;
    for (const auto& r : traced_reports) s += static_cast<double>(get(r));
    return s / n_traced;
  };
  const auto mean_metrics = [&](auto&& get) {
    double s = 0;
    for (const auto& m : traced_metrics) s += static_cast<double>(get(m));
    return s / n_traced;
  };
  const auto state_ms = [&](obs::ProtoState s) {
    return mean_metrics([s](const obs::MetricsSummary& m) {
      return m.state_residency_us[static_cast<std::size_t>(s)] * 1e-3;
    });
  };
  out.set("rt.maps", mean_report([](const rt::RunReport& r) {
            return std::accumulate(r.maps_per_proc.begin(),
                                   r.maps_per_proc.end(), std::int64_t{0});
          }),
          "count");
  out.set("mem.peak_bytes_sum", mean_report([](const rt::RunReport& r) {
            return std::accumulate(r.peak_bytes_per_proc.begin(),
                                   r.peak_bytes_per_proc.end(),
                                   std::int64_t{0});
          }),
          "bytes");
  out.set("rt.rec_ms", state_ms(obs::ProtoState::kRec), "ms");
  out.set("rt.exe_ms", state_ms(obs::ProtoState::kExe), "ms");
  out.set("rt.snd_ms", state_ms(obs::ProtoState::kSnd), "ms");
  out.set("rt.map_ms", state_ms(obs::ProtoState::kMap), "ms");
  out.set("rt.end_ms", state_ms(obs::ProtoState::kEnd), "ms");
  out.set("rt.parks",
          mean_metrics([](const obs::MetricsSummary& m) { return m.parks; }),
          "count");
  out.set("rt.content_messages",
          mean_report([](const rt::RunReport& r) { return r.content_messages; }),
          "count");
  out.set("rt.content_bytes",
          mean_report([](const rt::RunReport& r) { return r.content_bytes; }),
          "bytes");
  out.set("rt.put_batches",
          mean_report([](const rt::RunReport& r) { return r.put_batches; }),
          "count");
  out.set("rt.flag_messages",
          mean_report([](const rt::RunReport& r) { return r.flag_messages; }),
          "count");
  out.set("rt.addr_packages",
          mean_report([](const rt::RunReport& r) { return r.addr_packages; }),
          "count");
  out.set("rt.suspended_sends",
          mean_report([](const rt::RunReport& r) { return r.suspended_sends; }),
          "count");
  out.set("num.exe_gflops",
          base.graph().total_flops() /
              (state_ms(obs::ProtoState::kExe) * 1e6),
          "GFLOP/s");
  time_kernels(spec.block, args.seed, out);
  out.set("rt.construct_ms", median(construct_ms), "ms");
  out.set("rt.setup_ms", median(setup_ms), "ms");
  out.set("rt.parallel_ms", median(parallel_ms), "ms");
  out.set("rt.teardown_ms", median(teardown_ms), "ms");
  out.set("obs.trace_overhead_pct",
          (median(traced_ms) / median(hot_ms) - 1.0) * 100.0, "%");
  zero_service_layers(out);
  out.detail["traced_ms"] = summary(traced_ms);
  out.detail["residency_excess_us"] = summary(residency_excess_us);
  return out;
}

}  // namespace perfbench
