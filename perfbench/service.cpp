// svc_small: closed-loop small-run traffic through svc::RuntimeService.
// One client thread keeps two requests outstanding against a 2-worker
// service. A round is 32 requests over a fixed mix of four 2-processor
// specs at 1 MiB; every 8th request carries a capacity never sent before,
// so it misses the plan cache and pays the build and admission replay
// inside submit(). The end-to-end figures are medians over windows of 1024
// consecutive requests, so a stretch of host interference shorter than half
// the run moves them little; the whole-run distributions go to the
// artifact.
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "checks.hpp"
#include "rapid/num/cholesky_app.hpp"
#include "rapid/num/grid_app.hpp"
#include "rapid/num/kernels.hpp"
#include "rapid/num/lu_app.hpp"
#include "rapid/num/shm_workloads.hpp"
#include "rapid/obs/metrics.hpp"
#include "rapid/obs/trace.hpp"
#include "rapid/rt/sim_executor.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/sparse/generators.hpp"
#include "rapid/sparse/ordering.hpp"
#include "rapid/support/rng.hpp"
#include "rapid/support/str.hpp"
#include "rapid/svc/service.hpp"

namespace perfbench {
namespace {

using namespace rapid;

constexpr int kProcs = 2;
constexpr std::int64_t kCapacity = 1 << 20;
constexpr int kRound = 32;
constexpr int kOutstanding = 2;
/// Requests per statistics window: 32 rounds, so each window holds the same
/// mix and its p99 has about ten samples beyond it.
constexpr int kWindow = 32 * kRound;

/// The traffic mix. The spec strings are what the client sends; the
/// parameters let the benchmark rebuild each plan layer by layer.
struct MixEntry {
  const char* spec;
  char app;  // 'g' grid, 'c' cholesky, 'l' lu
  int a, b;  // grid: rows, cols; cholesky/lu: grid side, block
};
constexpr MixEntry kMix[] = {
    {"grid:rows=8,cols=8,procs=2", 'g', 8, 8},
    {"grid:rows=6,cols=10,procs=2", 'g', 6, 10},
    {"cholesky:grid=12,block=4,procs=2", 'c', 12, 4},
    {"lu:grid=12,block=4,procs=2", 'l', 12, 4},
};
constexpr int kMixSize = 4;

/// Request k of a round: cold at every 8th position (rotating over the
/// mix), otherwise the mix in order.
int mix_index(std::int64_t k) {
  const std::int64_t pos = k % kRound;
  return static_cast<int>(pos % 8 == 7 ? (pos / 8) % kMixSize
                                       : pos % kMixSize);
}
bool is_cold(std::int64_t k) { return k % 8 == 7; }

rt::RunConfig config_at(std::int64_t capacity) {
  rt::RunConfig c;
  c.capacity_per_proc = capacity;
  c.params = machine::MachineParams::cray_t3d(kProcs);
  return c;
}

/// What set-up learns about each spec, built and run outside the service.
struct SpecFacts {
  std::unique_ptr<num::ShmWorkload> workload;
  RunExpect expect;
  double model_time_ms = 0;
  double flops = 0;
};

/// Runs one spec outside the service and checks its result: the grid
/// against the benchmark's own wavefront evaluation, cholesky and lu by
/// solving A x = b with the extracted factor.
SpecFacts establish(const MixEntry& m, std::uint64_t seed, Result& out) {
  SpecFacts f;
  f.workload = num::build_shm_workload(m.spec);
  const num::ShmWorkload& w = *f.workload;
  const rt::RunConfig config = config_at(kCapacity);
  const rt::RunReport sim = rt::simulate(w.plan, config);
  RAPID_CHECK(sim.executable, cat(m.spec, ": simulator not executable"));
  f.model_time_ms = sim.parallel_time_us * 1e-3;
  f.flops = w.graph().total_flops();
  f.expect.tasks = w.graph().num_tasks();
  f.expect.content_messages = planned_content_messages(w.plan);
  f.expect.capacity = kCapacity;
  for (const auto& proc : sched::analyze_liveness(w.graph(), w.schedule).procs) {
    f.expect.liveness_peak.push_back(proc.peak_bytes);
  }
  f.expect.sim_maps = sim.maps_per_proc;

  rt::ThreadedExecutor exec(w.plan, config, w.make_init(), w.make_body());
  const rt::RunReport report = exec.run();
  out.require(check_run(report, f.expect), cat("set-up run of ", m.spec));
  if (!report.executable) return f;
  if (w.grid) {
    const std::vector<std::int64_t> want = wavefront(m.a, m.b);
    if (w.grid->expected() != want) {
      out.fail(cat(m.spec, ": the program's expected values differ from the "
                           "wavefront recurrence"));
    }
    for (std::size_t d = 0; d < want.size(); ++d) {
      const auto bytes = exec.read_object(static_cast<graph::DataId>(d));
      std::int64_t v = 0;
      std::memcpy(&v, bytes.data(), sizeof v);
      if (v != want[d]) {
        out.fail(cat(m.spec, ": object ", d, " = ", v, ", wavefront gives ",
                     want[d]));
        break;
      }
    }
    return f;
  }
  const sparse::CscMatrix& a =
      w.cholesky ? w.cholesky->matrix() : w.lu->matrix();
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(a.n_rows()));
  for (auto& v : b) v = rng.next_double(-1.0, 1.0);
  std::vector<double> x;
  if (w.cholesky) {
    x = solve_cholesky(w.cholesky->extract_l_dense(exec), a.n_rows(), b);
  } else {
    const auto ex = w.lu->extract(exec);
    x = solve_lu(ex.lu, ex.piv, a.n_rows(), b);
  }
  out.require(check_backward_error(backward_error(a, x, b),
                                   kBackwardErrorLimit),
              cat("set-up run of ", m.spec));
  return f;
}

struct MixLayers {
  double generate = 0, app_build = 0, assign = 0, order = 0, liveness = 0,
         plan = 0, replay = 0, simulate = 0;
};

/// One inspector pass over the whole mix through the public layer calls
/// the plan cache makes on a miss, each layer timed on its own.
MixLayers inspect_mix() {
  MixLayers t;
  for (const MixEntry& m : kMix) {
    sparse::CscMatrix a;
    if (m.app != 'g') {
      t.generate += timed_ms([&] {
        a = sparse::grid_laplacian_2d(m.a, m.a).permuted_symmetric(
            sparse::nested_dissection_2d(m.a, m.a));
      });
    }
    std::unique_ptr<num::CholeskyApp> chol;
    std::unique_ptr<num::LuApp> lu;
    std::unique_ptr<num::GridIntApp> grid;
    t.app_build += timed_ms([&] {
      if (m.app == 'c') {
        chol = std::make_unique<num::CholeskyApp>(
            num::CholeskyApp::build(std::move(a), m.b, kProcs));
      } else if (m.app == 'l') {
        lu = std::make_unique<num::LuApp>(
            num::LuApp::build(std::move(a), m.b, kProcs));
      } else {
        grid = std::make_unique<num::GridIntApp>(
            num::GridIntApp::build(m.a, m.b, kProcs));
      }
    });
    const graph::TaskGraph& g =
        chol ? chol->graph() : lu ? lu->graph() : grid->graph();
    const auto params = machine::MachineParams::cray_t3d(kProcs);
    std::vector<graph::ProcId> assignment;
    t.assign += timed_ms(
        [&] { assignment = sched::owner_compute_tasks(g, kProcs); });
    sched::Schedule schedule;
    t.order += timed_ms([&] {
      schedule = sched::schedule_rcp(g, assignment, kProcs, params);
    });
    t.liveness += timed_ms([&] { (void)sched::analyze_liveness(g, schedule); });
    rt::RunPlan plan;
    t.plan += timed_ms([&] { plan = rt::build_run_plan(g, schedule); });
    const rt::RunConfig config = config_at(kCapacity);
    t.replay += timed_ms([&] { (void)svc::compute_demand(plan, config); });
    t.simulate += timed_ms([&] { (void)rt::simulate(plan, config); });
  }
  return t;
}

/// The samples of one window of kWindow consecutive requests.
struct Window {
  std::int64_t done = 0;    // requests that reached a terminal state
  std::int64_t end_ns = 0;  // when the last of them did
  std::vector<double> hot_ms, cold_ms, all_ms, cold_submit_ms, exec_hot_ms;
};

struct Outstanding {
  std::int64_t index = 0;  // position in the request sequence
  std::int64_t id = -1;
  std::int64_t submit_ns = 0;
  double submit_ms = 0;
  int mix = 0;
  bool cold = false;
  std::int64_t capacity = 0;
  std::unique_ptr<obs::Trace> trace;
};

}  // namespace

Result run_service_workload(const Args& args) {
  Result out;

  // ---- set-up: run and check every spec outside the service, then warm
  // the plan cache with each hot key.
  std::vector<SpecFacts> facts;
  double model_time_ms = 0;
  for (const MixEntry& m : kMix) {
    facts.push_back(establish(m, args.seed, out));
    model_time_ms += facts.back().model_time_ms;
  }
  svc::ServiceOptions so;
  so.workers = 2;
  svc::RuntimeService service(so);
  ClientCounts client;
  std::int64_t cold_seq = 0;
  const auto request = [&](int mix, std::int64_t capacity, obs::Trace* trace) {
    svc::RunRequest r;
    r.spec = kMix[mix].spec;
    r.config = config_at(capacity);
    r.options.trace = trace;
    return r;
  };
  for (int i = 0; i < kMixSize; ++i) {
    const auto& rec = service.wait(service.submit(request(i, kCapacity, nullptr)));
    ++client.submitted;
    if (rec.state == svc::RunState::kCompleted) ++client.completed;
    if (!rec.numerics_ok) out.fail(cat("warm-up ", rec.spec, " numerics"));
  }
  client.distinct_keys = kMixSize;
  const double setup_s =
      static_cast<double>(now_ns() - process_start_ns()) * 1e-9;

  // ---- timed closed loop.
  std::vector<double> hot_ms, cold_ms, all_ms, submit_hot_us, submit_cold_us,
      queue_wait_us, exec_all_us, traced_hot_ms;
  std::int64_t peak_mem = 0;
  std::vector<rt::RunReport> traced_reports;
  std::vector<obs::MetricsSummary> traced_metrics;
  double traced_flops = 0;
  std::vector<double> residency_excess;
  std::vector<MixLayers> layers;
  std::vector<double> construct_ms, setup_ms, parallel_ms, teardown_ms;
  std::deque<Outstanding> inflight;
  std::vector<Window> windows;
  std::int64_t k = 0;
  const std::int64_t t_begin = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - t_begin) * 1e-9;
  };
  // In the traced pass odd rounds are traced, so traced and untraced
  // requests share the host's drift.
  const auto traced_round = [&](std::int64_t req) {
    return args.trace && (req / kRound) % 2 == 1;
  };
  const auto between_rounds = [&] {
    layers.push_back(inspect_mix());
    for (const SpecFacts& f : facts) {
      const num::ShmWorkload& w = *f.workload;
      std::unique_ptr<rt::ThreadedExecutor> exec;
      construct_ms.push_back(timed_ms([&] {
        exec = std::make_unique<rt::ThreadedExecutor>(
            w.plan, config_at(kCapacity), w.make_init(), w.make_body());
      }));
      rt::RunReport r;
      const double run = timed_ms([&] { r = exec->run(); });
      setup_ms.push_back(run - r.parallel_time_us * 1e-3);
      parallel_ms.push_back(r.parallel_time_us * 1e-3);
      teardown_ms.push_back(timed_ms([&] { exec.reset(); }));
    }
  };
  std::int64_t layers_done_at = 0;
  for (;;) {
    while (static_cast<int>(inflight.size()) < kOutstanding) {
      const bool boundary = k % kRound == 0 && k > 0;
      if (boundary && elapsed_s() >= args.seconds) break;
      if (boundary && args.trace && layers_done_at != k) {
        if (!inflight.empty()) break;  // drain, so layer timings run alone
        between_rounds();
        layers_done_at = k;
      }
      Outstanding o;
      o.index = k;
      o.mix = mix_index(k);
      o.cold = is_cold(k);
      o.capacity = o.cold ? kCapacity + 8 * ++cold_seq : kCapacity;
      if (traced_round(k)) {
        obs::TraceConfig tc;
        tc.events_per_proc = 1 << 13;
        o.trace = std::make_unique<obs::Trace>(kProcs, tc);
      }
      svc::RunRequest r = request(o.mix, o.capacity, o.trace.get());
      o.submit_ns = now_ns();
      o.id = service.submit(std::move(r));
      o.submit_ms = static_cast<double>(now_ns() - o.submit_ns) * 1e-6;
      (o.cold ? submit_cold_us : submit_hot_us).push_back(o.submit_ms * 1e3);
      ++client.submitted;
      if (o.cold) ++client.distinct_keys;
      ++out.attempted;
      inflight.push_back(std::move(o));
      ++k;
    }
    if (inflight.empty()) break;
    Outstanding o = std::move(inflight.front());
    inflight.pop_front();
    const svc::RunRecord& rec = service.wait(o.id);
    const std::int64_t done_ns = now_ns();
    const double ms = static_cast<double>(done_ns - o.submit_ns) * 1e-6;
    const auto w = static_cast<std::size_t>(o.index / kWindow);
    if (windows.size() <= w) windows.resize(w + 1);
    Window& win = windows[w];
    ++win.done;
    win.end_ns = done_ns;
    if (rec.state != svc::RunState::kCompleted) {
      ++out.failed;
      std::fprintf(stderr, "request %s ended %s: %s\n", rec.spec.c_str(),
                   svc::to_string(rec.state), rec.reason.c_str());
      continue;
    }
    ++client.completed;
    if (!rec.numerics_ok) {
      out.fail(cat(rec.spec, ": residual ", rec.residual));
    }
    RunExpect expect = facts[static_cast<std::size_t>(o.mix)].expect;
    expect.capacity = o.capacity;
    out.require(check_run(rec.outcome.report, expect), rec.spec);
    for (const std::int64_t v : rec.outcome.report.peak_bytes_per_proc) {
      peak_mem = std::max(peak_mem, v);
    }
    all_ms.push_back(ms);
    win.all_ms.push_back(ms);
    queue_wait_us.push_back(static_cast<double>(rec.wait_us));
    exec_all_us.push_back(static_cast<double>(rec.exec_us));
    if (o.cold) {
      cold_ms.push_back(ms);
      win.cold_ms.push_back(ms);
      win.cold_submit_ms.push_back(o.submit_ms);
    } else if (o.trace) {
      traced_hot_ms.push_back(ms);
    } else {
      hot_ms.push_back(ms);
      win.hot_ms.push_back(ms);
      win.exec_hot_ms.push_back(static_cast<double>(rec.exec_us) * 1e-3);
    }
    if (o.trace) {
      const rt::RunReport& r = rec.outcome.report;
      RAPID_CHECK(r.metrics != nullptr, "traced request has no metrics");
      const auto residency = residency_per_proc(*o.trace);
      out.require(check_residency(residency, r.parallel_time_us,
                                  kResidencyToleranceUs),
                  rec.spec);
      residency_excess.push_back(
          residency_excess_us(residency, r.parallel_time_us));
      traced_reports.push_back(r);
      traced_metrics.push_back(*r.metrics);
      traced_flops += facts[static_cast<std::size_t>(o.mix)].flops;
    }
  }
  const svc::ServiceReport report = service.report();
  out.require(check_service(report, client), "service counters");

  out.detail["requests"] = client.submitted;
  out.detail["hot_ms"] = summary(hot_ms);
  out.detail["cold_ms"] = summary(cold_ms);
  out.detail["all_ms"] = summary(all_ms);
  out.detail["service"] = report.to_json();

  if (!args.trace) {
    // Medians over the full windows of each window's statistic.
    std::vector<double> rate, hot, tail, cold, cold_submit, exec;
    std::int64_t prev_end_ns = t_begin;
    for (const Window& win : windows) {
      if (win.done < kWindow) break;  // the run ends on a round, not a window
      rate.push_back(static_cast<double>(win.all_ms.size()) * 1e9 /
                     static_cast<double>(win.end_ns - prev_end_ns));
      prev_end_ns = win.end_ns;
      hot.push_back(median(win.hot_ms));
      tail.push_back(quantile(win.all_ms, 0.99));
      cold.push_back(median(win.cold_ms));
      cold_submit.push_back(median(win.cold_submit_ms));
      exec.push_back(median(win.exec_hot_ms));
    }
    RAPID_CHECK(!rate.empty(), "run too short for one statistics window");
    out.detail["windows"] = static_cast<std::int64_t>(rate.size());
    out.detail["window_runs_per_s"] = summary(rate);
    out.detail["window_tail_ms"] = summary(tail);
    out.set("setup_s", setup_s, "s");
    out.set("inspect_ms", median(cold_submit), "ms");
    out.set("factor_ms", median(exec), "ms");
    out.set("latency_ms", median(hot), "ms");
    out.set("latency_tail_ms", median(tail), "ms");
    out.set("cold_latency_ms", median(cold), "ms");
    out.set("runs_per_s", median(rate), "1/s");
    out.set("peak_mem_bytes", static_cast<double>(peak_mem), "bytes");
    out.set("model_time_ms", model_time_ms, "model_ms");
    return out;
  }

  // ---- traced pass: per-layer metrics.
  RAPID_CHECK(!traced_reports.empty() && !layers.empty(),
              "traced pass too short to trace a request");
  const auto med_layer = [&](double MixLayers::*field) {
    std::vector<double> v;
    for (const auto& l : layers) v.push_back(l.*field);
    return median(v);
  };
  out.set("sparse.generate_ms", med_layer(&MixLayers::generate), "ms");
  out.set("num.app_build_ms", med_layer(&MixLayers::app_build), "ms");
  out.set("sched.assign_ms", med_layer(&MixLayers::assign), "ms");
  out.set("sched.order_ms", med_layer(&MixLayers::order), "ms");
  out.set("sched.liveness_ms", med_layer(&MixLayers::liveness), "ms");
  out.set("rt.plan_ms", med_layer(&MixLayers::plan), "ms");
  out.set("svc.replay_ms", med_layer(&MixLayers::replay), "ms");
  out.set("machine.simulate_ms", med_layer(&MixLayers::simulate), "ms");
  std::int64_t min_mem = 0, tot_mem = 0;
  for (const SpecFacts& f : facts) {
    min_mem += f.workload->min_mem;
    tot_mem += f.workload->tot_mem;
  }
  out.set("sched.min_mem_bytes", static_cast<double>(min_mem), "bytes");
  out.set("sched.tot_bytes", static_cast<double>(tot_mem), "bytes");

  // Request-level layers are means per traced request: the mix is fixed,
  // so a mean over whole rounds is steady where a median would jump
  // between specs.
  const auto n = static_cast<double>(traced_reports.size());
  const auto mean_report = [&](auto&& get) {
    double s = 0;
    for (const auto& r : traced_reports) s += static_cast<double>(get(r));
    return s / n;
  };
  const auto state_sum_ms = [&](obs::ProtoState st) {
    double s = 0;
    for (const auto& m : traced_metrics) {
      s += m.state_residency_us[static_cast<std::size_t>(st)] * 1e-3;
    }
    return s;
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
  out.set("rt.rec_ms", state_sum_ms(obs::ProtoState::kRec) / n, "ms");
  out.set("rt.exe_ms", state_sum_ms(obs::ProtoState::kExe) / n, "ms");
  out.set("rt.snd_ms", state_sum_ms(obs::ProtoState::kSnd) / n, "ms");
  out.set("rt.map_ms", state_sum_ms(obs::ProtoState::kMap) / n, "ms");
  out.set("rt.end_ms", state_sum_ms(obs::ProtoState::kEnd) / n, "ms");
  double parks = 0;
  for (const auto& m : traced_metrics) parks += static_cast<double>(m.parks);
  out.set("rt.parks", parks / n, "count");
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
          traced_flops / (state_sum_ms(obs::ProtoState::kExe) * 1e6),
          "GFLOP/s");
  time_kernels(kMix[2].b, args.seed, out);
  out.set("rt.construct_ms", median(construct_ms), "ms");
  out.set("rt.setup_ms", median(setup_ms), "ms");
  out.set("rt.parallel_ms", median(parallel_ms), "ms");
  out.set("rt.teardown_ms", median(teardown_ms), "ms");
  out.set("obs.trace_overhead_pct",
          (median(traced_hot_ms) / median(hot_ms) - 1.0) * 100.0, "%");
  out.set("svc.submit_hot_us", median(submit_hot_us), "us");
  out.set("svc.submit_cold_us", median(submit_cold_us), "us");
  out.set("svc.queue_wait_us", median(queue_wait_us), "us");
  out.set("svc.exec_us", median(exec_all_us), "us");
  out.detail["residency_excess_us"] = summary(residency_excess);
  out.set("svc.cache_hits", static_cast<double>(report.cache_hits), "count");
  out.set("svc.cache_misses", static_cast<double>(report.cache_misses),
          "count");
  return out;
}

}  // namespace perfbench
