// google-benchmark micro suite for the inspector-stage machinery: graph
// construction, the three ordering heuristics, liveness analysis and the
// arena allocator. These are the run-time preprocessing costs the paper's
// inspector/executor split amortizes over iterations.
#include <benchmark/benchmark.h>

#include "rapid/graph/dcg.hpp"
#include "rapid/mem/arena.hpp"
#include "rapid/num/cholesky_app.hpp"
#include "rapid/num/workloads.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/support/rng.hpp"

namespace {

using namespace rapid;

constexpr double kScale = 0.3;
constexpr sparse::Index kBlock = 12;
constexpr int kProcs = 8;

const num::CholeskyApp& shared_app() {
  static const num::CholeskyApp app = num::CholeskyApp::build(
      num::bcsstk24_like(kScale).matrix, kBlock, kProcs);
  return app;
}

void BM_BuildCholeskyTaskGraph(benchmark::State& state) {
  const auto workload = num::bcsstk24_like(kScale);
  for (auto _ : state) {
    auto matrix = workload.matrix;
    auto app = num::CholeskyApp::build(std::move(matrix), kBlock, kProcs);
    benchmark::DoNotOptimize(app.graph().num_tasks());
  }
  state.counters["tasks"] =
      static_cast<double>(shared_app().graph().num_tasks());
}
BENCHMARK(BM_BuildCholeskyTaskGraph);

void BM_ScheduleRcp(benchmark::State& state) {
  const auto& app = shared_app();
  const auto assignment = sched::owner_compute_tasks(app.graph(), kProcs);
  const auto params = machine::MachineParams::cray_t3d(kProcs);
  for (auto _ : state) {
    auto s = sched::schedule_rcp(app.graph(), assignment, kProcs, params);
    benchmark::DoNotOptimize(s.predicted_makespan);
  }
}
BENCHMARK(BM_ScheduleRcp);

void BM_ScheduleMpo(benchmark::State& state) {
  const auto& app = shared_app();
  const auto assignment = sched::owner_compute_tasks(app.graph(), kProcs);
  const auto params = machine::MachineParams::cray_t3d(kProcs);
  for (auto _ : state) {
    auto s = sched::schedule_mpo(app.graph(), assignment, kProcs, params);
    benchmark::DoNotOptimize(s.predicted_makespan);
  }
}
BENCHMARK(BM_ScheduleMpo);

void BM_ScheduleDts(benchmark::State& state) {
  const auto& app = shared_app();
  const auto assignment = sched::owner_compute_tasks(app.graph(), kProcs);
  const auto params = machine::MachineParams::cray_t3d(kProcs);
  for (auto _ : state) {
    auto s = sched::schedule_dts(app.graph(), assignment, kProcs, params);
    benchmark::DoNotOptimize(s.predicted_makespan);
  }
}
BENCHMARK(BM_ScheduleDts);

// The 39k-task graph of the whole-system benchmark's chol_tight workload:
// bcsstk15-like at full scale, 12×12 blocks, 3 processors.
constexpr int kLargeProcs = 3;

const num::CholeskyApp& large_app() {
  static const num::CholeskyApp app =
      num::CholeskyApp::build(num::bcsstk15_like(1.0).matrix, 12, kLargeProcs);
  return app;
}

void BM_ScheduleRcpLarge(benchmark::State& state) {
  const auto& app = large_app();
  const auto assignment = sched::owner_compute_tasks(app.graph(), kLargeProcs);
  const auto params = machine::MachineParams::cray_t3d(kLargeProcs);
  for (auto _ : state) {
    auto s = sched::schedule_rcp(app.graph(), assignment, kLargeProcs, params);
    benchmark::DoNotOptimize(s.predicted_makespan);
  }
  state.counters["tasks"] = static_cast<double>(app.graph().num_tasks());
}
BENCHMARK(BM_ScheduleRcpLarge)->Unit(benchmark::kMillisecond);

void BM_ScheduleMpoLarge(benchmark::State& state) {
  const auto& app = large_app();
  const auto assignment = sched::owner_compute_tasks(app.graph(), kLargeProcs);
  const auto params = machine::MachineParams::cray_t3d(kLargeProcs);
  for (auto _ : state) {
    auto s = sched::schedule_mpo(app.graph(), assignment, kLargeProcs, params);
    benchmark::DoNotOptimize(s.predicted_makespan);
  }
  state.counters["tasks"] = static_cast<double>(app.graph().num_tasks());
}
BENCHMARK(BM_ScheduleMpoLarge)->Unit(benchmark::kMillisecond);

void BM_SliceDecomposition(benchmark::State& state) {
  const auto& app = shared_app();
  for (auto _ : state) {
    auto slices = graph::compute_slices(app.graph());
    benchmark::DoNotOptimize(slices.num_slices());
  }
}
BENCHMARK(BM_SliceDecomposition);

void BM_LivenessAnalysis(benchmark::State& state) {
  const auto& app = shared_app();
  const auto assignment = sched::owner_compute_tasks(app.graph(), kProcs);
  const auto params = machine::MachineParams::cray_t3d(kProcs);
  const auto schedule =
      sched::schedule_rcp(app.graph(), assignment, kProcs, params);
  for (auto _ : state) {
    auto liveness = sched::analyze_liveness(app.graph(), schedule);
    benchmark::DoNotOptimize(liveness.min_mem());
  }
}
BENCHMARK(BM_LivenessAnalysis);

void BM_ArenaChurn(benchmark::State& state) {
  // The allocator pattern a MAP produces: batches of frees then allocates.
  Rng rng(7);
  for (auto _ : state) {
    mem::Arena arena(1 << 20);
    std::vector<mem::Offset> live;
    for (int round = 0; round < 64; ++round) {
      for (int i = 0; i < 16 && !live.empty(); i += 2) {
        const auto idx =
            static_cast<std::size_t>(rng.next_below(live.size()));
        arena.deallocate(live[idx]);
        live[idx] = live.back();
        live.pop_back();
      }
      for (int i = 0; i < 16; ++i) {
        const auto off =
            arena.allocate(static_cast<std::int64_t>(64 + rng.next_below(4096)));
        if (off != mem::kNullOffset) live.push_back(off);
      }
    }
    benchmark::DoNotOptimize(arena.in_use());
  }
}
BENCHMARK(BM_ArenaChurn);

}  // namespace
