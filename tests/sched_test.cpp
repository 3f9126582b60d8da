#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "ordering_oracle.hpp"
#include "rapid/num/cholesky_app.hpp"
#include "rapid/num/lu_app.hpp"
#include "rapid/num/workloads.hpp"
#include "rapid/sched/liveness.hpp"
#include "rapid/sched/mapping.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/support/check.hpp"
#include "rapid/support/rng.hpp"
#include "rapid/support/str.hpp"

namespace rapid::sched {
namespace {

using graph::TaskGraph;

machine::MachineParams params2() { return machine::MachineParams::cray_t3d(2); }

struct Fixture {
  TaskGraph graph = graph::make_paper_figure2_graph();
  std::vector<ProcId> procs;
  Fixture() { procs = owner_compute_tasks(graph, 2); }
};

TEST(Mapping, CyclicOwners) {
  TaskGraph g;
  for (int i = 0; i < 5; ++i) g.add_data("d", 1);
  assign_owners_cyclic(g, 3);
  EXPECT_EQ(g.data(0).owner, 0);
  EXPECT_EQ(g.data(3).owner, 0);
  EXPECT_EQ(g.data(4).owner, 1);
}

TEST(Mapping, OwnerComputePlacesWritersOnOwners) {
  Fixture f;
  for (DataId d = 0; d < f.graph.num_data(); ++d) {
    for (TaskId w : f.graph.writers(d)) {
      EXPECT_EQ(f.procs[w], f.graph.data(d).owner);
    }
  }
}

TEST(Mapping, OwnerComputeRejectsConflictingWrites) {
  TaskGraph g;
  const auto a = g.add_data("a", 1, 0);
  const auto b = g.add_data("b", 1, 1);
  g.add_task("T", {}, {a, b}, 1.0);
  g.finalize();
  EXPECT_THROW(owner_compute_tasks(g, 2), Error);
}

TEST(Mapping, ClusteringMergesCoWrittenObjects) {
  TaskGraph g;
  const auto a = g.add_data("a", 1);
  const auto b = g.add_data("b", 1);
  const auto c = g.add_data("c", 1);
  g.add_task("T1", {}, {a, b}, 1.0);  // merges a, b
  g.add_task("T2", {}, {c}, 1.0);
  g.finalize();
  const Clustering cl = owner_compute_clusters(g);
  EXPECT_EQ(cl.cluster_of_data[a], cl.cluster_of_data[b]);
  EXPECT_NE(cl.cluster_of_data[a], cl.cluster_of_data[c]);
  EXPECT_EQ(cl.num_clusters, 2);
}

TEST(Mapping, LptBalancesLoad) {
  TaskGraph g;
  std::vector<graph::DataId> objs;
  for (int i = 0; i < 8; ++i) objs.push_back(g.add_data("d", 1));
  for (int i = 0; i < 8; ++i) {
    g.add_task("T", {}, {objs[i]}, 10.0 + i);
  }
  g.finalize();
  const Clustering cl = owner_compute_clusters(g);
  const auto procs = map_clusters_lpt(g, cl, 2);
  double load[2] = {0, 0};
  for (graph::TaskId t = 0; t < g.num_tasks(); ++t) {
    load[procs[t]] += g.task(t).flops;
  }
  EXPECT_LE(std::abs(load[0] - load[1]), 13.0);
}

TEST(Schedule, ValidateCatchesLocalOrderViolations) {
  Fixture f;
  Schedule s = schedule_rcp(f.graph, f.procs, 2, params2());
  EXPECT_NO_THROW(s.validate(f.graph));
  // Break it: swap two dependent tasks on one processor.
  for (auto& order : s.order) {
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      for (const graph::Edge& e : f.graph.edges()) {
        if (e.redundant) continue;
        if (e.src == order[i] && e.dst == order[i + 1]) {
          std::swap(order[i], order[i + 1]);
          s.rebuild_index(f.graph.num_tasks());
          EXPECT_THROW(s.validate(f.graph), Error);
          return;
        }
      }
    }
  }
  FAIL() << "no adjacent dependent pair found to break";
}

TEST(Ordering, AllThreeProduceValidSchedules) {
  Fixture f;
  for (auto* make : {&schedule_rcp, &schedule_mpo}) {
    const Schedule s = (*make)(f.graph, f.procs, 2, params2());
    EXPECT_NO_THROW(s.validate(f.graph));
    EXPECT_GT(s.predicted_makespan, 0.0);
  }
  const Schedule dts = schedule_dts(f.graph, f.procs, 2, params2());
  EXPECT_NO_THROW(dts.validate(f.graph));
}

TEST(Ordering, BottomLevelsDecreaseAlongEdges) {
  Fixture f;
  const auto bl = bottom_levels(f.graph, f.procs, params2());
  for (const graph::Edge& e : f.graph.edges()) {
    if (e.redundant) continue;
    EXPECT_GT(bl[e.src], bl[e.dst]);
  }
}

TEST(Ordering, PredictedTimesRespectDependences) {
  Fixture f;
  const Schedule s = schedule_rcp(f.graph, f.procs, 2, params2());
  for (const graph::Edge& e : f.graph.edges()) {
    if (e.redundant) continue;
    EXPECT_GE(s.predicted_start[e.dst], s.predicted_finish[e.src] - 1e-9);
  }
  // Tasks on one processor do not overlap.
  for (ProcId p = 0; p < 2; ++p) {
    for (std::size_t i = 0; i + 1 < s.order[p].size(); ++i) {
      EXPECT_GE(s.predicted_start[s.order[p][i + 1]],
                s.predicted_finish[s.order[p][i]] - 1e-9);
    }
  }
}

TEST(Ordering, MemoryMetricsOrderedAcrossHeuristics) {
  // The paper's qualitative result on its own example: MIN_MEM(RCP) >=
  // MIN_MEM(MPO) >= MIN_MEM(DTS).
  Fixture f;
  const auto rcp = schedule_rcp(f.graph, f.procs, 2, params2());
  const auto mpo = schedule_mpo(f.graph, f.procs, 2, params2());
  const auto dts = schedule_dts(f.graph, f.procs, 2, params2());
  const auto mem = [&](const Schedule& s) {
    return analyze_liveness(f.graph, s).min_mem();
  };
  EXPECT_GE(mem(rcp), mem(mpo));
  EXPECT_GE(mem(mpo), mem(dts));
}

TEST(Ordering, DtsExecutesSliceBySlice) {
  Fixture f;
  const auto slices = graph::compute_slices(f.graph);
  const Schedule s = schedule_dts(f.graph, f.procs, 2, params2());
  for (ProcId p = 0; p < 2; ++p) {
    for (std::size_t i = 0; i + 1 < s.order[p].size(); ++i) {
      EXPECT_LE(slices.slice_of_task[s.order[p][i]],
                slices.slice_of_task[s.order[p][i + 1]]);
    }
  }
}

TEST(Ordering, SliceDemandAndMerging) {
  Fixture f;
  const auto slices = graph::compute_slices(f.graph);
  const auto demand = slice_volatile_demand(f.graph, slices, f.procs, 2);
  ASSERT_EQ(demand.size(), slices.num_slices());
  for (std::int64_t d : demand) EXPECT_GE(d, 0);
  // Infinite budget: everything merges into one slice.
  std::int32_t merged = 0;
  const auto one = merge_slices(f.graph, slices, f.procs, 2,
                                std::numeric_limits<std::int64_t>::max(),
                                &merged);
  EXPECT_EQ(merged, 1);
  EXPECT_TRUE(std::all_of(one.begin(), one.end(),
                          [](std::int32_t s) { return s == 0; }));
  // Zero budget: only zero-demand slices can merge (Figure 6 merges while
  // the running sum stays within budget), so every positive-demand slice
  // starts a new merged slice.
  const auto zero = merge_slices(f.graph, slices, f.procs, 2, 0, &merged);
  std::int64_t positive = 0;
  for (std::int64_t d : demand) positive += d > 0 ? 1 : 0;
  EXPECT_GE(merged, static_cast<std::int32_t>(positive));
  EXPECT_LE(static_cast<std::size_t>(merged), slices.num_slices());
  (void)zero;
}

TEST(Ordering, MergedDtsMakespanNotWorseThanUnmerged) {
  Fixture f;
  const Schedule plain = schedule_dts(f.graph, f.procs, 2, params2());
  const Schedule merged = schedule_dts(
      f.graph, f.procs, 2, params2(),
      std::optional<std::int64_t>(std::numeric_limits<std::int64_t>::max()));
  // With everything merged into one slice, DTS degenerates to pure critical
  // path ordering, which cannot be slower than slice-constrained DTS here.
  EXPECT_LE(merged.predicted_makespan, plain.predicted_makespan + 1e-9);
}

TEST(Ordering, SingleProcessorSchedulesEveryTask) {
  TaskGraph g = graph::make_paper_figure2_graph();
  for (DataId d = 0; d < g.num_data(); ++d) g.set_owner(d, 0);
  const auto procs = owner_compute_tasks(g, 1);
  const Schedule s = schedule_rcp(g, procs, 1, machine::MachineParams::cray_t3d(1));
  EXPECT_EQ(s.order[0].size(), static_cast<std::size_t>(g.num_tasks()));
  EXPECT_NO_THROW(s.validate(g));
}

TEST(Ordering, GanttRenders) {
  Fixture f;
  const Schedule s = schedule_rcp(f.graph, f.procs, 2, params2());
  const std::string gantt = s.gantt(f.graph);
  EXPECT_NE(gantt.find("P0 |"), std::string::npos);
  EXPECT_NE(gantt.find("makespan"), std::string::npos);
}

// --- Event-driven engine vs. the full-scan oracle (tests/ordering_oracle.hpp)

/// Same order, and the same predicted times down to the bit.
void expect_identical(const Schedule& engine, const Schedule& scan,
                      const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(engine.order, scan.order);
  const auto bits = [](const std::vector<double>& v) {
    std::vector<std::uint64_t> out;
    for (double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
  };
  EXPECT_EQ(bits(engine.predicted_start), bits(scan.predicted_start));
  EXPECT_EQ(bits(engine.predicted_finish), bits(scan.predicted_finish));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(engine.predicted_makespan),
            std::bit_cast<std::uint64_t>(scan.predicted_makespan));
}

/// RCP, MPO, DTS and DTS with slice merging under a zero budget, the widest
/// slice's demand and an unbounded budget, each against the oracle.
void expect_all_policies_match(const TaskGraph& g, int procs,
                               const std::string& what) {
  const auto assignment = owner_compute_tasks(g, procs);
  const auto params = machine::MachineParams::cray_t3d(procs);
  const std::string at = cat(what, " p=", procs);
  expect_identical(schedule_rcp(g, assignment, procs, params),
                   oracle::schedule_rcp(g, assignment, procs, params),
                   at + " RCP");
  expect_identical(schedule_mpo(g, assignment, procs, params),
                   oracle::schedule_mpo(g, assignment, procs, params),
                   at + " MPO");
  expect_identical(schedule_dts(g, assignment, procs, params),
                   oracle::schedule_dts(g, assignment, procs, params),
                   at + " DTS");
  const auto demand = slice_volatile_demand(g, graph::compute_slices(g),
                                            assignment, procs);
  const std::int64_t widest =
      demand.empty() ? 0 : *std::max_element(demand.begin(), demand.end());
  for (const std::int64_t budget :
       {std::int64_t{0}, widest, std::numeric_limits<std::int64_t>::max()}) {
    expect_identical(
        schedule_dts(g, assignment, procs, params, budget),
        oracle::schedule_dts(g, assignment, procs, params, budget),
        cat(at, " DTS+merge budget=", budget));
  }
}

constexpr int kOracleProcs[] = {1, 2, 3, 8};

/// A seeded random task program. Flops come from {1, 2} and every object
/// has the same size, so bottom levels tie often; tasks touch 1–4 objects,
/// so memory priorities (resident / accessed) tie often too.
TaskGraph random_tie_heavy_dag(std::uint64_t seed, int procs) {
  Rng rng(seed);
  TaskGraph g;
  const int num_objects = static_cast<int>(4 + rng.next_below(28));
  const int num_tasks = static_cast<int>(8 + rng.next_below(120));
  const std::int64_t size = seed % 2 == 0 ? 64 : 8 + 8 * (seed % 5);
  for (int d = 0; d < num_objects; ++d) {
    g.add_data(cat("d", d), size, static_cast<ProcId>(d % procs));
  }
  for (int t = 0; t < num_tasks; ++t) {
    const auto target = static_cast<DataId>(rng.next_below(num_objects));
    std::vector<DataId> reads;
    const int fan = static_cast<int>(rng.next_below(4));
    for (int r = 0; r < fan; ++r) {
      reads.push_back(static_cast<DataId>(rng.next_below(num_objects)));
    }
    const std::int32_t group = rng.next_bool(0.2) ? target : -1;
    g.add_task(cat("T", t), std::move(reads), {target},
               1.0 + static_cast<double>(rng.next_below(2)), group);
  }
  g.finalize();
  return g;
}

TEST(OrderingOracle, RandomDagsMatchTheScanBitForBit) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (int procs : kOracleProcs) {
      expect_all_policies_match(random_tie_heavy_dag(seed, procs), procs,
                                cat("seed=", seed));
    }
  }
}

TEST(OrderingOracle, FullTiesMatchTheScanBitForBit) {
  // Independent tasks of equal cost, each writing its own object and
  // reading two shared inputs: bottom levels all tie, and memory priorities
  // tie until the first allocations split them, so the task-id tie-break
  // and the incremental residency decide the order.
  for (int procs : kOracleProcs) {
    TaskGraph g;
    std::vector<DataId> inputs;
    for (int k = 0; k < 8; ++k) {
      inputs.push_back(
          g.add_data(cat("in", k), 16, static_cast<ProcId>(k % procs)));
    }
    for (int t = 0; t < 24; ++t) {
      const DataId out =
          g.add_data(cat("out", t), 16, static_cast<ProcId>(t % procs));
      g.add_task(cat("T", t), {inputs[(t + 1) % 8], inputs[(t + 3) % 8]},
                 {out}, 1.0);
    }
    g.finalize();
    expect_all_policies_match(g, procs, "ties");
  }
}

TEST(OrderingOracle, PaperExampleMatchesTheScanBitForBit) {
  const TaskGraph g = graph::make_paper_figure2_graph();
  expect_all_policies_match(g, 2, "figure 2");
}

TEST(OrderingOracle, CholeskyAndLuMatchTheScanBitForBit) {
  for (int procs : kOracleProcs) {
    const auto chol =
        num::CholeskyApp::build(num::bcsstk15_like(0.4).matrix, 6, procs);
    expect_all_policies_match(chol.graph(), procs, "cholesky");
    const auto lu =
        num::LuApp::build(num::goodwin_like(0.15).matrix, 4, procs);
    expect_all_policies_match(lu.graph(), procs, "lu");
  }
}

}  // namespace
}  // namespace rapid::sched
