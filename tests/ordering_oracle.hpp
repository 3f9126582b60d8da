// Reference oracle for the ordering engine in rapid/sched/ordering.cpp: the
// plain list-scheduling loop that, at every step, scans every processor's
// whole ready list, recomputes MPO's memory priority from the task's access
// set at each comparison, and erases the chosen task from a vector —
// O(n·R) per schedule. The engine must produce the same order and the same
// predicted start/finish times and makespan bit for bit.
#pragma once

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "rapid/graph/dcg.hpp"
#include "rapid/sched/ordering.hpp"
#include "rapid/support/check.hpp"

namespace rapid::sched::oracle {

enum class Policy { kRcp, kMpo, kDts };

/// At every step the processor that can start a task earliest acts first
/// (ties by processor id); it runs its highest-priority eligible ready task.
class ScanEngine {
 public:
  ScanEngine(const graph::TaskGraph& graph,
             const std::vector<ProcId>& proc_of_task, int num_procs,
             const machine::MachineParams& params, Policy policy,
             std::vector<std::int32_t> slice_of_task)
      : graph_(graph),
        proc_of_task_(proc_of_task),
        num_procs_(num_procs),
        params_(params),
        policy_(policy),
        slice_of_task_(std::move(slice_of_task)),
        bl_(bottom_levels(graph, proc_of_task, params)) {
    const auto n = static_cast<std::size_t>(graph.num_tasks());
    pending_.assign(n, 0);
    ready_time_.assign(n, 0.0);
    for (TaskId t = 0; t < graph.num_tasks(); ++t) {
      pending_[t] = static_cast<std::int32_t>(graph.in_edges(t).size());
    }
    ready_.resize(static_cast<std::size_t>(num_procs));
    idle_.assign(static_cast<std::size_t>(num_procs), 0.0);
    if (policy_ == Policy::kMpo) {
      allocated_.assign(static_cast<std::size_t>(num_procs),
                        std::vector<bool>(
                            static_cast<std::size_t>(graph.num_data()), false));
    }
    if (policy_ == Policy::kDts) {
      slice_remaining_.resize(static_cast<std::size_t>(num_procs));
      for (TaskId t = 0; t < graph.num_tasks(); ++t) {
        ++slice_remaining_[proc_of_task[t]][slice_of_task_[t]];
      }
    }
    for (TaskId t = 0; t < graph.num_tasks(); ++t) {
      if (pending_[t] == 0) ready_[proc_of_task[t]].push_back(t);
    }
  }

  Schedule run() {
    Schedule out;
    out.num_procs = num_procs_;
    out.order.resize(static_cast<std::size_t>(num_procs_));
    const auto n = static_cast<std::size_t>(graph_.num_tasks());
    out.predicted_start.assign(n, 0.0);
    out.predicted_finish.assign(n, 0.0);

    for (std::size_t scheduled = 0; scheduled < n; ++scheduled) {
      ProcId best_proc = graph::kInvalidProc;
      double best_est = std::numeric_limits<double>::infinity();
      for (ProcId p = 0; p < num_procs_; ++p) {
        double earliest = std::numeric_limits<double>::infinity();
        for (TaskId t : ready_[p]) {
          if (!eligible(p, t)) continue;
          earliest = std::min(earliest, std::max(idle_[p], ready_time_[t]));
        }
        if (earliest < best_est) {
          best_est = earliest;
          best_proc = p;
        }
      }
      RAPID_CHECK(best_proc != graph::kInvalidProc,
                  "ordering deadlock: no eligible ready task anywhere");

      auto& ready = ready_[best_proc];
      std::size_t best_idx = ready.size();
      for (std::size_t i = 0; i < ready.size(); ++i) {
        const TaskId t = ready[i];
        if (!eligible(best_proc, t)) continue;
        if (std::max(idle_[best_proc], ready_time_[t]) > best_est) continue;
        if (best_idx == ready.size() ||
            higher_priority(best_proc, t, ready[best_idx])) {
          best_idx = i;
        }
      }
      RAPID_CHECK(best_idx < ready.size(), "no candidate at best_est");
      const TaskId chosen = ready[best_idx];
      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best_idx));

      const double start = best_est;
      const double finish =
          start + params_.task_time_us(graph_.task(chosen).flops);
      out.order[best_proc].push_back(chosen);
      out.predicted_start[chosen] = start;
      out.predicted_finish[chosen] = finish;
      out.predicted_makespan = std::max(out.predicted_makespan, finish);
      idle_[best_proc] = finish;
      on_scheduled(best_proc, chosen);

      for (std::int32_t ei : graph_.out_edges(chosen)) {
        const graph::Edge& e = graph_.edges()[ei];
        const double comm =
            proc_of_task_[e.src] == proc_of_task_[e.dst]
                ? 0.0
                : arrival_delay_us(params_, edge_bytes(graph_, e));
        ready_time_[e.dst] = std::max(ready_time_[e.dst], finish + comm);
        if (--pending_[e.dst] == 0) {
          ready_[proc_of_task_[e.dst]].push_back(e.dst);
        }
      }
    }
    out.rebuild_index(graph_.num_tasks());
    return out;
  }

 private:
  bool eligible(ProcId p, TaskId t) const {
    if (policy_ != Policy::kDts) return true;
    return slice_of_task_[t] == slice_remaining_[p].begin()->first;
  }

  /// True if a beats b on processor p.
  bool higher_priority(ProcId p, TaskId a, TaskId b) const {
    if (policy_ == Policy::kMpo) {
      const double ma = memory_priority(p, a);
      const double mb = memory_priority(p, b);
      if (ma != mb) return ma > mb;
    }
    if (policy_ == Policy::kDts && slice_of_task_[a] != slice_of_task_[b]) {
      return slice_of_task_[a] < slice_of_task_[b];
    }
    if (bl_[a] != bl_[b]) return bl_[a] > bl_[b];
    return a < b;
  }

  double memory_priority(ProcId p, TaskId t) const {
    const auto accesses = graph_.task(t).accesses();
    RAPID_CHECK(!accesses.empty(), "MPO oracle needs non-empty access sets");
    int resident = 0;
    for (graph::DataId d : accesses) {
      if (graph_.data(d).owner == p || allocated_[p][d]) ++resident;
    }
    return static_cast<double>(resident) /
           static_cast<double>(accesses.size());
  }

  void on_scheduled(ProcId p, TaskId t) {
    if (policy_ == Policy::kMpo) {
      for (graph::DataId d : graph_.task(t).accesses()) {
        if (graph_.data(d).owner != p) allocated_[p][d] = true;
      }
    }
    if (policy_ == Policy::kDts) {
      auto& remaining = slice_remaining_[p];
      auto it = remaining.find(slice_of_task_[t]);
      if (--it->second == 0) remaining.erase(it);
    }
  }

  const graph::TaskGraph& graph_;
  const std::vector<ProcId>& proc_of_task_;
  const int num_procs_;
  const machine::MachineParams& params_;
  const Policy policy_;
  std::vector<std::int32_t> slice_of_task_;
  std::vector<double> bl_;

  std::vector<std::int32_t> pending_;
  std::vector<double> ready_time_;
  std::vector<std::vector<TaskId>> ready_;
  std::vector<double> idle_;
  std::vector<std::vector<bool>> allocated_;  // MPO
  std::vector<std::map<std::int32_t, std::int32_t>> slice_remaining_;  // DTS
};

inline Schedule schedule_rcp(const graph::TaskGraph& graph,
                             const std::vector<ProcId>& proc_of_task,
                             int num_procs,
                             const machine::MachineParams& params) {
  return ScanEngine(graph, proc_of_task, num_procs, params, Policy::kRcp, {})
      .run();
}

inline Schedule schedule_mpo(const graph::TaskGraph& graph,
                             const std::vector<ProcId>& proc_of_task,
                             int num_procs,
                             const machine::MachineParams& params) {
  return ScanEngine(graph, proc_of_task, num_procs, params, Policy::kMpo, {})
      .run();
}

inline Schedule schedule_dts(const graph::TaskGraph& graph,
                             const std::vector<ProcId>& proc_of_task,
                             int num_procs,
                             const machine::MachineParams& params,
                             std::optional<std::int64_t> volatile_budget = {}) {
  const graph::SliceDecomposition slices = graph::compute_slices(graph);
  std::vector<std::int32_t> slice_of_task = slices.slice_of_task;
  if (volatile_budget.has_value()) {
    slice_of_task = merge_slices(graph, slices, proc_of_task, num_procs,
                                 *volatile_budget);
  }
  return ScanEngine(graph, proc_of_task, num_procs, params, Policy::kDts,
                    std::move(slice_of_task))
      .run();
}

}  // namespace rapid::sched::oracle
