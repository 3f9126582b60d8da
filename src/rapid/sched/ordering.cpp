#include "rapid/sched/ordering.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "rapid/support/check.hpp"
#include "rapid/support/str.hpp"

namespace rapid::sched {

using graph::Edge;
using graph::TaskGraph;

double arrival_delay_us(const machine::MachineParams& params,
                        std::int64_t bytes) {
  return params.rma_overhead_us + params.rma_latency_us +
         static_cast<double>(bytes) / params.bytes_per_us;
}

std::int64_t edge_bytes(const TaskGraph& graph, const Edge& e) {
  if (e.kind == graph::DepKind::kTrue) {
    return graph.data(e.object).size_bytes;
  }
  return 8;  // synchronization flag
}

std::vector<double> bottom_levels(const TaskGraph& graph,
                                  const std::vector<ProcId>& proc_of_task,
                                  const machine::MachineParams& params) {
  const auto order = graph.topological_order();
  std::vector<double> bl(static_cast<std::size_t>(graph.num_tasks()), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId t = *it;
    double best = 0.0;
    for (std::int32_t ei : graph.out_edges(t)) {
      const Edge& e = graph.edges()[ei];
      const double comm = proc_of_task[e.src] == proc_of_task[e.dst]
                              ? 0.0
                              : arrival_delay_us(params, edge_bytes(graph, e));
      best = std::max(best, comm + bl[e.dst]);
    }
    bl[t] = params.task_time_us(graph.task(t).flops) + best;
  }
  return bl;
}

namespace {

enum class Policy { kRcp, kMpo, kDts };

/// Deterministic list-scheduling simulation shared by the three orderings.
/// At every step the processor that can start a task earliest acts first
/// (ties by processor id); it runs its highest-priority eligible ready task.
///
/// Event-driven: each processor walks the slices of its tasks in increasing
/// order, and only the lowest slice with unscheduled tasks is eligible (DTS;
/// RCP and MPO run as one slice). A processor keeps the ready tasks of that
/// slice in two heaps — `waiting`, a min-heap on ready time of tasks that
/// cannot start by the processor's clock, and `available`, a max-heap on
/// priority of tasks that can — and parks ready tasks of later slices until
/// their slice's turn. A step moves waiting tasks that have come due into
/// `available` and pops its top, so no step rescans a ready list. MPO's
/// resident count is kept per task and bumped when an object it touches is
/// first allocated on its processor; the raised priority is re-pushed and
/// the outranked entry dropped when it surfaces.
/// Cost O((n + e + Σ|accesses|·p) log n); the chosen task, start and finish
/// times equal a full scan's bit for bit (tests/ordering_oracle.hpp).
class OrderingEngine {
 public:
  OrderingEngine(const TaskGraph& graph,
                 const std::vector<ProcId>& proc_of_task, int num_procs,
                 const machine::MachineParams& params, Policy policy,
                 std::vector<std::int32_t> slice_of_task)
      : graph_(graph),
        proc_of_task_(proc_of_task),
        num_procs_(num_procs),
        params_(params),
        policy_(policy),
        bl_(bottom_levels(graph, proc_of_task, params)) {
    const TaskId n = graph.num_tasks();
    RAPID_CHECK(static_cast<TaskId>(proc_of_task.size()) == n,
                "proc_of_task size mismatch");
    RAPID_CHECK(policy != Policy::kDts ||
                    slice_of_task.size() == static_cast<std::size_t>(n),
                "missing slice assignment");
    if (slice_of_task.empty()) slice_of_task.assign(proc_of_task.size(), 0);
    pending_.assign(proc_of_task.size(), 0);
    ready_time_.assign(proc_of_task.size(), 0.0);
    state_.assign(proc_of_task.size(), State::kPending);
    next_parked_.assign(proc_of_task.size(), graph::kInvalidTask);
    for (TaskId t = 0; t < n; ++t) {
      pending_[t] = static_cast<std::int32_t>(graph.in_edges(t).size());
      RAPID_CHECK(proc_of_task[t] >= 0 && proc_of_task[t] < num_procs,
                  "task assigned to invalid processor");
    }
    const auto procs = static_cast<std::size_t>(num_procs);
    idle_.assign(procs, 0.0);
    waiting_.resize(procs);
    available_.resize(procs);
    build_slices(slice_of_task);
    if (policy_ == Policy::kMpo) build_residency();
    for (TaskId t = 0; t < n; ++t) {
      if (pending_[t] == 0) release(t);
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
      // Processor with the earliest possible start among eligible tasks.
      ProcId best_proc = graph::kInvalidProc;
      double best_est = std::numeric_limits<double>::infinity();
      for (ProcId p = 0; p < num_procs_; ++p) {
        const double earliest = earliest_start(p);
        if (earliest < best_est) {
          best_est = earliest;
          best_proc = p;
        }
      }
      RAPID_CHECK(best_proc != graph::kInvalidProc,
                  "ordering deadlock: no eligible ready task anywhere");

      // Highest-priority eligible task on that processor that can start at
      // best_est.
      make_available(best_proc, best_est);
      auto& available = available_[best_proc];
      RAPID_ASSERT(!available.empty());
      const TaskId chosen = available.front().task;
      std::pop_heap(available.begin(), available.end(), ranks_below);
      available.pop_back();
      state_[chosen] = State::kDone;

      const double start = best_est;
      const double finish =
          start + params_.task_time_us(graph_.task(chosen).flops);
      out.order[best_proc].push_back(chosen);
      out.predicted_start[chosen] = start;
      out.predicted_finish[chosen] = finish;
      out.predicted_makespan = std::max(out.predicted_makespan, finish);
      idle_[best_proc] = finish;
      if (policy_ == Policy::kMpo) allocate_accesses(best_proc, chosen);
      if (--remaining_[current_[best_proc]] == 0) next_slice(best_proc);

      for (std::int32_t ei : graph_.out_edges(chosen)) {
        const Edge& e = graph_.edges()[ei];
        const double comm =
            proc_of_task_[e.src] == proc_of_task_[e.dst]
                ? 0.0
                : arrival_delay_us(params_, edge_bytes(graph_, e));
        ready_time_[e.dst] = std::max(ready_time_[e.dst], finish + comm);
        if (--pending_[e.dst] == 0) release(e.dst);
      }
    }
    out.rebuild_index(graph_.num_tasks());
    return out;
  }

 private:
  /// kAvailable: in available_. kPending: blocked on a predecessor, parked
  /// until its slice's turn, or waiting for its ready time.
  enum class State : std::uint8_t { kPending, kAvailable, kDone };

  struct Waiting {
    double ready_time;
    TaskId task;
  };
  /// Heap entry with its priority key. For MPO, `resident` is the count the
  /// key was computed from; an entry whose count went stale is dropped.
  struct Candidate {
    double memory_priority;
    double bottom_level;
    TaskId task;
    std::int32_t resident;
  };

  static bool due_later(const Waiting& a, const Waiting& b) {
    return a.ready_time > b.ready_time;
  }
  /// True if b beats a: memory priority (MPO), then critical path, then the
  /// lower task id.
  static bool ranks_below(const Candidate& a, const Candidate& b) {
    if (a.memory_priority != b.memory_priority) {
      return a.memory_priority < b.memory_priority;
    }
    if (a.bottom_level != b.bottom_level) {
      return a.bottom_level < b.bottom_level;
    }
    return a.task > b.task;
  }

  /// Numbers the distinct (processor, slice) pairs so that processor p's
  /// slices are current_[p] .. end_[p] − 1 in increasing slice order, and
  /// counts each one's tasks.
  void build_slices(const std::vector<std::int32_t>& slice_of_task) {
    // Tasks grouped by processor (counting sort), then by slice.
    std::vector<std::int32_t> first(static_cast<std::size_t>(num_procs_) + 1,
                                    0);
    for (const ProcId p : proc_of_task_) ++first[p + 1];
    for (ProcId p = 0; p < num_procs_; ++p) first[p + 1] += first[p];
    std::vector<TaskId> by_slice(proc_of_task_.size());
    std::vector<std::int32_t> cursor(first.begin(), first.end() - 1);
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      by_slice[cursor[proc_of_task_[t]]++] = t;
    }
    const auto earlier = [&](TaskId a, TaskId b) {
      return slice_of_task[a] < slice_of_task[b];
    };
    slice_id_.assign(proc_of_task_.size(), 0);
    current_.assign(static_cast<std::size_t>(num_procs_), 0);
    end_.assign(static_cast<std::size_t>(num_procs_), 0);
    for (ProcId p = 0; p < num_procs_; ++p) {
      const auto begin = by_slice.begin() + first[p];
      const auto end = by_slice.begin() + first[p + 1];
      if (!std::is_sorted(begin, end, earlier)) std::sort(begin, end, earlier);
      current_[p] = static_cast<std::int32_t>(remaining_.size());
      for (auto it = begin; it != end; ++it) {
        if (it == begin || slice_of_task[*it] != slice_of_task[*(it - 1)]) {
          remaining_.push_back(0);
          parked_.push_back(graph::kInvalidTask);
        }
        slice_id_[*it] = static_cast<std::int32_t>(remaining_.size() - 1);
        ++remaining_.back();
      }
      end_[p] = static_cast<std::int32_t>(remaining_.size());
    }
  }

  /// MPO: every task's access set (computed once), the tasks that touch
  /// each object, and each task's count of accesses already resident on
  /// its processor (owned there, or allocated there by an earlier task).
  void build_residency() {
    const auto n = static_cast<std::size_t>(graph_.num_tasks());
    const auto num_data = static_cast<std::size_t>(graph_.num_data());
    access_ptr_.assign(n + 1, 0);
    resident_.assign(n, 0);
    std::vector<std::int32_t> user_count(num_data + 1, 0);
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      for (graph::DataId d : graph_.task(t).accesses()) {
        access_.push_back(d);
        ++user_count[static_cast<std::size_t>(d) + 1];
        if (graph_.data(d).owner == proc_of_task_[t]) ++resident_[t];
      }
      access_ptr_[t + 1] = static_cast<std::int32_t>(access_.size());
    }
    for (std::size_t d = 0; d < num_data; ++d) {
      user_count[d + 1] += user_count[d];
    }
    user_ptr_ = user_count;
    users_.resize(access_.size());
    for (TaskId t = 0; t < graph_.num_tasks(); ++t) {
      for (std::int32_t i = access_ptr_[t]; i < access_ptr_[t + 1]; ++i) {
        users_[user_count[access_[i]]++] = t;
      }
    }
    allocated_.assign(static_cast<std::size_t>(num_procs_) * num_data, false);
  }

  /// Fraction of the task's objects resident on its processor. A task that
  /// touches nothing counts as fully resident.
  double memory_priority(TaskId t) const {
    const std::int32_t size = access_ptr_[t + 1] - access_ptr_[t];
    if (size == 0) return 1.0;
    return static_cast<double>(resident_[t]) / static_cast<double>(size);
  }

  void push_available(TaskId t) {
    state_[t] = State::kAvailable;
    Candidate c{0.0, bl_[t], t, 0};
    if (policy_ == Policy::kMpo) {
      c.memory_priority = memory_priority(t);
      c.resident = resident_[t];
    }
    auto& heap = available_[proc_of_task_[t]];
    heap.push_back(c);
    std::push_heap(heap.begin(), heap.end(), ranks_below);
  }

  /// A ready task of its processor's current slice: available at once if
  /// it could already start by the processor's clock, else waiting.
  void enqueue(TaskId t) {
    const ProcId p = proc_of_task_[t];
    if (ready_time_[t] <= idle_[p]) {
      push_available(t);
      return;
    }
    waiting_[p].push_back(Waiting{ready_time_[t], t});
    std::push_heap(waiting_[p].begin(), waiting_[p].end(), due_later);
  }

  /// A task whose predecessors all finished.
  void release(TaskId t) {
    const std::int32_t slice = slice_id_[t];
    if (slice == current_[proc_of_task_[t]]) {
      enqueue(t);
      return;
    }
    next_parked_[t] = parked_[slice];
    parked_[slice] = t;
  }

  /// p finished its current slice: the next one's parked tasks become
  /// eligible. Only stale MPO entries can be left in available_[p].
  void next_slice(ProcId p) {
    RAPID_ASSERT(waiting_[p].empty());
    available_[p].clear();
    if (++current_[p] == end_[p]) return;
    for (TaskId t = parked_[current_[p]]; t != graph::kInvalidTask;
         t = next_parked_[t]) {
      enqueue(t);
    }
  }

  /// Moves every waiting task of p with ready time ≤ `clock` to available,
  /// then drops stale entries off the top of available.
  void make_available(ProcId p, double clock) {
    auto& waiting = waiting_[p];
    while (!waiting.empty() && waiting.front().ready_time <= clock) {
      const TaskId t = waiting.front().task;
      std::pop_heap(waiting.begin(), waiting.end(), due_later);
      waiting.pop_back();
      push_available(t);
    }
    auto& available = available_[p];
    while (!available.empty()) {
      const Candidate& top = available.front();
      if (state_[top.task] == State::kAvailable &&
          (policy_ != Policy::kMpo || top.resident == resident_[top.task])) {
        break;
      }
      std::pop_heap(available.begin(), available.end(), ranks_below);
      available.pop_back();
    }
  }

  /// Earliest start of an eligible ready task on p: the processor's clock
  /// if one is already available, else the earliest ready time.
  double earliest_start(ProcId p) {
    make_available(p, idle_[p]);
    if (!available_[p].empty()) return idle_[p];
    if (!waiting_[p].empty()) return waiting_[p].front().ready_time;
    return std::numeric_limits<double>::infinity();
  }

  /// MPO: t's non-local objects are now allocated on p; every unscheduled
  /// task of p touching one for the first time gains a resident object.
  void allocate_accesses(ProcId p, TaskId t) {
    const auto num_data = static_cast<std::size_t>(graph_.num_data());
    for (std::int32_t i = access_ptr_[t]; i < access_ptr_[t + 1]; ++i) {
      const graph::DataId d = access_[i];
      std::vector<bool>::reference allocated =
          allocated_[static_cast<std::size_t>(p) * num_data +
                     static_cast<std::size_t>(d)];
      if (graph_.data(d).owner == p || allocated) continue;
      allocated = true;
      for (std::int32_t j = user_ptr_[d]; j < user_ptr_[d + 1]; ++j) {
        const TaskId u = users_[j];
        if (proc_of_task_[u] != p || state_[u] == State::kDone) continue;
        ++resident_[u];
        if (state_[u] == State::kAvailable) push_available(u);
      }
    }
  }

  const TaskGraph& graph_;
  const std::vector<ProcId>& proc_of_task_;
  const int num_procs_;
  const machine::MachineParams& params_;
  const Policy policy_;
  const std::vector<double> bl_;

  std::vector<std::int32_t> pending_;
  std::vector<double> ready_time_;
  std::vector<State> state_;
  // Per processor: clock, the current slice's ready tasks, and the slice
  // range current_[p] .. end_[p] (indices into remaining_ / parked_).
  std::vector<double> idle_;
  std::vector<std::vector<Waiting>> waiting_;      // min-heaps on ready_time
  std::vector<std::vector<Candidate>> available_;  // max-heaps on priority
  std::vector<std::int32_t> current_, end_;
  // Per (processor, slice): unscheduled tasks, and the head of the list of
  // tasks parked there (linked through next_parked_).
  std::vector<std::int32_t> remaining_;
  std::vector<TaskId> parked_;
  std::vector<std::int32_t> slice_id_;  // per task
  std::vector<TaskId> next_parked_;     // per task
  // MPO residency (build_residency).
  std::vector<std::int32_t> access_ptr_, access_;
  std::vector<std::int32_t> user_ptr_, users_;
  std::vector<std::int32_t> resident_;
  std::vector<bool> allocated_;  // [p * num_data + d]
};

}  // namespace

Schedule schedule_rcp(const TaskGraph& graph,
                      const std::vector<ProcId>& proc_of_task, int num_procs,
                      const machine::MachineParams& params) {
  return OrderingEngine(graph, proc_of_task, num_procs, params, Policy::kRcp,
                        {})
      .run();
}

Schedule schedule_mpo(const TaskGraph& graph,
                      const std::vector<ProcId>& proc_of_task, int num_procs,
                      const machine::MachineParams& params) {
  return OrderingEngine(graph, proc_of_task, num_procs, params, Policy::kMpo,
                        {})
      .run();
}

Schedule schedule_dts(const TaskGraph& graph,
                      const std::vector<ProcId>& proc_of_task, int num_procs,
                      const machine::MachineParams& params,
                      std::optional<std::int64_t> volatile_budget) {
  const graph::SliceDecomposition slices = graph::compute_slices(graph);
  std::vector<std::int32_t> slice_of_task = slices.slice_of_task;
  if (volatile_budget.has_value()) {
    slice_of_task = merge_slices(graph, slices, proc_of_task, num_procs,
                                 *volatile_budget);
  }
  return OrderingEngine(graph, proc_of_task, num_procs, params, Policy::kDts,
                        std::move(slice_of_task))
      .run();
}

std::vector<std::int64_t> slice_volatile_demand(
    const TaskGraph& graph, const graph::SliceDecomposition& slices,
    const std::vector<ProcId>& proc_of_task, int num_procs) {
  std::vector<std::int64_t> demand(slices.num_slices(), 0);
  for (std::size_t s = 0; s < slices.num_slices(); ++s) {
    std::vector<std::int64_t> bytes(static_cast<std::size_t>(num_procs), 0);
    std::map<std::pair<ProcId, graph::DataId>, bool> seen;
    for (TaskId t : slices.slices[s].tasks) {
      const ProcId p = proc_of_task[t];
      for (graph::DataId d : graph.task(t).accesses()) {
        if (graph.data(d).owner == p) continue;
        if (seen.emplace(std::make_pair(p, d), true).second) {
          bytes[p] += graph.data(d).size_bytes;
        }
      }
    }
    demand[s] = *std::max_element(bytes.begin(), bytes.end());
  }
  return demand;
}

std::vector<std::int32_t> merge_slices(
    const TaskGraph& graph, const graph::SliceDecomposition& slices,
    const std::vector<ProcId>& proc_of_task, int num_procs,
    std::int64_t volatile_budget, std::int32_t* merged_count) {
  RAPID_CHECK(volatile_budget >= 0, "negative volatile budget");
  const std::vector<std::int64_t> demand =
      slice_volatile_demand(graph, slices, proc_of_task, num_procs);
  std::vector<std::int32_t> merged_of_slice(slices.num_slices(), 0);
  std::int32_t current = 0;
  std::int64_t space_req = slices.num_slices() > 0 ? demand[0] : 0;
  for (std::size_t i = 1; i < slices.num_slices(); ++i) {
    if (space_req + demand[i] <= volatile_budget) {
      space_req += demand[i];  // merge L_i into the current merged slice
    } else {
      ++current;
      space_req = demand[i];
    }
    merged_of_slice[i] = current;
  }
  if (merged_count != nullptr) *merged_count = current + 1;
  std::vector<std::int32_t> out(
      static_cast<std::size_t>(graph.num_tasks()));
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    out[t] = merged_of_slice[slices.slice_of_task[t]];
  }
  return out;
}

}  // namespace rapid::sched
