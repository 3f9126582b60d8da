#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <utility>

#include "rapid/support/str.hpp"

namespace perfbench {

using rapid::cat;

std::vector<double> spmv(const rapid::sparse::CscMatrix& a,
                         const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(a.n_rows()), 0.0);
  const auto& p = a.pattern;
  for (rapid::sparse::Index j = 0; j < a.n_cols(); ++j) {
    const double xj = x[static_cast<std::size_t>(j)];
    for (auto k = p.col_ptr[j]; k < p.col_ptr[j + 1]; ++k) {
      y[static_cast<std::size_t>(p.row_idx[k])] +=
          a.values[static_cast<std::size_t>(k)] * xj;
    }
  }
  return y;
}

std::vector<double> solve_cholesky(const std::vector<double>& l,
                                   std::int64_t n, std::vector<double> b) {
  const auto at = [&](std::int64_t i, std::int64_t j) {
    return l[static_cast<std::size_t>(i + j * n)];
  };
  for (std::int64_t j = 0; j < n; ++j) {  // L y = b, column-oriented
    b[j] /= at(j, j);
    for (std::int64_t i = j + 1; i < n; ++i) b[i] -= at(i, j) * b[j];
  }
  for (std::int64_t j = n - 1; j >= 0; --j) {  // Lᵀ x = y, row-oriented
    double s = b[j];
    for (std::int64_t i = j + 1; i < n; ++i) s -= at(i, j) * b[i];
    b[j] = s / at(j, j);
  }
  return b;
}

std::vector<double> solve_lu(const std::vector<double>& lu,
                             const std::vector<std::int32_t>& piv,
                             std::int64_t n, std::vector<double> b) {
  const auto at = [&](std::int64_t i, std::int64_t j) {
    return lu[static_cast<std::size_t>(i + j * n)];
  };
  for (std::int64_t j = 0; j < n; ++j) std::swap(b[j], b[piv[j]]);
  for (std::int64_t j = 0; j < n; ++j) {  // unit L
    for (std::int64_t i = j + 1; i < n; ++i) b[i] -= at(i, j) * b[j];
  }
  for (std::int64_t j = n - 1; j >= 0; --j) {  // U, column-oriented
    b[j] /= at(j, j);
    for (std::int64_t i = 0; i < j; ++i) b[i] -= at(i, j) * b[j];
  }
  return b;
}

double backward_error(const rapid::sparse::CscMatrix& a,
                      const std::vector<double>& x,
                      const std::vector<double>& b) {
  const std::vector<double> ax = spmv(a, x);
  std::vector<double> row_abs(static_cast<std::size_t>(a.n_rows()), 0.0);
  const auto& p = a.pattern;
  for (rapid::sparse::Index j = 0; j < a.n_cols(); ++j) {
    for (auto k = p.col_ptr[j]; k < p.col_ptr[j + 1]; ++k) {
      row_abs[static_cast<std::size_t>(p.row_idx[k])] +=
          std::abs(a.values[static_cast<std::size_t>(k)]);
    }
  }
  double r = 0.0, norm_a = 0.0, norm_x = 0.0, norm_b = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    r = std::max(r, std::abs(b[i] - ax[i]));
    norm_a = std::max(norm_a, row_abs[i]);
    norm_x = std::max(norm_x, std::abs(x[i]));
    norm_b = std::max(norm_b, std::abs(b[i]));
  }
  // NaN anywhere must fail the caller's comparison, not pass it.
  if (!std::isfinite(r) || !std::isfinite(norm_x)) return INFINITY;
  return r / (norm_a * norm_x + norm_b);
}

std::vector<std::string> check_backward_error(double error, double limit) {
  if (error <= limit) return {};
  char buf[96];
  std::snprintf(buf, sizeof buf, "backward error %.3e exceeds %.1e", error,
                limit);
  return {buf};
}

std::int64_t planned_content_messages(const rapid::rt::RunPlan& plan) {
  std::int64_t n = 0;
  for (const auto& object : plan.objects) {
    for (const auto& dests : object.sends_by_version) {
      n += static_cast<std::int64_t>(dests.size());
    }
  }
  return n;
}

std::vector<std::string> check_run(const rapid::rt::RunReport& r,
                                   const RunExpect& e) {
  std::vector<std::string> out;
  if (!r.executable) out.push_back(cat("run not executable: ", r.failure));
  if (r.tasks_executed != e.tasks) {
    out.push_back(cat("tasks_executed ", r.tasks_executed, " != graph tasks ",
                      e.tasks));
  }
  if (r.content_messages != e.content_messages) {
    out.push_back(cat("content_messages ", r.content_messages,
                      " != planned sends ", e.content_messages));
  }
  const std::size_t p = e.liveness_peak.size();
  if (r.peak_bytes_per_proc.size() != p || r.maps_per_proc.size() != p) {
    out.push_back(cat("report covers ", r.peak_bytes_per_proc.size(),
                      " processors, plan has ", p));
    return out;
  }
  for (std::size_t q = 0; q < p; ++q) {
    const std::int64_t peak = r.peak_bytes_per_proc[q];
    if (peak > e.capacity) {
      out.push_back(cat("processor ", q, " peak ", peak, " > capacity ",
                        e.capacity));
    }
    if (peak < e.liveness_peak[q]) {
      out.push_back(cat("processor ", q, " peak ", peak,
                        " < liveness MEM_REQ peak ", e.liveness_peak[q]));
    }
    if (r.maps_per_proc[q] != e.sim_maps[q]) {
      out.push_back(cat("processor ", q, " MAPs ", r.maps_per_proc[q],
                        " != simulated ", e.sim_maps[q]));
    }
  }
  if (e.baseline) {
    const std::int64_t maps =
        std::accumulate(r.maps_per_proc.begin(), r.maps_per_proc.end(),
                        std::int64_t{0});
    if (maps != 0 || r.addr_packages != 0 || r.suspended_sends != 0) {
      out.push_back(cat("baseline run shows ", maps, " MAPs, ",
                        r.addr_packages, " address packages, ",
                        r.suspended_sends, " suspended sends"));
    }
  }
  return out;
}

std::vector<std::int64_t> wavefront(int rows, int cols) {
  std::vector<std::int64_t> g(static_cast<std::size_t>(rows) * cols);
  const auto at = [&](int i, int j) -> std::int64_t& {
    return g[static_cast<std::size_t>(i) * cols + j];
  };
  for (int j = 0; j < cols; ++j) at(0, j) = 2 * (j + 7);
  for (int i = 1; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      at(i, j) = 2 * (at(i - 1, j) + at(i - 1, (j + 1) % cols));
    }
  }
  return g;
}

std::vector<std::string> check_service(const rapid::svc::ServiceReport& r,
                                       const ClientCounts& c) {
  std::vector<std::string> out;
  const std::int64_t terminal =
      r.completed + r.failed + r.rejected + r.shed + r.expired;
  if (r.submitted != terminal) {
    out.push_back(cat("service submitted ", r.submitted,
                      " != completed+failed+rejected+shed+expired ",
                      terminal));
  }
  if (r.submitted != c.submitted) {
    out.push_back(cat("service counted ", r.submitted,
                      " submissions, client sent ", c.submitted));
  }
  if (r.completed != c.completed) {
    out.push_back(cat("service counted ", r.completed,
                      " completions, client saw ", c.completed));
  }
  if (r.cache_misses != c.distinct_keys) {
    out.push_back(cat("plan-cache misses ", r.cache_misses,
                      " != distinct (spec, capacity) keys ",
                      c.distinct_keys));
  }
  if (r.cache_hits + r.cache_misses != c.submitted) {
    out.push_back(cat("plan-cache lookups ", r.cache_hits + r.cache_misses,
                      " != submissions ", c.submitted));
  }
  return out;
}

std::vector<std::vector<double>> residency_per_proc(
    const rapid::obs::Trace& trace) {
  using rapid::obs::EventKind;
  using rapid::obs::ProtoState;
  constexpr auto kStates = static_cast<std::size_t>(ProtoState::kCount);
  std::vector<std::vector<double>> out;
  for (int q = 0; q < trace.num_procs(); ++q) {
    std::vector<double> res(kStates, 0.0);
    int state = -1;
    std::int64_t since = 0;
    std::int64_t last = 0;
    for (const auto& e : trace.events(q)) {
      last = e.t_ns;
      if (e.kind != EventKind::kStateEnter) continue;
      if (state >= 0) {
        res[static_cast<std::size_t>(state)] +=
            static_cast<double>(e.t_ns - since) * 1e-3;
      }
      state = e.a;
      since = e.t_ns;
    }
    if (state >= 0) {
      res[static_cast<std::size_t>(state)] +=
          static_cast<double>(last - since) * 1e-3;
    }
    out.push_back(std::move(res));
  }
  return out;
}

double residency_excess_us(const std::vector<std::vector<double>>& residency,
                           double parallel_us) {
  double worst = -INFINITY;
  for (const auto& states : residency) {
    worst = std::max(worst, std::accumulate(states.begin(), states.end(),
                                            0.0) - parallel_us);
  }
  return worst;
}

std::vector<std::string> check_residency(
    const std::vector<std::vector<double>>& residency, double parallel_us,
    double tolerance_us) {
  std::vector<std::string> out;
  for (std::size_t q = 0; q < residency.size(); ++q) {
    const double sum =
        std::accumulate(residency[q].begin(), residency[q].end(), 0.0);
    if (sum > parallel_us + tolerance_us) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "processor %zu state residencies sum to %.1f us > "
                    "parallel time %.1f us + %.1f us",
                    q, sum, parallel_us, tolerance_us);
      out.emplace_back(buf);
    }
  }
  return out;
}

}  // namespace perfbench
