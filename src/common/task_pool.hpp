// Fixed-worker task pool with deterministic result ordering.
//
// A suite of experiments is embarrassingly parallel — every experiment
// is an independent seeded simulation, run whole by one task — but the
// repo's acceptance oracle is byte identity: a BENCH_*.json produced at
// `--jobs N` must equal the one produced at `--jobs 1`. The pool is
// therefore built around determinism, not throughput tricks:
//
//  - Results land by submission index, never by completion order.
//    parallel_map_indexed writes slot i from task i; nothing downstream
//    can observe which worker finished first.
//  - jobs == 1 runs every task inline on the submitting thread, in
//    submission order, with exceptions propagating at the call site —
//    exactly the historical sequential path.
//  - With workers, a throwing task is captured per task; wait() rethrows
//    the failure of the *lowest submission index* once all tasks have
//    finished, so the surfaced error is independent of scheduling.
//  - Submitting from inside a worker thread (nested fan-out) is
//    rejected with choir::Error — it could deadlock a fixed-size pool.
//    parallel_for_indexed instead degrades to the inline path on worker
//    threads, so nested parallel callers compose safely.
//
// Artifact writes belong on the submitting thread after wait(); tasks
// should only compute and store into their own slot.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace choir {

/// Resolve a worker-count request: values > 0 pass through; <= 0 means
/// auto — CHOIR_JOBS when set to a positive integer, otherwise the
/// hardware concurrency (minimum 1).
int resolve_jobs(int requested = 0);

class TaskPool {
 public:
  /// `jobs` goes through resolve_jobs(); the resolved count of worker
  /// threads is spawned immediately (none in inline mode, jobs == 1).
  explicit TaskPool(int jobs = 0);
  /// Drains the queue, joins the workers. Errors of tasks never waited
  /// on are dropped — call wait() if failures matter (they do).
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int jobs() const { return jobs_; }

  /// Enqueue a task and return its submission index. Inline mode (jobs
  /// == 1) runs the task before returning and lets exceptions propagate
  /// immediately — the sequential path. Throws choir::Error when called
  /// from any pool's worker thread.
  std::size_t submit(std::function<void()> task);

  /// Block until every submitted task has finished. If any failed,
  /// rethrows the captured exception with the lowest submission index
  /// and forgets the rest; the pool remains usable afterwards.
  void wait();

  /// True on a thread owned by any TaskPool (used to refuse nested
  /// submission and to fall back to inline execution).
  static bool on_worker_thread();

 private:
  void worker_loop();

  struct Item {
    std::size_t index;
    std::function<void()> fn;
  };

  int jobs_;
  std::mutex mu_;
  std::condition_variable cv_work_;  ///< workers: queue non-empty/shutdown
  std::condition_variable cv_idle_;  ///< wait(): completed == submitted
  std::deque<Item> queue_;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors_;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// True when parallel_for_indexed would actually spread `tasks` over
/// workers: more than one task, a resolved job count above one, and not
/// already on a pool worker.
bool will_fan_out(int jobs, std::size_t tasks);

/// Run fn(0) .. fn(tasks-1), fanning across min(resolve_jobs(jobs),
/// tasks) workers when will_fan_out() holds and inline (plain sequential
/// loop) otherwise. Any per-index results must be stored by the callee
/// into index-addressed slots; see parallel_map_indexed.
template <typename Fn>
void parallel_for_indexed(int jobs, std::size_t tasks, Fn&& fn) {
  if (!will_fan_out(jobs, tasks)) {
    for (std::size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(resolve_jobs(jobs)),
                            tasks);
  TaskPool pool(static_cast<int>(workers));
  for (std::size_t i = 0; i < tasks; ++i) {
    pool.submit([&fn, i] { fn(i); });
  }
  pool.wait();
}

/// Ordered parallel map: out[i] = fn(i), with out in submission order no
/// matter which worker finished first. T must be default-constructible
/// and movable.
template <typename T, typename Fn>
std::vector<T> parallel_map_indexed(int jobs, std::size_t tasks, Fn&& fn) {
  std::vector<T> out(tasks);
  parallel_for_indexed(jobs, tasks,
                       [&out, &fn](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace choir
