// Work-stealing task executor: the shared parallel substrate for the
// analysis pipeline.
//
// The FULL-Web pipeline is embarrassingly parallel at every layer — five
// independent Hurst estimators, Poisson batteries over three intervals,
// three tail analyses per interval, hundreds of curvature replicates — so
// one pool sized to the machine runs the whole task graph. Design points:
//
//  * Per-worker deques plus a shared injection queue. Workers pop their own
//    deque LIFO (cache locality for nested task graphs) and steal FIFO from
//    victims, so coarse outer tasks migrate while fine inner tasks stay put.
//  * Blocking waits HELP: a thread waiting on a TaskGroup or Future drains
//    pending tasks instead of sleeping, so nested parallelism (a task that
//    itself fans out) cannot deadlock even on a 1-worker pool.
//  * threads == 1 is a true serial executor — tasks run inline at submission
//    on the calling thread, with no pool and no synchronization. Combined
//    with per-task RNG substreams (support/rng.h), parallel and serial runs
//    of the pipeline produce bit-identical results by construction.
//  * Exceptions propagate: the first exception thrown by a task in a group
//    (or parallel_for) is captured and rethrown from wait()/get(); remaining
//    parallel_for chunks are cancelled.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>

namespace fullweb::support {

class Executor;

namespace detail {

/// Completion state shared between a waiter and the tasks it waits on.
struct WaitState {
  std::mutex m;
  std::condition_variable cv;
  std::size_t pending = 0;          ///< tasks submitted but not finished
  std::exception_ptr error;         ///< first failure, rethrown by the waiter
  bool cancelled = false;           ///< set on first failure; chunks may skip

  void task_started() {
    std::scoped_lock lock(m);
    ++pending;
  }
  void task_finished() {
    {
      std::scoped_lock lock(m);
      --pending;
    }
    cv.notify_all();
  }
  void task_failed(std::exception_ptr e) {
    {
      std::scoped_lock lock(m);
      if (!error) error = std::move(e);
      cancelled = true;
      --pending;
    }
    cv.notify_all();
  }
};

}  // namespace detail

/// A set of tasks submitted to one executor and awaited together.
/// Not thread-safe: run() and wait() must be called from the owning thread
/// (tasks themselves may run anywhere).
class TaskGroup {
 public:
  explicit TaskGroup(Executor& executor) noexcept
      : executor_(executor), state_(std::make_shared<detail::WaitState>()) {}
  ~TaskGroup();  ///< blocks until all tasks finish (exceptions swallowed —
                 ///< call wait() explicitly to observe them)

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submit `fn` to the group's executor. On a serial executor the call
  /// runs inline before returning.
  template <typename F>
  void run(F&& fn);

  /// Block until every submitted task has finished, helping to execute
  /// pending tasks meanwhile. Rethrows the first task exception.
  void wait();

 private:
  Executor& executor_;
  std::shared_ptr<detail::WaitState> state_;
};

/// Result handle for Executor::async. get() helps the pool while waiting
/// and rethrows the task's exception, like std::future but deadlock-free
/// under nested parallelism.
template <typename T>
class Future {
 public:
  Future() = default;
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Wait for the task, then return its value (exactly once).
  T get();

 private:
  friend class Executor;
  struct State : detail::WaitState {
    std::optional<T> value;
  };
  Future(Executor* executor, std::shared_ptr<State> state) noexcept
      : executor_(executor), state_(std::move(state)) {}

  Executor* executor_ = nullptr;
  std::shared_ptr<State> state_;
};

class Executor {
 public:
  /// threads == 0: use hardware_concurrency(). threads == 1: serial inline
  /// execution (no pool threads). threads >= 2: that many worker threads.
  explicit Executor(std::size_t threads = 0);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Configured parallelism (1 for the serial executor).
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }
  [[nodiscard]] bool serial() const noexcept { return threads_ == 1; }

  /// Submit a callable; returns a Future for its result.
  template <typename F>
  auto async(F&& fn) -> Future<std::invoke_result_t<std::decay_t<F>&>>;

  /// Run body(i) for every i in [begin, end), in parallel chunks of about
  /// `grain` indices (0 = pick automatically). Blocks until complete; the
  /// calling thread executes chunks too. The first exception thrown by any
  /// body is rethrown here and cancels chunks that have not yet started.
  template <typename F>
  void parallel_for(std::size_t begin, std::size_t end, F&& body,
                    std::size_t grain = 0);

  /// The process-wide default pool, sized by set_global_threads() or
  /// hardware_concurrency(). Created lazily on first use.
  static Executor& global();

  /// Replace the global pool with one of `n` threads (0 = hardware). Call
  /// between analyses: throws std::logic_error if the old pool still has
  /// tasks outstanding, because references handed out by global() would
  /// dangle. Examples and bench drivers call this from --threads at
  /// startup.
  static void set_global_threads(std::size_t n);

  /// options-plumbing helper: a null executor pointer means "the global
  /// pool", so every analysis entry point resolves through here.
  static Executor& resolve(Executor* executor) {
    return executor != nullptr ? *executor : global();
  }

 private:
  friend class TaskGroup;
  template <typename T>
  friend class Future;

  struct Impl;

  /// Enqueue a type-erased task (pool mode only).
  void enqueue(std::function<void()> task);
  /// Pop-and-run one pending task from anywhere in the pool, if any.
  bool try_run_one();
  /// Help until state->pending drops to zero.
  void help_while_pending(detail::WaitState& state);

  std::size_t threads_ = 1;
  std::unique_ptr<Impl> impl_;  ///< null for the serial executor
};

// ---------------------------------------------------------------------------
// template member implementations

template <typename F>
void TaskGroup::run(F&& fn) {
  if (executor_.serial()) {
    state_->task_started();
    try {
      fn();
      state_->task_finished();
    } catch (...) {
      state_->task_failed(std::current_exception());
    }
    return;
  }
  state_->task_started();
  executor_.enqueue(
      [state = state_, fn = std::forward<F>(fn)]() mutable {
        try {
          fn();
          state->task_finished();
        } catch (...) {
          state->task_failed(std::current_exception());
        }
      });
}

template <typename F>
auto Executor::async(F&& fn) -> Future<std::invoke_result_t<std::decay_t<F>&>> {
  using T = std::invoke_result_t<std::decay_t<F>&>;
  auto state = std::make_shared<typename Future<T>::State>();
  state->task_started();
  auto task = [state, fn = std::forward<F>(fn)]() mutable {
    try {
      if constexpr (std::is_void_v<T>) {
        fn();
        state->value.emplace();
      } else {
        state->value.emplace(fn());
      }
      state->task_finished();
    } catch (...) {
      state->task_failed(std::current_exception());
    }
  };
  if (serial()) {
    task();
  } else {
    enqueue(std::move(task));
  }
  return Future<T>(this, std::move(state));
}

// void needs a storable placeholder; reuse Future<bool>-style machinery by
// specializing the value slot away.
template <>
class Future<void> {
 public:
  Future() = default;
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  void get();

 private:
  friend class Executor;
  struct State : detail::WaitState {
    std::optional<bool> value;  ///< set true on success
  };
  Future(Executor* executor, std::shared_ptr<State> state) noexcept
      : executor_(executor), state_(std::move(state)) {}

  Executor* executor_ = nullptr;
  std::shared_ptr<State> state_;
};

template <typename T>
T Future<T>::get() {
  executor_->help_while_pending(*state_);
  std::exception_ptr error;
  {
    std::scoped_lock lock(state_->m);
    error = state_->error;
  }
  if (error) std::rethrow_exception(error);
  return std::move(*state_->value);
}

inline void Future<void>::get() {
  executor_->help_while_pending(*state_);
  std::exception_ptr error;
  {
    std::scoped_lock lock(state_->m);
    error = state_->error;
  }
  if (error) std::rethrow_exception(error);
}

template <typename F>
void Executor::parallel_for(std::size_t begin, std::size_t end, F&& body,
                            std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (serial() || n == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  if (grain == 0) {
    // Aim for a few chunks per thread so stealing can balance uneven work.
    grain = std::max<std::size_t>(1, n / (4 * threads_));
  }
  auto state = std::make_shared<detail::WaitState>();
  for (std::size_t lo = begin; lo < end; lo += grain) {
    const std::size_t hi = std::min(end, lo + grain);
    state->task_started();
    enqueue([state, lo, hi, &body]() {
      {
        std::scoped_lock lock(state->m);
        if (state->cancelled) {  // a sibling chunk already threw
          --state->pending;
          state->cv.notify_all();
          return;
        }
      }
      try {
        for (std::size_t i = lo; i < hi; ++i) body(i);
        state->task_finished();
      } catch (...) {
        state->task_failed(std::current_exception());
      }
    });
  }
  help_while_pending(*state);
  std::exception_ptr error;
  {
    std::scoped_lock lock(state->m);
    error = state->error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace fullweb::support
