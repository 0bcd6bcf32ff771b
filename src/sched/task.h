#ifndef CFC_SCHED_TASK_H
#define CFC_SCHED_TASK_H

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

namespace cfc {

/// Lazy coroutine task with continuation chaining.
///
/// Algorithms in this library are written as coroutines: every shared-memory
/// access is a `co_await` on an awaiter provided by ProcessContext, which
/// suspends the whole coroutine stack and returns control to the simulator.
/// The simulator then performs the access atomically (this is the event e_i
/// of the paper's interleaving model) and resumes the process.
///
/// Task<T> composes: `co_await subtask` starts the subtask via symmetric
/// transfer and resumes the awaiting coroutine when the subtask completes.
/// Tasks are move-only and destroy their coroutine frame on destruction,
/// including frames suspended mid-run (used for crash injection). Frames
/// use the compiler's default allocation (global operator new): a Sim
/// restore that value-replays a process frees its frames and allocates
/// them again.
template <class T>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation = std::noop_coroutine();
  std::exception_ptr exception;

  struct FinalAwaiter {
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    template <class Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) const noexcept {
      // Symmetric transfer to whoever co_awaited this task (or noop for the
      // outermost task, handing control back to the simulator).
      return h.promise().continuation;
    }
    void await_resume() const noexcept {}
  };

  [[nodiscard]] std::suspend_always initial_suspend() const noexcept {
    return {};
  }
  [[nodiscard]] FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

template <class T>
class Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }
  [[nodiscard]] bool done() const noexcept { return handle_ && handle_.done(); }
  [[nodiscard]] std::coroutine_handle<> handle() const noexcept {
    return handle_;
  }

  /// Rethrows any exception stored by the coroutine; call after done().
  void rethrow_if_exception() const {
    if (handle_ && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

  /// Result of a completed task. Precondition: done() and no exception.
  [[nodiscard]] T result() const {
    rethrow_if_exception();
    return *handle_.promise().value;
  }

  auto operator co_await() const noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) const noexcept {
        h.promise().continuation = cont;
        return h;  // start the child task
      }
      T await_resume() const {
        if (h.promise().exception) {
          std::rethrow_exception(h.promise().exception);
        }
        return std::move(*h.promise().value);
      }
    };
    return Awaiter{handle_};
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
class Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() const noexcept {}
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }
  [[nodiscard]] bool done() const noexcept { return handle_ && handle_.done(); }
  [[nodiscard]] std::coroutine_handle<> handle() const noexcept {
    return handle_;
  }

  void rethrow_if_exception() const {
    if (handle_ && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

  auto operator co_await() const noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      [[nodiscard]] bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) const noexcept {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() const {
        if (h.promise().exception) {
          std::rethrow_exception(h.promise().exception);
        }
      }
    };
    return Awaiter{handle_};
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace cfc

#endif  // CFC_SCHED_TASK_H
