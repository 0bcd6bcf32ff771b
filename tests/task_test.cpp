// Unit tests for the coroutine Task type itself: laziness, value/void
// results, nesting, exception propagation, move semantics, and teardown of
// suspended frames.
#include "sched/task.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <stdexcept>

namespace cfc {
namespace {

/// Minimal manual awaiter: suspends and parks the handle in a slot.
struct Park {
  std::coroutine_handle<>* slot;
  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const noexcept { *slot = h; }
  void await_resume() const noexcept {}
};

Task<int> immediate_value() { co_return 42; }

Task<void> immediate_void() { co_return; }

TEST(Task, IsLazyUntilResumed) {
  bool ran = false;
  auto make = [&]() -> Task<void> {
    ran = true;
    co_return;
  };
  const Task<void> t = make();
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(ran);  // body not started
  t.handle().resume();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(t.done());
}

TEST(Task, ValueResult) {
  const Task<int> t = immediate_value();
  t.handle().resume();
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result(), 42);
}

TEST(Task, VoidCompletes) {
  const Task<void> t = immediate_void();
  t.handle().resume();
  EXPECT_TRUE(t.done());
  EXPECT_NO_THROW(t.rethrow_if_exception());
}

TEST(Task, NestedAwaitPropagatesValue) {
  auto outer = []() -> Task<int> {
    const int a = co_await immediate_value();
    const int b = co_await immediate_value();
    co_return a + b;
  };
  const Task<int> t = outer();
  t.handle().resume();
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result(), 84);
}

TEST(Task, ExceptionPropagatesThroughNesting) {
  auto thrower = []() -> Task<int> {
    throw std::runtime_error("inner boom");
    co_return 0;  // unreachable
  };
  auto outer = [&]() -> Task<int> {
    const int v = co_await thrower();
    co_return v;
  };
  const Task<int> t = outer();
  t.handle().resume();
  ASSERT_TRUE(t.done());
  EXPECT_THROW((void)t.result(), std::runtime_error);
}

TEST(Task, MoveTransfersOwnership) {
  Task<int> a = immediate_value();
  const auto addr = a.handle().address();
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.handle().address(), addr);
  b.handle().resume();
  EXPECT_EQ(b.result(), 42);
}

TEST(Task, MoveAssignDestroysPrevious) {
  Task<int> a = immediate_value();
  Task<int> b = immediate_value();
  b = std::move(a);  // b's original frame must be destroyed (ASan-checked)
  EXPECT_TRUE(b.valid());
  b.handle().resume();
  EXPECT_EQ(b.result(), 42);
}

TEST(Task, SuspendedFrameDestroyedSafely) {
  std::coroutine_handle<> parked;
  bool cleaned = false;
  struct Sentinel {
    bool* flag;
    ~Sentinel() { *flag = true; }
  };
  auto body = [&]() -> Task<void> {
    const Sentinel s{&cleaned};
    co_await Park{&parked};
    co_return;  // never reached
  };
  {
    const Task<void> t = body();
    t.handle().resume();  // suspended at Park
    EXPECT_FALSE(t.done());
    EXPECT_FALSE(cleaned);
  }  // destructor destroys the suspended frame
  EXPECT_TRUE(cleaned);
}

// Symmetric transfer keeps a chain of nested awaits flat only where the
// compiler turns each transfer into a tail call. GCC does so in optimized
// builds without AddressSanitizer or ThreadSanitizer; at -O0 or under a
// sanitizer every resume stays on the stack, so there the test checks only
// that the chain completes.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CFC_TASK_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CFC_TASK_TEST_SANITIZED 1
#endif
#endif
#if defined(__OPTIMIZE__) && !defined(CFC_TASK_TEST_SANITIZED)
constexpr bool kStackFlatnessChecked = true;
#else
constexpr bool kStackFlatnessChecked = false;
#endif

TEST(Task, DeepNestingCompletesWithoutStackGrowth) {
  // 10k-deep chain of immediately-completing awaits. Recursive resumes
  // would take megabytes of stack; with symmetric transfer the depth-0
  // frame sits within a few frames of this one.
  const auto outer =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  std::uintptr_t innermost = 0;
  auto chain = [&innermost](auto&& self, int depth) -> Task<int> {
    if (depth == 0) {
      innermost = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
      co_return 1;
    }
    const int below = co_await self(self, depth - 1);
    co_return below + 1;
  };
  const Task<int> t = chain(chain, 10'000);
  t.handle().resume();
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.result(), 10'001);
  ASSERT_NE(innermost, 0u);
  if (kStackFlatnessChecked) {
    const std::uintptr_t spread =
        outer > innermost ? outer - innermost : innermost - outer;
    EXPECT_LT(spread, 64u * 1024u) << "nested resumes grew the stack";
  }
}

TEST(Task, ManySequentialSuspensions) {
  std::coroutine_handle<> parked;
  auto body = [&]() -> Task<int> {
    int count = 0;
    for (int i = 0; i < 1000; ++i) {
      co_await Park{&parked};
      ++count;
    }
    co_return count;
  };
  const Task<int> t = body();
  t.handle().resume();
  while (!t.done()) {
    parked.resume();
  }
  EXPECT_EQ(t.result(), 1000);
}

}  // namespace
}  // namespace cfc
