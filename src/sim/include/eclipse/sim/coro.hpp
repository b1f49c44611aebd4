#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <string>
#include <utility>

namespace eclipse::sim {

class Simulator;

namespace detail {

/// Thread-local recycling of coroutine frames (DESIGN §6).
///
/// Every nested Task allocates a frame and frees it when the awaiting
/// expression completes, millions of times per simulated run. Frames up to
/// kMaxBytes are served from per-thread free lists in kGranule-byte size
/// classes; each cached block is one `::operator new` allocation, so a frame
/// freed on another thread simply joins *that* thread's list. A thread's
/// lists are released at thread exit, after which frees on that thread go
/// straight to `::operator delete`. Under AddressSanitizer the pool is
/// compiled out so use-after-free on frames stays detectable; no other build
/// setting turns it off.
namespace frame_pool {

#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kEnabled = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif
#else
inline constexpr bool kEnabled = true;
#endif
inline constexpr std::size_t kGranule = 64;
inline constexpr std::size_t kClasses = 64;
inline constexpr std::size_t kMaxBytes = kGranule * kClasses;  // larger: plain new

struct FreeBlock {
  FreeBlock* next;
};

enum class State : unsigned char { kUnregistered, kLive, kRetired };

struct ThreadLists {
  FreeBlock* head[kClasses];
  State state;
};

// Constant-initialized and trivially destructible, so the fast paths read it
// without a TLS init guard. The exit-time release lives in frame_pool.cpp.
inline constinit thread_local ThreadLists tls_lists{};

/// Out-of-line slow path of deallocate(): registers the thread's exit-time
/// release on the thread's first free and caches the block; once the pool is
/// retired, returns the block to the allocator.
void deallocateSlow(void* p, std::size_t cls) noexcept;

[[nodiscard]] inline std::size_t classOf(std::size_t n) { return (n - 1) / kGranule; }
[[nodiscard]] inline std::size_t blockBytes(std::size_t cls) { return (cls + 1) * kGranule; }

[[nodiscard]] inline void* allocate(std::size_t n) {
  if (!kEnabled || n > kMaxBytes) return ::operator new(n);
  const std::size_t c = classOf(n);
  ThreadLists& t = tls_lists;
  if (FreeBlock* b = t.head[c]) {
    t.head[c] = b->next;
    return b;
  }
  return ::operator new(blockBytes(c));
}

inline void deallocate(void* p, std::size_t n) noexcept {
  if (!kEnabled || n > kMaxBytes) {
    ::operator delete(p, n);
    return;
  }
  const std::size_t c = classOf(n);
  ThreadLists& t = tls_lists;
  if (t.state == State::kLive) {
    auto* b = static_cast<FreeBlock*>(p);
    b->next = t.head[c];
    t.head[c] = b;
    return;
  }
  deallocateSlow(p, c);
}

}  // namespace frame_pool

/// State shared by all Task promises, independent of the result type.
///
/// `continuation` is the coroutine awaiting this task (symmetric transfer on
/// completion). For a *root* process spawned directly on the simulator there
/// is no continuation; instead `root_sim` is set and the simulator is
/// notified on completion so that unhandled exceptions surface from run().
struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  Simulator* root_sim = nullptr;

  // Coroutine frames come from the thread-local frame pool.
  static void* operator new(std::size_t n) { return frame_pool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    frame_pool::deallocate(p, n);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

void notifyRootDone(Simulator& sim, std::exception_ptr exception);

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }

  template <typename Promise>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
    PromiseBase& p = h.promise();
    if (p.continuation) return p.continuation;
    if (p.root_sim != nullptr) notifyRootDone(*p.root_sim, p.exception);
    return std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

}  // namespace detail

/// Lazily-started coroutine task integrated with the simulation kernel.
///
/// A Task<T> models a thread of control in the simulated hardware: a
/// coprocessor program, a shell primitive handler, a bus transaction. Tasks
/// compose by `co_await`ing each other; simulated time passes only through
/// awaitables that go via the Simulator (Delay, SimEvent), so a
/// chain of nested tasks with no delays completes in zero simulated cycles.
///
/// Ownership: the Task object owns the coroutine frame and destroys it when
/// the Task goes out of scope. When used as `co_await child()`, the
/// temporary Task lives until the awaiting full-expression resumes, which is
/// exactly the child's lifetime.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    detail::FinalAwaiter final_suspend() noexcept { return {}; }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] handle_type handle() const { return h_; }
  [[nodiscard]] bool done() const { return !h_ || h_.done(); }

  /// Releases ownership of the coroutine frame to the caller.
  handle_type release() { return std::exchange(h_, nullptr); }

  // Awaiter protocol: `co_await task` starts the child and resumes the
  // caller when the child completes.
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    h_.promise().continuation = cont;
    return h_;
  }
  T await_resume() {
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
    return std::move(*h_.promise().value);
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  handle_type h_{};
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    detail::FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
  };

  using handle_type = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(handle_type h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] handle_type handle() const { return h_; }
  [[nodiscard]] bool done() const { return !h_ || h_.done(); }
  handle_type release() { return std::exchange(h_, nullptr); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
    h_.promise().continuation = cont;
    return h_;
  }
  void await_resume() {
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  handle_type h_{};
};

}  // namespace eclipse::sim
