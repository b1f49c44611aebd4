#pragma once

#include <coroutine>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace eclipse::sim {

/// Allocation-free simulation event, 32 bytes wide.
///
/// The kernel dispatches two kinds of work: resuming a suspended coroutine
/// (the dominant case — Delay, SimEvent, Semaphore all wake processes this
/// way) and invoking a callback (message delivery, test hooks). A
/// `std::function` would heap-allocate for almost every capture list, so
/// Event instead stores one of:
///   * a bare `std::coroutine_handle<>` — one pointer, no allocation,
///   * a small trivially-copyable callable, inline in the event itself,
///   * a heap-allocated holder, only for large or non-trivial callables.
///
/// Layout: 24 bytes of storage plus one function pointer, which doubles as
/// the kind tag. A null pointer means "resume the coroutine handle in the
/// storage" (or, with a null handle, an empty event); `invokeHeap` means the
/// storage holds a heap holder; anything else invokes an inline callable.
///
/// Events are move-only and single-shot: invoke with `operator()`.
class Event {
 public:
  /// Callables at most this large (and trivially copyable/destructible)
  /// are stored inline: a pointer plus a 16-byte message (the putspace
  /// delivery lambda) fits.
  static constexpr std::size_t kInlineBytes = 24;

  Event() noexcept { storage_.coro = nullptr; }

  /// Coroutine fast path: resuming `h` is the event.
  Event(std::coroutine_handle<> h) noexcept { storage_.coro = h.address(); }

  /// Generic callable. Small trivially-copyable callables (the common
  /// lambda capturing a pointer or a few scalars) are stored inline;
  /// anything else falls back to a single heap allocation.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, Event> &&
             !std::is_convertible_v<F, std::coroutine_handle<>> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  Event(F&& fn) {  // NOLINT(bugprone-forwarding-reference-overload)
    using Fn = std::decay_t<F>;
    if constexpr (fitsInline<Fn>()) {
      // An empty callable writes no storage byte, and moving an event that
      // copies never-written storage trips -Wuninitialized: define a word.
      if constexpr (std::is_empty_v<Fn>) storage_.coro = nullptr;
      ::new (static_cast<void*>(storage_.bytes)) Fn(std::forward<F>(fn));
      invoke_ = [](Storage& s) { (*std::launder(reinterpret_cast<Fn*>(s.bytes)))(); };
    } else {
      storage_.heap = new HeapHolder<Fn>(std::forward<F>(fn));
      invoke_ = &invokeHeap;
    }
  }

  Event(Event&& other) noexcept : storage_(other.storage_), invoke_(other.invoke_) {
    other.release();
  }

  Event& operator=(Event&& other) noexcept {
    if (this != &other) {
      reset();
      storage_ = other.storage_;
      invoke_ = other.invoke_;
      other.release();
    }
    return *this;
  }

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  ~Event() { reset(); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr || storage_.coro != nullptr;
  }

  /// True when invoking resumes a coroutine (no indirect call needed).
  [[nodiscard]] bool isCoroutine() const noexcept {
    return invoke_ == nullptr && storage_.coro != nullptr;
  }

  void operator()() {
    if (invoke_ != nullptr) {
      invoke_(storage_);
    } else if (storage_.coro != nullptr) {
      std::coroutine_handle<>::from_address(storage_.coro).resume();
    }
  }

 private:
  struct HeapHolderBase {
    virtual void invoke() = 0;
    virtual ~HeapHolderBase() = default;
  };
  template <typename Fn>
  struct HeapHolder final : HeapHolderBase {
    explicit HeapHolder(Fn f) : fn(std::move(f)) {}
    void invoke() override { fn(); }
    Fn fn;
  };

  union Storage {
    void* coro;
    HeapHolderBase* heap;
    alignas(void*) unsigned char bytes[kInlineBytes];
  };

  template <typename Fn>
  static constexpr bool fitsInline() {
    // Moving an event copies its storage bytes and destroying one never
    // runs the callable's destructor, so the inline path is restricted to
    // trivially copyable/destructible types.
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(Storage) &&
           std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;
  }

  static void invokeHeap(Storage& s) { s.heap->invoke(); }

  /// Leaves the event empty without destroying what it held (ownership
  /// has moved elsewhere).
  void release() noexcept {
    storage_.coro = nullptr;
    invoke_ = nullptr;
  }

  void reset() noexcept {
    if (invoke_ == &invokeHeap) delete storage_.heap;
    release();
  }

  Storage storage_;
  void (*invoke_)(Storage&) = nullptr;  // null: coroutine handle (or empty)
};

static_assert(sizeof(Event) == 32, "Event is two per cache line");

}  // namespace eclipse::sim
